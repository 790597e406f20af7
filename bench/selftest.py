#!/usr/bin/env python3
"""Self-test of the benchmark's output checks, at a tiny size.

    python3 bench/selftest.py

Runs every operation kind of every workload once on small families,
shows that its check accepts ortk's real output, then plants a wrong
answer (a multiplicity off by one, a flipped verdict, a wrong vertex
count, ...) and shows that the check rejects it.  Exits 1 if any check
rejects a real output or accepts a planted one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
from fractions import Fraction

import run
from oracle import CheckFailed, Family

run.import_ortk()
import ortk  # noqa: E402  (imported from src/ by run.import_ortk)
import workloads as W  # noqa: E402

TINY_ALGEBRA = ((("gl", 2, 1, None), 1), (("ospD", 1, 2, None), 1),
                (("d21alpha", None, None, Fraction(2, 3)), 1))
TINY_CLI = (("character", (W.GL(2, 1), True)), ("multiplicity", W.GL(2, 1)), ("typical", W.D21A),
            ("s1", W.GL(2, 1)), ("quotient", W.GL(2, 2)), ("walk", W.GL(2, 2)),
            ("hypercubic", W.GL11(2)), ("quiver", "zigzag_window"), ("or-graph", W.GL(2, 2)),
            ("verify", ("iso", "ospB")))
TINY_GRAPH = ((("gl", 2, 2, None), ("young", 2, 2), 2), (("gl11n", None, 3, None), ("hypercube", 3), 2),
              (("ospD", 1, 2, None), None, 2))


def plant_algebra(kind, out):
    if kind in ("mult_one", "mult_series"):
        return out + 1, "multiplicity off by one"
    if kind == "numerators":
        last = out[-1]
        w, c = next(iter(last.terms.items()))
        return out[:-1] + [ortk.NumeratorCharacter({**last.terms, w: c + 1})], \
            "one numerator coefficient off by one"
    if kind == "typical":
        return (not out[0], out[1]), "typicality flipped"
    if kind == "s1":
        cls, trivial = out
        r = next(iter(cls.certified_out))
        return (dataclasses.replace(cls, certified_in=cls.certified_in | {r},
                                    certified_out=cls.certified_out - {r}), trivial), \
            "a root moved from certified_out to certified_in"
    if kind == "brick":
        return (out[0][:-1], out[1]), "one hypercubic collection missing"
    raise KeyError(kind)


def plant_graph(kind, out):
    if kind == "exchange":
        return dataclasses.replace(out, n_shortest_walks=out.n_shortest_walks + 1), \
            "geodesic count off by one"
    if kind == "extension":
        return dataclasses.replace(out, violations=(("planted", None),)), \
            "a rainbow-extension violation"
    if kind == "iso":
        vmap = dict(out.vertex_bijection)
        a, b = list(vmap)[:2]
        vmap[a], vmap[b] = vmap[b], vmap[a]
        return ortk.ecgraph.IsoWitness(vmap, out.color_bijection), \
            "two vertex images swapped"
    if kind == "quotient":
        q, ex, ext = out
        first = q.graph.vertices[0]
        merged = {v: first for v in q.vertex_map}
        return (dataclasses.replace(q, vertex_map=merged), ex, ext), \
            "every vertex mapped to one class"
    if kind == "walk":
        return ortk.WalkHomVerdict(not out.nonzero, out.monomial), "walk verdict flipped"
    raise KeyError(kind)


def plant_cli(kind, out):
    code, text = out
    if kind == "verify":
        lines = text.strip().splitlines()
        return (code, "\n".join(lines[:-1] + ["overall fail (1 checks, 1 failed)"])), \
            "verify reports a failure"
    data = json.loads(text)
    if kind == "character":
        data[0]["coeff"] += 1
        desc = "one coefficient off by one"
    elif kind == "multiplicity":
        data["multiplicity"] += 1
        desc = "multiplicity off by one"
    elif kind == "typical":
        data["typical"] = not data["typical"]
        desc = "typicality flipped"
    elif kind == "s1":
        data["certified_in"].append(data["certified_out"].pop())
        desc = "a root moved from certified_out to certified_in"
    elif kind in ("quotient", "or-graph"):
        gone = data["vertices"].pop()
        data["edges"] = [e for e in data["edges"] if gone not in (e["u"], e["v"])]
        desc = "one vertex missing"
    elif kind == "walk":
        data["verdict"] = "Zero" if data["verdict"] == "Nonzero" else "Nonzero"
        desc = "walk verdict flipped"
    elif kind == "hypercubic":
        data["collections"][-1]["brick_identity"] = False
        desc = "a brick identity reported false"
    elif kind == "quiver":
        data["dimensions"][0][0] += 1
        desc = "one Hom dimension off by one"
    else:
        raise KeyError(kind)
    return (code, json.dumps(data)), desc


def exercise(name, wl, plant, seen) -> bool:
    ok = True
    state = W.setup(wl)
    for op in wl.make_ops(state, random.Random(0)):
        if op.kind in seen:
            continue
        seen.add(op.kind)
        out = op.run()
        try:
            op.check(out)
        except CheckFailed as e:
            print(f"FAIL   {name} {op.kind}: real output rejected: {e}")
            ok = False
            continue
        wrong, desc = plant(op.kind, out)
        try:
            op.check(wrong)
        except CheckFailed as e:
            print(f"ok     {name} {op.kind}: accepts ortk's output; "
                  f"rejects planted {desc}: {e}")
        else:
            print(f"FAIL   {name} {op.kind}: accepted planted {desc}")
            ok = False
    return ok


def main() -> int:
    ok = exercise("algebra-batch", W.AlgebraBatch(TINY_ALGEBRA), plant_algebra, set())
    ok &= exercise("graph-stretch", W.GraphStretch(TINY_GRAPH), plant_graph, set())
    cli = W.CliQueries(run.ROOT, slots=TINY_CLI)
    cli.build()
    ok &= exercise("cli-queries", cli, plant_cli, set())
    planted_exit = cli.make_ops(None, random.Random(0))[0]
    try:
        planted_exit.check((2, ""))
    except CheckFailed as e:
        print(f"ok     cli-queries exit code: rejects planted exit code 2: {e}")
    else:
        print("FAIL   cli-queries exit code: accepted exit code 2")
        ok = False

    s = W.System(("ospD", 2, 2, None))
    s.borels = s.borels[:-1]
    try:
        W.check_system(s, Family("ospD", 2, 2))
    except CheckFailed as e:
        print(f"ok     set-up: rejects planted Borel enumeration missing one Borel: {e}")
    else:
        print("FAIL   set-up: accepted a Borel enumeration missing one Borel")
        ok = False
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
