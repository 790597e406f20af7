"""Spans and counters around ortk's public functions, for the traced run.

Tracer.install replaces every public function of the layer modules with
a wrapper, in the defining module and in every ortk module (and the
package) that bound it by name, so calls between layers are seen too.
Each call becomes a span (name, start, end, parent); the per-name
aggregates (calls, inclusive time, self time) are kept exactly, the raw
spans up to a cap.  Counters read work done off the arguments and
results of a few functions.  Nothing is recorded while the tracer is
paused, and the time the counters themselves take is taken out of
every open span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref

from oracle import add, vec

LAYERS = ("numerics", "rootsys", "characters", "atypicality", "adjusted",
          "ecgraph", "orgraph", "quiver", "verify", "cli")

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []  # open frames: [name, child ns, span index, counter ns]
        self.depth = {}  # name -> open frames of that name
        self.agg = {}  # name -> [calls, inclusive ns, self ns]
        self.counts = {}
        self.spans = []  # [name, start ns, end ns, parent index]
        self.dropped = 0
        self._originals = {}  # (module, attribute) -> function
        self._seen_systems = weakref.WeakSet()
        self._distinct_cache = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ortk.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "ortk" and not modname.startswith("ortk."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._originals[(mod, attr)] = val
                    setattr(mod, attr, wrapped[val])

    def uninstall(self) -> None:
        for (mod, attr), fn in self._originals.items():
            setattr(mod, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][2] if stack else -1
            if len(tracer.spans) < SPAN_CAP:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [name, 0, idx, 0]
            stack.append(frame)
            tracer.depth[name] = tracer.depth.get(name, 0) + 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.depth[name] -= 1
                tracer._close(frame, start, end, parent)
            if counter is not None:
                c0 = clock()
                counter(tracer, args, out)
                spent = clock() - c0
                for open_frame in stack:
                    open_frame[3] += spent
            return out

        return traced

    def _close(self, frame, start, end, parent):
        name, child_ns, idx, counter_ns = frame
        dur = end - start - counter_ns
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0, 0]
        entry[0] += 1
        if self.depth[name] == 0:
            entry[1] += dur  # recursive re-entry adds no inclusive time
        entry[2] += dur - child_ns
        if self.stack:
            self.stack[-1][1] += dur
        if idx >= 0:
            self.spans[idx] = [name, start, end, parent]

    def count(self, key, k) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    # -- read-out -------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"agg": {k: list(v) for k, v in self.agg.items()},
                "counts": dict(self.counts)}

    def write(self, path, extra: dict) -> None:
        data = dict(extra)
        data["aggregates"] = {k: {"calls": v[0], "s": v[1] / 1e9, "self_s": v[2] / 1e9}
                              for k, v in sorted(self.agg.items())}
        data["counts"] = self.counts
        data["spans_dropped"] = self.dropped
        data["spans"] = [s for s in self.spans if s is not None]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def delta(after: dict, before: dict, scale: float) -> dict:
    """(after - before) * scale, per aggregate and counter."""
    agg = {}
    for k, v in after["agg"].items():
        b = before["agg"].get(k, [0, 0, 0])
        agg[k] = [(x - y) * scale for x, y in zip(v, b)]
    counts = {k: (v - before["counts"].get(k, 0)) * scale
              for k, v in after["counts"].items()}
    return {"agg": agg, "counts": counts}


def combine(a: dict, b: dict) -> dict:
    agg = {k: list(v) for k, v in a["agg"].items()}
    for k, v in b["agg"].items():
        agg[k] = [x + y for x, y in zip(agg.get(k, [0, 0, 0]), v)]
    counts = dict(a["counts"])
    for k, v in b["counts"].items():
        counts[k] = counts.get(k, 0) + v
    return {"agg": agg, "counts": counts}


# -- counters -------------------------------------------------------------------


def _borels(tracer, args, out):
    rs = args[0]
    if rs not in tracer._seen_systems:  # later calls hit ortk's cache
        tracer._seen_systems.add(rs)
        tracer.count("rootsys.borels", len(out[0]))


def _numerator_terms(tracer, args, out):
    tracer.count("characters.numerator_terms", len(out.terms))


def _multiplicity(tracer, args, out):
    q = args[1]
    tracer.count("characters.multiplicity_subsets", 2 ** len(q.free_odd))
    key = q.free_odd  # the distinct subset sums depend on the roots alone
    distinct = tracer._distinct_cache.get(key)
    if distinct is None:
        sums = {tuple(0 for _ in q.base.coords)}
        for r in q.free_odd:
            v = vec(r)
            sums |= {add(s, v) for s in sums}
        distinct = tracer._distinct_cache[key] = len(sums)
    tracer.count("characters.multiplicity_distinct", distinct)


def _collections(tracer, args, out):
    tracer.count("adjusted.collections", len(out))


def _walks(tracer, args, out):
    tracer.count("ecgraph.walks_enumerated", out.n_shortest_walks + out.n_rainbow_walks)


def _configurations(tracer, args, out):
    tracer.count("ecgraph.extension_configurations", out.n_configurations)


_COUNTERS = {
    "rootsys.enumerate_borels": _borels,
    "characters.verma_character": _numerator_terms,
    "characters.weight_multiplicity": _multiplicity,
    "adjusted.hypercubic_collections": _collections,
    "ecgraph.verify_exchange": _walks,
    "ecgraph.verify_rainbow_extension": _configurations,
}


def layer_metrics(data: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from aggregated trace data."""
    agg, counts = data["agg"], data["counts"]

    def calls(name):
        return agg.get(name, [0, 0, 0])[0]

    def incl(name):
        return agg.get(name, [0, 0, 0])[1] / 1e9

    def self_s(name):
        return agg.get(name, [0, 0, 0])[2] / 1e9

    subsets = counts.get("characters.multiplicity_subsets", 0)
    distinct = counts.get("characters.multiplicity_distinct", 0)
    out = {
        "numerics.expand_in_basis.calls": (calls("numerics.expand_in_basis"), "count"),
        "numerics.expand_in_basis.self_s": (self_s("numerics.expand_in_basis"), "s"),
        "rootsys.build_root_system.s": (incl("rootsys.build_root_system"), "s"),
        "rootsys.enumerate_borels.s": (incl("rootsys.enumerate_borels"), "s"),
        "rootsys.borels": (counts.get("rootsys.borels", 0), "count"),
        "rootsys.weyl_vector.s": (incl("rootsys.weyl_vector"), "s"),
        "characters.verma_character.s": (incl("characters.verma_character"), "s"),
        "characters.numerator_terms": (counts.get("characters.numerator_terms", 0), "count"),
        "characters.weight_multiplicity.s": (incl("characters.weight_multiplicity"), "s"),
        "characters.multiplicity_subsets": (subsets, "count"),
        "characters.multiplicity_distinct": (distinct, "count"),
        "characters.subset_merge_ratio": (distinct / subsets if subsets else 0.0, "ratio"),
        "characters.kostant_partitions.calls": (calls("characters.kostant_partitions"), "count"),
        "characters.kostant_partitions.self_s": (self_s("characters.kostant_partitions"), "s"),
        "characters.cone_membership.calls": (calls("characters.cone_membership"), "count"),
        "characters.cone_membership.s": (incl("characters.cone_membership"), "s"),
        "atypicality.s1_classify.s": (incl("atypicality.s1_classify"), "s"),
        "atypicality.is_typical.s": (incl("atypicality.is_typical"), "s"),
        "adjusted.hypercubic_collections.s": (incl("adjusted.hypercubic_collections"), "s"),
        "adjusted.brick_decomposition_check.s": (incl("adjusted.brick_decomposition_check"), "s"),
        "adjusted.collections": (counts.get("adjusted.collections", 0), "count"),
        "ecgraph.verify_exchange.s": (incl("ecgraph.verify_exchange"), "s"),
        "ecgraph.walks_enumerated": (counts.get("ecgraph.walks_enumerated", 0), "count"),
        "ecgraph.verify_rainbow_extension.s": (incl("ecgraph.verify_rainbow_extension"), "s"),
        "ecgraph.extension_configurations": (counts.get("ecgraph.extension_configurations", 0), "count"),
        "ecgraph.colored_isomorphic.s": (incl("ecgraph.colored_isomorphic"), "s"),
        "orgraph.build_or_graph.s": (incl("orgraph.build_or_graph"), "s"),
        "orgraph.build_or_lambda.s": (incl("orgraph.build_or_lambda"), "s"),
        "orgraph.walk_hom_oracle.calls": (calls("orgraph.walk_hom_oracle"), "count"),
        "orgraph.walk_hom_oracle.s": (incl("orgraph.walk_hom_oracle"), "s"),
        "quiver.path_normal_forms.s": (incl("quiver.path_normal_forms"), "s"),
        "cli.run_command.self_s": (self_s("cli.run_command"), "s"),
    }
    return out
