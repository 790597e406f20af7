"""Command line front end.

Exit codes: 0 on success, 1 when a verify run reports failures or when
the reader closes stdout before the output is written, 2 on usage or
parse errors, including a weight whose a-part leaves the degree-1 space
or a report file that cannot be opened.  JSON output is emitted with
sorted keys so that identical inputs produce byte-identical exports.
Each command imports only the layers it runs and builds only its own
subparser, so start-up does not pay for the rest; ``--help``, an unknown
command and an empty command line build the full parser.  fractions
loads only for ``--alpha`` and Scalar I/O, since weights are parsed
straight to integers and quiver reduction counts classes of words.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

__all__ = ["main", "run_command"]

_FAMILY_FLAG = ("gl", "gl11n", "ospB", "ospD", "d21")


class UsageError(ValueError):
    """Bad command line input; reported on stderr with exit code 2."""


def _internal_family(flag: str) -> str:
    return "d21alpha" if flag == "d21" else flag


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2)


def _build_system(args):
    from .numerics import parse_rational
    from .rootsys import build_root_system

    family = _internal_family(args.family)
    alpha = None
    if getattr(args, "alpha", None) is not None:
        if family != "d21alpha":
            raise UsageError("--alpha only applies to --family d21")
        try:
            alpha = parse_rational(args.alpha)
        except ValueError:
            raise UsageError(f"--alpha must be a rational like 2/3, got {args.alpha!r}")
    if family == "d21alpha":
        if args.m is not None or args.n is not None:
            raise UsageError("--family d21 takes no --m or --n")
    elif family == "gl11n":
        if args.n is None:
            raise UsageError("--family gl11n needs --n")
        if args.m is not None:
            raise UsageError("--family gl11n takes no --m")
    else:
        if args.m is None or args.n is None:
            raise UsageError(f"--family {args.family} needs --m and --n")
    return build_root_system(family, args.m, args.n, alpha)


def _resolve_borel(rs, og, borels, text):
    """The rank of the Borel addressed by text: a graph vertex label,
    '#<rank>' in decimal, or a comma list of odd positive root names; 0,
    the standard Borel, when text is None.  Vertex k of og.graph is
    borels[k]."""
    if text is None:
        return 0
    if text in og.graph._vindex:
        return og.graph._vindex[text]
    if text.startswith("#"):
        try:
            k = int(text[1:])
        except ValueError:
            k = None
        # int() also reads other digits, a sign, spaces and leading zeros
        if k is None or str(k) != text[1:]:
            raise UsageError(f"bad Borel rank {text!r}")
        if not 0 <= k < len(borels):
            raise UsageError(f"Borel rank out of range: {text} (have {len(borels)})")
        return k
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise UsageError("empty --borel")
    # an unknown name raises ValueError, which run_command reports with exit 2
    roots = {rs.root_by_name(nm) for nm in names}
    for k, b in enumerate(borels):
        if set(b.odd_positive) == roots:
            return k
    raise UsageError(f"no Borel has odd positive set {{{text}}}")


def _borel_arg(rs, text):
    """The Borel named by --borel; the standard Borel (borels[0]) when it
    is omitted, without building the graph or enumerating Borels."""
    from .rootsys import enumerate_borels, standard_borel

    if text is None:
        return standard_borel(rs)
    from .orgraph import build_or_graph

    og = build_or_graph(rs)
    borels, _ = enumerate_borels(rs)
    return borels[_resolve_borel(rs, og, borels, text)]


def _parse_lambda(rs, text, flag="--lambda"):
    """The weight given by flag (--lambda or --mu); a UsageError names the
    flag."""
    from .numerics import parse_weight

    try:
        return parse_weight(text, rs.rank)
    except ValueError as e:
        raise UsageError(f"bad {flag} {text!r}: {e}")


def _emit_graph(graph, out, name, print_fn):
    from .ecgraph import graph_to_dot, graph_to_json

    if out == "dot":
        print_fn(graph_to_dot(graph, name=name))
    elif out == "json":
        print_fn(_dump(graph_to_json(graph)))
    else:
        print_fn(f"vertices ({len(graph.vertices)}): "
                 + " ".join(str(v) for v in graph.vertices))
        print_fn(f"colors ({len(graph.colors)}): "
                 + " ".join(str(c) for c in graph.colors))
        for u, v, c in graph.edges:
            print_fn(f"{u} -- {v}  [{c}]")


def _cmd_or_graph(args, print_fn) -> int:
    from .orgraph import build_or_graph

    rs = _build_system(args)
    og = build_or_graph(rs)
    _emit_graph(og.graph, args.out, "OR", print_fn)
    return 0


def _cmd_quotient(args, print_fn) -> int:
    from .orgraph import build_or_graph, build_or_lambda

    rs = _build_system(args)
    og = build_or_graph(rs)
    lam = _parse_lambda(rs, args.lam)
    quotient = build_or_lambda(rs, og, lam)
    _emit_graph(quotient.graph, args.out, "ORlambda", print_fn)
    if args.out == "text":
        for src in og.graph.vertices:
            print_fn(f"class {src} -> {quotient.vertex_map[src]}")
    return 0


def _open_report(path):
    """The --report file, opened before the suite runs so that a path
    that cannot be written costs no run; a null context when omitted."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot write the report: {e}")


def _cmd_verify(args, print_fn) -> int:
    from .verify import run_suite

    family = _internal_family(args.family) if args.family else None
    with _open_report(args.report) as fh:
        report = run_suite(args.mode, family)
        for e in report.entries:
            params = " ".join(f"{k}={v}" for k, v in e.parameters.items() if v is not None)
            print_fn(f"{e.status.upper():7s} {e.check} {params}".rstrip())
        n_fail = sum(e.status == "fail" for e in report.entries)
        print_fn(f"overall {'pass' if report.passed else 'fail'} "
                 f"({len(report.entries)} checks, {n_fail} failed)")
        if fh is not None:
            fh.write(_dump(report.to_json()) + "\n")
    return 0 if report.passed else 1


def _cmd_character(args, print_fn) -> int:
    from .characters import character_to_json, verma_character

    rs = _build_system(args)
    b = _borel_arg(rs, args.borel)
    lam = _parse_lambda(rs, args.lam)
    delta_a = set() if args.induced else set(b.odd_positive)
    c = verma_character(rs, delta_a, lam)
    data = character_to_json(rs, c)
    if args.out == "json":
        print_fn(_dump(data))
    else:
        for item in data:
            print_fn(f"{item['coeff']:+d} e^({item['weight']})")
        print_fn(f"terms: {len(data)}")
    return 0


def _cmd_multiplicity(args, print_fn) -> int:
    from .characters import MultiplicityQuery, weight_multiplicity

    rs = _build_system(args)
    b = _borel_arg(rs, args.borel)
    lam = _parse_lambda(rs, args.lam)
    mu = _parse_lambda(rs, args.mu, "--mu")
    free = frozenset(rs.negate(r) for r in b.odd_positive)
    got = weight_multiplicity(rs, MultiplicityQuery(free, lam, mu))
    if args.out == "json":
        print_fn(_dump({"multiplicity": got}))
    else:
        print_fn(str(got))
    return 0


def _cmd_typical(args, print_fn) -> int:
    from .atypicality import is_typical

    rs = _build_system(args)
    b = _borel_arg(rs, args.borel)
    lam = _parse_lambda(rs, args.lam)
    t = is_typical(rs, b, lam)
    if args.out == "json":
        print_fn(_dump({"typical": t}))
    else:
        print_fn("typical" if t else "atypical")
    return 0


def _cmd_s1(args, print_fn) -> int:
    from .atypicality import s1_classify

    rs = _build_system(args)
    b = _borel_arg(rs, args.borel)
    lam = _parse_lambda(rs, args.lam)
    cls = s1_classify(rs, b, lam)
    names = lambda roots: sorted(rs.root_name(r) for r in roots)
    if args.out == "json":
        print_fn(_dump({
            "certified_in": names(cls.certified_in),
            "certified_out": names(cls.certified_out),
            "unknown": names(cls.unknown),
            "emptiness": cls.emptiness_verdict.value,
        }))
    else:
        print_fn("certified_in: " + (" ".join(names(cls.certified_in)) or "-"))
        print_fn("certified_out: " + (" ".join(names(cls.certified_out)) or "-"))
        print_fn("unknown: " + (" ".join(names(cls.unknown)) or "-"))
        print_fn(f"emptiness: {cls.emptiness_verdict.value}")
    return 0


def _cmd_walk(args, print_fn) -> int:
    from .ecgraph import make_walk
    from .orgraph import build_or_graph, walk_hom_oracle

    rs = _build_system(args)
    og = build_or_graph(rs)
    lam = _parse_lambda(rs, args.lam)
    if not args.path:
        raise UsageError("--path is required")
    verts = [t.strip() for t in args.path.split(",")]
    for v in verts:
        if v not in og.graph._vindex:
            raise UsageError(f"unknown vertex {v!r}; labels: "
                             + " ".join(str(x) for x in og.graph.vertices))
    # a walk that is not in the graph raises InvalidWalk, a ValueError: exit 2
    w = make_walk(og.graph, verts)
    verdict = walk_hom_oracle(rs, og, lam, w)
    if args.out == "json":
        print_fn(_dump({
            "verdict": "Nonzero" if verdict.nonzero else "Zero",
            "monomial": sorted(rs.root_name(r) for r in verdict.monomial),
        }))
    else:
        print_fn("verdict " + ("Nonzero" if verdict.nonzero else "Zero"))
    return 0


def _cmd_hypercubic(args, print_fn) -> int:
    from .adjusted import (
        borel_meet_join,
        brick_decomposition_check,
        hypercubic_collections,
        split_criterion,
    )
    from .numerics import render_weight
    from .orgraph import build_or_graph
    from .rootsys import enumerate_borels

    rs = _build_system(args)
    og = build_or_graph(rs)
    borels, _ = enumerate_borels(rs)
    k = _resolve_borel(rs, og, borels, args.borel)
    b = borels[k]
    lam = _parse_lambda(rs, args.lam)
    splits = {}
    for i in b.isotropic_simple_indices():
        splits[str(i)] = split_criterion(rs, b, lam, i).value
    colls = []
    for coll in hypercubic_collections(rs, b, lam):
        meet, join = borel_meet_join(rs, b, coll)
        colls.append({
            "j": sorted(coll.j),
            "roots": sorted(rs.root_name(r) for r in coll.roots),
            "sigma": render_weight(coll.sigma),
            "meet": sorted(rs.root_name(r) for r in meet),
            "join": sorted(rs.root_name(r) for r in join),
            "brick_identity": brick_decomposition_check(rs, b, lam, coll),
        })
    data = {
        "borel": og.graph.vertices[k],
        "splits": splits,
        "collections": colls,
    }
    if args.out == "json":
        print_fn(_dump(data))
    else:
        print_fn(f"borel {data['borel']}")
        for i, v in sorted(splits.items(), key=lambda kv: int(kv[0])):
            print_fn(f"split at {i}: {v}")
        for c in colls:
            print_fn(f"J={{{','.join(str(j) for j in c['j'])}}} "
                     f"roots={{{','.join(c['roots'])}}} "
                     f"brick_identity={c['brick_identity']}")
    return 0


def _cmd_quiver(args, print_fn) -> int:
    from .quiver import build_quiver, path_normal_forms, render_path

    zigzag = args.preset.strip() == "zigzag_window"
    if args.w is not None and not zigzag:
        raise UsageError("--w only applies to --preset zigzag_window")
    if args.w is None and zigzag:
        raise UsageError("--preset zigzag_window needs --w")
    try:
        q = build_quiver(args.preset, args.w)
        nf = path_normal_forms(q, args.max_len)
    except ValueError as e:
        raise UsageError(str(e))
    dims = [[len(nf[(s, t)]) for t in q.vertices] for s in q.vertices]
    if args.out == "json":
        basis = {
            f"{s}->{t}": [render_path(pc) for pc in nf[(s, t)]]
            for s in q.vertices for t in q.vertices if nf[(s, t)]
        }
        print_fn(_dump({
            "vertices": [str(v) for v in q.vertices],
            "dimensions": dims,
            "total_dimension": sum(map(sum, dims)),
            "basis": basis,
        }))
    else:
        print_fn("vertices: " + " ".join(str(v) for v in q.vertices))
        for s, row in zip(q.vertices, dims):
            print_fn(f"{s}: " + " ".join(str(d) for d in row))
        print_fn(f"total: {sum(map(sum, dims))}")
        for s in q.vertices:
            for t in q.vertices:
                if nf[(s, t)]:
                    words = " ".join(render_path(pc) for pc in nf[(s, t)])
                    print_fn(f"basis {s}->{t}: {words}")
    return 0


def _add_system_flags(p, need_lambda=False, with_borel=False):
    p.add_argument("--family", required=True, choices=_FAMILY_FLAG)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", default=None, metavar="P/Q",
                   help="rational specialization for d21")
    if need_lambda:
        p.add_argument("--lambda", dest="lam", required=True, metavar="C1,C2,...")
    if with_borel:
        p.add_argument("--borel", default=None,
                       help="vertex label, #rank, or comma list of odd root names")


def _add_out_flag(p, choices=("text", "json", "dot"), default="text"):
    p.add_argument("--out", choices=choices, default=default)


def _or_graph_flags(p):
    _add_system_flags(p)
    _add_out_flag(p)


def _quotient_flags(p):
    _add_system_flags(p, need_lambda=True)
    _add_out_flag(p)


def _verify_flags(p):
    p.add_argument("mode", choices=("exchange", "extension", "iso", "all"))
    p.add_argument("--family", choices=_FAMILY_FLAG, default=None)
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the JSON report here")


def _character_flags(p):
    _add_system_flags(p, need_lambda=True, with_borel=True)
    p.add_argument("--induced", action="store_true",
                   help="induce from the even subalgebra (empty odd part)")
    _add_out_flag(p, choices=("text", "json"))


def _multiplicity_flags(p):
    _add_system_flags(p, need_lambda=True, with_borel=True)
    p.add_argument("--mu", required=True, metavar="C1,C2,...")
    _add_out_flag(p, choices=("text", "json"))


def _borel_query_flags(p):
    _add_system_flags(p, need_lambda=True, with_borel=True)
    _add_out_flag(p, choices=("text", "json"))


def _walk_flags(p):
    _add_system_flags(p, need_lambda=True)
    p.add_argument("--path", required=True, metavar="V0,V1,...")
    _add_out_flag(p, choices=("text", "json"))


def _quiver_flags(p):
    p.add_argument("--preset", required=True,
                   help="preprojective_a2, zigzag_window, chain3, or square4")
    p.add_argument("--w", type=int, default=None, help="zigzag window half width")
    p.add_argument("--max-len", type=int, default=4)
    _add_out_flag(p, choices=("text", "json"))


# name -> (help line, flag builder, handler), in the order that --help lists
_COMMANDS = {
    "or-graph": ("odd reflection graph OR(g)", _or_graph_flags, _cmd_or_graph),
    "quotient": ("contracted graph OR(g, lambda)", _quotient_flags, _cmd_quotient),
    "verify": ("run a verification suite", _verify_flags, _cmd_verify),
    "character": ("Verma character numerator", _character_flags, _cmd_character),
    "multiplicity": ("weight multiplicity in a Verma module", _multiplicity_flags,
                     _cmd_multiplicity),
    "typical": ("typicality of a highest weight", _borel_query_flags, _cmd_typical),
    "s1": ("classify pure isotropic roots for S1", _borel_query_flags, _cmd_s1),
    "walk": ("zero test for a composition along a walk", _walk_flags, _cmd_walk),
    "hypercubic": ("hypercubic collections and brick identities", _borel_query_flags,
                   _cmd_hypercubic),
    "quiver": ("Hom dimensions of a preset path algebra quotient", _quiver_flags,
               _cmd_quiver),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ortk parser, with every command's subparser, or with only the
    named command's.  The usage line lists every command either way, so
    usage, help and error text do not depend on which subparsers were
    built."""
    parser = argparse.ArgumentParser(
        prog="ortk",
        description="Borel-subalgebra combinatorics for basic Lie superalgebras",
    )
    # the one-command parser spells out every command in its usage line, as
    # the full parser's default does; the full parser keeps the default,
    # since a metavar also renames the argument ("argument command:") in the
    # invalid-choice and missing-command errors that only it gives
    every = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in _COMMANDS if command is None else (command,):
        help_line, add_flags, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_flags(p)
        p.set_defaults(handler=handler)
    return parser


def run_command(argv, print_fn=print) -> int:
    """Parse and run one command; returns the exit code."""
    # building one command's subparser costs about half of building all ten
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    from .numerics import DegreeOverflow

    try:
        return args.handler(args, print_fn)
    except (ValueError, DegreeOverflow) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> int:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # interpreter exit cannot raise again ("Note on SIGPIPE", Python's
        # signal docs), and say nothing on stderr
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
