#!/usr/bin/env python3
"""Run one ortk benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload algebra-batch --seed 1 --seconds 20 --trace 0

Run it from the root of an ortk checkout; the package is imported from
src/.  With --trace 0 the last line of standard output carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced
run.  Details (raw and normalised samples, trace spans) go to
.bench_out/.  README.md in this directory describes the workloads, the
metrics and the host-speed normalisation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time

from oracle import CheckFailed

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("algebra-batch", "graph-stretch", "cli-queries")
MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90
START_REPEATS = 9
PROBE_WINDOW = 4  # probes on each side of an operation


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_ortk():
    """Import ortk from ROOT/src, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ortk", "__init__.py")):
        raise SystemExit(f"error: {src}/ortk not found; run from an ortk checkout")
    sys.path.insert(0, src)
    import ortk
    if not os.path.abspath(ortk.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: ortk imported from {ortk.__file__}, not {src}")


def normalise(seconds, probes, reference) -> float:
    """seconds rescaled to the host speed at which a probe takes reference."""
    return seconds * reference / statistics.median(probes)


class Tally:
    """Operations attempted and failed, check failures, latency samples."""

    def __init__(self, wl):
        self.attempted = 0
        self.failed = 0
        self.problems = []  # outputs that failed their check
        self.errors = []  # operations that raised
        self.samples = []  # (op index, kind, raw seconds, normalised seconds)
        self.probe, self.reference = wl.probe, wl.probe_ref_s

    def round(self, ops, tracer=None) -> float:
        """One pass over ops, a probe before each; returns the summed
        normalised latency."""
        probes, timed = [], []
        for index, op in enumerate(ops):
            probes.append(self.probe())
            self.attempted += 1
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as e:  # an operation that raises counts as failed
                self.failed += 1
                self.errors.append(f"{op.kind} {op.label}: raised {e!r}")
                continue
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            timed.append((len(probes), index, op.kind, dt))
            try:
                op.check(out)
            except CheckFailed as e:
                self.problems.append(f"{op.kind} {op.label}: {e}")
            except (KeyError, TypeError, ValueError, IndexError) as e:
                self.problems.append(f"{op.kind} {op.label}: malformed output {e!r}")
        probes.append(self.probe())
        busy = 0.0
        for k, index, kind, dt in timed:
            norm = normalise(dt, probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW],
                             self.reference)
            self.samples.append((index, kind, dt, norm))
            busy += norm
        return busy

    def measure(self, ops, seconds, tracer=None) -> list:
        """Whole rounds until seconds have passed and MIN_SAMPLES are in."""
        deadline = time.perf_counter() + seconds
        start = len(self.samples)
        rounds = []
        while True:
            rounds.append(self.round(ops, tracer))
            if time.perf_counter() >= deadline and len(self.samples) - start >= MIN_SAMPLES:
                return rounds


def percentile(values, q) -> float:
    """q-th percentile, linear between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_setup(wl):
    """One set-up, part by part, with probes between the parts."""
    gc.collect()
    state, raw, norm = [], 0.0, 0.0
    probes = lambda: [wl.probe() for _ in range(wl.setup_probes)]
    before = probes()
    for part in wl.setup_parts():
        t0 = time.perf_counter()
        state.append(part())
        dt = time.perf_counter() - t0
        after = probes()
        raw += dt
        norm += normalise(dt, before + after, wl.probe_ref_s)
        before = after
    return state, raw, norm


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, seed, seconds):
    if hasattr(wl, "build"):
        wl.build()
    setups = []
    for _ in range(wl.setup_repeats):
        state = None  # free the previous set-up before timing the next
        state, raw, norm = timed_setup(wl)
        setups.append((raw, norm))
    ops = wl.make_ops(state, random.Random(seed))
    tally = Tally(wl)
    if wl.warmup:
        tally.round(ops)  # fills ortk's memos and the expected values
    warm = len(tally.samples)
    rounds = tally.measure(ops, seconds)
    measured = tally.samples[warm:]
    lat = [norm for _, _, _, norm in measured]
    metrics = {
        "wall_s": (statistics.median(rounds), "s"),
        "setup_s": (statistics.median(n for _, n in setups), "s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000 * percentile(lat, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(wl.name == "cli-queries"), "MB"),
    }
    raw = [dt for _, _, dt, _ in measured]
    by_size = sorted(measured, key=lambda s: s[3])
    detail = {
        "ops": [f"{op.kind} {op.label}" for op in ops],
        "rounds": len(rounds),
        "round_s": rounds,
        "setup_raw_s": [r for r, _ in setups],
        "setup_s": [n for _, n in setups],
        "raw_p50_ms": 1000 * statistics.median(raw),
        "raw_p90_ms": 1000 * percentile(raw, 90),
        "samples": len(lat),
        "tail_kinds": _kinds(by_size[-max(1, len(lat) // 10):]),
        "kinds": _kinds(measured),
        "latencies": measured,
    }
    return tally, metrics, detail


def _kinds(samples) -> dict:
    out = {}
    for _, kind, _, norm in samples:
        out.setdefault(kind, []).append(norm)
    return {k: {"n": len(v), "median_ms": 1000 * statistics.median(v)}
            for k, v in sorted(out.items())}


def traced(wl, seed, seconds, trace_path):
    """Untraced rounds, then the same set-up and rounds under the tracer.

    cli-queries replays its argv in-process for both halves.  The
    per-layer figures cover one traced set-up plus one measured round
    (the mean over the traced rounds)."""
    import tracing as T
    import workloads as W

    child = W.ChildRunner(ROOT)
    child.warm([W.NO_WORK])
    starts = []
    for _ in range(START_REPEATS):
        t0 = time.perf_counter()
        child(W.NO_WORK)
        starts.append(time.perf_counter() - t0)
    if wl.name == "cli-queries":
        wl.replay_in_process()
    tally = Tally(wl)
    state = W.setup(wl)
    ops = wl.make_ops(state, random.Random(seed))
    if wl.warmup:
        tally.round(ops)
    plain = tally.measure(ops, seconds / 2)

    state = ops = None
    gc.collect()
    tracer = T.Tracer()
    tracer.install()
    try:
        tracer.active = True
        state = W.setup(wl)
        tracer.active = False
        after_setup = tracer.snapshot()
        ops = wl.make_ops(state, random.Random(seed))
        if wl.warmup:
            tally.round(ops)  # untraced, as in the plain half
        before = tracer.snapshot()
        rounds = tally.measure(ops, seconds / 2, tracer)
        after = tracer.snapshot()
    finally:
        tracer.active = False
        tracer.uninstall()
    data = T.combine(after_setup, T.delta(after, before, 1.0 / len(rounds)))
    metrics = T.layer_metrics(data)
    metrics["cli.start_s"] = (statistics.median(starts), "s")
    overhead = statistics.median(rounds) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    detail = {"untraced_round_s": plain, "traced_round_s": rounds,
              "overhead_share": overhead / statistics.median(plain),
              "spans_dropped": tracer.dropped}
    tracer.write(trace_path, {"workload": wl.name, "seed": seed, **detail})
    return tally, metrics, detail


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the probe and
    the work it normalises run on the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    import_ortk()
    pin_to_one_cpu()
    import workloads as W

    wl = W.workload(args.workload, ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tally, metrics, detail = traced(wl, args.seed, args.seconds, stem + ".trace.json")
    else:
        tally, metrics, detail = end_to_end(wl, args.seed, args.seconds)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "problems": tally.problems, "errors": tally.errors,
                   "detail": detail}, fh, indent=1)
    for line in (tally.problems + tally.errors)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
