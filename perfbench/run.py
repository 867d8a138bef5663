#!/usr/bin/env python3
"""Benchmark for the phl toolkit: one workload per run.

    python3 perfbench/run.py --workload prove-corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The workload runs in a fresh worker process with a fixed string-hash seed,
so that every run does the same work on the same inputs (set iteration
order in the program depends on string hashing), and caches and peak memory
never carry over from another workload.

A run is a sequence of rounds.  Each round times ``import phl.cli`` in a
fresh interpreter, sets up the workload's inputs afresh and runs its fixed
item list once; rounds repeat until ``--seconds`` is used up, at least
three.  Every output is checked, and every round must produce the same
outputs.  The last line of standard output is the result; the line before
it holds details (sample counts, the unknown and failed shares, per-round
times as measured).

With ``--trace 0`` the result holds the end-to-end metrics, medians over
rounds (``wall_s`` adds up each item's median latency).  The detail line
adds per-item latency percentiles, taken over each item's best latency in
the rounds.  With ``--trace 1`` untraced and traced rounds alternate, and
the result holds the per-layer metrics of the traced rounds; the spans of
the last traced round are written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("prove-corpus", "enumerate-models", "definability", "cli")
MIN_ROUNDS = 3
STOP_AFTER_S = 140      # start no round after this, whatever --seconds says
WORKER_TIMEOUT_S = 175

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "phl" / "__init__.py").is_file():
        print(f"error: no phl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             *argv, "--worker"], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: the workload did not finish in time", file=sys.stderr)
        return 3


# ---------------------------------------------------------------------------
# the worker

@dataclass
class Round:
    traced: bool
    import_s: float       # ``import phl.cli`` in a fresh interpreter
    setup_s: float        # the workload's set-up in this process
    wall_s: float
    latencies: list
    decided: int
    failures: list
    digest: str
    duration_s: float
    layer: dict = field(default_factory=dict)


def rounds_plan(trace: bool):
    """Whether each successive round is traced."""
    if trace:
        yield from (False, True, True)
        while True:
            yield from (False, True)
    while True:
        yield False


def run_round(wl, seed: int, tracer) -> tuple[Round, object, object]:
    """Sample the import, set up and run the items once."""
    import tracing
    import workloads
    t0 = perf_counter()
    start_s, import_s = workloads.fresh_interpreter_s()
    with tracing.traced(tracer) if tracer else contextlib.nullcontext():
        t1 = perf_counter()
        state = wl.setup(seed)
        setup_s = perf_counter() - t1
        latencies, outputs = wl.run(state, tracer)
    failures = wl.check(state, outputs)
    layer = {}
    if tracer is not None:
        layer = tracing.layer_metrics(tracing.merge([tracer.summary(),
                                                     *tracer.children]))
        layer["cli.interpreter_start_s"], layer["cli.import_s"] = start_s, import_s
        layer["cli.main_s"] = sum(c["main_s"] for c in tracer.children)
    rnd = Round(tracer is not None, import_s, setup_s,
                sum(latencies), latencies, wl.decided(outputs), failures,
                wl.digest(outputs), perf_counter() - t0, layer)
    return rnd, state, outputs


def percentile_ms(latencies, k: int) -> float:
    """The k-th decile of the latencies, in milliseconds."""
    return statistics.quantiles([x * 1000 for x in latencies], n=10,
                                method="inclusive")[k - 1]


def item_medians_s(rounds: list[Round]) -> float:
    """The time of the item list once, as the sum of each item's median
    latency over the rounds.  A slow stretch of the shared machine slows the
    items it lands on, which differ from round to round; a median per item
    leaves it out even when the rounds are few and long (see DESIGN.md,
    "Noise")."""
    return sum(statistics.median(lat) for lat in zip(*(r.latencies for r in rounds)))


def end_to_end(plain: list[Round], rusage_who: int) -> dict:
    """Medians over the untraced rounds; ``setup_s`` is the median import
    plus the median set-up."""
    med = statistics.median
    wall_s = item_medians_s(plain)
    return {
        "setup_s": med(r.import_s for r in plain) + med(r.setup_s for r in plain),
        "wall_s": wall_s,
        "items_per_s": len(plain[0].latencies) / wall_s,
        "decided_share": med(r.decided / len(r.latencies) for r in plain),
        "peak_rss_mb": resource.getrusage(rusage_who).ru_maxrss / 1024,
    }


def item_latency(plain: list[Round]) -> dict:
    """Percentiles of each item's best latency over the untraced rounds: a
    percentile falls on one or two items, and the shared machine's bursts of
    load would otherwise decide it."""
    best = [min(lat) for lat in zip(*(r.latencies for r in plain))]
    n = len(best)
    return {"unit": "ms", "p50": percentile_ms(best, 5),
            "p90": percentile_ms(best, 9), "items": n,
            "items_beyond_p90": n - 1 - int(0.9 * (n - 1))}


def per_layer(plain: list[Round], traced: list[Round]) -> tuple[dict, list[str]]:
    """Times are medians over the traced rounds; counts must be equal in all
    of them."""
    metrics, failures = {}, []
    for name in traced[0].layer:
        values = [r.layer[name] for r in traced]
        if unit_of(name) in ("s", "1/s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                failures.append(f"per-layer count {name} differs between "
                                f"traced rounds: {values}")
    metrics["trace.overhead_s"] = item_medians_s(traced) - item_medians_s(plain)
    return metrics, failures


def worker(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    workloads.WORK.mkdir(exist_ok=True)
    rounds: list[Round] = []
    start = perf_counter()
    last_tracer = None
    for traced in rounds_plan(bool(args.trace)):
        tracer = tracing.Tracer() if traced else None
        state = outputs = None      # let the last round's objects go first
        rnd, state, outputs = run_round(wl, args.seed, tracer)
        rounds.append(rnd)
        last_tracer = tracer or last_tracer
        elapsed = perf_counter() - start
        next_s = statistics.median(r.duration_s for r in rounds)
        if len(rounds) >= MIN_ROUNDS and (elapsed + next_s > args.seconds
                                          or elapsed > STOP_AFTER_S):
            break

    failures = [msg for r in rounds for msg in r.failures]
    if hasattr(wl, "final_check"):
        failures += wl.final_check(state, outputs)
    failures += [f"round {i}: outputs differ from round 0"
                 for i, r in enumerate(rounds) if r.digest != rounds[0].digest]
    plain = [r for r in rounds if not r.traced]
    traced_rounds = [r for r in rounds if r.traced]
    if args.trace:
        metrics, bad = per_layer(plain, traced_rounds)
        failures += bad
        out_file = workloads.WORK / f"spans-{wl.name}-seed{args.seed}.json"
        out_file.write_text(json.dumps(last_tracer.dump()))
    else:
        metrics = end_to_end(plain, resource.RUSAGE_CHILDREN if wl.name == "cli"
                             else resource.RUSAGE_SELF)

    attempted = sum(len(r.latencies) for r in rounds)
    failed = min(len(failures), attempted)
    per_round = len(rounds[0].latencies)
    detail = {
        "workload": wl.name, "seed": args.seed,
        "rounds": len(plain), "traced_rounds": len(traced_rounds),
        "items_per_round": per_round,
        "unknown_share": 1 - sum(r.decided for r in rounds) / attempted,
        "failed_share": failed / attempted,
        "round_setup_s": [r.import_s + r.setup_s for r in rounds],
        "round_wall_s": [r.wall_s for r in rounds],
    }
    if plain:
        detail["item_latency_ms"] = item_latency(plain)
    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if not failures else 1


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
