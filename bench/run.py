"""Benchmark for monocover: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory. Set-up (importing the package and building and
serialising the workload's inputs) is repeated through the run and its
median reported as ``setup_s``. Whole rounds of the workload run until S
seconds have been spent in them, every output is checked by ``checker.py``
outside the timed sections, and the last line of standard output is one
JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 1`` the
metrics are the per-layer ones, from spans recorded around calls into each
module; the spans are written to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_POINTS = 6


def load_package():
    """Import monocover afresh from the checkout, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "monocover" or m.startswith("monocover.")]:
        del sys.modules[name]
    return importlib.import_module("monocover")


def end_to_end(tally, setups: list[float]) -> dict[str, tuple[float, str]]:
    latencies = list(tally.best.values())
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p99_ms": (cuts[98] * 1e3, "ms"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "monocover" / "__init__.py").is_file():
        print(f"error: no monocover package under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = workloads.WORKLOADS[args.workload]

    def setup():
        t0 = time.perf_counter()
        mc = load_package()
        wl = cls(args.seed)
        wl.build(mc)
        setups.append(time.perf_counter() - t0)
        return mc, wl

    # The first set-up provides the workload; the others are spread over the
    # run in SETUP_POINTS bursts, so that their median sees the same machine
    # as the timed rounds do.
    setups: list[float] = []
    mc, wl = setup()
    if Path(mc.__file__).resolve().parent != SRC / "monocover":
        print(f"error: imported monocover from {mc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
    tally = workloads.Tally()
    elapsed = 0.0
    rounds = points = 0
    while True:
        while points < SETUP_POINTS and elapsed >= points * args.seconds / SETUP_POINTS:
            for _ in range(cls.setup_burst):
                setup()
            points += 1
        if rounds and elapsed >= args.seconds:
            break
        t0 = time.perf_counter()
        wl.run_round(mc, tally)
        elapsed += time.perf_counter() - t0
        rounds += 1
    while points < SETUP_POINTS:
        for _ in range(cls.setup_burst):
            setup()
        points += 1
    metrics = end_to_end(tally, setups)

    errors = wl.check()
    if tr is not None:
        metrics = tracer.layer_metrics(tr, tally.ops_per_s(), tally.covers)
        tr.write(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.spans")

    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                      "measured_s": round(elapsed, 3), "latency_samples": len(tally.best),
                      "make_up": wl.describe()}), file=sys.stderr)
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
