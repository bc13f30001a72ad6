"""Steadiness check: run the benchmark repeatedly and report the spread.

    python3 bench/steady.py [--workloads W1,W2] [--runs 10] [--seed0 1]
                            [--traced K] [--against FILE]

For each workload, runs ``bench/run.py`` once per seed (seed0, seed0+1, ...)
with the run length of BENCHMARK.json, one run at a time, and prints for each
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``),
the spread (Q3 - Q1) / median and the metric's bound. ``--traced K`` adds K
traced runs per workload and prints the tracing overhead as the change in
ops_per_s. ``--against FILE`` compares the medians with an earlier summary and
prints how much worse each is, as a share of the earlier median. The summary
is also written to ``.bench_out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}

    summary = {"seeds": list(range(args.seed0, args.seed0 + args.runs)), "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, spec["run_seconds"], 0) for s in summary["seeds"]]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, seeds {summary['seeds'][0]}..{summary['seeds'][-1]}, "
              f"failed share {shares}, all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
              + ("  vs earlier" if earlier else ""))
        rows = {}
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
            line = (f"  {name:<16} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                    f"{rows[name]['spread']:>7.3f} {m['bound']:>6.2f}")
            if workload in earlier:
                worse = worse_by(earlier[workload]["metrics"][name]["median"], med, m["better"])
                line += f"  {worse:+.3f} {'ok' if worse <= m['bound'] else 'WORSE'}"
            print(line)
        entry = {"metrics": rows, "correct": all(r["correct"] for r in results), "failed_shares": shares}
        if args.traced:
            traced = [run_once(workload, s, spec["run_seconds"], 1)["metrics"]["trace.ops_per_s"]["value"]
                      for s in summary["seeds"][: args.traced]]
            plain = statistics.median(rows["ops_per_s"]["values"][: args.traced])
            entry["traced_ops_per_s"] = traced
            overhead = 1 - statistics.median(traced) / plain
            print(f"  tracing overhead: ops_per_s {statistics.median(traced):.4f} traced vs "
                  f"{plain:.4f} untraced on the same seeds ({overhead:+.1%})")
        summary["workloads"][workload] = entry
    out = ROOT / ".bench_out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"\nsummary written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
