"""Repeatability check: run each workload k times and summarise the spread.

    python3 perfbench/repeat.py --runs 10 --seed-start 101
    python3 perfbench/repeat.py --runs 10 --seed-start 201 --baseline perfbench/out/repeat-101.json

Every workload of BENCHMARK.json runs k times, with seeds seed-start,
seed-start + 1, ..., for run_seconds and --trace 0.  For every end-to-end
metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)``, their distance as a share of the
median, and the metric's bound from BENCHMARK.json.  The set passes when
every run is correct with no failed operation and every spread is within
its bound; "steady" means within a third of it.  With --baseline it also
prints how far each median moved against an earlier set, which must stay
within the bound in the worse direction.  The runs are sequential, one
process at a time; results go to perfbench/out/repeat-<seed-start>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:"
                           f"\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-start", type=int, default=101)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    results: dict = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(args.runs):
            seed = args.seed_start + i
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            metrics = runs[-1]["metrics"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in metrics.items()), flush=True)
        results[workload] = runs
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {args.runs} runs, correct in "
              f"{sum(r['correct'] for r in runs)}, failed operations {failed}")
        ok = ok and all(r["correct"] for r in runs) and failed == 0
        print(f"  {'metric':<40} {'median':>11} {'q1':>11} {'q3':>11}"
              f" {'spread':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = m["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict, ok = "TOO WIDE", False
            base = baseline.get(workload)
            if base:
                old = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in base)
                worse = (med - old) / old if m["better"] == "lower" \
                    else (old - med) / old
                verdict += f"; {worse:+.3f} vs baseline"
                if worse > bound:
                    verdict, ok = verdict + " REGRESSED", False
            print(f"  {m['name']:<40} {med:>11.5g} {q1:>11.5g} {q3:>11.5g}"
                  f" {spread:>7.3f} {bound:>6}  {verdict}")
        print(flush=True)
    out = HERE / "out" / f"repeat-{args.seed_start}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"results written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
