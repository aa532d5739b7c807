"""Run one benchmark workload against the package in ../src.

    python3 perfbench/run.py --workload small-n-exact --seed 1 --seconds 25 --trace 0

Rounds of the workload's operations run back to back until --seconds have
passed; every round gets fresh master seeds derived from --seed and starts
with the package's memo caches empty, as separate CLI invocations would.
With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 untraced and traced rounds alternate and it
holds the per-layer metrics, tracing overhead included.  Everything runs in
this one process, pinned to one CPU, at the package's default of one
thread; only the set-up samples start a fresh interpreter each.

Every timed call sits between two runs of a fixed speed probe; times "at
reference speed" are the wall time scaled by the square root of CAL_REF_S
over the mean probe time, which damps this machine's drift in CPU speed.
Raw wall times are printed alongside.
"""

from __future__ import annotations

import os

# one BLAS thread: the program runs at threads=1 and timings stay steadier
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SEEDS_PER_ROUND = 4
# The speed probe: fixed loops of small-array numpy work and of float
# formatting, the two kinds of work the package spends its time in,
# 0.1-0.2 s together.  Normalised times are scaled to a probe time of
# CAL_REF_S.  The program's times move less than the probe's under the
# machine's drift: over 37-47 back-to-back rounds per workload the slope of
# log(round time) on log(probe time) was 0.53-0.70, and dividing by the
# whole probe ratio widened the spread of round times instead of narrowing
# it.  Its square root gave narrower spreads than the whole ratio on all
# three workloads (README.md, "Machine speed").
CAL_NUMPY_ITERATIONS = 150_000
CAL_FORMAT_ITERATIONS = 70_000
CAL_REF_S = 0.15
CAL_EXPONENT = 0.5

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import urnsir
from urnsir.config import load_config
for path in sys.argv[2:]:
    load_config(path)
print(repr(time.perf_counter() - t0))
"""


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def calibration_s() -> float:
    """Seconds the speed probe takes now.

    This machine's CPU speed drifts by up to +/-25 % over tens of seconds;
    a probe run next to each timed call tracks that drift, and dividing by
    it turns a wall time into seconds at the reference probe speed.
    """
    a = np.arange(32.0)
    acc = 0.0
    lines = []
    t0 = time.perf_counter()
    for i in range(CAL_NUMPY_ITERATIONS):
        acc += float(a[i & 31] * 2.0) + i
        if not i & 7:
            acc += float(np.dot(a, a))
    for i in range(CAL_FORMAT_ITERATIONS):
        acc = acc * 1.0000001 + 1e-9
        lines.append(f"{acc:.12g},{i}")
        if len(lines) == 1024:  # joined in chunks, as a CSV writer would
            "\n".join(lines)
            lines.clear()
    return time.perf_counter() - t0


def normalised(seconds: float, before: float, after: float) -> float:
    return seconds * (CAL_REF_S / (0.5 * (before + after))) ** CAL_EXPONENT


def setup_sample(configs: list[Path]) -> tuple[float, float]:
    """(raw, normalised) seconds for a fresh interpreter to import urnsir
    and load the configs."""
    before = calibration_s()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, configs)],
        capture_output=True, text=True, timeout=120, check=True)
    raw = float(proc.stdout.split()[-1])
    return raw, normalised(raw, before, calibration_s())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# the peak RSS so far and the step that last raised it, so a run can tell
# whether its peak comes from the program or from the benchmark's checks
PEAK = {"mb": 0.0, "set_by": ""}


def note_peak(step: str) -> None:
    mb = peak_rss_mb()
    if mb > PEAK["mb"]:
        PEAK.update(mb=mb, set_by=step)


def clear_program_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "urnsir" or name.startswith("urnsir."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def round_seeds(seed: int, k: int) -> list[int]:
    state = np.random.SeedSequence([seed, k]).generate_state(SEEDS_PER_ROUND)
    return [int(s) for s in state]


def run_round(name: str, seed: int, k: int, tracer=None) -> dict:
    from workloads import WORKLOADS

    clear_program_caches()
    build, _ = WORKLOADS[name]
    ops = build(OUT / name, round_seeds(seed, k))
    res = {"walls": {}, "ref_walls": {}, "phases": {}, "replicas": 0,
           "replica_s": 0.0, "attempted": 0, "failed": 0, "problems": [],
           "verdicts": [], "output_mb": 0.0}
    cal = [calibration_s()]
    for op in ops:
        res["attempted"] += 1
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.active = True
            value = op.run()
        except Exception:
            res["failed"] += 1
            print(f"[{op.label}] failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.active = False
            wall = time.perf_counter() - t0
            cal.append(calibration_s())
            note_peak(f"call {op.label}")
        ref = normalised(wall, cal[-2], cal[-1])
        res["walls"][op.label] = wall
        res["ref_walls"][op.label] = ref
        res["phases"][op.phase] = res["phases"].get(op.phase, 0.0) + ref
        if op.replicas:
            res["replicas"] += op.replicas
            res["replica_s"] += ref
        try:
            problems = op.check(value)
        except Exception as exc:  # a malformed output is a wrong output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        note_peak(f"check of {op.label}")
        res["problems"] += [f"[{op.label}] {p}" for p in problems]
        verdicts = getattr(value, "verdicts", None)
        if verdicts is None and hasattr(value, "summary"):
            verdicts = [value.summary()]
        res["verdicts"] += [f"[{op.label}] {v}" for v in verdicts or []]
        if op.out_dir is not None:
            res["output_mb"] += sum(
                p.stat().st_size for p in op.out_dir.iterdir()
                if p.suffix in (".csv", ".ndjson")) / 1e6
    res["wall"] = sum(res["walls"].values())
    res["ref_wall"] = sum(res["ref_walls"].values())
    res["calibration"] = statistics.median(cal)
    return res


def op_median_sum(rounds: list[dict]) -> float:
    """Sum over operations of each one's median time at reference speed."""
    labels = {label for r in rounds for label in r["ref_walls"]}
    return sum(statistics.median(r["ref_walls"][label] for r in rounds
                                 if label in r["ref_walls"])
               for label in labels)


def phase_metrics(rounds: list[dict], all_phases: list[str]) -> dict:
    out = {}
    for phase in all_phases:
        vals = [r["phases"][phase] for r in rounds if phase in r["phases"]]
        out[f"{phase}_s"] = statistics.median(vals) if vals else 0.0
    seconds = sum(r["replica_s"] for r in rounds)
    out["replicas_per_s"] = (sum(r["replicas"] for r in rounds) / seconds
                             if seconds else 0.0)
    return out


def report_round(k: int, traced: bool, res: dict) -> None:
    mode = "traced" if traced else "untraced"
    ops = "  ".join(f"{label}={w:.3f}s" for label, w in res["walls"].items())
    print(f"round {k} ({mode}): wall {res['wall']:.3f} s, at reference speed"
          f" {res['ref_wall']:.3f} s (probe {res['calibration']:.4f} s)  {ops}")
    for v in res["verdicts"]:
        print(f"    report verdict {v}")
    for p in res["problems"]:
        print(f"    CHECK FAILED {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    init = SRC / "urnsir" / "__init__.py"
    if not init.is_file():
        return fail(f"package source {init} not found; run from a checkout")
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        return fail(f"{bench_file} not found")
    bench = json.loads(bench_file.read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import urnsir

    if Path(urnsir.__file__).resolve() != init.resolve():
        return fail(f"imported urnsir from {urnsir.__file__}, not {SRC}")
    import reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(WORKLOADS)}")
    # one CPU for the run and the set-up interpreters it starts, so the
    # speed probe measures the CPU the timed code ran on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    problems = reference.self_check()
    if problems:
        return fail("reference self-check: " + "; ".join(problems))
    all_phases = [p for _, phases in WORKLOADS.values() for p in phases]
    (OUT / args.workload).mkdir(parents=True, exist_ok=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace} urnsir {urnsir.__version__}")

    note_peak("imports and reference self-check")
    base_mb = PEAK["mb"]
    metrics: dict = {}
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    setup: list[tuple[float, float]] = []
    if not args.trace:
        # configs of the first round, written by building its operations
        WORKLOADS[args.workload][0](OUT / args.workload,
                                    round_seeds(args.seed, 0))
        configs = sorted((OUT / args.workload).glob("*/config.ini"))
        setup.append(setup_sample(configs))

    tracer_mod = None
    if args.trace:
        import spans as tracer_mod
    plain, traced, layers = [], [], []
    spent = 0.0  # time in rounds; set-up samples between rounds not counted
    k = 0
    while spent < args.seconds or not plain or (args.trace and not traced):
        t0 = time.perf_counter()
        if args.trace and k % 2 == 1:
            tracer = tracer_mod.Tracer()
            try:
                with tracer_mod.patched(tracer):
                    res = run_round(args.workload, args.seed, k, tracer)
            except tracer_mod.MissingTarget as exc:
                return fail(f"traced run: {exc}")
            layers.append(tracer.per_layer())
            if len(traced) == 0:
                tracer.write_json(OUT / args.workload / "spans.json")
            traced.append(res)
        else:
            res = run_round(args.workload, args.seed, k)
            plain.append(res)
        report_round(k, args.trace and k % 2 == 1, res)
        k += 1
        spent += time.perf_counter() - t0
        if setup:
            setup.append(setup_sample(configs))
    if setup:
        # one sample before the first round and one after each round
        while len(setup) < 3:
            setup.append(setup_sample(configs))
        metrics["setup_s"] = statistics.median(ref for _, ref in setup)
        print("setup samples, raw / at reference speed: " + "  ".join(
            f"{raw:.4f}/{ref:.4f}" for raw, ref in setup))

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = not any(r["problems"] for r in rounds)
    phases = phase_metrics(plain, all_phases)
    metrics["ref_wall_s"] = op_median_sum(plain)
    metrics["wall_s"] = statistics.median(r["wall"] for r in plain)
    metrics["calibration_s"] = statistics.median(
        r["calibration"] for r in plain)
    metrics["peak_rss_mb"] = peak_rss_mb()
    print(f"peak RSS {metrics['peak_rss_mb']:.1f} MB, last raised by"
          f" {PEAK['set_by']}; {base_mb:.1f} MB before the first round")
    for name, value in phases.items():
        if value:
            print(f"{name} {value:.4f} (at reference speed, over"
                  f" {len(plain)} untraced rounds)")
    if args.trace:
        metrics.update(phases)
        for name in layers[0]:
            metrics[name] = statistics.fmean(lay[name] for lay in layers)
        metrics["cli.output_mb"] = statistics.fmean(
            r["output_mb"] for r in traced)
        metrics["tracing_overhead_s"] = (op_median_sum(traced)
                                         - metrics["ref_wall_s"])

    out_metrics = {}
    for m in wanted:
        if m["name"] not in metrics:
            return fail(f"metric {m['name']} was not measured")
        out_metrics[m["name"]] = {"value": metrics[m["name"]],
                                  "unit": m["unit"]}
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"operations attempted {attempted}, failed {failed};"
          f" output checks {'passed' if correct else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
