"""whitebench benchmark: one workload, end-to-end metrics or a traced run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep_small, sweep_wide, verify_all (see NOTES.md).
The program is imported from src/ of the checkout; nothing is installed.
With --trace 0 the run times whole passes of the workload for S seconds
and reports the end-to-end metrics named in BENCHMARK.json. With --trace 1
it runs pairs of passes on the same inputs, one untraced and one with every
layer function wrapped, and reports the per-layer metrics and the tracing
overhead. Every pass is checked by the correctness gate. Human-readable
lines come first; the last line of stdout is the JSON result. The full
result, the environment and (traced) the spans go to bench/out/.
"""
import argparse
import contextlib
import csv
import gzip
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import environment
import speed
import stats
from spans import Recorder, layer_totals
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def measure_setup(workload, sampler) -> tuple:
    """Seconds a fresh process pays before its first steady cell, raw and at reference speed."""
    first = len(sampler.samples)
    sampler.sample()
    sampler.sample()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC), *workload.probe_argv()],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    ends = json.loads(proc.stdout.strip().splitlines()[-1])
    sampler.sample()
    sampler.sample()
    raw = (ends["first_end"] - start) - (ends["second_end"] - ends["first_end"])
    return raw, raw * speed.scale(sampler.samples[first:])


def one_pass(workload, rec: Recorder, k: int, traced: bool, sampler) -> dict:
    first_sample = len(sampler.samples)
    sampler.sample()
    first_cell, first_span, counts_before = len(rec.cell_times), len(rec.spans), rec.counts.copy()
    spent_before = sampler.spent_s
    error = None
    with rec.traced() if traced else contextlib.nullcontext():
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                workload.run(k, rec)
        except Exception:  # a raising cell is a failed operation, not a crashed benchmark
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    sampled = sampler.spent_s - spent_before
    wall, cpu = wall - sampled, cpu - sampled
    sampler.sample()  # the pass's reference times bracket it
    expected = workload.expected(k)
    if error is None:
        try:
            failed = workload.failures(k)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        failed = expected
    return {
        "k": k, "traced": traced, "wall_s": wall, "cpu_s": cpu,
        "reference_s": sampler.samples[first_sample:], "scale": speed.scale(sampler.samples[first_sample:]),
        "cells": rec.cell_times[first_cell:], "expected": len(expected), "failed": failed, "error": error,
        "layers": layer_totals(rec.spans[first_span:], rec.counts - counts_before) if traced else None,
    }


def run_passes(workload, rec, sampler, seconds: float, trace: bool) -> list:
    """Whole passes until the next would overrun the window (at least the minimum).

    Traced runs alternate the order of each untraced/traced pair on the same
    inputs, so drift in machine speed does not bias the overhead."""
    passes = []
    start = time.perf_counter()
    minimum = 1 if trace else workload.min_passes
    k = 0
    while True:
        order = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
        group = [one_pass(workload, rec, k, traced, sampler) for traced in order]
        passes += group
        k += 1
        elapsed = time.perf_counter() - start
        if k >= minimum and elapsed + sum(p["wall_s"] for p in group) > seconds:
            return passes


def end_to_end(passes, setup) -> tuple:
    """The end-to-end metrics over the untraced passes, at reference speed and raw.

    Each pass's times are scaled by speed.scale of the reference times taken
    during it, and each set-up probe's by those taken around it (see
    speed.py). Cell percentiles are taken within each pass and the median
    over passes is reported: a pass mixes cell kinds of very different cost
    (a verify pass is one orbit suite and three quick ones), so a percentile
    pooled over passes sits on the edge between two kinds and follows the
    slowest outlier."""
    plain = [p for p in passes if not p["traced"]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def metrics(scales, setup_times):
        return {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p["wall_s"] * f for p, f in zip(plain, scales)),
            "cell_s_p50": statistics.median(stats.percentile(p["cells"], 50) * f for p, f in zip(plain, scales)),
            "cell_s_p90": statistics.median(stats.percentile(p["cells"], 90) * f for p, f in zip(plain, scales)),
            "cpu_s": statistics.median(p["cpu_s"] * f for p, f in zip(plain, scales)),
            "peak_rss_mb": peak_rss_mb,
        }

    scales = [p["scale"] for p in plain]
    counts = {"passes": len(plain), "cells_per_pass": len(plain[0]["cells"]), "setup_probes": len(setup),
              "pass_speed_scales": scales}
    return metrics(scales, [scaled for _, scaled in setup]), metrics([1.0] * len(plain), [raw for raw, _ in setup]), counts


def per_layer(passes, names) -> dict:
    """Median over the traced passes of each layer metric, times at reference speed,
    and the tracing overhead: traced minus untraced wall time of a pair."""
    traced = [p for p in passes if p["traced"]]

    def value(p, name):
        v = p["layers"].get(name, 0)
        return v * p["scale"] if name.endswith("_s") else v

    out = {name: statistics.median(value(p, name) for p in traced) for name in names}
    by_k = {}
    for p in passes:
        by_k.setdefault(p["k"], {})[p["traced"]] = p["wall_s"] * p["scale"]
    pairs = [v for v in by_k.values() if len(v) == 2]
    overhead = statistics.median(v[True] - v[False] for v in pairs)
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = overhead / statistics.median(v[False] for v in pairs)
    return out


def write_spans(path: Path, spans):
    with gzip.open(path, "wt", compresslevel=1, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("span_id", "parent_id", "cell_id", "name", "start_ns", "end_ns", "self_ns"))
        writer.writerows(spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads (the set-up probes inherit it).
    # On a 2-core machine shared with other tenants, two threads doubled CPU
    # time for the same wall time on the small sweep.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The seed reaches the program only through the generated configs.
    os.environ.pop("WHITEBENCH_SEED", None)

    if not (SRC / "whitebench" / "__init__.py").is_file():
        print(f"error: no whitebench sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = WORKLOADS[args.workload](out, args.seed)

    sampler = speed.SpeedSampler()
    setup = [measure_setup(workload, sampler) for _ in range(SETUP_PROBES)]

    import whitebench
    from whitebench import cli

    if not Path(whitebench.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported whitebench from {whitebench.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    rec = Recorder()
    rec.before_cell = sampler.maybe_sample
    rec.install_cells()
    workload.setup()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(workload.probe_argv())  # warm-up: the probe's cell, in this process
    rec.cell_times.clear()

    passes = run_passes(workload, rec, sampler, args.seconds, bool(args.trace))

    e2e, raw, counts = end_to_end(passes, setup)
    attempted = sum(p["expected"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    if args.trace:
        values = per_layer(passes, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        write_spans(out / "spans.csv.gz", rec.spans)
    else:
        values = e2e
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    env = environment.record(sweep_workers=1)
    for m in spec["end_to_end"]:
        print(f"{m['name']:<12} {e2e[m['name']]:.6g} {m['unit']} (raw {raw[m['name']]:.6g})")
    print("speed scale per pass: " + " ".join(f"{f:.3f}" for f in counts["pass_speed_scales"]))
    tail = stats.tail_percentile(counts["cells_per_pass"])
    print(f"samples: {counts['passes']} passes of {counts['cells_per_pass']} cells, {counts['setup_probes']} "
          f"set-up probes; within a pass, p90 has {stats.samples_beyond(counts['cells_per_pass'], 90)} cells "
          f"beyond it and " + (f"p{tail:g} is the highest percentile with >= 10" if tail else
                               "no percentile has 10 cells beyond it"))
    print(f"error_share  {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for p in passes:
        for label in p["failed"]:
            print(f"FAILED pass {p['k']}{' traced' if p['traced'] else ''}: {label}")
        if p["error"]:
            print(p["error"], file=sys.stderr)
    if args.trace:
        for name in sorted(values):
            print(f"{name:<48} {values[name]:.6g} {units.get(name, '')}")
    for check in workload.details.get("verify_checks", []):
        print(f"verify {check['suite']}/{check['check']}: deviation {check['max_deviation']:.3e} "
              f"(tol {check['tolerance']:.1e})")
    for n, gap in workload.details.get("optimum_max_gap", {}).items():
        print(f"optimum_predictions n={n}: max gap to solve_optimum {gap:.3e}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (out / "result.json").write_text(json.dumps({
        **result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "end_to_end": e2e, "end_to_end_raw": raw, "samples": counts, "error_share": failed / attempted,
        "setup_probes_s": setup, "environment": env, "details": workload.details,
        "passes": passes,
    }, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
