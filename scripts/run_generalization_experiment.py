#!/usr/bin/env python3
"""Desk-scale generalization experiment: early-stopped linear models on
unwhitened / train-whitened / fully whitened copies of the same synthetic
datasets, across a log-spaced grid of training set sizes.

Writes a results CSV plus an SVG of test loss vs dataset size per arm.
"""
import argparse
import sys
from pathlib import Path

from whitebench.plotting import PlotSpec, emit_plot
from whitebench.runconfig import parse_config
from whitebench.runner import sweep, write_rows_csv

CONFIG_TEMPLATE = """
[experiment]
id = generalization
master_seed = {seed}
seeds = {seeds}
output_dir = {outdir}

[data]
source = synthetic
d = {d}
n_val = 128
n_test = 512
spectrum = power_law
alpha = 2.0
teacher = linear
label_noise = 0.1
classes = 10

[whitening]
modes = none train full
transform = pca
rank_policy = manual

[flow]
precondition = none
grid_points = 200

[sweep]
sizes = {sizes}
trainer = linear
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/generalization")
    parser.add_argument("--d", type=int, default=64)
    parser.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64, 128, 256, 512, 1024])
    parser.add_argument("--n-seeds", type=int, default=10)
    parser.add_argument("--master-seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config_path = outdir / "run.cfg"
    config_path.write_text(
        CONFIG_TEMPLATE.format(
            seed=args.master_seed,
            seeds=" ".join(str(i) for i in range(args.n_seeds)),
            outdir=outdir,
            d=args.d,
            sizes=" ".join(str(s) for s in args.sizes),
        ),
        encoding="utf-8",
    )
    cfg = parse_config(config_path)
    rows = sweep(cfg, cfg.sweep["trainer"], cfg.sweep["sizes"], include_trajectory=False, workers=args.workers)
    results = outdir / "results.csv"
    write_rows_csv(results, rows)
    print(f"wrote {len(rows)} rows to {results}")

    emit_plot(
        results,
        PlotSpec(x="dataset_size", y="test_loss", group="whitening_mode",
                 logx=True, title="early-stopped test loss vs training set size"),
        outdir / "test_loss.svg",
    )
    emit_plot(
        results,
        PlotSpec(x="dataset_size", y="test_error", group="whitening_mode",
                 logx=True, title="early-stopped test error vs training set size"),
        outdir / "test_error.svg",
    )
    print(f"plots in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
