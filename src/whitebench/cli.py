"""Command-line interface.

Subcommands: whiten, second-moments, train-linear, train-mlp, sweep,
compress, reconstruct-k, rank, verify, plot. The WHITEBENCH_SEED environment
variable overrides the configured master seed; all paths are relative to the
working directory.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dataio, plotting, runner, verify
from .datatypes import RANK_CUTOFF_RATIO, compute_F, compute_K, compute_mixed_K, estimate_input_rank
from .errors import ValidationError, WhitebenchError
from .info_checks import compress_whitened, reconstruct_K
from .plotting import PlotSpec
from .runconfig import parse_config
from .whitening import RANK_POLICIES, WHITENING_MODES, RankPolicy, apply_whitener, center_on, fit_whitener


def _cmd_whiten(args):
    X, labels = dataio.ingest(args.input)
    fit_X = dataio.ingest(args.fit_input)[0] if args.fit_input else X
    fit_on, data = center_on(fit_X, fit_X, X) if args.center else (fit_X, X)
    whitener = fit_whitener(fit_on, mode=args.mode, rank_policy=RankPolicy(args.rank_policy))
    dataio.export(args.output, apply_whitener(whitener, data), labels)
    print(f"whitened {args.input} -> {args.output} (mode={args.mode}, "
          f"rank={whitener.fit_rank}, fit_id={fit_X.fingerprint()})")
    return 0


def _cmd_second_moments(args):
    X, _ = dataio.ingest(args.input)
    if args.which == "f":
        M = compute_F(X)
    elif args.which == "k":
        M = compute_K(X)
    else:
        if not args.input2:
            raise ValidationError("--which mixed needs --input2 for the second dataset")
        X2, _ = dataio.ingest(args.input2)
        M = compute_mixed_K(X, X2)
    dataio.write_matrix_csv(args.output, M)
    print(f"wrote {args.which} block of shape {M.shape} to {args.output}")
    return 0


def _cmd_run(args):
    """train-linear / train-mlp: [data] n_train with trajectories; sweep: [sweep] sizes, terminal rows."""
    if args.workers < 1:
        raise ValidationError(f"--workers must be at least 1, got {args.workers}")
    cfg = parse_config(args.config)
    if args.trainer:
        trainer, sizes, suffix = args.trainer, [cfg.get("data", "n_train")], args.trainer
    else:
        trainer, sizes, suffix = cfg.get("sweep", "trainer"), cfg.get("sweep", "sizes"), "sweep"
    rows = runner.sweep(cfg, trainer, sizes, include_trajectory=bool(args.trainer), workers=args.workers)
    out = Path(cfg.get("experiment", "output_dir")) / f"{cfg.experiment_id}_{suffix}.csv"
    runner.write_rows_csv(out, rows)
    errors = sum(1 for r in rows if r.stopping_reason == "error")
    print(f"wrote {len(rows)} rows to {out} ({errors} error rows)")
    return 0


def _cmd_compress(args):
    X, _ = dataio.ingest(args.input)
    c = compress_whitened(X)
    dataio.export_compressed(args.output, c)
    print(f"compressed {args.input}: {c.scalar_count} scalars "
          f"(d={c.d}, n={c.n}, permuted={c.column_permutation is not None}) -> {args.output}")
    return 0


def _cmd_reconstruct_k(args):
    K = reconstruct_K(dataio.ingest_compressed(args.input))
    dataio.write_matrix_csv(args.output, K)
    print(f"reconstructed {K.shape[0]}x{K.shape[1]} Gram matrix -> {args.output}")
    return 0


def _cmd_rank(args):
    X, _ = dataio.ingest(args.input)
    r = estimate_input_rank(X, cutoff_ratio=args.cutoff_ratio)
    print(r)
    return 0


def _cmd_verify(args):
    report = verify.run_suites([args.suite])
    if args.report:
        verify.write_report(report, args.report)
    for name, suite in report["suites"].items():
        for check in suite["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"{status} {name}/{check['check']}: deviation {check['max_deviation']:.3e} "
                  f"(tol {check['tolerance']:.1e})")
    print("all suites passed" if report["passed"] else "FAILURES present")
    return 0 if report["passed"] else 1


def _cmd_plot(args):
    cfg = parse_config(args.spec)
    spec = PlotSpec.from_config(cfg)
    plotting.emit_plot(args.results, spec, args.output)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="whitebench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("whiten", help="fit and apply a whitening transform")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=WHITENING_MODES, required=True)
    p.add_argument("--rank-policy", choices=RANK_POLICIES, default="manual")
    p.add_argument("--output", required=True)
    p.add_argument("--fit-input", help="optional file the transform is fitted on (default: --input)")
    p.add_argument("--center", action="store_true")
    p.set_defaults(fn=_cmd_whiten)

    p = sub.add_parser("second-moments", help="write F, K, or the mixed Gram block")
    p.add_argument("--input", required=True)
    p.add_argument("--which", choices=["f", "k", "mixed"], required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--input2", help="second dataset for --which mixed")
    p.set_defaults(fn=_cmd_second_moments)

    p = sub.add_parser("train-linear", help="closed-form flow training with early stopping")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_run, trainer="linear", workers=1)

    p = sub.add_parser("train-mlp", help="iterative training to an accuracy cutoff")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_run, trainer="mlp", workers=1)

    p = sub.add_parser("sweep", help="grid of sizes x whitening modes x seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_run, trainer=None)

    p = sub.add_parser("compress", help="compress fully whitened data to (n-d)*d scalars")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("reconstruct-k", help="rebuild the Gram matrix from compressed data")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_reconstruct_k)

    p = sub.add_parser("rank", help="estimate the input rank of a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--cutoff-ratio", type=float, default=RANK_CUTOFF_RATIO)
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("verify", help="run the property battery; exit 0 iff all pass")
    p.add_argument("--suite", choices=list(verify.SUITES) + ["all"], default="all")
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("plot", help="render an SVG line chart from a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except WhitebenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
