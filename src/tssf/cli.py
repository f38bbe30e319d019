"""Command-line interface: synthesize, fit, evaluate, export, benchmark.

Subcommands
-----------
synth      generate a synthetic trial file from a config
fit        fit one pipeline and save it as a JSON model file
eval       cross-validate pipelines and write score/comparison CSVs
patterns   export the spatial patterns of a saved model's filters as CSV
bench      measure per-trial prediction latency of fitted pipelines

Exit codes: 0 success; 2 usage/config errors, including a file that
cannot be read or written or is not UTF-8 where text is expected; 3
numerical or degenerate failures. ``fit``, ``eval`` and ``bench`` check
their output files before any fit, so an output that cannot be written
exits 2 at once, and a failed command leaves no output file it created.
Every command but ``patterns`` takes ``--seed`` and is reproducible.
The ``TSSF_THREADS`` environment variable caps BLAS parallelism (see the
``tssf`` package; ``TSSF_THREADS=1`` gives single-threaded runs for
benchmarking).
"""

import argparse
import dataclasses
import itertools
import os
import sys

import numpy as np

from .dataio import SynthConfig, covariances, fir_bandpass, load_manifest
from .dataio import read_trials, synth_generate, write_trials
from .errors import DegenerateStatistic, FormatError, InvalidInput, TssfError
from .evalstats import PairedComparison, bench_predict, bench_to_csv, compare_paired
from .evalstats import comparisons_to_csv, cross_validate, reports_to_csv
from .linmodel import ClassifierConfig
from .patterns import compute_patterns, patterns_to_csv
from .pipelines import MODEL_FORMAT, PipelineSpec, load_pipeline, make_pipeline, save_pipeline
from .rules import _check_count


def _parser():
    parser = argparse.ArgumentParser(
        prog="tssf",
        description="Tangent-space classification and spatial filter extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic trials")
    p_synth.add_argument("--config", required=True, help="key: value config file")
    p_synth.add_argument("--out", required=True, help="output EEGT file")
    p_synth.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_synth.set_defaults(func=cmd_synth)

    common_data = argparse.ArgumentParser(add_help=False)
    common_data.add_argument("--data", help="EEGT trial file")
    common_data.add_argument("--manifest", help="manifest of session files")
    common_data.add_argument(
        "--band", help="low:high:fs band-pass applied before processing"
    )

    common_model = argparse.ArgumentParser(add_help=False)
    common_model.add_argument("--k", type=int, default=6, help="filter components (default 6)")
    common_model.add_argument("--reg", type=float, default=None, help="fixed SVM regularization")
    common_model.add_argument("--grid", default=None, help="comma list of regularizations")
    common_model.add_argument("--seed", type=int, default=0)
    parents = [common_data, common_model]

    p_fit = sub.add_parser("fit", parents=parents, help="fit and save one pipeline")
    p_fit.add_argument("--pipeline", required=True, help="pipeline name")
    p_fit.add_argument("--folds", type=int, default=5, help="inner CV folds")
    p_fit.add_argument("--out", required=True, help=f"{MODEL_FORMAT} model file to write")
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", parents=parents, help="cross-validate pipelines")
    p_eval.add_argument(
        "--pipeline", action="append", required=True, help="repeatable pipeline name"
    )
    p_eval.add_argument("--folds", type=int, default=5, help="outer and inner CV folds")
    p_eval.add_argument("--out", required=True, help="fold-score CSV to write")
    p_eval.set_defaults(func=cmd_eval)

    p_pat = sub.add_parser("patterns", parents=[common_data], help="export spatial patterns")
    p_pat.add_argument("--model", required=True, help=f"saved {MODEL_FORMAT} model")
    p_pat.add_argument("--out", required=True, help="CSV to write")
    p_pat.set_defaults(func=cmd_patterns)

    p_bench = sub.add_parser("bench", parents=parents, help="prediction latency")
    p_bench.add_argument(
        "--pipeline",
        action="append",
        default=None,
        help="repeatable; default CSP, TSSF_Var_1_step, TS_AIRM",
    )
    p_bench.add_argument("--reps", type=int, default=10, help="timed sweeps (>= 10 recommended)")
    p_bench.add_argument("--out", default=None, help="optional CSV to write")
    p_bench.set_defaults(func=cmd_bench, folds=ClassifierConfig.folds)
    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidInput, FormatError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TssfError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _load_trials(args):
    if bool(args.data) == bool(args.manifest):
        raise InvalidInput("provide exactly one of --data or --manifest")
    trialset = read_trials(args.data) if args.data else load_manifest(args.manifest)
    if args.band:
        parts = args.band.split(":")
        if len(parts) != 3:
            raise InvalidInput("--band must be low:high:fs")
        try:
            low, high, fs = (float(p) for p in parts)
        except ValueError:
            raise InvalidInput("--band must be numeric low:high:fs") from None
        trialset = fir_bandpass(trialset, low, high, fs)
    return trialset


def _classifier_config(args):
    grid = None
    if args.grid is not None:
        try:
            grid = tuple(float(v) for v in args.grid.split(","))
        except ValueError:
            raise InvalidInput("--grid must be a comma list of numbers") from None
    return ClassifierConfig(reg=args.reg, grid=grid, folds=args.folds, seed=args.seed)


def _pipeline_specs(names, args):
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise InvalidInput(f"pipeline given more than once: {', '.join(repeated)}")
    return [PipelineSpec(name, args.k, _classifier_config(args)).validate() for name in names]


def _check_writable(path):
    # a file the check creates is removed again, so a failed command leaves
    # none; an existing one keeps its bytes until the command writes it
    try:
        open(path, "x").close()
        os.remove(path)
    except FileExistsError:
        open(path, "a").close()


def cmd_synth(args):
    cfg = SynthConfig.from_text(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed).validate()
    trialset = synth_generate(cfg)
    write_trials(trialset, args.out)
    n_pos = int((trialset.labels == 1).sum())
    print(
        f"wrote {args.out}: C={trialset.n_channels} N={trialset.n_samples} "
        f"T={trialset.n_trials} (+{n_pos}/-{trialset.n_trials - n_pos}), "
        f"sessions={len(set(trialset.session_ids.tolist()))}, seed={cfg.seed}"
    )
    return 0


def cmd_fit(args):
    [spec] = _pipeline_specs([args.pipeline], args)
    trialset = _load_trials(args)
    _check_writable(args.out)
    pipe = make_pipeline(spec).fit(trialset.data, trialset.labels)
    save_pipeline(pipe, args.out)
    print("sorted coefficients (use this table to choose k):")
    print("rank  beta      |beta|")
    for rank, beta in enumerate(pipe.model.full_beta):
        kept = "  <- kept" if rank < pipe.k else ""
        print(f"{rank:4d}  {beta:+.4f}  {abs(beta):.4f}{kept}")
    print(f"{pipe.name} pipeline (k={pipe.k}, {pipe.feature_kind}) written to {args.out}")
    return 0


def cmd_eval(args):
    specs = _pipeline_specs(args.pipeline, args)
    trialset = _load_trials(args)
    _check_writable(args.out)
    if len(specs) > 1:
        _check_writable(_comparisons_path(args.out))
    factories = [lambda s=spec: make_pipeline(s) for spec in specs]
    reports = cross_validate(trialset, factories, folds=args.folds, seed=args.seed)
    for report in reports:
        print(report.summary())
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(reports_to_csv(reports))
    comparisons = []
    for a, b in itertools.combinations(reports, 2):
        try:
            cmp = compare_paired(a.pipeline, a.aucs, b.pipeline, b.aucs)
        except DegenerateStatistic:  # reported as SMD nan, p 1
            cmp = PairedComparison(a.pipeline, b.pipeline, a.aucs, b.aucs, float("nan"), 1.0)
        comparisons.append(cmp)
        print(f"{cmp.name_a} vs {cmp.name_b}: SMD={cmp.smd:.4f} p={cmp.p_value:.4g}")
    cmp_path = _comparisons_path(args.out)
    if comparisons:
        with open(cmp_path, "w", encoding="utf-8") as fh:
            fh.write(comparisons_to_csv(comparisons))
        print(f"wrote {args.out} and {cmp_path}")
    else:
        print(f"wrote {args.out}")
    return 0


def _comparisons_path(out):
    base, ext = os.path.splitext(out)
    return f"{base}.comparisons{ext or '.csv'}"


def cmd_patterns(args):
    # the filters that score: pattern j is the source column j and coef[j] see
    filters = load_pipeline(args.model).filters
    trialset = _load_trials(args)
    if trialset.n_channels != filters.shape[0]:
        raise InvalidInput(
            f"model expects {filters.shape[0]} channels, data has {trialset.n_channels}"
        )
    data_cov = covariances(trialset).mean(axis=0)
    patterns = compute_patterns(filters, data_cov)
    # F^T A = I, so dropping filter j removes source j from the scores
    residual = np.abs(filters.T @ patterns - np.eye(filters.shape[1])).max()
    print(f"max |F^T A - I| = {residual:.2e}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(patterns_to_csv(patterns, trialset.channel_names))
    print(f"wrote {args.out}: {filters.shape[0]} channels x {filters.shape[1]} components")
    return 0


def cmd_bench(args):
    names = args.pipeline or ["CSP", "TSSF_Var_1_step", "TS_AIRM"]
    specs = _pipeline_specs(names, args)
    _check_count(args.reps, "repetitions")
    trialset = _load_trials(args)
    if args.out:
        _check_writable(args.out)
    covs = covariances(trialset)
    fitted = {spec.name: make_pipeline(spec).fit_covs(covs, trialset.labels) for spec in specs}
    rows = bench_predict(fitted, trialset.data, repetitions=args.reps)
    print("pipeline            median_per_trial_s  iqr_per_trial_s")
    for row in rows:
        print(f"{row.pipeline:<18s}  {row.median_per_trial_s:18.6f}  {row.iqr_per_trial_s:15.6f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(bench_to_csv(rows))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
