"""Command-line surface: certify | train | experiment | verify | compare.

Each ``cmd_*`` function takes the parsed flags and the output directory,
writes its own result files and returns its exit code.  ``main`` does the
rest: it makes the directory, times the whole command into timing.json (the
only non-deterministic output) and records every parsed flag in
manifest.json, so re-running a manifest reproduces the result files
bit-exactly.  Exit codes: 0 success, 2 usage error, 3 data error, 4
verification failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, bounds, data, oracle, train, voters, votes
from .bounds import BoundSpec, SearchConfig
from .votes import WeightPosterior

DEFAULT_BOUNDS = (
    "dirichlet_margin",
    "gz",
    "bgplus",
    "bgplusplus",
    "bg",
    "fo",
    "so",
    "bin",
    "f2",
)

RESULT_COLUMNS = (
    "dataset",
    "seed",
    "posterior",
    "bound",
    "value",
    "test_error",
    "gamma_star",
    "K_star",
    "T_star",
    "m_bound",
    "flags",
)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_theta(path, num_voters: int) -> np.ndarray:
    """Voting weights, one value per line; malformed files are data errors.
    Weights whose sum overflows are divided by their largest first."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    values.append(float(line))
                except ValueError:
                    raise data.DataError(f"{path}:{lineno}: not a number: {line!r}") from None
    theta = np.asarray(values)
    if theta.size != num_voters:
        raise data.DataError(f"{path}: {theta.size} weights for {num_voters} voters")
    if not np.all(np.isfinite(theta)) or np.any(theta < 0.0) or not theta.any():
        raise data.DataError(f"{path}: weights must be finite, non-negative, not all zero")
    with np.errstate(over="ignore"):
        overflows = not np.isfinite(theta.sum())
    return theta / theta.max() if overflows else theta


def _result_row(dataset, seed, posterior_name, bound_id, result, test_error, m_bound):
    return (
        dataset,
        seed,
        posterior_name,
        bound_id,
        result.value,
        test_error,
        result.gamma_star,
        result.K_star,
        result.T_star,
        m_bound,
        "|".join(result.flags),
    )


def cmd_certify(args, out: str) -> int:
    P = voters.ingest_predictions(args.predictions)
    theta = (
        _load_theta(args.theta, P.num_voters) if args.theta
        else np.full(P.num_voters, 1.0 / P.num_voters)
    )
    wp = WeightPosterior(theta, args.k)
    spec = BoundSpec(m=P.num_examples, delta=args.delta)
    rows = _certify_rows((os.path.basename(args.predictions), "", "given"), None, P, wp, spec,
                         SearchConfig(n_gamma=args.n_gamma), args.bounds.split(","))
    _write_csv(os.path.join(out, "results.csv"), RESULT_COLUMNS, rows)
    return 0


def _train_config(args, seed: int) -> train.TrainConfig:
    return train.TrainConfig(
        seed=seed,
        gamma_candidates=tuple(float(g) for g in args.gamma_candidates.split(",")),
        max_epochs=args.max_epochs,
        batch_size=args.batch_size,
    )


def _log_rows(seed, objective_kind, result):
    return [(seed, objective_kind, rec.gamma, rec.epoch, rec.objective, rec.bound, rec.K, rec.lr)
            for rec in result.history]


_LOG_COLUMNS = ("seed", "objective", "gamma", "epoch", "batch_objective", "bound", "K", "lr")


def _posterior_rows(seed, name, wp):
    return [(seed, name, wp.K, ";".join(repr(float(t)) for t in wp.theta))]


_POSTERIOR_COLUMNS = ("seed", "posterior", "K", "theta")


def _summary_rows(result_rows):
    keyed = {}
    for row in result_rows:
        key = (row[2], row[3])
        keyed.setdefault(key, []).append(row)
    out = []
    for (posterior, bound), rows in sorted(keyed.items()):
        values = np.array([r[4] for r in rows], dtype=float)
        errors = np.array([r[5] for r in rows if r[5] is not None], dtype=float)
        out.append((
            posterior, bound, len(rows),
            float(values.mean()),
            float(values.std(ddof=1)) if values.size > 1 else 0.0,
            float(errors.mean()) if errors.size else None,
            float(errors.std(ddof=1)) if errors.size > 1 else (0.0 if errors.size else None),
        ))
    return out


_SUMMARY_COLUMNS = (
    "posterior", "bound", "trials",
    "value_mean", "value_std", "test_error_mean", "test_error_std",
)


def _certify_rows(key, test_error, P, wp, spec, cfg_search, ids=DEFAULT_BOUNDS,
                  trained_cert=None) -> list:
    """One result row per bound id in ``ids``, each led by ``key`` (dataset,
    seed, posterior), from one ``certify_all`` pass over wp.  A trained
    posterior passes the dirichlet_margin certificate train_posterior
    selected it by: that search already paid the delta/(#candidates) union,
    so it is reused."""
    skip = () if trained_cert is None else ("dirichlet_margin",)
    certs = bounds.certify_all(P, wp, spec, [b for b in ids if b not in skip], cfg_search)
    return [_result_row(*key, bid, certs.get(bid, trained_cert), test_error, spec.m)
            for bid in ids]


def _write_run_csvs(out, result_rows, log_rows, posterior_rows) -> None:
    """The four result files of train and experiment."""
    _write_csv(os.path.join(out, "results.csv"), RESULT_COLUMNS, result_rows)
    _write_csv(os.path.join(out, "summary.csv"), _SUMMARY_COLUMNS, _summary_rows(result_rows))
    _write_csv(os.path.join(out, "training_log.csv"), _LOG_COLUMNS, log_rows)
    _write_csv(os.path.join(out, "posteriors.csv"), _POSTERIOR_COLUMNS, posterior_rows)


def cmd_train(args, out: str) -> int:
    P = voters.ingest_predictions(args.predictions)
    spec = BoundSpec(m=P.num_examples, delta=args.delta)
    cfg_search = SearchConfig(n_gamma=args.n_gamma)
    name = os.path.basename(args.predictions)
    result_rows, log_rows, posterior_rows = [], [], []
    for seed in map(int, args.seeds.split(",")):
        tr = train.train_posterior(
            P, _train_config(args, seed), spec, args.objective, cfg_search
        )
        log_rows.extend(_log_rows(seed, args.objective, tr))
        posterior_rows.extend(_posterior_rows(seed, args.objective, tr.posterior))
        result_rows.extend(_certify_rows((name, seed, args.objective), None, P, tr.posterior,
                                         spec, cfg_search, trained_cert=tr.certificate))
    _write_run_csvs(out, result_rows, log_rows, posterior_rows)
    return 0


def _load_dataset(args) -> data.Dataset:
    if args.format == "libsvm":
        return data.parse_libsvm(args.dataset)
    return data.parse_csv(args.dataset, args.label_column)


def _experiment_seed(args, ds, P_full, seed: int, cfg_search):
    """One trial: split, build voters, train the requested objectives, then
    certify every posterior and measure its held-out vote error."""
    strong = args.voter_mode == "rf"
    if args.voter_mode == "ingest":
        plan = data.split_indices(P_full.num_examples, seed, strong_voters=False)
        P_bound = P_full.subset(plan.bound_half_idx)
        P_test = P_full.subset(plan.test_idx)
    else:
        plan = data.make_split(ds, seed, strong_voters=strong)
        ds_std = data.standardize(ds, plan)
        if args.voter_mode == "stumps":
            if ds.num_classes != 2:
                raise data.DataError("stump voters support binary tasks only")
            if ds.features.shape[1] == 0:
                raise data.DataError("stump voters need at least one feature column")
            ensemble = voters.make_stumps(ds_std.features[plan.train_idx])
        else:
            ensemble = voters.train_forest(
                ds_std.features[plan.voter_half_idx], ds_std.labels[plan.voter_half_idx], seed
            )
        P_bound = voters.predict_matrix(
            ensemble, ds_std.features[plan.bound_half_idx], ds_std.labels[plan.bound_half_idx]
        )
        P_test = voters.predict_matrix(
            ensemble, ds_std.features[plan.test_idx], ds_std.labels[plan.test_idx]
        )
    spec = BoundSpec(m=P_bound.num_examples, delta=args.delta)

    posteriors = {"uniform": WeightPosterior.uniform(P_bound.num_voters, 1.0)}
    trained_certs = {}
    log_rows = []
    for kind in args.objectives.split(","):
        tr = train.train_posterior(P_bound, _train_config(args, seed), spec, kind, cfg_search)
        posteriors[kind] = tr.posterior
        trained_certs[kind] = tr.certificate
        log_rows.extend(_log_rows(seed, kind, tr))

    dataset_name = os.path.basename(args.dataset)
    rows, posterior_rows = [], []
    for pname, wp in posteriors.items():
        test_error = votes.majority_vote_error(P_test, wp.theta)
        posterior_rows.extend(_posterior_rows(seed, pname, wp))
        rows.extend(_certify_rows((dataset_name, seed, pname), test_error, P_bound, wp, spec,
                                  cfg_search, trained_cert=trained_certs.get(pname)))
    return rows, log_rows, posterior_rows


def cmd_experiment(args, out: str) -> int:
    if args.voter_mode == "ingest":
        ds = None
        P_full = voters.ingest_predictions(args.dataset)
    else:
        ds = _load_dataset(args)
        P_full = None
    cfg_search = SearchConfig(n_gamma=args.n_gamma)
    result_rows, log_rows, posterior_rows = [], [], []
    for seed in map(int, args.seeds.split(",")):
        rows, logs, posts = _experiment_seed(args, ds, P_full, seed, cfg_search)
        result_rows.extend(rows)
        log_rows.extend(logs)
        posterior_rows.extend(posts)
    _write_run_csvs(out, result_rows, log_rows, posterior_rows)
    return 0


# The oracle batteries that verify runs, in the order "all" runs them.
_BATTERIES = {
    "aggregation": lambda args: oracle.aggregation_battery(args.seed, args.samples),
    "marchal_arbel": lambda args: oracle.marchal_arbel_battery(args.seed, args.samples),
    "derandomisation": lambda args: oracle.derandomisation_battery(args.seed, args.samples),
    "sharpness": lambda args: oracle.sharpness_battery(args.seed, args.sharpness_samples),
}


def cmd_verify(args, out: str) -> int:
    selected = list(_BATTERIES) if args.battery == "all" else [args.battery]
    reports = []
    for name in selected:
        reports.extend(_BATTERIES[name](args))
    payload = [dataclasses.asdict(r) for r in reports]
    _write_json(os.path.join(out, "mcreports.json"), payload)
    _write_csv(
        os.path.join(out, "mcreports.csv"),
        ("label", "estimate", "stderr", "n_samples", "claim_bound", "direction", "verdict"),
        [(r.label, r.estimate, r.stderr, r.n_samples, r.claim_bound, r.direction,
          int(r.verdict)) for r in reports],
    )
    failed = [r for r in reports if not r.verdict]
    for r in failed:
        print(f"FAIL {r.label}: estimate={r.estimate} claim={r.claim_bound}",
              file=sys.stderr)
    return 4 if failed else 0


_COMPARE_PANELS = ((2000, 0.0), (2000, 0.1), (10000, 0.0), (10000, 0.1))
_COMPARE_D = 100
_COMPARE_DELTA = 0.5
# (column, bound id, weight draws): a bound that reads the weights gets one
# column per draw; the others read only d and take the first draw.
_COMPARE_COLUMNS = (("bg", "bg", 1), ("bgplus", "bgplus", 1), ("gz", "gz", 1),
                    ("bgplusplus", "bgplusplus", 3), ("ours", "dirichlet_margin", 3))


def cmd_compare(args, out: str) -> int:
    """Formula-level margin sweep reproducing the bound-comparison figure:
    d = 100, delta = 0.5, panels over m in {2000, 10000} and fixed margin
    loss in {0, 0.1}, with three uniform-simplex weight draws.  One
    ``margin_bound`` call per (panel, bound) covers every margin and every
    draw the bound reads, so a searched bound runs one search for its three
    draws; a margin where the bound does not hold is left empty."""
    gammas = np.linspace(0.005, 0.495, args.points)
    thetas = np.stack([
        np.random.default_rng((args.seed, i)).dirichlet(np.ones(_COMPARE_D))
        for i in range(3)
    ])
    header = ["gamma", "margin_error"]
    for name, _, draws in _COMPARE_COLUMNS:
        header += [name] if draws == 1 else [f"{name}_{i + 1}" for i in range(draws)]
    for m, loss in _COMPARE_PANELS:
        spec = BoundSpec(m=m, delta=_COMPARE_DELTA)
        columns = []
        for _, bid, draws in _COMPARE_COLUMNS:
            ok = bounds.margin_applies(bid, gammas, _COMPARE_D)
            for r in bounds.margin_bound(bid, loss, thetas[:draws], gammas[ok], spec):
                column = np.full(gammas.size, math.nan)
                column[ok] = r.value
                columns.append(column)
        rows = [(float(g), loss, *(None if math.isnan(c[i]) else float(c[i]) for c in columns))
                for i, g in enumerate(gammas)]
        _write_csv(
            os.path.join(out, f"compare_m{m}_loss{int(round(loss * 100)):02d}.csv"), header, rows
        )
    return 0


def _checked(convert, ok, requirement: str):
    """argparse type: convert the flag's text and require ok(value), so a
    bad value is a usage error (exit 2) rather than a traceback."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")

    return parse


def _list_of(convert, ok, entries: str):
    """argparse type: a comma-separated list of distinct entries, each
    converted and checked as ``_checked`` does.  The list is kept as text:
    the manifest records it as given."""

    def ok_list(text):
        items = [convert(item) for item in text.split(",")]
        return len(set(items)) == len(items) and all(map(ok, items))

    return _checked(str, ok_list, "a comma-separated list of distinct " + entries)


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_concentration = _checked(float, lambda v: 0.0 < v <= bounds._K_MAX,
                          f"a positive number <= {bounds._K_MAX:g}")
_confidence = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_bound_ids = _list_of(str, bounds.BOUND_IDS.__contains__, "ids of " + ", ".join(bounds.BOUND_IDS))
_objectives = _list_of(str, train.OBJECTIVES.__contains__, "ids of " + ", ".join(train.OBJECTIVES))
_natural = _checked(int, lambda v: v >= 0, "an integer >= 0")
# A Monte Carlo standard error needs at least two samples.
_samples = _checked(int, lambda v: v >= 2, "an integer >= 2")
_gammas = _list_of(float, lambda g: 0.0 < g < 0.5, "margins in (0, 1/2)")
_seeds = _list_of(int, lambda v: v >= 0, "integers >= 0")


def _add_certificate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=_confidence, default=0.05, help="confidence parameter")
    p.add_argument("--n-gamma", type=_count, default=SearchConfig.n_gamma, dest="n_gamma",
                   help="margin grid size for the certificate search")


def _add_training(p: argparse.ArgumentParser) -> None:
    cfg = train.TrainConfig
    p.add_argument("--gamma-candidates", type=_gammas,
                   default=",".join(map(str, cfg.gamma_candidates)), dest="gamma_candidates")
    p.add_argument("--max-epochs", type=_natural, default=cfg.max_epochs, dest="max_epochs")
    p.add_argument("--batch-size", type=_count, default=cfg.batch_size, dest="batch_size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votecert",
        description="Risk certificates for weighted majority-vote classifiers",
    )
    parser.add_argument("--manifest", default=None,
                        help="JSON manifest supplying defaults; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="evaluate certificates for given predictions")
    _add_certificate(p)
    p.add_argument("--predictions", default=None)
    p.add_argument("--theta", default=None, help="weights file, one value per line")
    p.add_argument("--k", type=_concentration, default=1.0, help="initial concentration")
    p.add_argument("--bounds", type=_bound_ids, default=",".join(DEFAULT_BOUNDS),
                   help="comma-separated bound ids")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("train", help="optimise weights on a prediction matrix")
    _add_certificate(p)
    _add_training(p)
    p.add_argument("--predictions", default=None)
    p.add_argument("--objective", default="stochastic_margin", choices=train.OBJECTIVES)
    p.add_argument("--seeds", type=_seeds, default="0")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("experiment", help="full pipeline: split, voters, train, certify")
    _add_certificate(p)
    _add_training(p)
    p.add_argument("--dataset", default=None)
    p.add_argument("--format", default="csv", choices=("csv", "libsvm"))
    p.add_argument("--label-column", default="label", dest="label_column")
    p.add_argument("--voter-mode", default="stumps", choices=("stumps", "rf", "ingest"),
                   dest="voter_mode")
    p.add_argument("--seeds", type=_seeds, default="0,1,2,3,4")
    p.add_argument("--objectives", type=_objectives, default="stochastic_margin")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="run the Monte Carlo oracle battery")
    p.add_argument("--battery", default="all", choices=("all", *_BATTERIES))
    p.add_argument("--samples", type=_samples, default=100_000)
    p.add_argument("--sharpness-samples", type=_samples, default=1_000_000,
                   dest="sharpness_samples")
    p.add_argument("--seed", type=_natural, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="emit bound-vs-margin comparison curves")
    p.add_argument("--points", type=_count, default=99)
    p.add_argument("--seed", type=_natural, default=0)
    p.set_defaults(func=cmd_compare)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="output directory (or $VOTECERT_OUTDIR)")
    return parser


def _apply_manifest(parser, argv):
    """Parse once to find --manifest, then re-parse with the manifest's
    values added as flags, so they pass the same argparse checks.  Flags
    given explicitly win: their values are not taken from the manifest, and
    the manifest's flags go right after the command name, before any
    explicit (possibly abbreviated) flag that argparse parses later."""
    args = parser.parse_args(argv)
    if args.manifest is None:
        return args
    with open(args.manifest) as fh:
        try:
            stored = json.load(fh)
        except json.JSONDecodeError as exc:
            raise data.DataError(f"{args.manifest}: not a JSON manifest: {exc}") from None
    if not isinstance(stored, dict):
        raise data.DataError(f"{args.manifest}: a manifest is a JSON object")
    explicit = {a.split("=")[0].lstrip("-").replace("-", "_") for a in argv
                if a.startswith("--")}
    flags = []
    for key, value in stored.items():
        if hasattr(args, key) and key not in explicit | {"command"} and value is not None:
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            flags.append(f"--{key.replace('_', '-')}={value}")
    start = argv.index("--manifest") + 2 if "--manifest" in argv else 0
    at = argv.index(args.command, start) + 1
    return parser.parse_args(argv[:at] + flags + argv[at:])


# The input flag each command cannot run without.  It has no argparse
# default so that a manifest can supply it.
_REQUIRED = {"certify": "predictions", "train": "predictions", "experiment": "dataset"}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_manifest(parser, argv)
        required = _REQUIRED.get(args.command)
        if required and getattr(args, required) is None:
            print(f"error: --{required} is required", file=sys.stderr)
            return 2
        out = args.out or os.environ.get("VOTECERT_OUTDIR") or "votecert_out"
        os.makedirs(out, exist_ok=True)
        t0 = time.perf_counter()
        rc = args.func(args, out)
        seconds = time.perf_counter() - t0
        flags = {k: v for k, v in vars(args).items() if k not in ("func", "manifest", "out")}
        _write_json(os.path.join(out, "manifest.json"), {**flags, "tool_version": __version__})
        _write_json(os.path.join(out, "timing.json"), {"seconds": seconds})
        return rc
    except SystemExit as exc:  # argparse has reported a usage error (or --help)
        return exc.code
    except (data.DataError, voters.PredictionFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
