"""Spans around the public functions of the votecert modules.

The tracer replaces module attributes with timing wrappers, so calls made
inside a module (which look the name up in the module's globals) are caught
as well as calls from other modules.  Each call records one span (name,
start, end, parent) in memory; a layer's self time is its spans' duration
minus the duration of their direct child spans.  Nothing here touches the
library's files, and ``uninstall`` restores every original function.
"""
from __future__ import annotations

import csv
import functools
import gzip
import inspect
import time
from collections import Counter

import numpy as np

from workloads import BOUND_IDS

# Modules whose public functions are wrapped, and the CLI entry point.
MODULES = ("numkern", "votes", "bounds", "train", "voters", "data", "oracle")
CLI_FUNCTIONS = ("main",)

# Functions whose work is counted in lanes: the size of the largest array
# argument of each call.
LANE_FUNCTIONS = frozenset({
    "numkern.reg_inc_beta_with_grad",
    "numkern.reg_inc_beta",
    "numkern.kl_inv_vec",
    "numkern.log_gamma",
    "numkern.digamma",
    "votes.beta_margin_loss_terms",
})

BATTERIES = frozenset({
    "oracle.aggregation_battery",
    "oracle.marchal_arbel_battery",
    "oracle.derandomisation_battery",
    "oracle.sharpness_battery",
})


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _lanes(args, kwargs) -> int:
    sizes = [a.size for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
    return max(sizes, default=1)


class Tracer:
    """Collects spans and counters for one pass at a time (see ``reset``)."""

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._originals: list = []

    def reset(self) -> None:
        for seq in (self.names, self.parents, self.starts, self.ends, self._stack):
            del seq[:]
        self.counters.clear()

    # -- installing ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the traced modules of ``package``."""
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr, fn in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    self._replace(module, attr, f"{mod_name}.{attr}", fn)
        for attr in CLI_FUNCTIONS:
            self._replace(package.cli, attr, f"cli.{attr}", getattr(package.cli, attr))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        del self._originals[:]

    def _replace(self, module, attr, name, fn) -> None:
        self._originals.append((module, attr, fn))
        setattr(module, attr, self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        counters = self.counters
        observe = _OBSERVERS.get(name)
        count_lanes = name in LANE_FUNCTIONS
        lanes_key = f"{name}.lanes"
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_lanes:
                counters[lanes_key] += _lanes(args, kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result, ends[idx] - t0)
            return result

        return traced

    # -- summarising --------------------------------------------------------

    def span_totals(self):
        """Per span name: (calls, inclusive seconds, self seconds), plus the
        seconds covered by root spans."""
        n = len(self.names)
        if n == 0:
            return {}, 0.0
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=n)
        own = dur - child
        keys, inverse = np.unique(np.asarray(self.names), return_inverse=True)
        calls = np.bincount(inverse, minlength=keys.size)
        incl = np.bincount(inverse, weights=dur, minlength=keys.size)
        self_s = np.bincount(inverse, weights=own, minlength=keys.size)
        totals = {
            str(k): (int(c), float(i), float(s))
            for k, c, i, s in zip(keys, calls, incl, self_s)
        }
        return totals, float(dur[~nested].sum())

    def write_spans(self, path: str) -> None:
        """Write the current spans as gzipped CSV (times relative to the first
        span's start)."""
        origin = min(self.starts, default=0.0)
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("span", "parent", "name", "start_s", "end_s"))
            for i, (name, parent, t0, t1) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                writer.writerow((i, parent, name, f"{t0 - origin:.9f}", f"{t1 - origin:.9f}"))


# -- per-function observers: counters read from a call's arguments/result ----

def _observe_reg_inc_beta(counters, args, kwargs, result, seconds):
    a = np.max(_arg(args, kwargs, 1, "a"))
    b = np.max(_arg(args, kwargs, 2, "b"))
    key = "numkern.reg_inc_beta.max_param"
    counters[key] = max(counters[key], float(max(a, b)))


def _observe_kl_inv_vec(counters, args, kwargs, result, seconds):
    counters["numkern.kl_inv_vec.saturated"] += int(np.count_nonzero(np.asarray(result) >= 1.0))


def _observe_certify(counters, args, kwargs, result, seconds):
    bound_id = _arg(args, kwargs, 3, "bound_id")
    counters[f"bounds.certify.{bound_id}.s"] += seconds
    for flag in ("vacuous", "theta_floored"):
        if flag in result.flags:
            counters[f"bounds.certify.{flag}"] += 1


def _observe_train_posterior(counters, args, kwargs, result, seconds):
    counters["train.candidate_runs"] += len(result.runs)
    counters["train.kept_runs"] += 1
    counters["train.failed_runs"] += sum(1 for run in result.runs if run.failed)
    counters["train.epochs"] += sum(
        1 for run in result.runs for rec in run.history if rec.epoch > 0
    )


def _observe_sample_dirichlet(counters, args, kwargs, result, seconds):
    counters["oracle.sample_dirichlet.samples"] += int(_arg(args, kwargs, 1, "n"))


def _observe_battery(counters, args, kwargs, result, seconds):
    counters["oracle.reports"] += len(result)
    counters["oracle.reports_failed"] += sum(1 for r in result if not r.verdict)


_OBSERVERS = {
    "numkern.reg_inc_beta": _observe_reg_inc_beta,
    "numkern.kl_inv_vec": _observe_kl_inv_vec,
    "bounds.certify": _observe_certify,
    "train.train_posterior": _observe_train_posterior,
    "oracle.sample_dirichlet": _observe_sample_dirichlet,
    **{name: _observe_battery for name in BATTERIES},
}


# -- the per-layer metric table ---------------------------------------------

def _fields(prefix: str, *fields: str) -> list:
    return [f"{prefix}.{f}" for f in fields]


PER_LAYER_NAMES = [
    *_fields("numkern.reg_inc_beta_with_grad", "calls", "lanes", "self_s"),
    *_fields("numkern.reg_inc_beta", "calls", "lanes", "self_s", "max_param"),
    *_fields("numkern.kl_inv_vec", "calls", "lanes", "self_s", "saturated_frac"),
    *_fields("numkern.kl_inv", "calls", "self_s"),
    *_fields("numkern.log_gamma", "calls", "lanes", "self_s"),
    *_fields("numkern.digamma", "calls", "lanes", "self_s"),
    *_fields("numkern.trigamma", "calls", "self_s"),
    *_fields("numkern.dirichlet_kl", "calls", "self_s"),
    *_fields("votes.margins", "calls", "self_s"),
    *_fields("votes.beta_margin_loss_terms", "calls", "lanes", "self_s"),
    *_fields("bounds.certify", "calls", "self_s"),
    *(f"bounds.certify.{bid}.s" for bid in BOUND_IDS),
    *_fields("bounds.certify", "vacuous", "theta_floored"),
    *_fields("bounds.dirichlet_margin_best_K", "calls", "self_s"),
    *_fields("bounds.bgplusplus_from_loss", "calls", "self_s"),
    *_fields("train.train_posterior", "calls", "s"),
    *_fields("train.objective", "calls", "self_s"),
    *_fields("train.f2_objective", "calls", "self_s"),
    *_fields("train.fo_objective", "calls", "self_s"),
    *_fields("train.adam_step", "calls", "self_s"),
    "train.epochs", "train.failed_runs", "train.useful_run_ratio",
    *_fields("voters.make_stumps", "s"),
    *_fields("voters.predict_matrix", "s"),
    *_fields("data.parse_csv", "s"),
    *_fields("data.make_split", "s"),
    *_fields("data.standardize", "s"),
    *_fields("oracle.sample_dirichlet", "calls", "samples", "self_s"),
    *(f"oracle.{fn}.self_s" for fn in (
        "verify_derandomisation", "verify_beta_sharpness", "verify_marchal_arbel",
        "verify_aggregation", "ks_statistic",
    )),
    "oracle.reports", "oracle.reports_failed",
    "cli.main.s", "cli.self_s",
    "trace.overhead_s", "trace.coverage",
]

_RATIO_NAMES = {"numkern.kl_inv_vec.saturated_frac", "train.useful_run_ratio",
                "trace.coverage"}


def unit_of(name: str) -> str:
    if name in _RATIO_NAMES:
        return "ratio"
    if name.endswith("max_param"):
        return "1"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def is_exact(name: str) -> bool:
    """Counts and other values derived from the work alone, not from the
    clock: they must repeat from pass to pass, and from run to run at one
    seed."""
    return unit_of(name) != "s" and name != "trace.coverage"


def pass_metrics(tracer: Tracer, pass_seconds: float) -> dict:
    """Every per-layer metric for the pass just traced, except the overhead,
    which needs the untraced passes too."""
    totals, root_seconds = tracer.span_totals()
    counters = tracer.counters
    out = {}
    for name in PER_LAYER_NAMES:
        span, _, field = name.rpartition(".")
        if name in counters:
            out[name] = counters[name]
        elif field in ("calls", "s", "self_s"):
            calls, incl, own = totals.get(span, (0, 0.0, 0.0))
            out[name] = {"calls": calls, "s": incl, "self_s": own}[field]
        else:
            out[name] = 0
    lanes = counters.get("numkern.kl_inv_vec.lanes", 0)
    out["numkern.kl_inv_vec.saturated_frac"] = (
        counters.get("numkern.kl_inv_vec.saturated", 0) / lanes if lanes else 0.0
    )
    runs = counters.get("train.candidate_runs", 0)
    out["train.useful_run_ratio"] = counters.get("train.kept_runs", 0) / runs if runs else 0.0
    out["cli.self_s"] = totals.get("cli.main", (0, 0.0, 0.0))[2]
    out["trace.coverage"] = root_seconds / pass_seconds if pass_seconds > 0 else 0.0
    out.pop("trace.overhead_s")
    return out
