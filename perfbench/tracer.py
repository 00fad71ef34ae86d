"""In-memory span tracer that wraps the public functions of the ``scq`` modules.

A :class:`Tracer` rebinds every public function of each ``scq`` submodule,
plus a short list of named private helpers, in every ``scq`` module
namespace that holds it: the home module (for intra-module calls and for
the benchmark's ``module.function`` lookups) and each module that imported
it by name.  Each call then records a span ``(name, start_ns, end_ns,
parent, solve)`` and, for a few functions, counts read from its arguments
and result.  :meth:`Tracer.uninstall` restores the original bindings.

Nothing here changes what a wrapped function computes: the wrapper passes
its arguments through and returns the original result object.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import resource
import time

# Private helpers worth their own span.  A later refactor may rename or
# delete them; a missing one is reported as an absent span.
PRIVATE_TARGETS = (
    "cli._dump_weights",
    "cli._write_json",
    "modelselect._pseudo_rejection_count",
    "bench._replicate_once",
)

# Functions the per-layer metrics are computed from.  Any that is missing
# after a refactor is reported as absent and its metric reads 0.
METRIC_TARGETS = (
    "weights.estimate_sparsity",
    "weights.dump_weight_diagnostics",
    "scoring.fit_score",
    "scoring.score_batch",
    "conformal.conformal_pvalues",
    "conformal.scq_qvalues",
    "conformal.bc_threshold",
    "conformal.scq_reject",
    "conformal.count_tied_pairs",
    "pipeline.weighted_pairs",
    "modelselect.preliminary_partition",
    "datamodel.load_csv",
    "datamodel.generate_hierarchical",
    "bench.compare",
    "cli.main",
) + PRIVATE_TARGETS

CALIBRATE = (
    "conformal.scq_qvalues",
    "conformal.bc_threshold",
    "conformal.scq_reject",
    "conformal.ebh",
    "conformal.evalues",
    "conformal.mirror_stat",
    "conformal.bh",
    "conformal.storey_bh",
)

NAME, START, END, PARENT, SOLVE, INFO = range(6)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _estimate_info(args, kwargs, result):
    raw, pi_hat = result.raw, result.pi_hat
    return {"units": len(raw), "clipped": int((raw != pi_hat).sum())}


def _score_batch_info(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    rows = len(result)
    params = model.params
    if model.method in ("kde", "knn"):
        n_ref = params["train"].shape[0]
    elif model.method == "kde-ratio":
        n_ref = params["null_kde"]["train"].shape[0] + params["mix_kde"]["train"].shape[0]
    else:
        n_ref = 0
    return {"rows": rows, "pair_evals": rows * n_ref}


def _tied_info(args, kwargs, result):
    return {"tied": int(result)}


def _compare_info(args, kwargs, result):
    reps = args[2] if len(args) > 2 else kwargs["reps"]
    return {"failed_reps": sum(int(reps) - row.reps for row in result)}


INFO_HOOKS = {
    "weights.estimate_sparsity": _estimate_info,
    "scoring.score_batch": _score_batch_info,
    "conformal.count_tied_pairs": _tied_info,
    "bench.compare": _compare_info,
}
RSS_TRACKED = ("scoring.fit_score", "scoring.score_batch")


class Tracer:
    """Records spans for calls into ``scq`` while installed."""

    def __init__(self):
        self.spans = []
        self.solve = None
        self.absent = []
        self.hook_errors = 0
        self._stack = []
        self._saved = []

    def install(self) -> None:
        import scq

        modules = {
            info.name: importlib.import_module(f"scq.{info.name}")
            for info in pkgutil.iter_modules(scq.__path__)
            if not info.name.startswith("_")
        }
        originals = {}
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    originals[obj] = f"{mod_name}.{attr}"
        for target in PRIVATE_TARGETS:
            mod_name, attr = target.split(".")
            obj = getattr(modules.get(mod_name), attr, None)
            if inspect.isfunction(obj):
                originals[obj] = target
        present = set(originals.values())
        self.absent = [t for t in METRIC_TARGETS if t not in present]
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, name):
        hook = INFO_HOOKS.get(name)
        track_rss = name in RSS_TRACKED
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.solve, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            rss0 = maxrss_mb() if track_rss else 0.0
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            info = {}
            if track_rss:
                info["rss_growth_mb"] = maxrss_mb() - rss0
            if hook is not None:
                try:
                    info.update(hook(args, kwargs, result))
                except (AttributeError, KeyError, TypeError, IndexError, ValueError):
                    self.hook_errors += 1
            if info:
                span[INFO] = info
            return result

        return wrapper


def layer_metrics(spans, solves) -> dict:
    """Per-layer figures averaged over ``solves`` (the traced solve ids).

    Times are seconds per solve; counts are per solve; ``clipped_frac`` is
    a ratio over all units weighted; ``rss_growth_mb`` is the largest rise
    of the peak RSS across one scoring call.
    """
    solves = set(solves)
    mine = [i for i, s in enumerate(spans) if s[SOLVE] in solves]
    n = max(1, len(solves))

    def dur(i):
        return spans[i][END] - spans[i][START]

    children_time = {}
    for i in mine:
        parent = spans[i][PARENT]
        if parent >= 0:
            children_time[parent] = children_time.get(parent, 0) + dur(i)

    def has_ancestor(i, names):
        parent = spans[i][PARENT]
        while parent >= 0:
            if spans[parent][NAME] in names:
                return True
            parent = spans[parent][PARENT]
        return False

    def inclusive_s(names):
        names = set(names)
        total = sum(dur(i) for i in mine if spans[i][NAME] in names and not has_ancestor(i, names))
        return total / 1e9 / n

    def self_s(module):
        prefix = module + "."
        total = sum(dur(i) - children_time.get(i, 0) for i in mine if spans[i][NAME].startswith(prefix))
        return total / 1e9 / n

    def count(name):
        return sum(1 for i in mine if spans[i][NAME] == name) / n

    def info_sum(name, key):
        return sum((spans[i][INFO] or {}).get(key, 0) for i in mine if spans[i][NAME] == name)

    def info_max(names, key):
        vals = [(spans[i][INFO] or {}).get(key, 0.0) for i in mine if spans[i][NAME] in names]
        return max(vals, default=0.0)

    units = info_sum("weights.estimate_sparsity", "units")
    fit_spans = [i for i in mine if spans[i][NAME] == "scoring.fit_score"]
    ms_names = {s[NAME] for s in spans if s[NAME].startswith("modelselect.")}
    return {
        "weights.estimate_s": (inclusive_s(["weights.estimate_sparsity"]), "s"),
        "weights.calls": (count("weights.estimate_sparsity"), "count"),
        "weights.units": (units / n, "count"),
        "weights.clipped_frac": (
            info_sum("weights.estimate_sparsity", "clipped") / units if units else 0.0,
            "fraction",
        ),
        "scoring.fit_s": (inclusive_s(["scoring.fit_score"]), "s"),
        "scoring.fit_calls": (count("scoring.fit_score"), "count"),
        "scoring.score_s": (inclusive_s(["scoring.score_batch", "scoring.score"]), "s"),
        "scoring.rows_scored": (info_sum("scoring.score_batch", "rows") / n, "count"),
        "scoring.pair_evals": (info_sum("scoring.score_batch", "pair_evals") / n, "count"),
        "scoring.rss_growth_mb": (info_max(RSS_TRACKED, "rss_growth_mb"), "MB"),
        "conformal.pvalues_s": (
            inclusive_s(["conformal.conformal_pvalues", "conformal.conformal_pvalue"]),
            "s",
        ),
        "conformal.calibrate_s": (inclusive_s(CALIBRATE), "s"),
        "conformal.tied_pairs": (info_sum("conformal.count_tied_pairs", "tied") / n, "count"),
        "pipeline.self_s": (self_s("pipeline"), "s"),
        "pipeline.weighted_pairs_s": (inclusive_s(["pipeline.weighted_pairs"]), "s"),
        "modelselect.self_s": (self_s("modelselect"), "s"),
        "modelselect.candidate_fits": (
            sum(1 for i in fit_spans if has_ancestor(i, ms_names)) / n,
            "count",
        ),
        "modelselect.pseudo_s": (
            inclusive_s(["modelselect.preliminary_partition", "modelselect._pseudo_rejection_count"]),
            "s",
        ),
        "datamodel.load_csv_s": (inclusive_s(["datamodel.load_csv"]), "s"),
        "datamodel.generate_s": (
            inclusive_s(["datamodel.generate_hierarchical", "datamodel.split_nulls"]),
            "s",
        ),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.write_s": (inclusive_s(["cli._write_json", "weights.dump_weight_diagnostics"]), "s"),
        "bench.self_s": (self_s("bench"), "s"),
        "bench.failed_reps": (info_sum("bench.compare", "failed_reps"), "count"),
    }


def write_spans(spans, path) -> None:
    """Write spans as CSV: index,name,start_ns,end_ns,parent,solve."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_ns,end_ns,parent,solve\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[SOLVE]}\n")
