"""The benchmark tracer still finds every span and reads every scoring call.

``perfbench/tracer.py`` finds functions by name and reads fitted model
parameters by key; a refactor that renames either makes a per-layer metric
read 0 without failing the benchmark, so this test runs the tracer itself.
"""

import importlib.util
from pathlib import Path

from helpers import make_synthetic_data
from scq import bench, modelselect
from scq.bench import MethodSpec, paper_synthetic_config
from scq.modelselect import CoinStream, Toolbox
from scq.scoring import ClassifierSpec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_kde_selection_has_every_span_and_no_hook_error():
    tracer = load_tracer()
    data = make_synthetic_data(m=60, p=2, mu=3.0, seed=3)
    toolbox = Toolbox((ClassifierSpec("OCC", "kde"), ClassifierSpec("PUC", "kde-ratio")))
    with tracer.Tracer() as traced:
        traced.solve = 0
        modelselect.ptams_plus(toolbox, data, 0.1, CoinStream(seed=1))
    assert traced.absent == []
    assert traced.hook_errors == 0
    metrics = tracer.layer_metrics(traced.spans, [0])
    rows = data.split.cal.shape[0] + 2 * data.m
    n_train = data.split.train.shape[0]
    # each batch meets the train-null KDE once, shared by both candidates,
    # and the mixture KDE over the test + mirror + calibration pool once
    assert metrics["scoring.rows_scored"][0] == 2 * rows
    assert metrics["scoring.pair_evals"][0] == rows * n_train + rows * rows


def test_traced_compare_scores_each_classifier_once_per_replication():
    # every method reads the shared table's scores, so a method that scores a
    # batch the table already scored raises the row count
    tracer = load_tracer()
    cfg = paper_synthetic_config(m=90, p=2, mu=3.0)
    specs = (ClassifierSpec("OCC", "gaussian"), ClassifierSpec("OCC", "kde"))
    methods = [
        MethodSpec(name=f"{pipeline}-{spec.method}", pipeline=pipeline, classifier=spec)
        for spec in specs
        for pipeline in ("scq", "bc-unweighted", "cfbh")
    ] + [MethodSpec(name="ptams", pipeline="ptams", toolbox=Toolbox(specs))]
    reps = 2
    with tracer.Tracer() as traced:
        traced.solve = 0
        rows = bench.compare(methods, cfg, reps, master_seed=5, alpha=0.1)
    assert traced.absent == []
    assert traced.hook_errors == 0
    assert [row.reps for row in rows] == [reps] * len(methods)
    metrics = tracer.layer_metrics(traced.spans, [0])
    rest = cfg.null_pool_size - cfg.m
    n_cal = rest - round(0.5 * rest)
    assert metrics["scoring.rows_scored"][0] == reps * len(specs) * (n_cal + 2 * cfg.m)
