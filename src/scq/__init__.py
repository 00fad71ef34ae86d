"""Structure-adaptive conformal inference for out-of-distribution testing.

Calibrated q-values and mirror thresholding over weighted conformal
p-value pairs, with finite-sample false discovery rate control, learned
structural weights, transductive model selection, and a seeded
replication harness.
"""

from .conformal import (
    RejectionSet,
    ScorePairs,
    bc_threshold,
    bh,
    build_pairs,
    conformal_pvalue,
    conformal_pvalues,
    ebh,
    evalues,
    mirror_stat,
    scq_qvalues,
    scq_reject,
    storey_bh,
)
from .datamodel import (
    InferenceData,
    LabeledPool,
    NullSplit,
    SideInfo,
    SyntheticConfig,
    TestSet,
    generate_hierarchical,
    load_csv,
    save_csv,
    split_nulls,
)
from .modelselect import (
    CoinStream,
    SelectionTrace,
    Toolbox,
    preliminary_partition,
    pseudo_scores,
    ptams,
    ptams_plus,
)
from .pipeline import SCQResult, ScoreTable, WeightConfig, run_cfbh, run_scq
from .scoring import (
    ClassifierSpec,
    ScoreModel,
    TrainContext,
    fit_score,
    score,
    score_batch,
    verify_swap_invariance,
)
from .weights import (
    SparsityEstimate,
    WeightMatrix,
    WeightVector,
    estimate_sparsity,
    oracle_weights,
    structure_weights,
    weight_matrix,
)

__version__ = "0.1.0"
