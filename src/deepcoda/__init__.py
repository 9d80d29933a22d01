"""Normalization-free log-contrast models with per-sample self-explanation."""

from .coda import (
    CompositionMatrix,
    closure,
    clr,
    log_contrast,
    replace_zeros,
    subcomposition,
)
from .simulate import SyntheticDataset, gen_cmyc, gen_toy
from .model import (
    DeepCodaParams,
    ForwardTrace,
    forward,
    gradients,
    load_params,
    loss,
    loss_and_gradients,
    params_from_text,
    params_to_text,
    predict_proba,
    save_params,
)
from .train import (
    TrainConfig,
    TrainReport,
    TrainingDivergedError,
    init_params,
    train,
)
from .evaluate import (
    BenchmarkResult,
    LabeledDataset,
    Method,
    auc,
    benchmark,
    grid_search,
    make_deepcoda_method,
    make_lasso_method,
    results_to_csv,
    split,
    standardize_scores,
)
from .baselines import (
    LassoModel,
    apply_transform,
    cv_select_lambda,
    lasso_logistic_fit,
    lasso_objective,
    scaled_magnitudes,
    soft_threshold,
)
from .explain import (
    ContrastMembership,
    Explanation,
    ExplanationBatch,
    ReportBundle,
    contrast_membership,
    decision_rule,
    explain_batch,
    explain_sample,
    render_report,
    weight_contrast_correlation,
)

__version__ = "0.1.0"
