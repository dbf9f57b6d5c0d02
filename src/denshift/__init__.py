"""denshift: density-aware training for class-imbalanced tabular classification.

The toolkit trains a shared dense backbone with two classifier heads fed
by decoupled batch streams (regular and class-balanced sampling), using a
density-aware margin loss and an optionally trainable misclassification
cost matrix, and evaluates with imbalance-aware metrics (AUC-PRC, Brier
Skill Score, calibration bins).
"""

from .data import (
    Dataset,
    NormStats,
    SynthConfig,
    apply_preprocess,
    fit_preprocess,
    gen_synthetic,
    imbalance_ratio,
    load_csv,
    save_csv,
    stratified_split,
)
from .errors import (
    DenshiftError,
    NumericalError,
    ParseError,
    SchemaError,
    UnsupportedTaskError,
    ValidationError,
)
from .losses import (
    CostParams,
    ce,
    cost_loss,
    current_costs,
    dah_softmax,
    delta_margins,
    focal,
    softmax,
)
from .metrics import (
    CalibrationTable,
    ScoredSet,
    auc_prc,
    auc_roc,
    brier,
    bss,
    calibration_bins,
    macro_auc,
    macro_micro_auc,
    nll,
    score_report,
    temperature_apply,
    temperature_fit,
)
from .nn import (
    ForwardTrace,
    Gradients,
    ModelParams,
    OptState,
    backward,
    forward,
    grad_check,
    init_mlp,
    load_checkpoint,
    opt_step,
    save_checkpoint,
)
from .sampling import BatchPair, SamplerState, class_probs, epoch_batches, next_batch_pair
from .training import (
    EpochRecord,
    TrainConfig,
    TrainHistory,
    VariantSpec,
    VARIANTS,
    predict,
    run_ablation,
    sweep_theta,
    train,
    variant_losses,
)

__version__ = "0.1.0"
