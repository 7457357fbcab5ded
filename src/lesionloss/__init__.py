"""Volumetric segmentation-loss engine with size-adaptive lesion weighting."""

from .components import (
    Connectivity,
    LesionLabeling,
    label_components,
    labeling_to_volume,
    lesion_volume_mm3,
)
from .loss import (
    CombinedParams,
    LossReport,
    TverskyParams,
    combined_loss,
    cross_entropy_loss,
    evaluate_loss,
    grad_check,
    tversky_loss,
    wlt_loss,
)
from .metrics import (
    CaseOutcome,
    MetricReport,
    UndefinedMetricError,
    apply_empty_fallback,
    auc,
    dice,
    hausdorff,
    kappa,
    read_outcomes,
    write_outcomes,
)
from .synth import (
    LesionGeometry,
    Phantom,
    PhantomSpec,
    generate,
    regenerate_phantom,
    save_phantom,
    shrink,
)
from .trainer import (
    BucketRecall,
    LesionRecallReport,
    TrainConfig,
    VoxelScorer,
    evaluate_lesionwise,
    extract_features,
    load_scorer,
    make_corpus,
    save_scorer,
    scorer_loss,
    train,
)
from .volume import (
    GridShape,
    Mask,
    ShapeMismatchError,
    Volume,
    VolumeFormatError,
    load_mask,
    load_volume,
    save_mask,
    save_volume,
    threshold,
)
from .weighting import (
    WeightCurveParams,
    WeightMap,
    build_weight_map,
    omega,
    weight_map_to_volume,
)

__version__ = "0.1.0"
