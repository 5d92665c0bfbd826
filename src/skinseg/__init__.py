"""Two-stage pixel + neighbourhood skin-colour segmentation toolkit."""

from .classifiers import (
    BayesModel,
    ClassProbabilities,
    ThresholdRange,
    TreeConfig,
    TreeModel,
    bayes_fit,
    bayes_predict_batch,
    threshold_scores,
    tree_fit,
    tree_predict_batch,
)
from .colorspace import (
    YcbcrPixel,
    rgb_to_hsv_array,
    rgb_to_ycbcr_array,
)
from .dataset import (
    DatasetError,
    HsvSamples,
    Label,
    RawSample,
    RawSamples,
    SplitConfig,
    load_uci,
    parse_uci,
    split,
    to_hsv_samples,
)
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    RocCurve,
    confusion_from_flags,
    format_report,
    parse_report,
    roc_auc,
    scalar_metrics,
)
from .model_io import SavedModel, dataset_fingerprint, load_model, save_model
from .neighbourhood import (
    NeighbourhoodConfig,
    ProbabilityMap,
    Rule,
    likeliness,
    refine,
)
from .nn import MlpArchitecture, MlpModel, TrainConfig, train
from .raster import (
    Image,
    PnmError,
    SkinMask,
    downscale_half,
    read_pgm,
    read_ppm,
    upscale_mask_2x,
    write_pgm,
    write_ppm,
)
from .segment import SegmentResult, segment_image, stage1_probabilities

__version__ = "1.0.0"
