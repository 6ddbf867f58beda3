"""Environmental sound classification toolkit.

Log gammatone-band features, an attention-based convolutional recurrent
classifier on a self-contained numpy autodiff engine, SGD-Nesterov training
with mixup/stretch/shift augmentation, and a 5-fold cross-validation harness.
"""

__version__ = "0.1.0"

from .augment import AugmentConfig, mix_batch, pitch_shift, time_stretch
from .autodiff import BatchNormState, ShapeError, Tensor
from .data import SegmentDataset
from .evaluate import (
    EvalReport, ablate, confusion_matrix, cross_validate, predict_clip, predict_clips,
)
from .features import (
    GammatoneFilterbank, LogGTSegment, NormStats, WaveClip, apply_norm,
    build_gammatone_filterbank, compute_norm_stats, delta, extract_segments, log_gt,
    normalize, segment, stft_power,
)
from .model import ACRNNConfig, ModelParams, build, forward, shape_trace
# the train() entry point stays at esckit.train.train so the function name
# does not shadow the submodule on the package namespace
from .train import TrainConfig, TrainHistory, lr_schedule, sgd_nesterov_step

__all__ = [
    "ACRNNConfig", "AugmentConfig", "BatchNormState", "EvalReport", "GammatoneFilterbank",
    "LogGTSegment", "ModelParams", "NormStats", "SegmentDataset", "ShapeError", "Tensor",
    "TrainConfig", "TrainHistory", "WaveClip", "ablate", "apply_norm",
    "build", "build_gammatone_filterbank", "compute_norm_stats", "confusion_matrix",
    "cross_validate", "delta", "extract_segments", "forward", "log_gt", "lr_schedule",
    "mix_batch", "normalize", "pitch_shift", "predict_clip", "predict_clips",
    "segment", "sgd_nesterov_step", "shape_trace", "stft_power", "time_stretch",
]
