"""Seeded financial time-series toolkit.

OHLCV ingestion and trend labeling, fifteen technical indicators, a
from-scratch autodiff core with LSTM/conv kernels, an adversarial Bi-LSTM
generator with a CNN discriminator, recurrent autoencoder baselines,
feature selection, randomized PCA, and curve metrics.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, backward
from .market_data import (
    LabelSeries,
    PriceSeries,
    WindowSpec,
    label_trend,
    parse_csv,
    serialize_csv,
    sliding_windows,
)
from .indicators import FEATURE_ORDER, FeatureMatrix, build_feature_matrix
from .metrics import MetricsReport, compare_sequences, frechet_distance, pearson_r, prd, rmse
from .gan import (
    DiscriminatorConfig,
    GeneratorConfig,
    TrainConfig,
    sample_noise,
    train_gan,
)
from .baselines import AeConfig, autoencoder_loss, reparameterize, train_baseline
from .features import RfeReport, pca_transform, randomized_pca_fit, rfe
from .checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint

__all__ = [
    "__version__",
    "Tensor", "backward",
    "PriceSeries", "WindowSpec", "LabelSeries",
    "parse_csv", "serialize_csv", "sliding_windows", "label_trend",
    "FEATURE_ORDER", "FeatureMatrix", "build_feature_matrix",
    "MetricsReport", "pearson_r", "prd", "rmse", "frechet_distance", "compare_sequences",
    "GeneratorConfig", "DiscriminatorConfig", "TrainConfig",
    "sample_noise", "train_gan",
    "AeConfig", "autoencoder_loss", "reparameterize", "train_baseline",
    "RfeReport", "rfe", "randomized_pca_fit", "pca_transform",
    "ModelCheckpoint", "save_checkpoint", "load_checkpoint",
]
