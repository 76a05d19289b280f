"""voxid: two-stream speaker identification.

Vocal-tract (filterbank cepstra) and vocal-source (LP-residual
autocorrelation) features, diagonal-GMM speaker models, and linear
score-level fusion, with a synthetic corpus generator for end-to-end
experiments.  The package root holds the end-to-end entry points; every
lower-level piece is importable from its own module.
"""

from .audio_io import read_wav
from .errors import VoxidError
from .gmm import GmmModel
from .sid_pipeline import (
    FusionConfig,
    PipelineConfig,
    evaluate,
    identify,
    load_database,
    load_manifest,
    synth_corpus,
    train_database,
)

__version__ = "0.1.0"
