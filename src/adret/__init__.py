"""Bi-encoder contrastive retrieval with adaptive pooling and adaptive
negative sampling, runnable end to end on a synthetic paired corpus."""

from .data import Corpus, RawInstance, SyntheticCorpusConfig, ground_truth
from .encoders import (BiEncoder, EncoderParams, PreparedSplit, evaluate_split,
                       init_encoder_params, project, split_scores)
from .evaluation import RetrievalResult, evaluate_scores, recall_at_k
from .objectives import (
    BatchMaturity,
    LossConfig,
    NegativeSelection,
    adaptive_k,
    alignment,
    batch_loss,
    contrastive_loss,
    negative_count,
    select_negatives,
    uniformity,
)
from .pooling import PoolParams, PoolingSpec, pool_weights
from .tensor import GradCheckReport, finite_diff_check
from .training import AdamState, TrainConfig, TrainLog, adam_step, lr_at, train

__version__ = "0.1.0"
