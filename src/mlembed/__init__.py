"""Metric learning for multi-labelled data.

Loss family (contrastive, triplet, averaged group, smooth-bound, overlap-
aware ML2 and its single-label-positive ML2+ variant), anchor/positive/
negative sampling, a small L2-normalized embedding encoder trained from
scratch, and a clustering/retrieval/classification evaluation stack.
"""

from .dataset import (
    Dataset,
    DatasetSplits,
    Example,
    SyntheticSpec,
    default_synthetic_spec,
    generate_synthetic,
    load_jsonl,
    load_jsonl_files,
    save_jsonl,
)
from .losses import (
    LossConfig,
    contrastive_batch_loss,
    contrastive_loss,
    dist,
    group_loss,
    max_negative,
    ml2_batch_loss,
    ml2_loss,
    ml2plus_loss,
    overlap_tau,
    pretrain_batch_loss,
    pretrain_loss,
    smooth_max_negative,
    triplet_batch_loss,
    triplet_loss,
)
from .model import EmbeddingModel, EncoderConfig
from .numeric import ParamStore, check_gradient, l2_normalize, matmul
from .sampler import (
    GroupBatch,
    build_minibatch,
    sample_group_ml2,
    sample_group_ml2plus,
)
from .trainer import TrainConfig, TrainReport, lr_schedule, sgd_step, train
from .evaluation import (
    ClassificationMetrics,
    MetricsReport,
    evaluate_embeddings,
    kmeans,
    label_set_clusters,
    logistic_probe,
    nmi,
    project_2d,
    recall_at_k,
)

__version__ = "0.1.0"
