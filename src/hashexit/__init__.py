"""Token-level early exit for transformer encoders, routed by hash tables.

Tokens are assigned fixed exit layers by a vocabulary hash (random,
frequency-ranked, mutual-information-ranked, or embedding-clustered).
The exit-aware encoder freezes exited tokens while keeping them visible
as attention keys/values; the FLOPs accountant prices what that saves;
the difficulty lab probes whether exit layers are predictable at all.
"""

from .errors import (
    ConfigError,
    HashExitError,
    InputError,
    ParseError,
    ShapeError,
    TrainingError,
)
from .linalg import layer_norm, relu, softmax_rows
from .hashing import (
    HASH_METHODS,
    CorpusStats,
    EmbeddingTable,
    HashTable,
    Vocab,
    bucket_to_layer,
    build_clustered,
    build_frequency,
    build_mi,
    build_random,
    kmeans,
    load_embeddings,
    load_hash_table,
    parse_hash_table,
    save_embeddings,
    save_hash_table,
    serialize_hash_table,
    token_label_mi,
)
from .encoder import (
    EncoderModel,
    ExitSchedule,
    ForwardTrace,
    LayerWeights,
    PackedBatch,
    accuracy,
    batches,
    classify,
    embed,
    forward,
    forward_layer,
    load_model,
    positional_encoding,
    random_model,
    route,
    save_model,
    schedule,
    train_toy,
)
from .flops import (
    FLOPS_PER_MAC,
    FlopsReport,
    LayerCost,
    ModelDims,
    oracle_count,
    reassociates,
    report,
    saved_macs,
)
from .difficulty import (
    DifficultyDataset,
    LinearBPredictor,
    MajorityPredictor,
    NegClassMetrics,
    annotate,
    bce_loss_and_grad,
    evaluate,
    instance_states,
    linear_b,
    majority_baseline,
    negative_class_metrics,
    oversample,
    save_difficulty_dataset,
    train_annotator,
)
from .corpus import Corpus, load_corpus, save_corpus, zipf_corpus
from .experiments import (
    AblationResult,
    DifficultyOutcome,
    SeparableTask,
    make_separable_task,
    run_consistency_ablation,
    run_difficulty_pipeline,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
