"""Neuron alignment defense for white-box neural network watermarks.

The owner gives each neuron of the watermarked layer a codeword and forges
trigger inputs that drive every neuron toward its word's centroids. An
adversary may permute, fine-tune, prune, or rescale neurons without changing
the network function; reading the suspect's activations on the triggers and
solving a cosine assignment against those targets recovers the original neuron
order so the watermark verifies again.
"""

from .align import (
    AlignedVerification,
    AlignmentResult,
    align_to_matrix,
    alignment_accuracy,
    apply_alignment,
    verify_with_alignment,
)
from .attacks import (
    PermutationSpec,
    attack_rescale,
    functional_drift,
    inverse_permutation,
    permute_neurons,
    random_permutation,
    random_scales,
)
from .coding import (
    CapacityError,
    CentroidSet,
    Codebook,
    compute_centroids,
    default_codebook,
    generate_codebook,
    load_codebook,
    max_correctable,
    min_pairwise_distance,
    nearest_centroid,
    save_codebook,
)
from .config import (
    ATTACK_KINDS,
    AttackSpec,
    CodingSpec,
    ConfigError,
    DataSpec,
    ExperimentConfig,
    ModelSpec,
    TriggerSpec,
    WatermarkSpec,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from .data import make_blobs, split_dataset
from .network import (
    Dataset,
    DenseLayer,
    Network,
    ShapeError,
    TrainConfig,
    TrainingDivergenceError,
    UnknownLayerError,
    accuracy,
    cross_entropy,
    forward,
    init_network,
    train,
)
from .pipeline import (
    bootstrap_ordering,
    bootstrap_rate_ci,
    capacity_grid,
    derive_seed,
    format_capacity_grid,
    make_experiment_data,
    run_all,
    stage_align,
    stage_attack,
    stage_encode,
    stage_forge,
    stage_report,
    stage_train,
    validate_report,
)
from .serialize import (
    FormatError,
    IntegrityError,
    file_sha256,
    load_model,
    save_model,
)
from .triggers import (
    OptimizationError,
    TriggerSet,
    VariantEnsemble,
    cluster_quality,
    dead_neurons,
    layer_outputs,
    load_trigger_set,
    loss_budget,
    make_variant_ensemble,
    save_trigger_set,
    separation_stats,
    synthesize_trigger_set,
)
from .watermark import (
    EmbedFailure,
    OVResult,
    TamperError,
    WatermarkRecord,
    embed,
    extract_bits,
    load_record,
    make_record,
    save_record,
    verify,
)

__version__ = "0.1.0"
