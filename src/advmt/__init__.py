"""Transformer pose forecaster trained adversarially against a temporal
continuity discriminator, with a synthetic kinematic corpus and an
MPJPE-per-horizon evaluation harness."""

__version__ = "0.1.0"

from .tensor import Tensor, no_grad
from .skeleton import (
    MotionSequence,
    Pose,
    SkeletonTopology,
    bone_lengths,
    forward_kinematics,
    temporal_difference,
)
from .data import (
    Corpus,
    CorpusConfig,
    CorpusSet,
    WindowedSample,
    downsample,
    generate_corpus,
    generate_gait,
    load_corpus,
    load_csv,
    save_csv,
    window,
    write_corpus,
)
from .model import (
    EncoderConfig,
    EncoderModel,
    init_encoder,
    positional_encoding,
    predict_next,
    rollout,
)
from .discriminator import (
    DiscriminatorConfig,
    DiscriminatorModel,
    discriminator_loss,
    generator_adversarial_loss,
    init_discriminator,
    score,
)
from .losses import LossBreakdown, LossWeights, bone_loss, mpjpe, total_loss
from .training import TrainConfig, TrainLog, Trainer, fit
from .evaluation import (
    AblationTable,
    EvalReport,
    HorizonSet,
    evaluate,
    horizon_frames,
    mpjpe_at_horizon,
    render_pose_strip,
    zero_velocity_baseline,
)
