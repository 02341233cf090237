"""Inversion-free rectified-flow image editing with frequency-interactive
attention, built around a deterministic toy velocity model so every mechanism
is testable at desk scale."""

from .engine import EditRequest, EditTrace, run_edit
from .fia import FiaConfig, FriMode, constrained_velocity_pair, default_fij_cutoff
from .model import (
    AttentionPacket,
    AttnKind,
    GuidanceConfig,
    HookPlan,
    ModelConfig,
    VelocityModel,
    time_embedding,
)
from .prompts import PromptEmbedding, embed_prompt, embeddings_equal
from .schedule import (
    NoiseMode,
    NoiseSchedule,
    euler_step,
    interpolate_source,
    make_linear_schedule,
    reconstruct_target_state,
)
from .spectral import (
    FusionWeights,
    LowPassFilter,
    Spectrum,
    decompose,
    fft2,
    fri_fuse,
    ifft2,
    make_gaussian_lowpass,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionPacket",
    "AttnKind",
    "EditRequest",
    "EditTrace",
    "FiaConfig",
    "FriMode",
    "FusionWeights",
    "GuidanceConfig",
    "HookPlan",
    "LowPassFilter",
    "ModelConfig",
    "NoiseMode",
    "NoiseSchedule",
    "PromptEmbedding",
    "Spectrum",
    "VelocityModel",
    "constrained_velocity_pair",
    "decompose",
    "default_fij_cutoff",
    "embed_prompt",
    "embeddings_equal",
    "euler_step",
    "fft2",
    "fri_fuse",
    "ifft2",
    "interpolate_source",
    "make_gaussian_lowpass",
    "make_linear_schedule",
    "reconstruct_target_state",
    "run_edit",
    "time_embedding",
]
