"""The optimiser and learning-rate schedules for the functional training runs."""

from repro.optim.fused_adam import FusedAdam
from repro.optim.lr_scheduler import (
    ConstantSchedule,
    CosineWithWarmup,
    LinearWarmupLinearDecay,
    LRSchedule,
)

__all__ = [
    "FusedAdam",
    "LRSchedule",
    "ConstantSchedule",
    "CosineWithWarmup",
    "LinearWarmupLinearDecay",
]
