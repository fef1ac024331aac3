"""Execution substrates: fast operational executor, detailed MESI simulator."""

from repro.sim.contention import ContentionModel, LatencyConfig, UniformModel
from repro.sim.execution import Execution, ExecutionCounters
from repro.sim.executor import OperationalExecutor
from repro.sim.os_model import OSConfig, OSModel
from repro.sim.tracing import ProtocolTracer, TraceEvent
from repro.sim.platform import (
    ARM_BIG_LITTLE,
    GEM5_X86_8CORE,
    X86_DESKTOP,
    Platform,
    model_for_register_width,
    platform_for_isa,
)

__all__ = [
    "ARM_BIG_LITTLE",
    "ContentionModel",
    "Execution",
    "ExecutionCounters",
    "GEM5_X86_8CORE",
    "LatencyConfig",
    "OSConfig",
    "OSModel",
    "OperationalExecutor",
    "Platform",
    "ProtocolTracer",
    "TraceEvent",
    "UniformModel",
    "X86_DESKTOP",
    "model_for_register_width",
    "platform_for_isa",
]
