"""Platform presets modelling the paper's systems under validation (Table 1).

* System 1 — x86-64 Intel Core 2 Quad Q6600: 4 cores, x86-TSO,
  64-bit registers, write-back caches.
* System 2 — ARMv7 Samsung Exynos 5422 big.LITTLE: 4 Cortex-A15 (big) +
  4 Cortex-A7 (little) cores, weakly-ordered model, 32-bit registers.
  Test threads are allocated to the big cores first, then little cores
  (paper Section 5); little cores are modelled with a latency multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mcm import get_model
from repro.mcm.model import MemoryModel
from repro.sim.contention import LatencyConfig


@dataclass(frozen=True)
class Platform:
    """A system under validation."""

    name: str
    isa: str
    num_cores: int
    memory_model_name: str
    register_width: int
    latency: LatencyConfig = LatencyConfig()
    #: per-core latency multiplier; unlisted cores default to 1.0
    core_speed: dict = field(default_factory=dict)
    #: store-buffer capacity (TSO) / reorder-window capacity (weak)
    window_size: int = 8
    l1_icache_bytes: int = 32 * 1024

    @property
    def memory_model(self) -> MemoryModel:
        return get_model(self.memory_model_name)

    def thread_speeds(self, num_threads: int) -> dict:
        """Latency multipliers for test threads under the allocation policy."""
        return {t: self.core_speed.get(t % self.num_cores, 1.0)
                for t in range(num_threads)}


#: System 1 of Table 1 (x86-TSO, 4 cores, 2.4 GHz).
X86_DESKTOP = Platform(
    name="x86-64 Intel Core 2 Quad Q6600",
    isa="x86",
    num_cores=4,
    memory_model_name="tso",
    register_width=64,
)

#: System 2 of Table 1 (ARMv7 big.LITTLE; threads fill A15s then A7s).
ARM_BIG_LITTLE = Platform(
    name="ARMv7 Samsung Exynos 5422 big.LITTLE",
    isa="arm",
    num_cores=8,
    memory_model_name="weak",
    register_width=32,
    # cores 0-3 are Cortex-A15 (big), 4-7 Cortex-A7 (little, ~1.8x slower)
    core_speed={4: 1.8, 5: 1.8, 6: 1.8, 7: 1.8},
)

#: The gem5 configuration of Section 7 (8 OoO x86 cores, 4x2 mesh, MESI).
GEM5_X86_8CORE = Platform(
    name="gem5 x86 8-core (4x2 mesh, MESI)",
    isa="x86",
    num_cores=8,
    memory_model_name="tso",
    register_width=64,
)

#: signature register widths the presets above use
REGISTER_WIDTHS = frozenset(p.register_width for p in (
    X86_DESKTOP, ARM_BIG_LITTLE, GEM5_X86_8CORE))


def platform_for_isa(isa: str) -> Platform:
    """The Table 1 platform matching a test configuration's ISA."""
    if isa == "x86":
        return X86_DESKTOP
    if isa == "arm":
        return ARM_BIG_LITTLE
    raise ValueError("no platform for ISA %r" % (isa,))


def model_for_register_width(register_width: int) -> MemoryModel:
    """The memory model a signature register width implies.

    Host-side checking, linting and serving fall back to it when no
    model is given (the io.py dump convention): 64-bit signatures come
    from the x86-TSO platform, any other width from the ARM weak one.
    """
    return platform_for_isa(
        "x86" if register_width == 64 else "arm").memory_model
