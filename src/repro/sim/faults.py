"""Bug injection for the detailed simulator (paper Section 7).

The paper recreates three real, historically-reported gem5 bugs by
reverting their fixes.  We inject the same three failure mechanisms into
our MESI simulator:

* **Bug 1** — "MESI,LQ+SM,Inv" [19], a Peekaboo variant: when an
  invalidation hits a line whose L1 is mid-upgrade (S->M transient), the
  speculatively-executed younger loads to that line are *not* squashed,
  so a later load can appear to execute before an earlier one
  (load->load violation, protocol side).
* **Bug 2** — LSQ issue [19, 32]: the LSQ fails to squash
  speculatively-executed loads on *any* received invalidation
  (load->load violation, LSQ side).
* **Bug 3** — "MESI bug 1" [28]: a race between an L1 writeback (PUTX)
  and another L1's write request (GETX) is mishandled, driving the
  protocol into an invalid transition; the simulation crashes (as all of
  the paper's bug-3 runs did).

A campaign runs on the detailed simulator when given a
:class:`FaultConfig`: ``Campaign(config, faults=FaultConfig(...))``,
which ``repro run --detailed/--bug/--l1-lines`` builds and fleet
workers receive as the same plain data.  The three bugs are also
registered as ``detailed``-executor mutations in
:mod:`repro.mutate.registry` (``gem5-protocol-squash``,
``gem5-lsq-squash``, ``gem5-writeback-race``), so the checker-
sensitivity suite drives them through the same campaign machinery as
the operational executor's fault plane; a detailed mutation runs as
``faults=mutation.fault_config()``, and :attr:`Bug.mutation_name` is
the code-level link.  This module stays import-light (the simulator,
the harness and the fleet depend on it) and keeps the low-level knobs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Bug(enum.Enum):
    """Injectable bugs; values match the paper's numbering."""

    LOAD_LOAD_PROTOCOL = 1    # squash skipped when line is in SM transient
    LOAD_LOAD_LSQ = 2         # squash skipped on every invalidation
    WRITEBACK_RACE = 3        # PUTX/GETX race -> invalid transition crash

    @property
    def mutation_name(self) -> str:
        """Name of this bug's :mod:`repro.mutate` registry entry."""
        return _MUTATION_NAMES[self]


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection and cache-sizing knobs of the detailed simulator.

    ``l1_lines`` plays the role of the paper's deliberately tiny 1 kB
    2-way L1 for bugs 1 and 3: a small capacity forces evictions under
    the test's working set, which both exposes the writeback race and
    creates the S->M upgrade traffic bug 1 needs.
    """

    bug: Bug | None = None
    l1_lines: int = 64

    @property
    def squash_on_inv_in_sm(self) -> bool:
        return self.bug is not Bug.LOAD_LOAD_PROTOCOL and self.squash_on_inv

    @property
    def squash_on_inv(self) -> bool:
        return self.bug is not Bug.LOAD_LOAD_LSQ

    @property
    def crash_on_writeback_race(self) -> bool:
        return self.bug is Bug.WRITEBACK_RACE


NO_FAULT = FaultConfig()

_MUTATION_NAMES = {
    Bug.LOAD_LOAD_PROTOCOL: "gem5-protocol-squash",
    Bug.LOAD_LOAD_LSQ: "gem5-lsq-squash",
    Bug.WRITEBACK_RACE: "gem5-writeback-race",
}
