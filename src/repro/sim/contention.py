"""Cache-line contention and latency model for the fast executor.

Real multi-core chips derive their memory-access non-determinism from
variable access latency: hits are fast, misses slow, and stores to lines
held elsewhere pay invalidation round-trips (paper Section 2).  This
model tracks, per cache line, its sharer set and whether some core owns
it — a deliberately small MSI-flavoured abstraction — and returns a
latency per access with random jitter.  Because the layout maps
multiple shared words to one line when ``words_per_line > 1``, false
sharing automatically raises contention and thus interleaving diversity
(paper Figure 8).

Line state
----------

A line's state is one int.  Bit ``c + 1`` is set while core ``c``
shares the line (the sharer set, a bitmask keyed by core id), and bit 0
once some core has stored to it (the line has an owner).  A store makes
its core the only sharer and a load only adds one, so the owner is
always among the sharers: when a store finds its own core the only
sharer, the owner, if there is one, is that core.  The rule therefore
never reads the owner's identity, and the state does not keep it.
:meth:`ContentionModel.reset` sets every line back to 0.

The rule is written once, as ``(core, state) -> (base latency, next
state)`` in :meth:`ContentionModel._load_rule` and
:meth:`ContentionModel._store_rule`.  Everything reads it through per-core
memos (:meth:`ContentionModel.memos`), filled the first time a core meets
a state: :meth:`~ContentionModel.load_latency` and
:meth:`~ContentionModel.store_latency` here, and the executor loops,
which look up ``memo[lines[line_of[addr]]]`` and draw the jitter inline
(see :mod:`repro.sim.executor`).  The memos are lazy because the state
space doubles with every core and the thread count has no upper bound;
each holds only the states its core has met, and starts over once it
holds ``_MEMO_LIMIT`` of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.layout import MemoryLayout

#: state bit set once some core has stored to the line
_OWNED = 1
#: entries a memo holds before it starts over.  With many cores a run
#: meets far more sharer sets than it revisits, and a memo must not grow
#: with the run; up to eight cores (2**9 states) a memo never starts over.
_MEMO_LIMIT = 512


@dataclass(frozen=True)
class LatencyConfig:
    """Latency parameters, in cycles, for the contention model."""

    l1_hit: float = 2.0
    shared_hit: float = 14.0       # line valid but owned elsewhere (L2 / snoop)
    miss: float = 40.0             # first touch / coherence miss
    invalidation: float = 28.0     # upgrade requiring remote invalidations
    #: relative latency jitter: each access takes up to ``jitter`` times
    #: longer, uniformly.  Slow (contended) accesses therefore contribute
    #: proportionally more timing noise, which is how false sharing
    #: diversifies interleavings on silicon (paper Figure 8).
    jitter: float = 0.08
    private_store: float = 3.0     # store to a non-shared (log/signature) line
    #: probability of a rare long stall per access (DRAM refresh, TLB walk,
    #: arbitration conflict) — the dominant source of run-to-run timing
    #: divergence on real silicon once caches are warm
    hiccup_prob: float = 0.001
    hiccup_cycles: float = 60.0


class _Memo(dict):
    """Line state -> ``(base latency, next state)`` for one core and one
    access kind; a state's entry is made by the rule on first lookup."""

    __slots__ = ("_rule", "_core")

    def __init__(self, rule, core: int):
        super().__init__()
        self._rule = rule
        self._core = core

    def __missing__(self, state: int):
        if len(self) >= _MEMO_LIMIT:
            self.clear()
        entry = self[state] = self._rule(self._core, state)
        return entry


class ContentionModel:
    """Per-line ownership state driving access latencies.

    Args:
        layout: word -> line mapping (false-sharing configuration).
        rng: random source for latency jitter.
        config: latency parameters.
        core_speed: optional per-core latency multiplier (ARM big.LITTLE
            little cores are modelled as uniformly slower).
    """

    #: the executor loops draw jitter and hiccups for every access
    noisy = True

    def __init__(self, layout: MemoryLayout, rng, config: LatencyConfig = LatencyConfig(),
                 core_speed=None):
        self.layout = layout
        self.rng = rng
        self.config = config
        self.core_speed = core_speed or {}
        #: word address -> cache line
        self.line_of = [layout.line_of(addr) for addr in range(layout.num_words)]
        #: per cache line, its state (module docstring); executors hold
        #: this list, so :meth:`reset` clears it in place
        self.lines = [0] * layout.num_lines
        self._memos: dict[int, tuple[_Memo, _Memo]] = {}

    def reset(self) -> None:
        """Forget all line state (hard reset between test runs)."""
        self.lines[:] = [0] * len(self.lines)

    def memos(self, core: int) -> tuple[_Memo, _Memo]:
        """``core``'s load and store memos: state -> (base latency, next state)."""
        memos = self._memos.get(core)
        if memos is None:
            memos = self._memos[core] = (_Memo(self._load_rule, core),
                                         _Memo(self._store_rule, core))
        return memos

    def _load_rule(self, core: int, state: int) -> tuple[float, int]:
        mine = 2 << core
        if state & mine:
            latency = self.config.l1_hit
        elif state:                  # other sharers, or an owner
            latency = self.config.shared_hit
        else:
            latency = self.config.miss
        return latency, state | mine

    def _store_rule(self, core: int, state: int) -> tuple[float, int]:
        mine = _OWNED | 2 << core
        if state == mine:            # owner and only sharer
            latency = self.config.l1_hit
        elif state & ~mine:          # another core shares the line
            latency = self.config.invalidation
        elif not state:
            latency = self.config.miss
        else:                        # only sharer, but no owner yet
            latency = self.config.shared_hit
        return latency, mine

    def _scaled(self, core: int, latency: float) -> float:
        cfg = self.config
        extra = self.rng.random() * cfg.jitter * latency
        if cfg.hiccup_prob and self.rng.random() < cfg.hiccup_prob:
            extra += cfg.hiccup_cycles * (0.5 + self.rng.random())
        return (latency + extra) * self.core_speed.get(core, 1.0)

    def load_latency(self, core: int, addr: int) -> float:
        """Latency of a load by ``core`` from shared word ``addr``."""
        line = self.line_of[addr]
        latency, self.lines[line] = self.memos(core)[0][self.lines[line]]
        return self._scaled(core, latency)

    def store_latency(self, core: int, addr: int) -> float:
        """Latency of a store by ``core`` becoming globally visible."""
        line = self.line_of[addr]
        latency, self.lines[line] = self.memos(core)[1][self.lines[line]]
        return self._scaled(core, latency)

    def private_store_latency(self, core: int) -> float:
        """Latency of a store to a core-private region (logs, signatures)."""
        return self._scaled(core, self.config.private_store)


class UniformModel:
    """Degenerate latency model: every access costs one unit, no state.

    Used by the uniform-random SC mode backing the paper's k-medoids
    limit study (Section 4.1), where operations are selected "in a
    uniformly random fashion, one at a time".  The executor loops read
    it through :class:`ContentionModel`'s tables: every word maps to one
    line whose state stays 0, each core's memos give it unit latency,
    and ``noisy`` is False, so no jitter or hiccup is drawn.
    """

    noisy = False
    config = LatencyConfig(l1_hit=1.0, shared_hit=1.0, miss=1.0,
                           invalidation=1.0, private_store=1.0,
                           jitter=0.0, hiccup_prob=0.0)

    def __init__(self, layout: MemoryLayout = None):
        self.core_speed = {}
        self.line_of = [0] * (layout.num_words if layout is not None else 0)
        self.lines = [0]
        self._unit = {0: (1.0, 0)}

    def memos(self, core: int) -> tuple[dict, dict]:
        return self._unit, self._unit

    def reset(self) -> None:
        pass

    def load_latency(self, core: int, addr: int) -> float:
        return 1.0

    def store_latency(self, core: int, addr: int) -> float:
        return 1.0

    def private_store_latency(self, core: int) -> float:
        return 1.0
