"""Signature-driven graph-delta streams for collective checking.

The host side of the delta pipeline: a sorted unique-signature list plus
the instrumentation codec and the static-ws graph builder are everything
needed to check a campaign, because in static-ws mode a constraint graph
is a pure function of its signature.  :class:`SignatureDeltaSource`
exposes that sequence to :meth:`CollectiveChecker.check_deltas
<repro.checker.collective.CollectiveChecker.check_deltas>` three ways:

* ``full_graph(i)`` — one completely built :class:`ConstraintGraph`
  (used only while no valid base order exists, and to render violation
  witnesses exactly as the legacy pipeline would);
* ``base_state(i)`` — a refcounted :class:`DeltaGraphState` seeded with
  execution *i*'s edges with multiplicity;
* ``delta(i)`` — the :class:`GraphDelta` from execution ``i-1`` to ``i``,
  produced by the codec's incremental decode (only changed mixed-radix
  digits) and the builder's per-load edge table — O(changed digits), no
  graph construction, no set difference.

``ws_mode="observed"`` graphs depend on each execution's coherence
order, not the signature alone, so delta sourcing refuses them; callers
fall back to the legacy ``graphs`` pipeline there.
"""

from __future__ import annotations

from repro.errors import CheckerError
from repro.graph.builder import GraphBuilder
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.delta import DeltaGraphState, GraphDelta
from repro.instrument.signature import Signature, SignatureCodec


class SignatureDeltaSource:
    """Lazily turns sorted signatures into a base graph + delta stream.

    Args:
        codec: the campaign's instrumentation codec.
        builder: a ``ws_mode="static"`` graph builder for the same test.
        signatures: unique signatures in ascending (checked) order.
    """

    def __init__(self, codec: SignatureCodec, builder: GraphBuilder,
                 signatures: list[Signature]):
        if builder.ws_mode != "static":
            raise CheckerError(
                "delta checking requires ws_mode='static' (observed-ws "
                "graphs are not a function of the signature alone); use "
                "the 'graphs' pipeline instead")
        if builder.program is not codec.program:
            raise CheckerError("codec and builder instrument different programs")
        self.codec = codec
        self.builder = builder
        #: read, never copied: a list that grows between checking steps
        #: (the serve stream's) grows the source with it
        self.signatures = signatures
        #: index -> pristine DeltaGraphState template (decode + edge-table
        #: walk + refcount seeding done once; checks receive clones)
        self._base_states: dict[int, DeltaGraphState] = {}
        #: index -> memoized (removed, added, digits_changed); the delta
        #: analogue of the legacy pipeline's pre-built graph list, at
        #: O(changed digits) memory instead of O(V + E) per execution
        self._delta_cache: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self.signatures)

    @property
    def num_vertices(self) -> int:
        return self.builder.program.num_ops

    def full_graph(self, index: int) -> ConstraintGraph:
        """Fully decode and build execution ``index``'s graph.

        Byte-identical to what the legacy pipeline builds for the same
        signature (same decode, same builder, same edge-insertion order),
        so cycle witnesses extracted from it match the legacy report.
        """
        return self.builder.build(self.codec.decode(self.signatures[index]))

    def base_state(self, index: int) -> DeltaGraphState:
        """A mutable refcounted state seeded with execution ``index``."""
        template = self._base_states.get(index)
        if template is None:
            template = self._base_states[index] = self._state(index)
        return template.clone()

    def _state(self, index: int) -> DeltaGraphState:
        """:meth:`base_state` without the memoized template."""
        rf = self.codec.decode(self.signatures[index])
        return DeltaGraphState(self.num_vertices,
                               list(self.builder.iter_execution_pairs(rf)))

    def delta_pairs(self, index: int) -> tuple:
        """The edge delta from execution ``index - 1`` to ``index``.

        Hot-path form: returns bare ``(removed, added, digits_changed)``
        with no :class:`GraphDelta` wrapper allocated per execution;
        :meth:`delta` is the packaged view of the same data.  Results are
        memoized — they are the delta pipeline's analogue of the legacy
        pipeline's pre-built graph list, at O(changed digits) memory
        instead of O(V + E) per execution — so callers must treat the
        returned lists as immutable.
        """
        cached = self._delta_cache.get(index)
        if cached is None:
            cached = self._delta_cache[index] = self._pairs(index)
        return cached

    def _pairs(self, index: int) -> tuple:
        """:meth:`delta_pairs` without the memo."""
        signatures = self.signatures
        changes = self.codec.decode_delta(signatures[index - 1],
                                          signatures[index])
        removed: list = []
        added: list = []
        edge_pairs = self.builder.dynamic_edge_pairs
        for load_uid, old_source, new_source in changes:
            removed.extend(edge_pairs(load_uid, old_source))
            added.extend(edge_pairs(load_uid, new_source))
        return removed, added, len(changes)

    def delta(self, index: int) -> GraphDelta:
        """The edge delta from execution ``index - 1`` to ``index``."""
        removed, added, digits_changed = self.delta_pairs(index)
        return GraphDelta(index, tuple(removed), tuple(added), digits_changed)
