"""Arrival-order streaming collective checking (the serve ingest path).

:meth:`CollectiveChecker.check_deltas
<repro.checker.collective.CollectiveChecker.check_deltas>` consumes a
*complete* sorted signature sequence; a checking service cannot wait for
completeness — each device iteration lands one more signature.  This
module provides the resident form: a :class:`StreamingCollectiveChecker`
keeps one :meth:`~repro.checker.collective.CollectiveChecker.delta_walk`
— the same walk ``check_deltas`` drains — over a
:class:`~repro.checker.delta.SignatureDeltaSource` whose signature list
grows with every call, and :meth:`~StreamingCollectiveChecker.feed`
advances it by exactly one signature in O(changed digits + re-sort
window).

Two properties the serve daemon builds on:

* **Order-independent verdicts.**  Whether a signature's constraint
  graph is cyclic does not depend on checking order, so the set of
  violating signatures reported by any arrival order equals the batch
  pipeline's (property-tested in ``tests/test_checker_stream.py``).
  Per-verdict *method* statistics (no-resort vs windowed) legitimately
  differ — arrival order is rarely the similarity-maximizing sorted
  order.  Fed in ascending order, the walk *is* the batch walk: the
  interim report equals ``check_deltas``' verdict for verdict.
* **Canonical finalization.**  :meth:`~StreamingCollectiveChecker.
  finalize` replays the accepted unique signatures, sorted ascending,
  through :meth:`~repro.checker.collective.CollectiveChecker.
  check_deltas` — the resulting
  :class:`~repro.checker.results.CheckReport` is byte-identical to
  ``repro run --check-pipeline delta`` over the same multiset, which is
  the serve differential pin.
"""

from __future__ import annotations

from repro.checker.collective import CollectiveChecker
from repro.checker.delta import SignatureDeltaSource
from repro.checker.results import CheckReport, Verdict
from repro.graph.builder import GraphBuilder
from repro.instrument.signature import Signature, SignatureCodec
from repro.obs import get_obs


class _ArrivalSource(SignatureDeltaSource):
    """The stream's growing signature list as a delta source.

    Its one walk reads the base state and each delta exactly once, so
    they are computed, not memoized: the memos would hold every delta of
    a serve session for nothing.
    """

    base_state = SignatureDeltaSource._state
    delta_pairs = SignatureDeltaSource._pairs


class StreamingCollectiveChecker:
    """Feeds one signature at a time through the live delta walk.

    Callers feed each *unique* signature once, in any order (the serve
    session's dedup store filters repeats before they reach this class);
    feeding a duplicate is not an error but wastes a delta step.

    Args:
        codec: the campaign's instrumentation codec.
        builder: a ``ws_mode="static"`` graph builder for the same test.
    """

    def __init__(self, codec: SignatureCodec, builder: GraphBuilder):
        self.codec = codec
        self.builder = builder
        self.signatures: list = []
        # the source reads this list, so every fed signature extends it
        # (its constructor also rejects observed-ws or mismatched builders)
        source = _ArrivalSource(codec, builder, self.signatures)
        #: interim report over the arrival order (violation verdicts are
        #: order-independent; method statistics are not)
        self.report = CheckReport()
        self.report.num_vertices_per_graph = source.num_vertices
        self._walk = CollectiveChecker().delta_walk(source, self.report)

    def __len__(self) -> int:
        return len(self.signatures)

    def violating_signatures(self) -> list:
        return [self.signatures[v.index] for v in self.report.violations]

    def feed(self, signature: Signature) -> Verdict:
        """Advance the walk by one signature; returns its verdict."""
        with get_obs().span("checker.stream") as span:
            self.signatures.append(signature)
            verdict = next(self._walk)
        self.report.elapsed += span.elapsed
        self.report.verdicts.append(verdict)
        return verdict

    def finalize(self, signatures=None) -> CheckReport:
        """The canonical batch report over everything fed so far.

        Replays the accepted signatures in ascending order through
        :meth:`CollectiveChecker.check_deltas` — the exact code path of
        ``repro run --check-pipeline delta`` — so the returned report's
        :meth:`~repro.checker.results.CheckReport.summary` is
        byte-identical to the batch run's for the same unique-signature
        set, regardless of arrival order.

        ``signatures`` overrides the replayed set: serve sessions pass
        their full unique multiset, which includes dedup hits whose live
        check was answered by the store and therefore never fed here.
        """
        pool = self.signatures if signatures is None else signatures
        source = SignatureDeltaSource(self.codec, self.builder,
                                      sorted(set(pool)))
        return CollectiveChecker().check_deltas(source)
