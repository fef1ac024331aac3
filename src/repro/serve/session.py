"""One client's campaign inside the daemon: ingest, dedup, check, drain.

A :class:`CampaignSession` is the daemon-resident mirror of a
:class:`~repro.harness.runner.CampaignResult` being accumulated live.
Each submitted batch is folded three ways:

1. every entry's count lands in the session's signature multiset
   (occurrence accounting is exact regardless of dedup);
2. signatures the dedup store has seen — for *any* client of the same
   campaign — are answered in O(1) from the stored verdict;
3. novel signatures run through the arrival-order
   :class:`~repro.checker.stream.StreamingCollectiveChecker` and their
   verdicts are recorded back into the store.

At drain, :meth:`CampaignSession.finalize` replays the session's own
unique-signature set, sorted, through the stock batch delta pipeline —
so the flushed report's ``summary`` is byte-identical to
``repro run --check-pipeline delta`` over the same multiset, no matter
how batches were interleaved or which verdicts were dedup hits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.checker.stream import StreamingCollectiveChecker
from repro.graph.builder import GraphBuilder
from repro.harness.runner import CampaignResult
from repro.instrument.signature import SignatureCodec
from repro.io import signature_from_entry
from repro.isa.program import TestProgram
from repro.mcm.model import MemoryModel
from repro.obs import get_obs
from repro.serve.dedup import SignatureDedupStore, campaign_key
from repro.sim.platform import model_for_register_width


@dataclass
class BatchAck:
    """What one accepted submit did to the session (the ack payload)."""

    seq: int = 0
    #: signatures never seen before by the dedup store (checked live)
    novel: int = 0
    #: entries answered from the dedup store in O(1)
    repeats: int = 0
    #: violating unique signatures present in this batch (novel or hit)
    violations: int = 0

    def payload(self, queued: int = 0) -> dict:
        return {"kind": "ack", "seq": self.seq, "novel": self.novel,
                "repeats": self.repeats, "violations": self.violations,
                "queued": queued}


@dataclass
class SessionReport:
    """The flushed end-of-session digest (the report frame payload)."""

    session_id: int
    summary: dict
    unique_signatures: int
    signatures: int
    violations: int
    dedup_hits: int
    drained: bool
    label: str = ""
    iterations: int = 0
    crashes: int = 0
    batches: int = 0

    def payload(self) -> dict:
        return {"kind": "report", "session_id": self.session_id,
                "summary": self.summary,
                "unique_signatures": self.unique_signatures,
                "signatures": self.signatures,
                "violations": self.violations,
                "dedup_hits": self.dedup_hits,
                "drained": self.drained}

    def to_doc(self) -> dict:
        """The ``--report-out`` JSONL record (payload + provenance)."""
        doc = dict(self.payload())
        doc.pop("kind")
        doc.update(label=self.label, iterations=self.iterations,
                   crashes=self.crashes, batches=self.batches)
        return doc


@dataclass
class _Totals:
    """Occurrence accounting, kept separate from checking state."""

    iterations: int = 0
    crashes: int = 0
    batches: int = 0
    dedup_hits: int = 0
    occurrences: int = 0
    violations: set = field(default_factory=set)


class CampaignSession:
    """The daemon-side state of one streaming client.

    Args:
        session_id: daemon-assigned index (echoed in frames/telemetry).
        program: the client's test program (from its hello).
        register_width: the client's signature register width.
        dedup: the daemon-wide :class:`SignatureDedupStore`.
        label: free-form client label for telemetry.
        model: memory model override; defaults to the platform matching
            the register width, exactly as :func:`repro.harness.runner.
            check_campaign_result` does.
        pipeline: finalize replay pipeline — ``"delta"`` (default) or
            the array-compiled ``"packed"`` core; the drained report's
            summary is identical either way.
    """

    def __init__(self, session_id: int, program: TestProgram,
                 register_width: int, dedup: SignatureDedupStore,
                 label: str = "", model: MemoryModel = None,
                 pipeline: str = "delta"):
        if model is None:
            model = model_for_register_width(register_width)
        self.session_id = session_id
        self.label = label
        self.codec = SignatureCodec(program, register_width)
        self.builder = GraphBuilder(program, model, ws_mode="static")
        self.checker = StreamingCollectiveChecker(self.codec, self.builder)
        self.pipeline = pipeline
        self.dedup = dedup
        self.campaign = campaign_key(program, register_width)
        #: the session's accumulated multiset (the serve-side mirror of a
        #: device campaign's hand-off)
        self.result = CampaignResult(program, self.codec)
        self._totals = _Totals()
        self._lock = threading.Lock()
        get_obs().emit("serve.session.open", session=session_id,
                       label=label, campaign=self.campaign)

    # -- ingest ------------------------------------------------------------------------

    def ingest(self, entries: list, seq: int = 0, iterations: int = None,
               crashes: int = 0) -> BatchAck:
        """Fold one submitted batch into the session; returns its ack.

        Thread-safe (the daemon runs batches on an executor); batches of
        one session are serialized by the lock, preserving submission
        order end-to-end.
        """
        ack = BatchAck(seq=seq)
        with self._lock:
            totals = self._totals
            counts = self.result.signature_counts
            for entry in entries:
                signature, count = signature_from_entry(entry)
                counts[signature] += count
                totals.occurrences += count
                known = self.dedup.observe(self.campaign, signature)
                if known is not None:
                    ack.repeats += 1
                    totals.dedup_hits += 1
                    violation = known.violation
                else:
                    verdict = self.checker.feed(signature)
                    self.dedup.record(self.campaign, signature,
                                      verdict.violation)
                    ack.novel += 1
                    violation = verdict.violation
                if violation:
                    totals.violations.add(signature)
                    ack.violations += 1
            totals.iterations += (iterations if iterations is not None
                                  else sum(int(e.get("count", 1))
                                           for e in entries))
            totals.crashes += int(crashes)
            totals.batches += 1
        obs = get_obs()
        obs.emit("serve.batch", session=self.session_id, seq=seq,
                 novel=ack.novel, repeats=ack.repeats,
                 violations=ack.violations)
        obs.counter("serve.signatures_ingested").inc(len(entries))
        return ack

    # -- pool offload ------------------------------------------------------------------

    def remote_dump(self, entries: list) -> str:
        """A standalone campaign dump of one batch, for a pool ``check``
        task (signature-only: exactly what a device would ship)."""
        from collections import Counter

        from repro.io import dump_campaign
        from repro.sim.execution import Execution

        result = CampaignResult(self.result.program, self.codec)
        counts = Counter()
        for entry in entries:
            signature, count = signature_from_entry(entry)
            counts[signature] += count
            result.representatives.setdefault(
                signature, Execution(self.codec.decode(signature), {}))
        result.signature_counts = counts
        result.iterations = sum(counts.values())
        return dump_campaign(result, include_ws=False)

    def ingest_checked(self, entries: list, violating_words: list,
                       seq: int = 0, iterations: int = None,
                       crashes: int = 0) -> BatchAck:
        """Fold a batch whose checking already happened on the pool.

        ``violating_words`` is the remote verdict digest's violation
        list (signature word lists); every signature in the batch gets a
        dedup record from it, so later repeats — here or in any other
        session — still cost O(1).
        """
        from repro.io import _signature_from_list

        violating = {_signature_from_list(words)
                     for words in violating_words}
        ack = BatchAck(seq=seq)
        with self._lock:
            totals = self._totals
            counts = self.result.signature_counts
            for entry in entries:
                signature, count = signature_from_entry(entry)
                counts[signature] += count
                totals.occurrences += count
                known = self.dedup.observe(self.campaign, signature)
                violation = signature in violating
                if known is not None:
                    ack.repeats += 1
                    totals.dedup_hits += 1
                    violation = known.violation
                else:
                    self.dedup.record(self.campaign, signature, violation)
                    ack.novel += 1
                if violation:
                    totals.violations.add(signature)
                    ack.violations += 1
            totals.iterations += (iterations if iterations is not None
                                  else sum(int(e.get("count", 1))
                                           for e in entries))
            totals.crashes += int(crashes)
            totals.batches += 1
        obs = get_obs()
        obs.emit("serve.batch", session=self.session_id, seq=seq,
                 novel=ack.novel, repeats=ack.repeats,
                 violations=ack.violations)
        obs.counter("serve.signatures_offloaded").inc(len(entries))
        return ack

    # -- accounting --------------------------------------------------------------------

    @property
    def unique_signatures(self) -> int:
        return len(self.result.signature_counts)

    @property
    def signatures_ingested(self) -> int:
        return self._totals.occurrences

    @property
    def batches(self) -> int:
        return self._totals.batches

    @property
    def violation_count(self) -> int:
        return len(self._totals.violations)

    def progress_payload(self) -> dict:
        """A heartbeat-shaped payload for the live progress table."""
        return {"iterations_done": self._totals.occurrences,
                "iterations_total": self._totals.occurrences,
                "unique_signatures": self.unique_signatures,
                "crashes": self._totals.crashes}

    # -- drain -------------------------------------------------------------------------

    def finalize(self, drained: bool = False) -> SessionReport:
        """Check the accumulated multiset through the canonical batch
        path and flush the session's report.

        The replay covers *every* unique signature this session ingested
        — including dedup hits whose live check was answered by another
        client — so the report stands alone, byte-identical to a batch
        ``repro run --check-pipeline delta`` over the same multiset.
        """
        with self._lock:
            totals = self._totals
            self.result.iterations = totals.iterations
            self.result.crashes = totals.crashes
            report = (self.checker.finalize(self.result.signature_counts,
                                            pipeline=self.pipeline)
                      if self.unique_signatures else self.checker.report)
            session_report = SessionReport(
                session_id=self.session_id,
                summary=report.summary(),
                unique_signatures=self.unique_signatures,
                signatures=totals.occurrences,
                violations=len(report.violations),
                dedup_hits=totals.dedup_hits,
                drained=drained,
                label=self.label,
                iterations=totals.iterations,
                crashes=totals.crashes,
                batches=totals.batches)
        get_obs().emit("serve.session.close", session=self.session_id,
                       signatures=session_report.signatures,
                       unique=session_report.unique_signatures,
                       violations=session_report.violations,
                       drained=drained)
        return session_report
