"""The cross-client signature-dedup store: repeat interleavings are O(1).

MTraceCheck's own observation (paper Section 4): most executions land on
a small set of popular interleavings, so collective checking cost is
dominated by *novel* signatures.  A resident daemon sees that skew
multiplied across clients — hundreds of devices streaming the same test
rediscover the same interleavings — so the dedup store keys verdicts by
``(campaign, signature)`` and answers repeats from memory: one dict
lookup instead of a decode + delta + sort.

Campaigns are keyed by a digest of the program listing and register
width (what :func:`repro.io.dump_campaign` ships), so two clients
running the same test share verdicts while different tests never
collide.

Persistence is an append-only JSONL journal: one line per novel
signature, replayed on startup.  A torn final line (daemon killed
mid-write) is skipped, not fatal — the worst case is re-checking one
signature.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass

from repro.instrument.signature import Signature
from repro.io import FormatError, _signature_from_list, _signature_to_list
from repro.isa.assembler import disassemble
from repro.isa.program import TestProgram


def campaign_key(program: TestProgram, register_width: int) -> str:
    """A stable digest identifying one (test, codec) campaign space."""
    digest = hashlib.sha256()
    digest.update(disassemble(program).encode("utf-8"))
    digest.update(b"\0%d" % register_width)
    return digest.hexdigest()[:16]


@dataclass
class DedupRecord:
    """The stored verdict for one (campaign, signature) pair."""

    violation: bool
    #: occurrences answered from the store (hits), across all clients
    hits: int = 0


class SignatureDedupStore:
    """Thread-safe verdict memory shared by every session of a daemon.

    Args:
        path: optional JSONL journal; existing records are replayed on
            construction and novel records appended as they are made.
    """

    def __init__(self, path=None):
        self._campaigns: dict = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._path = path
        self._journal = None
        if path is not None:
            self._replay(path)
            self._journal = open(path, "a")

    # -- the hot path ------------------------------------------------------------------

    def observe(self, campaign: str, signature: Signature) -> DedupRecord:
        """Look up one signature, counting the hit or miss.

        Returns the stored record (a hit: the caller answers from it in
        O(1)) or None (a miss: the caller checks the signature and
        :meth:`record`\\ s the verdict).
        """
        with self._lock:
            record = self._campaigns.get(campaign, {}).get(signature)
            if record is None:
                self.misses += 1
                return None
            self.hits += 1
            record.hits += 1
            return record

    def record(self, campaign: str, signature: Signature,
               violation: bool) -> DedupRecord:
        """Store a freshly checked verdict (and journal it)."""
        record = DedupRecord(bool(violation))
        with self._lock:
            self._campaigns.setdefault(campaign, {})[signature] = record
            if self._journal is not None:
                self._journal.write(json.dumps(
                    {"campaign": campaign,
                     "words": _signature_to_list(signature),
                     "violation": record.violation}) + "\n")
                self._journal.flush()
        return record

    # -- accounting --------------------------------------------------------------------

    @property
    def unique_signatures(self) -> int:
        with self._lock:
            return sum(len(sigs) for sigs in self._campaigns.values())

    @property
    def campaigns(self) -> int:
        with self._lock:
            return len(self._campaigns)

    def record_gauges(self, obs) -> None:
        """Publish the ``serve.dedup.*`` gauges."""
        metrics = obs.metrics
        metrics.gauge("serve.dedup.hits").set(self.hits)
        metrics.gauge("serve.dedup.misses").set(self.misses)
        metrics.gauge("serve.dedup.unique_signatures").set(
            self.unique_signatures)
        metrics.gauge("serve.dedup.campaigns").set(self.campaigns)
        total = self.hits + self.misses
        if total:
            metrics.gauge("serve.dedup.hit_rate").set(self.hits / total)

    # -- persistence -------------------------------------------------------------------

    def _replay(self, path) -> None:
        try:
            handle = open(path)
        except FileNotFoundError:
            return
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    signature = _signature_from_list(doc["words"])
                    violation = doc["violation"]
                    campaign = doc["campaign"]
                except (ValueError, KeyError, TypeError, FormatError):
                    # torn tail line from a mid-write kill (or a corrupt
                    # one): drop it; the signature is simply re-checked once
                    continue
                if type(violation) is not bool or type(campaign) is not str:
                    continue        # corrupt too: "false" is not False
                self._campaigns.setdefault(campaign, {})[signature] = \
                    DedupRecord(violation)

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
