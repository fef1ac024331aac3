"""Persistence: programs, signatures and campaign results as JSON.

In the paper's flow, signatures are produced on the device under
validation and shipped to a host machine for decoding and checking; the
amount of data transferred matters (Section 1).  This module provides
that boundary: a campaign's signature multiset (plus, optionally, each
unique signature's observed coherence order) serializes to a JSON
document that a host-side process can load and check without re-running
anything.

Programs serialize through the textual assembler
(:mod:`repro.isa.assembler`), keeping dumps human-readable.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.errors import ReproError
from repro.harness.runner import CampaignResult
from repro.instrument.signature import Signature, SignatureCodec
from repro.isa.assembler import assemble, disassemble
from repro.isa.program import TestProgram
from repro.sim.platform import REGISTER_WIDTHS

_FORMAT_VERSION = 1
#: header counts of a campaign dump; an absent one reads as 0
_HEADER_COUNTS = ("iterations", "crashes", "skipped_iterations",
                  "signature_asserts")


class FormatError(ReproError):
    """A dump file is malformed or from an incompatible version."""


class TruncatedPayloadError(FormatError):
    """A JSON payload ends mid-document (a short read, not a syntax error).

    The serve framing path (:mod:`repro.serve.protocol`) can deliver
    partial payloads when a peer dies mid-write; distinguishing "cut off
    at byte N" from "malformed JSON" turns a debugging session into one
    error message.  ``offset`` is the byte position where the document
    stopped making sense — for a clean truncation, the payload length.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def parse_json_payload(text: str, what: str = "payload") -> dict:
    """Parse one JSON document, typing truncation separately.

    Raises :class:`TruncatedPayloadError` (naming the byte offset) when
    the decoder ran off the end of the input — an unterminated string or
    an error at/after the last byte — and plain :class:`FormatError` for
    any other malformation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        # an error at/after the last non-space byte means the decoder ran
        # out of input; an unterminated string is reported at its opening
        # quote but likewise only happens when the closing quote never
        # arrives before EOF
        at_end = exc.pos >= len(text.rstrip())
        unterminated = exc.msg.startswith("Unterminated string")
        if at_end or unterminated:
            raise TruncatedPayloadError(
                "%s truncated at byte %d of %d (%s); the sender died "
                "mid-write or the read was short"
                % (what, exc.pos, len(text.encode("utf-8")), exc.msg),
                exc.pos) from None
        raise FormatError("%s is not valid JSON: %s" % (what, exc)) from None
    if not isinstance(doc, dict):
        raise FormatError("%s must be a JSON object, not %s"
                          % (what, type(doc).__name__))
    return doc


def dump_program(program: TestProgram) -> dict:
    """Serialize a test program (assembler text + metadata)."""
    return {"name": program.name, "listing": disassemble(program)}


def load_program(doc: dict) -> TestProgram:
    """Assemble a program document; a listing that is not assembler
    text, or a name that is not a string, is a :class:`FormatError`, an
    unparsable listing a ``ProgramError``.  An absent name reads as
    ``""``."""
    try:
        listing = doc["listing"]
    except KeyError as exc:
        raise FormatError("program document missing %s" % exc) from None
    if not isinstance(listing, str):
        raise FormatError("program listing must be assembler text, got %r"
                          % (listing,))
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise FormatError("program name must be a string, got %r" % (name,))
    return assemble(listing, name=name)


def _signature_to_list(signature: Signature) -> list:
    return [list(words) for words in signature.words]


def _signature_from_list(data) -> Signature:
    """Decode a signature's word lists; every word must be an ``int`` >= 0.

    ``bool``, floats and numeric strings are not words: converting them
    would check a different interleaving than the entry names.
    """
    words = tuple(tuple(register) for register in data)
    for register in words:
        for w in register:
            if type(w) is not int or w < 0:
                raise FormatError("bad signature word %r: words must be "
                                  "integers >= 0" % (w,))
    return Signature(words)


def _ws_from_doc(data) -> dict:
    """Type-check an entry's ``ws`` object; returns ``{address: chain}``.

    Keys must be distinct decimal addresses (``"7"`` and ``"07"`` are
    one address) and each chain a list of store uids, ``int`` >= 0
    (``bool`` is not a uid).  The parsed lists are kept as
    they are: converting a ``"7"`` or ``2.5`` would check a coherence
    order the dump does not name.
    """
    if not isinstance(data, dict):
        raise FormatError("bad ws: must be an object of address -> store "
                          "uid list, got %r" % (data,))
    ws = {}
    for key, chain in data.items():
        if not (key.isdecimal() and key.isascii()):
            raise FormatError("bad ws address %r: must be a decimal address"
                              % (key,))
        if type(chain) is not list:
            raise FormatError("bad ws chain for address %s: must be a list, "
                              "got %r" % (key, chain))
        for uid in chain:
            if type(uid) is not int or uid < 0:
                raise FormatError("bad ws chain for address %s: uid %r is "
                                  "not an integer >= 0" % (key, uid))
        ws[int(key)] = chain
    if len(ws) != len(data):
        raise FormatError("bad ws: an address is keyed twice in %s"
                          % sorted(data))
    return ws


def signature_to_entry(signature: Signature, count: int = 1) -> dict:
    """One ``{"words", "count"}`` signature entry (the dump/serve unit)."""
    return {"words": _signature_to_list(signature), "count": int(count)}


def signature_from_entry(entry: dict) -> tuple:
    """Decode one signature entry; returns ``(signature, count)``.

    Campaign dumps (and with them fleet hand-offs) and serve batches
    all decode their entries here.  ``count`` defaults to 1 and
    must be an ``int`` >= 1 (``bool`` is not a count); anything else
    raises :class:`FormatError` instead of being truncated or kept.
    """
    try:
        signature = _signature_from_list(entry["words"])
        count = entry.get("count", 1)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("bad signature entry: %s" % (exc,)) from None
    if type(count) is not int or count < 1:
        raise FormatError("bad signature entry: count must be an integer "
                          ">= 1, got %r" % (count,))
    return signature, count


def dump_campaign(result: CampaignResult, include_ws: bool = True,
                  meta: dict = None) -> str:
    """Serialize a campaign's signatures (and optional ws orders) to JSON.

    Writes one entry per unique signature, in ascending order.

    Args:
        result: a finished :class:`CampaignResult`.
        include_ws: also store each unique signature's observed
            coherence order (``result.ws_orders``), enabling host-side
            ``observed``-mode checking.  Without it the dump carries
            only what the paper's signature transfer carries.
        meta: optional free-form provenance (fleet workers stamp their
            shard's seed and seed-block assignment here).  Ignored by
            :func:`load_campaign`; surfaced by :func:`campaign_meta`.
    """
    signatures = []
    for signature, count in sorted(result.signature_counts.items()):
        entry = {"words": _signature_to_list(signature), "count": count}
        if include_ws:
            ws = result.ws_orders[signature]
            entry["ws"] = {str(addr): chain for addr, chain in ws.items()}
        signatures.append(entry)
    doc = {
        "format": _FORMAT_VERSION,
        "program": dump_program(result.program),
        "register_width": result.codec.register_width,
        "iterations": result.iterations,
        "crashes": result.crashes,
        "signatures": signatures,
    }
    if result.skipped_iterations:
        doc["skipped_iterations"] = result.skipped_iterations
    if result.signature_asserts:
        doc["signature_asserts"] = result.signature_asserts
    if meta:
        doc["meta"] = dict(meta)
    return json.dumps(doc, indent=1)


def campaign_meta(text: str) -> dict:
    """The free-form ``meta`` block of a campaign dump (``{}`` if absent)."""
    doc = parse_json_payload(text, what="campaign dump")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatError("campaign 'meta' must be an object")
    return meta


def load_campaign(text: str) -> CampaignResult:
    """Reconstruct a host-side :class:`CampaignResult` from a JSON dump.

    The returned result carries signature counts and each signature's
    ws order (``{}`` when the dump has none); a checker recovers ``rf``
    by decoding the signature — Algorithm 1 on the host, as in the
    paper — so loading decodes nothing.  Entries parse through
    :func:`signature_from_entry`, every signature's words are
    range-checked by :meth:`SignatureCodec.validate` (a word outside
    its bound raises ``SignatureError``), and their ``ws`` parses
    through :func:`_ws_from_doc`; a signature listed twice is a
    :class:`FormatError`, not a silent overwrite.
    The header is checked first: ``program`` must be an object and
    ``signatures`` a list, the register width one a
    :mod:`repro.sim.platform` preset uses, and each header count an
    ``int`` >= 0 (``bool`` is not a count).
    """
    doc = parse_json_payload(text, what="campaign dump")
    if doc.get("format") != _FORMAT_VERSION:
        raise FormatError("unsupported dump format %r" % doc.get("format"))
    for field, kind in (("program", dict), ("signatures", list)):
        if not isinstance(doc.get(field), kind):
            raise FormatError("campaign dump needs a %r %s, got %r"
                              % (field, "object" if kind is dict else "list",
                                 doc.get(field)))
    width = doc.get("register_width")
    if type(width) is not int or width not in REGISTER_WIDTHS:
        raise FormatError("campaign dump register_width must be one of %s, "
                          "got %r" % (sorted(REGISTER_WIDTHS), width))
    header = {field: doc.get(field, 0) for field in _HEADER_COUNTS}
    for field, value in header.items():
        if type(value) is not int or value < 0:
            raise FormatError("campaign dump %s must be an integer >= 0, "
                              "got %r" % (field, value))
    program = load_program(doc["program"])
    codec = SignatureCodec(program, width)
    result = CampaignResult(program, codec, iterations=header["iterations"])
    result.crashes = header["crashes"]
    result.skipped_iterations = header["skipped_iterations"]
    result.signature_asserts = header["signature_asserts"]
    counts = Counter()
    for entry in doc["signatures"]:
        signature, count = signature_from_entry(entry)
        if signature in counts:
            raise FormatError("campaign dump lists signature %s twice"
                              % (_signature_to_list(signature),))
        codec.validate(signature)
        counts[signature] = count
        result.ws_orders[signature] = _ws_from_doc(entry.get("ws", {}))
    result.signature_counts = counts
    return result


def save_campaign(result: CampaignResult, path, include_ws: bool = True) -> None:
    """Write a campaign dump to ``path``."""
    with open(path, "w") as handle:
        handle.write(dump_campaign(result, include_ws=include_ws))


def read_campaign(path) -> CampaignResult:
    """Load a campaign dump from ``path``."""
    with open(path) as handle:
        return load_campaign(handle.read())
