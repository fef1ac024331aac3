"""Unit tests for the serve wire protocol (repro.serve.protocol)."""

import io

import pytest

from repro.io import TruncatedPayloadError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    MESSAGE_KINDS,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_frame,
    expect_kind,
    negotiate_hello,
    protocol_markdown,
    read_frame,
    write_frame,
)


def _roundtrip(message):
    buffer = io.BytesIO()
    write_frame(buffer.write, message)
    buffer.seek(0)
    return read_frame(buffer.read)


class TestFraming:
    def test_round_trip(self):
        message = {"kind": "ack", "seq": 3, "novel": 2, "repeats": 1,
                   "violations": 0, "queued": 0}
        assert _roundtrip(message) == message

    def test_back_to_back_frames(self):
        buffer = io.BytesIO()
        write_frame(buffer.write, {"kind": "drain", "seq": 1})
        write_frame(buffer.write, {"kind": "drain", "seq": 2})
        buffer.seek(0)
        assert read_frame(buffer.read)["seq"] == 1
        assert read_frame(buffer.read)["seq"] == 2
        with pytest.raises(EOFError):
            read_frame(buffer.read)

    def test_clean_eof_between_frames_is_eoferror(self):
        with pytest.raises(EOFError):
            read_frame(io.BytesIO().read)

    def test_mid_payload_cut_is_typed_truncation(self):
        frame = encode_frame({"kind": "drain", "seq": 9})
        cut = io.BytesIO(frame[:-4])
        with pytest.raises(TruncatedPayloadError) as err:
            read_frame(cut.read)
        assert err.value.offset == len(frame) - 4 - 4

    def test_mid_prefix_cut_is_typed_truncation(self):
        frame = encode_frame({"kind": "drain", "seq": 9})
        with pytest.raises(TruncatedPayloadError):
            read_frame(io.BytesIO(frame[:2]).read)

    def test_oversized_length_prefix_refused(self):
        bogus = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(bogus).read)

    def test_oversized_payload_refused_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame({"kind": "submit",
                          "blob": "x" * (MAX_FRAME_BYTES + 1)})


class TestKinds:
    def test_expect_kind_accepts_registered(self):
        assert expect_kind({"kind": "ack"}, "ack", "busy") == "ack"

    def test_expect_kind_rejects_unknown(self):
        with pytest.raises(ProtocolError):
            expect_kind({"kind": "frobnicate"})

    def test_expect_kind_rejects_wrong_direction(self):
        with pytest.raises(ProtocolError):
            expect_kind({"kind": "ack"}, "submit", "drain")

    def test_registry_covers_both_legs(self):
        directions = {k.direction for k in MESSAGE_KINDS.values()}
        assert directions == {"client->server", "server->client"}


class TestHello:
    def _hello(self, **overrides):
        message = {"kind": "hello", "v": PROTOCOL_VERSION,
                   "program": {"name": "t", "listing": "..."},
                   "register_width": 32, "session": ""}
        message.update(overrides)
        return message

    def test_valid_hello_accepted(self):
        assert negotiate_hello(self._hello())["register_width"] == 32

    def test_version_mismatch_names_supported_version(self):
        with pytest.raises(ProtocolError) as err:
            negotiate_hello(self._hello(v=99))
        assert "version %d" % PROTOCOL_VERSION in str(err.value)

    def test_missing_program_rejected(self):
        with pytest.raises(ProtocolError):
            negotiate_hello(self._hello(program=None))

    def test_bad_register_width_rejected(self):
        with pytest.raises(ProtocolError):
            negotiate_hello(self._hello(register_width=48))


class TestReference:
    def test_markdown_mentions_every_kind(self):
        text = protocol_markdown()
        for name in MESSAGE_KINDS:
            assert "### `%s`" % name in text
