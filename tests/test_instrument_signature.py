"""Unit tests for execution signatures and the codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SignatureError
from repro.instrument import Signature, SignatureCodec
from repro.testgen import TestConfig, generate


def full_rf(codec, pick=0):
    """A valid rf choosing candidate ``pick`` (clamped) for every load."""
    return {uid: cands[min(pick, len(cands) - 1)]
            for uid, cands in codec.candidates.items()}


class TestSignatureType:
    def test_ordering_is_thread0_most_significant(self):
        a = Signature(((1, 0), (9,)))
        b = Signature(((2, 0), (0,)))
        assert a < b

    def test_ordering_within_thread_first_word_most_significant(self):
        a = Signature(((0, 5),))
        b = Signature(((1, 0),))
        assert a < b

    def test_flat_concatenation(self):
        sig = Signature(((1, 2), (3,)))
        assert sig.flat == (1, 2, 3)

    def test_interleaved_key(self):
        sig = Signature(((1, 2), (3,)))
        assert sig.interleaved_key() == (1, 3, 2)

    def test_str_renders_hex(self):
        assert str(Signature(((16,), (2,)))) == "0x10|0x2"

    def test_hashable_and_equal(self):
        assert Signature(((1,),)) == Signature(((1,),))
        assert len({Signature(((1,),)), Signature(((1,),))}) == 1


class TestCodec:
    def test_encode_produces_per_thread_sections(self, small_program, small_codec):
        sig = small_codec.encode(full_rf(small_codec))
        assert len(sig.words) == small_program.num_threads

    def test_roundtrip_different_picks(self, small_codec):
        for pick in range(3):
            rf = full_rf(small_codec, pick)
            assert small_codec.decode(small_codec.encode(rf)) == rf

    def test_decode_rejects_wrong_thread_count(self, small_codec):
        with pytest.raises(SignatureError):
            small_codec.decode(Signature(((0,),)))

    def test_byte_size_consistent_with_tables(self, small_codec):
        assert small_codec.byte_size == sum(t.byte_size for t in small_codec.tables)

    def test_total_words(self, small_codec):
        assert small_codec.total_words == sum(t.num_words for t in small_codec.tables)

    def test_cardinality_is_product_of_candidates(self, small_codec):
        expected = 1
        for cands in small_codec.candidates.values():
            expected *= len(cands)
        assert small_codec.cardinality == expected

    def test_paper_size_magnitude_arm_2_50_32(self):
        """ARM-2-50-32 signatures average ~8.4 bytes in the paper; the
        static size for a single test must be in that neighbourhood."""
        sizes = []
        for seed in range(10):
            p = generate(TestConfig(isa="arm", threads=2, ops_per_thread=50,
                                    addresses=32, seed=seed))
            sizes.append(SignatureCodec(p, 32).byte_size)
        mean = sum(sizes) / len(sizes)
        assert 8 <= mean <= 16

    def test_wider_registers_never_increase_size(self):
        p = generate(TestConfig(threads=4, ops_per_thread=50, addresses=16, seed=1))
        assert SignatureCodec(p, 64).byte_size <= SignatureCodec(p, 32).byte_size * 2


def _raises(call, signature) -> bool:
    try:
        call(signature)
    except SignatureError:
        return True
    return False


@st.composite
def _codec_and_signature(draw):
    """A small program's codec and a signature built around its bounds:
    words at and beside each bound, and sometimes a thread or a word too
    many or too few."""
    program = generate(TestConfig(
        isa=draw(st.sampled_from(["arm", "x86"])),
        threads=draw(st.integers(1, 3)),
        ops_per_thread=draw(st.integers(1, 30)),
        addresses=draw(st.integers(1, 6)), seed=draw(st.integers(0, 500))))
    codec = SignatureCodec(program, draw(st.sampled_from([8, 32])))
    threads = []
    for table in codec.tables:
        bounds = list(table.word_bounds)
        bounds += [1] * draw(st.integers(0, 1))
        del bounds[len(bounds) - draw(st.integers(0, 1)):]
        threads.append(tuple(draw(st.sampled_from(
            [0, bound - 1, bound, bound + 1, bound // 2, -1, 10 ** 30]))
            for bound in bounds))
    extra = draw(st.integers(-1, 1))
    if extra > 0:
        threads.append((0,))
    elif extra < 0:
        threads.pop()
    return codec, Signature(tuple(threads))


class TestValidate:
    @given(_codec_and_signature())
    @settings(max_examples=300, deadline=None)
    def test_raises_exactly_when_decode_raises(self, drawn):
        codec, signature = drawn
        assert _raises(codec.validate, signature) == \
            _raises(codec.decode, signature)

    def test_largest_words_decode(self, small_codec):
        largest = Signature(tuple(tuple(bound - 1 for bound in t.word_bounds)
                                  for t in small_codec.tables))
        small_codec.validate(largest)
        assert small_codec.encode(small_codec.decode(largest)) == largest
