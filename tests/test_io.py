"""Unit tests for JSON persistence (device -> host signature transfer)."""

import json

import pytest

from repro import io as repro_io
from repro.errors import ProgramError, SignatureError
from repro.harness import Campaign
from repro.testgen import TestConfig


@pytest.fixture
def finished_campaign():
    cfg = TestConfig(isa="arm", threads=2, ops_per_thread=20, addresses=8, seed=3)
    campaign = Campaign(config=cfg, seed=4)
    return campaign, campaign.run(150)


class TestProgramRoundTrip:
    def test_program_dump_load(self, small_program):
        doc = repro_io.dump_program(small_program)
        again = repro_io.load_program(doc)
        assert [op.describe() for op in again.all_ops] == \
               [op.describe() for op in small_program.all_ops]

    def test_missing_listing_rejected(self):
        with pytest.raises(repro_io.FormatError):
            repro_io.load_program({"name": "x"})

    @pytest.mark.parametrize("listing, error", [
        (None, repro_io.FormatError), (5, repro_io.FormatError),
        (["x"], repro_io.FormatError),
        ("", ProgramError), ("zap", ProgramError),
    ])
    def test_bad_listing_is_a_typed_error(self, listing, error):
        with pytest.raises(error):
            repro_io.load_program({"name": "x", "listing": listing})

    @pytest.mark.parametrize("name", [[1], {"a": 1}, 5, None, True])
    def test_name_that_is_not_a_string_is_a_format_error(self, small_program,
                                                          name):
        doc = dict(repro_io.dump_program(small_program), name=name)
        with pytest.raises(repro_io.FormatError, match="name"):
            repro_io.load_program(doc)

    def test_absent_name_reads_as_empty(self, small_program):
        doc = repro_io.dump_program(small_program)
        del doc["name"]
        assert repro_io.load_program(doc).name == ""


class TestCampaignRoundTrip:
    def test_signature_counts_preserved(self, finished_campaign):
        campaign, result = finished_campaign
        loaded = repro_io.load_campaign(repro_io.dump_campaign(result))
        assert loaded.signature_counts == result.signature_counts
        assert loaded.iterations == result.iterations

    def test_decoded_rf_matches_original(self, finished_campaign,
                                         executions_of):
        """Every execution the campaign ran decodes back to its own rf
        from the loaded dump's signatures."""
        campaign, result = finished_campaign
        loaded = repro_io.load_campaign(repro_io.dump_campaign(result))
        for execution in executions_of(campaign, result.iterations):
            signature = campaign.codec.encode(execution.rf)
            assert signature in loaded.signature_counts
            assert loaded.codec.decode(signature) == execution.rf

    def test_ws_preserved_when_included(self, finished_campaign):
        campaign, result = finished_campaign
        loaded = repro_io.load_campaign(repro_io.dump_campaign(result, include_ws=True))
        assert loaded.ws_orders == result.ws_orders

    def test_ws_omitted_when_excluded(self, finished_campaign):
        campaign, result = finished_campaign
        dump = repro_io.dump_campaign(result, include_ws=False)
        assert '"ws"' not in dump
        loaded = repro_io.load_campaign(dump)
        assert loaded.ws_orders.keys() == result.signature_counts.keys()
        assert all(ws == {} for ws in loaded.ws_orders.values())

    def test_host_side_checking_from_dump(self, finished_campaign):
        """The full host flow: load dump, decode, build, check."""
        from repro.checker import CollectiveChecker
        from repro.graph import GraphBuilder
        from repro.mcm import WEAK

        campaign, result = finished_campaign
        loaded = repro_io.load_campaign(repro_io.dump_campaign(result))
        builder = GraphBuilder(loaded.program, WEAK, ws_mode="observed")
        graphs = [builder.build(loaded.codec.decode(sig),
                                loaded.ws_orders[sig])
                  for sig in loaded.sorted_signatures()]
        report = CollectiveChecker().check(graphs)
        assert not report.violations

    def test_file_round_trip(self, finished_campaign, tmp_path):
        campaign, result = finished_campaign
        path = tmp_path / "dump.json"
        repro_io.save_campaign(result, path)
        loaded = repro_io.read_campaign(path)
        assert loaded.signature_counts == result.signature_counts


class TestFormatValidation:
    def test_garbage_rejected(self):
        with pytest.raises(repro_io.FormatError):
            repro_io.load_campaign("{not json")

    def test_wrong_version_rejected(self, finished_campaign):
        _, result = finished_campaign
        doc = json.loads(repro_io.dump_campaign(result))
        doc["format"] = 999
        with pytest.raises(repro_io.FormatError):
            repro_io.load_campaign(json.dumps(doc))


class TestWordRange:
    """Loading range-checks every word against its bound (the product of
    its loads' candidate counts) without decoding."""

    @staticmethod
    def _one_entry_dump(result, word):
        doc = json.loads(repro_io.dump_campaign(result, include_ws=False))
        entry = doc["signatures"][0]
        entry["words"][0][0] = word
        doc["signatures"] = [entry]
        return json.dumps(doc)

    @pytest.mark.parametrize("excess", [0, 1])
    def test_word_at_or_past_its_bound_is_a_signature_error(
            self, finished_campaign, excess):
        _, result = finished_campaign
        bound = result.codec.tables[0].word_bounds[0]
        with pytest.raises(SignatureError, match="out of range"):
            repro_io.load_campaign(self._one_entry_dump(result,
                                                        bound + excess))

    def test_word_of_10_to_the_30_is_a_signature_error(self,
                                                       finished_campaign):
        _, result = finished_campaign
        with pytest.raises(SignatureError):
            repro_io.load_campaign(self._one_entry_dump(result, 10 ** 30))

    def test_largest_word_loads_and_decodes(self, finished_campaign):
        _, result = finished_campaign
        bound = result.codec.tables[0].word_bounds[0]
        loaded = repro_io.load_campaign(self._one_entry_dump(result,
                                                             bound - 1))
        (signature,) = loaded.signature_counts
        assert signature.words[0][0] == bound - 1
        loaded.codec.decode(signature)


_BAD_COUNTS = (None, -1, 2.9, "3", [], True)
_MISSING = object()


@pytest.mark.parametrize("field, value", [
    *[(field, value) for field in ("iterations", "crashes",
                                   "skipped_iterations", "signature_asserts")
      for value in _BAD_COUNTS],
    ("program", _MISSING), ("program", "ARM-2-20-8"),
    ("signatures", _MISSING), ("signatures", {}),
    ("register_width", _MISSING), ("register_width", None),
    ("register_width", 0), ("register_width", "64"),
    ("register_width", 48), ("register_width", True),
])
def test_bad_campaign_header_is_a_format_error(finished_campaign, field,
                                                value):
    _, result = finished_campaign
    doc = json.loads(repro_io.dump_campaign(result))
    if value is _MISSING:
        del doc[field]
    else:
        doc[field] = value
    with pytest.raises(repro_io.FormatError, match=field):
        repro_io.load_campaign(json.dumps(doc))


@pytest.mark.parametrize("ws", [
    {"0": None}, {"0": "x"}, {"0": {"a": 1}},
    {"0": [None]}, {"0": ["7"]}, {"0": [2.5]}, {"0": [True]}, {"0": [-1]},
    {"zz": []}, {"-1": []}, {"7": [], "07": []}, [[0]], None,
], ids=["chain-null", "chain-str", "chain-object",
        "uid-null", "uid-str", "uid-float", "uid-bool", "uid-negative",
        "key-zz", "key-negative", "key-twice", "ws-list", "ws-null"])
def test_bad_ws_is_a_format_error(finished_campaign, ws):
    """Chains must be lists of int uids >= 0 under decimal address keys;
    nothing is converted into some other coherence order."""
    _, result = finished_campaign
    doc = json.loads(repro_io.dump_campaign(result))
    doc["signatures"][0]["ws"] = ws
    with pytest.raises(repro_io.FormatError, match="ws"):
        repro_io.load_campaign(json.dumps(doc))


class TestTruncationDiagnostics:
    def test_truncated_dump_names_the_byte_offset(self, finished_campaign):
        _, result = finished_campaign
        dump = repro_io.dump_campaign(result)
        cut = dump[: len(dump) // 2]
        with pytest.raises(repro_io.TruncatedPayloadError) as err:
            repro_io.load_campaign(cut)
        assert err.value.offset <= len(cut)
        assert "truncated at byte" in str(err.value)

    def test_truncation_is_a_format_error_subclass(self):
        assert issubclass(repro_io.TruncatedPayloadError,
                          repro_io.FormatError)
        with pytest.raises(repro_io.FormatError):
            repro_io.parse_json_payload('{"a": 1')

    def test_unterminated_string_counts_as_truncation(self):
        with pytest.raises(repro_io.TruncatedPayloadError):
            repro_io.parse_json_payload('{"listing": "ld r0')

    def test_mid_document_garbage_is_not_truncation(self):
        with pytest.raises(repro_io.FormatError) as err:
            repro_io.parse_json_payload('{"a": zap, "b": 1}')
        assert not isinstance(err.value, repro_io.TruncatedPayloadError)

    def test_non_object_payload_rejected(self):
        with pytest.raises(repro_io.FormatError):
            repro_io.parse_json_payload("[1, 2, 3]")


class TestSignatureEntries:
    def test_entry_round_trip(self, finished_campaign):
        _, result = finished_campaign
        for signature, count in result.signature_counts.items():
            entry = repro_io.signature_to_entry(signature, count)
            again, n = repro_io.signature_from_entry(entry)
            assert again == signature and n == count

    def test_count_defaults_to_one(self, finished_campaign):
        _, result = finished_campaign
        signature = next(iter(result.signature_counts))
        entry = repro_io.signature_to_entry(signature)
        words = entry["words"]
        _, n = repro_io.signature_from_entry({"words": words})
        assert n == 1

    def test_bad_entry_is_a_format_error(self):
        for entry in ({}, {"words": "zap"}, {"words": [["x"]]},
                      {"words": [[1]], "count": "many"},
                      {"words": [[1]], "count": 0},
                      {"words": [[1]], "count": -3},
                      {"words": [[1]], "count": 2.9},
                      {"words": [[1]], "count": True},
                      {"words": [[2.9]]}, {"words": [[True]]},
                      {"words": [["7"]]}, {"words": [[-5]]},
                      {"words": [[1], [3, 2.0]]}):
            with pytest.raises(repro_io.FormatError):
                repro_io.signature_from_entry(entry)

    def test_duplicate_dump_entry_is_a_format_error(self, finished_campaign):
        """A repeated signature must not overwrite its first count."""
        _, result = finished_campaign
        doc = json.loads(repro_io.dump_campaign(result))
        doc["signatures"].append(dict(doc["signatures"][0], count=1))
        with pytest.raises(repro_io.FormatError, match="twice"):
            repro_io.load_campaign(json.dumps(doc))
