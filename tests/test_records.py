import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metaprop.records import (
    RecordError,
    Repository,
    UnknownResourceError,
    ingest,
    load_repository,
    make_record,
    save_repository,
)


def _lines(*objs):
    return [json.dumps(o) for o in objs]


class TestIngest:
    def test_two_records(self):
        repo = ingest(_lines({"id": "m1"}, {"id": "m2", "properties": {"key": ["a"]}}))
        assert len(repo) == 2
        assert "m1" in repo and "m2" in repo

    def test_duplicate_id_is_an_error(self):
        with pytest.raises(RecordError, match="line 2.*duplicate"):
            ingest(_lines({"id": "m1"}, {"id": "m1"}))

    def test_repository_rejects_a_duplicate_id(self):
        rec = make_record("m1", {"key": ["a"]})
        with pytest.raises(ValueError, match="duplicate resource id: 'm1'"):
            Repository([rec, rec])

    def test_values_deduplicated(self):
        repo = ingest(_lines({"id": "m1", "properties": {"key": ["swarm", "swarm"]}}))
        assert repo.meta("m1", "key") == {"swarm"}

    def test_empty_stream(self):
        assert len(ingest([])) == 0

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(RecordError, match="line 2"):
            ingest([json.dumps({"id": "m1"}), "{not json"])

    def test_blank_lines_skipped(self):
        repo = ingest([json.dumps({"id": "m1"}), "", "  "])
        assert len(repo) == 1

    def test_empty_value_rejected(self):
        with pytest.raises(RecordError, match="line 1"):
            ingest(_lines({"id": "m1", "properties": {"key": [""]}}))

    def test_whitespace_property_name_rejected(self):
        with pytest.raises(RecordError):
            ingest(_lines({"id": "m1", "properties": {"a b": ["x"]}}))

    @pytest.mark.parametrize("value", [["x"], {"x": 1}, 1, None])
    def test_non_string_value_rejected(self, value):
        # a list or object value used to end in "TypeError: unhashable type"
        message = f"line 1: value of 'k' must be a non-empty string, got {value!r}"
        with pytest.raises(RecordError) as caught:
            ingest(_lines({"id": "m1", "properties": {"k": ["a", value]}}))
        assert str(caught.value) == message

    @pytest.mark.parametrize("line, message", [
        ('["m1"]', "record must be an object with an 'id' field"),
        ('{"properties": {}}', "record must be an object with an 'id' field"),
        ('{"id": "m1", "properties": ["key"]}', "'properties' must be an object"),
        ('{"id": "m1", "properties": {"key": "a"}}', "values of 'key' must be an array"),
        ('{"id": "m1", "properties": {"": ["a"]}}', "property type must be a non-empty string, got ''"),
        ('{"id": "m1", "properties": {"key": ["a\\tb"]}}',
         "value of 'key' must not contain tab/newline: 'a\\tb'"),
    ])
    def test_malformed_record_rejected(self, line, message):
        with pytest.raises(RecordError) as caught:
            ingest([json.dumps({"id": "m0"}), line])
        assert str(caught.value) == f"line 2: {message}"


class TestMeta:
    def test_returns_ingested_set(self):
        repo = ingest(_lines({"id": "n", "properties": {"key": ["repository", "metadata", "particle"]}}))
        assert repo.meta("n", "key") == {"repository", "metadata", "particle"}

    def test_absent_property_is_empty_set(self):
        repo = ingest(_lines({"id": "n"}))
        assert repo.meta("n", "date") == frozenset()

    def test_unknown_id(self):
        repo = ingest(_lines({"id": "n"}))
        with pytest.raises(UnknownResourceError):
            repo.meta("nope", "key")


class TestPersistence:
    def test_round_trip(self, tmp_path):
        repo = ingest(
            _lines(
                {"id": "m1", "properties": {"key": ["a", "b"], "jour": ["j"]}},
                {"id": "m2", "properties": {"auth": ["x"]}},
                {"id": "m3"},
            )
        )
        path = tmp_path / "repo.jsonl"
        save_repository(repo, path)
        assert load_repository(path) == repo

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "repo.jsonl"
        save_repository(Repository(), path)
        assert len(load_repository(path)) == 0

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "repo.jsonl"
        save_repository(ingest(_lines({"id": "m1", "properties": {"key": ["a"]}})), path)
        text = path.read_text()
        path.write_text(text[: len(text) - 5])
        with pytest.raises(RecordError):
            load_repository(path)


ids = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
props = st.dictionaries(
    st.sampled_from(["key", "auth", "jour"]),
    st.lists(ids, min_size=1, max_size=4),
    max_size=3,
)


@given(st.dictionaries(ids, props, max_size=8))
def test_ingest_is_idempotent(raw):
    lines = [json.dumps({"id": rid, "properties": p}) for rid, p in raw.items()]
    assert ingest(lines) == ingest(lines)


def test_record_is_immutable():
    rec = make_record("m", {"key": ["a"]})
    with pytest.raises(AttributeError):
        rec.id = "other"
