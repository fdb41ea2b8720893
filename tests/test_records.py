import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop.records import (
    RecordError,
    Repository,
    ResourceRecord,
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

    def test_repository_names_the_smallest_duplicate_id(self):
        recs = [make_record(rid, {}) for rid in ("m3", "m1", "m2", "m3", "m1")]
        with pytest.raises(ValueError, match="duplicate resource id: 'm1'"):
            Repository(recs)

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
    with pytest.raises(AttributeError):
        rec.properties = {}


def test_record_is_the_tuple_of_its_id_and_properties():
    rec = make_record("m", {"key": ["a"]})
    rid, props = rec
    assert (rid, props) == (rec[0], rec[1]) == ("m", {"key": frozenset({"a"})})
    assert rec == ("m", {"key": frozenset({"a"})})
    assert rec == ResourceRecord("m", props) == ResourceRecord(id="m", properties=props)


@pytest.mark.parametrize("other", [
    [make_record("m1", {"key": ["a"]})],  # an id fewer
    [make_record("m1", {"key": ["a"]}), make_record("m3", {})],  # another id
    [make_record("m1", {"key": ["b"]}), make_record("m2", {})],  # another value
    [make_record("m1", {"key": ["a"]}), make_record("m2", {"key": ["a"]})],  # another property
])
def test_repositories_differ(other):
    repo = Repository([make_record("m2", {}), make_record("m1", {"key": ["a"]})])
    assert repo == Repository([make_record("m1", {"key": ("a",)}), make_record("m2", {})])
    assert repo != Repository(other)
    assert repo != repo.ids()


# The checks as they were written before they ran at str speed: the oracle
# that make_record and ingest must accept, reject and word errors exactly as.
def _generator_check_token(token, what):
    if not isinstance(token, str) or not token:
        raise ValueError(f"{what} must be a non-empty string, got {token!r}")
    if any(c.isspace() for c in token):
        raise ValueError(f"{what} must not contain whitespace: {token!r}")


def _generator_check_value(value, what):
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a non-empty string, got {value!r}")
    if any(c in value for c in ("\t", "\n", "\r")):
        raise ValueError(f"{what} must not contain tab/newline: {value!r}")


def _generator_fault(rid, properties):
    """The oracle's error message for a record, or None when it is valid."""
    try:
        _generator_check_value(rid, "resource id")
        for mu, vals in properties.items():
            _generator_check_token(mu, "property type")
            for v in tuple(vals):
                _generator_check_value(v, f"value of {mu!r}")
    except ValueError as exc:
        return str(exc)
    return None


# every class of character that str.isspace accepts, the three a value may
# not hold, and plain letters
SPACES = ["\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " ", "\x85", "\xa0",
          "\u1680", "\u2000", "\u200a", "\u2028", "\u2029", "\u202f", "\u205f", "\u3000"]
texts = st.text(alphabet=st.sampled_from(SPACES + ["a", "b", "_", "é", "\u200b"]), max_size=4)
non_strings = st.one_of(st.none(), st.integers(), st.lists(st.just("x"), max_size=1),
                        st.dictionaries(st.just("x"), st.integers(), max_size=1))
fields = st.one_of(texts, texts, non_strings)
raw_properties = st.dictionaries(st.one_of(texts, st.integers()), st.lists(fields, max_size=3),
                                 max_size=3)


def _make_record_as_generator_forms(rid, properties):
    fault = _generator_fault(rid, properties)
    if fault is None:
        rec = make_record(rid, properties)
        assert rec.id == rid
        assert rec.properties == {mu: frozenset(v) for mu, v in properties.items() if v}
    else:
        with pytest.raises(ValueError) as caught:
            make_record(rid, properties)
        assert str(caught.value) == fault


class TestChecksMatchTheGeneratorForms:
    @given(fields, raw_properties)
    def test_make_record(self, rid, properties):
        _make_record_as_generator_forms(rid, properties)

    @pytest.mark.parametrize("c", SPACES)
    def test_each_space_in_each_place(self, c):
        for rid, properties in ((c, {}), (f"a{c}b", {}), ("m", {c: ["v"]}), ("m", {f"k{c}": ["v"]}),
                                ("m", {"k": [c]}), ("m", {"k": ["v", f"{c}v"]})):
            _make_record_as_generator_forms(rid, properties)

    @given(fields, st.dictionaries(texts, st.lists(fields, max_size=3), max_size=3))
    def test_ingest(self, rid, properties):
        line = json.dumps({"id": rid, "properties": properties})
        fault = _generator_fault(rid, properties)
        if fault is None:
            assert ingest([line]) == Repository([make_record(rid, properties)])
        else:
            with pytest.raises(RecordError) as caught:
                ingest([json.dumps({"id": "m0"}), line])
            assert str(caught.value) == f"line 2: {fault}"


printable = st.text(alphabet=st.sampled_from(["a", "b", "Z", "0", " ", "_", "é", "\u2028"]),
                    min_size=1, max_size=4)
tokens = st.text(alphabet=st.sampled_from(["a", "b", "Z", "0", "_", "é"]), min_size=1,
                 max_size=3)
raw_repositories = st.dictionaries(
    printable, st.dictionaries(tokens, st.lists(printable, max_size=3), max_size=3), max_size=6
)


def _repository(raw):
    return Repository(make_record(rid, props) for rid, props in raw.items())


class TestRepositoryOrder:
    @given(raw_repositories)
    def test_ids_iteration_and_property_types_are_sorted(self, raw):
        repo = _repository(raw)
        assert repo.ids() == sorted(raw)
        assert [rec.id for rec in repo] == sorted(raw)
        assert list(repo) == [repo.record(rid) for rid in sorted(raw)]
        types = {mu for props in raw.values() for mu, vals in props.items() if vals}
        assert repo.property_types() == sorted(types)

    def test_mutating_a_returned_list_changes_nothing(self):
        repo = Repository([make_record("b", {"key": ["x"]}), make_record("a", {"auth": ["y"]})])
        repo.ids().append("c")
        repo.ids().reverse()
        repo.property_types().clear()
        assert repo.ids() == ["a", "b"] and [rec.id for rec in repo] == ["a", "b"]
        assert repo.property_types() == ["auth", "key"]

    @settings(max_examples=50)
    @given(raw_repositories)
    def test_saved_bytes_are_the_sorted_key_rendering(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("save") / "repo.jsonl"
        save_repository(_repository(raw), path)
        expected = "".join(
            json.dumps({"properties": {mu: sorted(set(vals)) for mu, vals in raw[rid].items() if vals},
                        "id": rid}, sort_keys=True) + "\n"
            for rid in sorted(raw)
        )
        assert path.read_bytes() == expected.encode("utf-8")
