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


def _ingest_oracle(lines):
    """What ingest must give for ``lines``, by the generator-form checks:
    the Repository, or the first RecordError's text."""
    records = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.strip())
        except json.JSONDecodeError as exc:
            return f"line {line_no}: invalid JSON: {exc.msg}"
        if not isinstance(obj, dict) or "id" not in obj:
            return f"line {line_no}: record must be an object with an 'id' field"
        props = obj.get("properties", {})
        if not isinstance(props, dict):
            return f"line {line_no}: 'properties' must be an object"
        for mu, vals in props.items():
            if not isinstance(vals, list):
                return f"line {line_no}: values of {mu!r} must be an array"
        fault = _generator_fault(obj["id"], props)
        if fault is not None:
            return f"line {line_no}: {fault}"
        if obj["id"] in records:
            return f"line {line_no}: duplicate resource id: {obj['id']!r}"
        records[obj["id"]] = ResourceRecord(
            obj["id"], {mu: frozenset(vals) for mu, vals in props.items() if vals}
        )
    return Repository(records.values())


def _assert_ingest_as_oracle(lines):
    expected = _ingest_oracle(lines)
    if isinstance(expected, str):
        with pytest.raises(RecordError) as caught:
            ingest(lines)
        assert str(caught.value) == expected
    else:
        assert ingest(lines) == expected


RECORD_FAULTS = [None, None, None, "non-list", "empty", "tab", "non-str", "space-token", "id"]


@st.composite
def record_files(draw):
    """JSON lines of a few records.  Each later record draws its ids,
    property types and values from those that earlier records had
    admitted, or new ones, and may carry one fault: a non-list, an empty,
    a tab-holding or a non-str value, or a property type with a space.
    Blank lines of Unicode spaces fall between records."""
    ids, types, values = ["m"], ["key"], ["v"]
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        rid = draw(st.one_of(st.sampled_from(ids), printable, printable))
        props = {}
        for mu in draw(st.lists(st.one_of(st.sampled_from(types), tokens), max_size=3)):
            props[mu] = draw(st.lists(st.one_of(st.sampled_from(values), printable), max_size=3))
        fault = draw(st.sampled_from(RECORD_FAULTS))
        if fault == "id":
            rid = draw(st.one_of(st.just(""), st.just("a\tb"), non_strings))
        elif fault == "space-token":
            props[f"k{draw(st.sampled_from(SPACES))}"] = ["v"]
        elif fault is not None:
            mu = draw(st.sampled_from(types))
            bad = {"non-list": draw(st.sampled_from(["v", None, 1, {"v": ["v"]}])), "empty": "",
                   "tab": "v\tv", "non-str": draw(non_strings)}[fault]
            if fault == "non-list":
                props[mu] = bad
            else:
                vals = props.setdefault(mu, [])
                vals.insert(draw(st.integers(0, len(vals))), bad)
        lines.append(draw(st.sampled_from(["", " ", "\xa0", "\u3000\t"])) + "\n")
        lines.append(json.dumps({"id": rid, "properties": props}, ensure_ascii=draw(st.booleans())))
        if fault is None and isinstance(rid, str) and _generator_fault(rid, props) is None:
            ids.append(rid)
            types.extend(props)
            values.extend(v for vals in props.values() for v in vals)
    return lines


class TestIngestMatchesTheOracle:
    @given(record_files())
    def test_multi_record_file(self, lines):
        _assert_ingest_as_oracle(lines)

    @pytest.mark.parametrize("line, message", [
        ('{"id": "m1"} {"id": "m2"}', "invalid JSON: Extra data"),
        ('{"id": "m1"}x', "invalid JSON: Extra data"),
        ('\ufeff{"id": "m1"}', "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ('{"id": "m1"', "invalid JSON: Expecting ',' delimiter"),
        ('{"id": "m1", "properties": {"k": ["a\\rb"]}}',
         "value of 'k' must not contain tab/newline: 'a\\rb'"),
        ('{"id": "m1", "properties": {"k": ["a", NaN]}}',
         "value of 'k' must be a non-empty string, got nan"),
        ('{"id": NaN}', "resource id must be a non-empty string, got nan"),
        ('{"id": "m1", "properties": {"k": ["a"], "k\\u2028": ["b"]}}',
         "property type must not contain whitespace: 'k\\u2028'"),
    ], ids=["two-objects", "trailing-text", "bom", "unclosed", "cr", "nan-value", "nan-id",
            "u2028-type"])
    def test_bad_line(self, line, message):
        lines = [json.dumps({"id": "m0"}), line]
        _assert_ingest_as_oracle(lines)
        with pytest.raises(RecordError) as caught:
            ingest(lines)
        assert str(caught.value) == f"line 2: {message}"

    def test_u2028_inside_a_value(self, tmp_path):
        # a line separator for str.splitlines, but neither a file's line end
        # nor a value's fault
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps({"id": "m\u2028", "properties": {"k": ["a\u2028b"]}},
                                   ensure_ascii=False) + "\n", encoding="utf-8")
        assert load_repository(path) == Repository([make_record("m\u2028", {"k": ["a\u2028b"]})])

    def test_nbsp_only_line_is_blank(self):
        lines = ["\xa0", json.dumps({"id": "m1"}), "\xa0\u3000", "{"]
        with pytest.raises(RecordError, match="^line 4: invalid JSON: "):
            ingest(lines)
        assert ingest(lines[:3]) == Repository([make_record("m1", {})])

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        objs = [{"id": "m1", "properties": {"k": ["a b"]}}, {"id": "m2"}]
        path.write_bytes(b"".join(json.dumps(o).encode() + b"\r\n" for o in objs))
        expected = Repository([make_record("m1", {"k": ["a b"]}), make_record("m2", {})])
        assert load_repository(path) == expected
