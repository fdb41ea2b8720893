"""Resource metadata records and the repository that holds them.

A record is an opaque id plus a map from property type (a short token such
as "auth", "cite", "key") to a set of string values.  Values are opaque and
compared by exact equality; no normalization is applied here.
"""

from __future__ import annotations

import json
import json.scanner
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, NamedTuple

# json.loads's own scanner (the C one where it is built), called without the
# wrapper's checks: a line that it does not read whole goes to json.loads
_scan_json = json.scanner.make_scanner(json.JSONDecoder())


class RecordError(ValueError):
    """Malformed record input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownResourceError(KeyError):
    def __init__(self, resource_id):
        super().__init__(resource_id)
        self.resource_id = resource_id

    def __str__(self):
        return f"unknown resource id: {self.resource_id!r}"


def _check_token(token: str, what: str) -> None:
    if not isinstance(token, str) or not token:
        raise ValueError(f"{what} must be a non-empty string, got {token!r}")
    # str.split() splits at exactly the characters that str.isspace accepts
    if token.split() != [token]:
        raise ValueError(f"{what} must not contain whitespace: {token!r}")


def _value_fault(value) -> str:
    """Why ``value`` is not a valid id or value, or "" when it is one."""
    if not isinstance(value, str) or not value:
        return f"must be a non-empty string, got {value!r}"
    if "\t" in value or "\n" in value or "\r" in value:
        return f"must not contain tab/newline: {value!r}"
    return ""


def _dump_fields(fh, source, start: int, count: int):
    """The non-blank lines of a tab-separated dump ``fh``, numbered from
    ``start``, as ("{source}:{line}", fields); a line with other than
    ``count`` fields raises ValueError at its line."""
    for line_no, line in enumerate(fh, start=start):
        stripped = line.rstrip("\n")
        if not stripped:
            continue
        where = f"{source}:{line_no}"
        parts = stripped.split("\t")
        if len(parts) != count:
            raise ValueError(f"{where}: expected {count} fields, got {len(parts)}")
        yield where, parts


class ResourceRecord(NamedTuple):
    """One resource: an id plus property-type -> value-set metadata.  A
    ``typing.NamedTuple``: immutable, and otherwise the tuple ``(id,
    properties)``, which it unpacks, indexes and compares equal to; so a
    lone record given where records are expected reads as its two fields."""

    id: str
    properties: Mapping[str, FrozenSet[str]]

    def values(self, mu: str) -> FrozenSet[str]:
        """Value set for property type ``mu``; absent property == empty set."""
        return self.properties.get(mu, frozenset())


def _valid_values(vals: tuple) -> bool:
    """Whether each of ``vals`` is a valid value, tested on all of them at
    once: the join fails on a value that is not a str, and the joined text
    holds a tab, newline or CR only if some value does."""
    try:
        text = "\x00".join(vals)
    except TypeError:
        return False
    return "" not in vals and "\t" not in text and "\n" not in text and "\r" not in text


def make_record(rid: str, properties: Mapping[str, Iterable[str]]) -> ResourceRecord:
    """Validate and freeze raw id/properties into a ResourceRecord.

    Each property type and each property's values are tested whole first;
    only those that fail are checked one by one, which words the first
    fault."""
    fault = _value_fault(rid)
    if fault:
        raise ValueError(f"resource id {fault}")
    props: Dict[str, FrozenSet[str]] = {}
    for mu, vals in properties.items():
        if not isinstance(mu, str) or mu.split() != [mu]:
            _check_token(mu, "property type")
        vals = tuple(vals)
        if not _valid_values(vals):
            for v in vals:  # before frozenset, which cannot hash a list
                fault = _value_fault(v)
                if fault:
                    raise ValueError(f"value of {mu!r} {fault}")
        if vals:
            props[mu] = frozenset(vals)
    return ResourceRecord(rid, props)


class Repository:
    """Immutable collection of ResourceRecords keyed by id.

    Safe for concurrent read access; nothing mutates a repository after
    construction, which sorts the ids and the property types once.
    """

    def __init__(self, records: Iterable[ResourceRecord] = ()):
        ordered = sorted(records, key=attrgetter("id"))
        # held in id order, so ids() and iteration need neither a sort nor a second copy
        self._records = {rec.id: rec for rec in ordered}
        if len(self._records) < len(ordered):
            # the sort puts equal ids side by side, the smallest first
            rid = next(a.id for a, b in zip(ordered, ordered[1:]) if a.id == b.id)
            raise ValueError(f"duplicate resource id: {rid!r}")
        self._types = tuple(sorted({mu for rec in ordered for mu in rec.properties}))

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, rid: str) -> bool:
        return rid in self._records

    def __iter__(self) -> Iterator[ResourceRecord]:
        return iter(self._records.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Repository):
            return NotImplemented
        return self._records == other._records

    def ids(self) -> list:
        return list(self._records)

    def record(self, rid: str) -> ResourceRecord:
        try:
            return self._records[rid]
        except KeyError:
            raise UnknownResourceError(rid) from None

    def meta(self, rid: str, mu: str) -> FrozenSet[str]:
        """Value set of property ``mu`` for resource ``rid`` (may be empty)."""
        return self.record(rid).values(mu)

    def property_types(self) -> list:
        return list(self._types)


def ingest(lines: Iterable[str]) -> Repository:
    """Build a Repository from JSON-lines record text.

    Each non-blank line is one record object:
        {"id": "m1", "properties": {"key": ["swarm", "algorithms"]}}

    Duplicate ids and malformed lines raise RecordError with the line number.
    Each line is read by json's scanner alone; one that it cannot read
    whole is given to ``json.loads``, whose error words the report.
    """
    records: Dict[str, ResourceRecord] = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj, end = _scan_json(stripped, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(stripped):
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise RecordError(line_no, f"invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict) or "id" not in obj:
            raise RecordError(line_no, "record must be an object with an 'id' field")
        props = obj.get("properties", {})
        if not isinstance(props, dict):
            raise RecordError(line_no, "'properties' must be an object")
        for mu, vals in props.items():
            if not isinstance(vals, list):
                raise RecordError(line_no, f"values of {mu!r} must be an array")
        try:
            rec = make_record(obj["id"], props)
        except ValueError as exc:
            raise RecordError(line_no, str(exc)) from exc
        if rec.id in records:
            raise RecordError(line_no, f"duplicate resource id: {rec.id!r}")
        records[rec.id] = rec
    return Repository(records.values())


def save_repository(repo: Repository, destination) -> None:
    """Write a repository as canonical JSON lines (sorted ids, sorted values)."""
    with open(destination, "w", encoding="utf-8") as fh:
        for rec in repo:
            obj = {
                "id": rec.id,
                "properties": {mu: sorted(rec.properties[mu]) for mu in sorted(rec.properties)},
            }
            fh.write(json.dumps(obj) + "\n")  # obj is built in key order


def load_repository(source) -> Repository:
    with open(source, "r", encoding="utf-8") as fh:
        return ingest(fh)
