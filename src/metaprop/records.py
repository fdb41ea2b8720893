"""Resource metadata records and the repository that holds them.

A record is an opaque id plus a map from property type (a short token such
as "auth", "cite", "key") to a set of string values.  Values are opaque and
compared by exact equality; no normalization is applied here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping

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


@dataclass(frozen=True)
class ResourceRecord:
    """One resource: an id plus property-type -> value-set metadata."""

    id: str
    properties: Mapping[str, FrozenSet[str]] = field(default_factory=dict)

    def values(self, mu: str) -> FrozenSet[str]:
        """Value set for property type ``mu``; absent property == empty set."""
        return self.properties.get(mu, frozenset())


def make_record(rid: str, properties: Mapping[str, Iterable[str]]) -> ResourceRecord:
    """Validate and freeze raw id/properties into a ResourceRecord."""
    fault = _value_fault(rid)
    if fault:
        raise ValueError(f"resource id {fault}")
    props: Dict[str, FrozenSet[str]] = {}
    for mu, vals in properties.items():
        _check_token(mu, "property type")
        vals = tuple(vals)
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
        by_id: Dict[str, ResourceRecord] = {}
        for rec in records:
            if rec.id in by_id:
                raise ValueError(f"duplicate resource id: {rec.id!r}")
            by_id[rec.id] = rec
        # held in id order, so ids() and iteration need neither a sort nor a second copy
        self._records = {rid: by_id[rid] for rid in sorted(by_id)}
        self._types = tuple(sorted({mu for rec in by_id.values() for mu in rec.properties}))

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, rid: str) -> bool:
        return rid in self._records

    def __iter__(self) -> Iterator[ResourceRecord]:
        return iter(self._records.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Repository):
            return NotImplemented
        if set(self._records) != set(other._records):
            return False
        return all(
            self._records[rid].properties == other._records[rid].properties
            for rid in self._records
        )

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
    """
    records: Dict[str, ResourceRecord] = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
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
