"""Occurrence and co-occurrence associative network construction.

A network is a directed, weighted, relation-labeled graph over resource ids.
Occurrence networks come from direct references (a resource listing another
resource's id, e.g. citations); co-occurrence networks connect resources that
share property values, weighted by overlap:

    w(i, j) = |shared| / (|values_i| + |values_j| - |shared|)

Outgoing weights can be normalized into per-node probability distributions
for the particle walk, by ``normalize`` or, with the same floats, by
``build_cooccurrence`` while it builds (``normalized=True``); ``build``
makes a relation label's network, as ``build-network`` writes it.  The walk
reads only the structure and each row's running sums, ``cum``, which a
network does not hold: ``WalkTables`` do.  ``_walk_tables`` sums them from a
normalized network, and the evaluation grid builds just them, by
``walk_tables``: a co-occurrence network's weights are then made, checked
and dropped one block of rows at a time.

A network is held in compressed sparse row (CSR) form over the sorted node
ids: three numpy arrays give each row's start offset, the destination node
numbers and the weights.
"""

from __future__ import annotations

import copy
import os
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np
import scipy.sparse

from .records import Repository, ResourceRecord

OCCURRENCE = "occurrence"
COOCCURRENCE = "cooccurrence"


class RelationError(ValueError):
    pass


class NetworkFormatError(ValueError):
    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


@dataclass(frozen=True)
class Relation:
    """Which property a network was built from, and how."""

    kind: str  # OCCURRENCE or COOCCURRENCE
    mu: str

    def __post_init__(self):
        if self.kind not in (OCCURRENCE, COOCCURRENCE):
            raise RelationError(f"unknown relation kind: {self.kind!r}")
        if not self.mu or any(c.isspace() for c in self.mu):
            raise RelationError(f"bad property type in relation: {self.mu!r}")

    @property
    def label(self) -> str:
        """The label that parse_relation reads back as this relation: the
        bare name or "co" + name, or the explicit "occ:"/"co:" form where
        the short one would read as another relation."""
        if self.kind == OCCURRENCE:
            return "occ:" + self.mu if self.mu.startswith(("co", "occ:")) else self.mu
        return "co:" + self.mu if self.mu.startswith(":") else "co" + self.mu


def parse_relation(label: str) -> Relation:
    """Parse a relation label such as "cite", "cokey", "occ:cost", "co:key".

    Labels starting with "co" are co-occurrence relations over the remainder
    ("cokey" -> co-occurrence over "key"); anything else is an occurrence
    relation.  The explicit "occ:"/"co:" forms disambiguate property names
    that themselves start with "co".
    """
    if not label or any(c.isspace() for c in label):
        raise RelationError(f"unknown relation label: {label!r}")
    if label.startswith("occ:"):
        return Relation(OCCURRENCE, label[4:])
    if label.startswith("co:"):
        return Relation(COOCCURRENCE, label[3:])
    if label.startswith("co") and len(label) > 2:
        return Relation(COOCCURRENCE, label[2:])
    if label == "co":
        raise RelationError(f"unknown relation label: {label!r}")
    return Relation(OCCURRENCE, label)


def relation_for(repo: Repository, label: str) -> Relation:
    """The relation ``label`` names, checked against ``repo``: a label that
    does not parse, or one over a property that no record holds, is a
    ``RelationError`` that ends in the labels ``require_edges`` would pass
    on ``repo``'s networks."""
    properties = repo.property_types()

    def valid() -> str:  # worked out only on the error path
        occurrence = [mu for mu in properties if build_occurrence(repo, mu).edge_count]
        labels = [Relation(OCCURRENCE, mu) for mu in occurrence]
        labels += [Relation(COOCCURRENCE, mu) for mu in properties]
        return ", ".join(rel.label for rel in labels)

    try:
        relation = parse_relation(label)
    except RelationError as exc:
        raise RelationError(f"{exc}; valid labels: {valid()}") from None
    if relation.mu not in properties:
        raise RelationError(f"no property {relation.mu!r} in repository; valid labels: {valid()}")
    return relation


def require_edges(net: AssociativeNetwork) -> AssociativeNetwork:
    """``net``, unless it is an occurrence network with no edge: no value of
    its property is the id of another record, so its relation is refused."""
    relation = net.relation
    if relation.kind == OCCURRENCE and net.edge_count == 0:
        raise RelationError(
            f"occurrence relation {relation.label!r} produced no edges: "
            f"no value of {relation.mu!r} is the id of another resource"
        )
    return net


_BLOCK_ENTRIES = 1 << 18  # entries per block of rows: product entries (an upper bound) or edges


def _row_blocks(cost: np.ndarray, budget: int) -> List[Tuple[int, int]]:
    """Consecutive row ranges [r0, r1) whose costs sum to at most ``budget``;
    a row that costs more is a range of its own."""
    ends = np.cumsum(cost)
    bounds = [0]
    while bounds[-1] < len(cost):
        r0 = bounds[-1]
        r1 = int(np.searchsorted(ends, (ends[r0 - 1] if r0 else 0) + budget, side="right"))
        bounds.append(max(r1, r0 + 1))
    return list(zip(bounds[:-1], bounds[1:]))


def _row_totals(bounds: List[int], weights, first: int = 0):
    """(node, lo, hi, total) for each non-empty row of ``weights``, bounded
    by ``bounds`` and numbered from ``first``: the last entry of the row's
    running sum, made in one row-sized scratch array, so summed left to
    right as ``acc += w`` sums it."""
    scratch = np.empty(np.diff(bounds).max(initial=0))
    for node, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]), first):
        if lo < hi:
            yield node, lo, hi, np.add.accumulate(weights[lo:hi], out=scratch[: hi - lo])[-1]


def _normalize_rows(ids, bounds: List[int], raw, weights, cum=None, first: int = 0) -> None:
    """Divide rows ``first``, ``first + 1``, ... of ``raw``, bounded by
    ``bounds``, by their ``_row_totals`` into ``weights`` (which may be
    ``raw``), and, given ``cum``, write the divided rows' running sums into
    it.  A total past the largest float is an error; a weight divided to 0
    is the caller's to report."""
    with np.errstate(over="ignore"):  # an overflowing row is reported by name
        for node, lo, hi, total in _row_totals(bounds, raw, first):
            if total == np.inf:
                raise ValueError(f"out-weights of {ids[node]!r} sum past the largest float")
            np.divide(raw[lo:hi], total, out=weights[lo:hi])
            if cum is not None:
                np.add.accumulate(weights[lo:hi], out=cum[lo:hi])


def _row_cumsum(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row's running weight sum, accumulated left to right as the
    scalar loop ``acc += w`` does (``np.cumsum`` is sequential; ``np.sum``
    is pairwise and may round differently)."""
    cum = np.empty_like(weights)
    bounds = indptr.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo < hi:  # np.cumsum is this call behind a Python wrapper, paid once a row
            np.add.accumulate(weights[lo:hi], out=cum[lo:hi])
    return cum


_FAULTS = ("self-loop on", "NaN weight on", "non-positive weight on", "infinite weight on", "order")


def _scan_edges(faults: Dict[str, int], indptr, indices, weights, r0: int, r1: int) -> None:
    """Record in ``faults`` the first edge of each kind of fault in rows
    r0..r1 that it does not hold yet; ``weights`` are those rows' weights
    alone, so a block's weights may be scratch that is dropped after."""
    lo, hi = int(indptr[r0]), int(indptr[r1])
    src = np.repeat(np.arange(r0, r1, dtype=np.int32), np.diff(indptr[r0 : r1 + 1]))
    dst = indices[lo:hi]
    # an edge whose destination does not rise over the one before it in the
    # same row (blocks hold whole rows)
    order = (np.diff(dst) <= 0) & (src[1:] == src[:-1])
    for kind, bad, at in zip(
        _FAULTS,
        (dst == src, np.isnan(weights), ~(weights > 0.0), weights == np.inf, order),
        (lo, lo, lo, lo, lo + 1),
    ):
        if kind not in faults:
            hit = np.flatnonzero(bad)
            if hit.size:
                faults[kind] = at + int(hit[0])


def _check_csr(ids, indptr, indices, weights_shape) -> None:
    """Raise ValueError on unsorted or repeated ids, malformed CSR arrays
    (weights of another shape than the indices among them) or an edge
    target outside the nodes."""
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError("node ids must be sorted and distinct")
    if (
        indptr.shape != (len(ids) + 1,)
        or indptr[0] != 0
        or indptr[-1] != len(indices)
        or weights_shape != indices.shape
        or np.any(np.diff(indptr) < 0)
    ):
        raise ValueError("malformed CSR arrays")
    if len(indices) and (indices.min() < 0 or indices.max() >= len(ids)):
        raise ValueError("edge target not in node set")


def _raise_fault(faults: Dict[str, int], ids, indptr, indices) -> None:
    """Raise ValueError on the first edge of the highest-ranked kind in
    ``faults``, as ``_scan_edges`` gathered them, if any."""
    for kind in _FAULTS:
        if kind in faults:
            k = faults[kind]
            if kind == "order":
                kind = "duplicate edge" if indices[k] == indices[k - 1] else "unsorted row at"
            raise ValueError(f"{kind} {_edge(ids, indptr, indices, k)}")


def _edge(ids, indptr, indices, k: int) -> str:
    """Edge k as the text "('src', 'dst')"."""
    src = int(np.searchsorted(indptr, k, side="right")) - 1
    return f"({ids[src]!r}, {ids[indices[k]]!r})"


class AssociativeNetwork:
    """Directed weighted graph over resource ids, immutable once built.

    ``ids`` are the node ids in sorted order; node i's out-edges are
    ``indices[indptr[i]:indptr[i + 1]]`` (ascending node numbers, so in
    destination-id order) with ``weights`` at the same positions.  The
    running sums the walk bisects, ``cum``, are not held here but in the
    ``WalkTables`` that ``_walk_tables`` makes from a normalized network.

    The constructor checks the arrays once; ``normalize`` keeps the ids and
    CSR structure as they were checked and checks only the weights it makes.
    """

    def __init__(
        self,
        relation: Relation,
        ids: Iterable[str],
        indptr,
        indices,
        weights,
        normalized: bool = False,
        dangling: int = 0,
    ):
        self.relation = relation
        self.ids: Tuple[str, ...] = tuple(ids)
        self.nodes = frozenset(self.ids)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.normalized = normalized
        self.dangling = dangling
        self._check()
        for column in (self.indptr, self.indices, self.weights):
            column.flags.writeable = False

    def _check(self) -> None:
        """Raise ValueError on the first fault of the highest-ranked kind:
        ids, CSR shape and targets, then self-loops, NaN, non-positive and
        infinite weights, then duplicate or unsorted edges.  The edge checks
        run in blocks of rows, so they need no full-length temporaries."""
        ids, indptr, indices, weights = self.ids, self.indptr, self.indices, self.weights
        _check_csr(ids, indptr, indices, weights.shape)
        faults: Dict[str, int] = {}
        for r0, r1 in _row_blocks(np.diff(indptr), _BLOCK_ENTRIES):
            _scan_edges(faults, indptr, indices, weights[indptr[r0] : indptr[r1]], r0, r1)
        _raise_fault(faults, ids, indptr, indices)

    def _row(self, node: str) -> Tuple[int, int]:
        i = bisect_left(self.ids, node)
        if i == len(self.ids) or self.ids[i] != node:
            return 0, 0
        return int(self.indptr[i]), int(self.indptr[i + 1])

    def out_edges(self, node: str) -> Tuple[Tuple[str, float], ...]:
        """Outgoing (dst, weight) pairs sorted by destination id, built on
        each call from the arrays."""
        lo, hi = self._row(node)
        ids = self.ids
        return tuple(
            (ids[d], w) for d, w in zip(self.indices[lo:hi].tolist(), self.weights[lo:hi].tolist())
        )

    @property
    def edge_count(self) -> int:
        return len(self.indices)

    @property
    def pair_count(self) -> int:
        """Number of unordered node pairs joined by at least one edge: every
        edge, less one for each pair joined both ways.  Those pairs are the
        entries of A∘Aᵀ, the 0/1 adjacency matrix times its transpose
        elementwise, counted in blocks of rows; the transpose is the only
        full-length copy (5 bytes an edge)."""
        n, e = len(self.ids), len(self.indices)
        a = scipy.sparse.csr_matrix((np.ones(e, np.int8), self.indices, self.indptr), shape=(n, n))
        at = a.T.tocsr()
        both = sum(
            a[r0:r1].multiply(at[r0:r1]).nnz
            for r0, r1 in _row_blocks(np.diff(self.indptr), _BLOCK_ENTRIES)
        )
        return e - both // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, AssociativeNetwork):
            return NotImplemented
        return (
            self.relation == other.relation
            and self.ids == other.ids
            and self.normalized == other.normalized
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )


class NumberedValues(NamedTuple):
    """One property over numbered nodes: which node holds which values,
    each value numbered by its place in name order."""

    holds: np.ndarray  # mask of the nodes that hold one value or more
    names: List[str]  # the property's values, sorted
    value_ptr: np.ndarray  # node i's value numbers, ascending, are
    value_ids: np.ndarray  # value_ids[value_ptr[i]:value_ptr[i + 1]]


def numbered_values(records: Sequence[ResourceRecord], mu: str) -> NumberedValues:
    """Property ``mu`` over ``records``, where node i is the i-th record."""
    columns = [rec.values(mu) for rec in records]
    sizes = np.fromiter(map(len, columns), dtype=np.int64, count=len(columns))
    names = sorted(set().union(*columns))
    number = {x: k for k, x in enumerate(names)}
    value_ptr = np.concatenate(([0], np.cumsum(sizes)))
    numbers = np.fromiter(
        map(number.__getitem__, chain.from_iterable(columns)), dtype=np.int64, count=value_ptr[-1]
    )
    # the numbers come out node by node; one sort of node * len(names) +
    # number puts each node's run in ascending order
    base = np.repeat(np.arange(len(columns)) * len(names), sizes)
    return NumberedValues(sizes > 0, names, value_ptr, np.sort(base + numbers) - base)


def build_occurrence(repo: Repository, mu: str) -> AssociativeNetwork:
    """Network of direct references: each listed target gets weight
    1/|values|, where the denominator counts ALL listed values (including
    self-references and ids missing from the repository).  Self-loops are
    dropped; references to unknown ids are dropped but tallied in
    ``dangling``.
    """
    ids = repo.ids()
    n = len(ids)
    table = numbered_values(list(repo), mu)
    # names and ids are both sorted, so each row's targets stay ascending
    id_array, names = np.array(ids, dtype=object), np.array(table.names, dtype=object)
    node = np.searchsorted(id_array, names)
    known = node < n
    known[known] = id_array[node[known]] == names[known]
    sizes = np.diff(table.value_ptr)
    src = np.repeat(np.arange(n, dtype=np.int32), sizes)
    dst = node[table.value_ids]
    listed = known[table.value_ids]
    kept = listed & (dst != src)
    src = src[kept]
    return AssociativeNetwork(
        Relation(OCCURRENCE, mu), ids, np.searchsorted(src, np.arange(n + 1, dtype=src.dtype)),
        dst[kept], 1.0 / sizes[src], dangling=int(np.count_nonzero(~listed)),
    )


def build_cooccurrence(repo: Repository, mu: str, normalized: bool = False) -> AssociativeNetwork:
    """Symmetric network of shared property values, as S = B·Bᵀ over the
    node x value incidence matrix B.

    Equivalent to the brute-force all-pairs definition: for every pair with a
    nonempty value intersection of size c, both directed edges get weight
    c / (|values_i| + |values_j| - c), from exact integer counts.

    With ``normalized``, each block's whole rows are normalized in place by
    ``normalize``'s rule, so no full-length raw weights are ever made.
    """
    ids, indptr, indices, weights = _cooccurrence(repo, mu, normalized, keep_weights=True)
    return AssociativeNetwork(Relation(COOCCURRENCE, mu), ids, indptr, indices, weights, normalized)


def _cooccurrence(repo: Repository, mu: str, normalized: bool, keep_weights: bool):
    """The arrays of ``build_cooccurrence``'s network: ids, ``indptr``,
    ``indices``, then, with ``keep_weights``, its weights, or else the
    walk's ``cum`` of the normalized network.

    S is made in blocks of rows, chosen from an upper bound on each row's
    entries (the postings of its values, at most n), and each block's
    off-diagonal destinations are written straight into the final arrays.
    Those are made at the bound's total and cut to the edge count at the
    end; pages past the last edge are never touched.  Each block's weights
    are made in the final weights array, or, without ``keep_weights``, in a
    block-sized scratch array.  Scratch weights are normalized, their
    running sums written into ``cum``, scanned for
    the faults the ``AssociativeNetwork`` constructor rejects and dropped;
    after the last block the first fault is raised with the constructor's
    message.
    """
    ids = repo.ids()
    n = len(ids)
    _, names, value_ptr, cols = numbered_values(list(repo), mu)
    counts = np.diff(value_ptr)
    sizes = counts.astype(np.float64)  # exact, as every count and sum below
    postings = np.bincount(cols, minlength=len(names))
    # a count is at most the smaller of a pair's value sets
    count_type = np.min_scalar_type(int(counts.max(initial=1)))
    incidence = scipy.sparse.csr_matrix(
        (np.ones(len(cols), dtype=count_type), cols.astype(np.int32), value_ptr),
        shape=(n, len(names)),
    )
    reach = np.diff(np.concatenate(([0], np.cumsum(postings[cols])))[value_ptr])
    reach = np.minimum(reach, n)  # row i's entries of S are at most reach[i]
    del postings, cols
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(int(reach.sum()), dtype=np.int32)
    column = np.empty(len(indices), dtype=np.float64)  # the weights, or cum
    faults: Dict[str, int] = {}
    for r0, r1 in _row_blocks(reach, _BLOCK_ENTRIES):
        # B·B[r0:r1]ᵀ is S's columns r0..r1, so, S being symmetric, its CSC
        # arrays are rows r0..r1 of S, each row's destinations ascending
        block = (incidence @ incidence[r0:r1].T).tocsc()
        src = np.repeat(np.arange(r0, r1, dtype=np.int32), np.diff(block.indptr))
        off_diagonal = block.indices != src
        degree = np.diff(block.indptr) - (counts[r0:r1] > 0)
        np.cumsum(degree, out=indptr[r0 + 1 : r1 + 1])
        indptr[r0 + 1 : r1 + 1] += indptr[r0]
        lo, hi = indptr[r0], indptr[r1]
        np.compress(off_diagonal, block.indices, out=indices[lo:hi])
        co = block.data[off_diagonal]
        del block, src, off_diagonal
        # co / (|values_i| + |values_j| - co), made in place in the weights
        w = column[lo:hi] if keep_weights else np.empty(hi - lo, dtype=np.float64)
        cum = None if keep_weights else column[lo:hi]
        np.take(sizes, indices[lo:hi], out=w)
        np.add(w, np.repeat(sizes[r0:r1], degree), out=w)
        np.subtract(w, co, out=w)
        np.divide(co, w, out=w)
        if normalized:
            _normalize_rows(ids, (indptr[r0 : r1 + 1] - lo).tolist(), w, w, cum, r0)
        if not keep_weights:
            _scan_edges(faults, indptr, indices, w, r0, r1)
        del w, cum  # scratch goes before the next block's; no view outlives the cut below
    indices.resize(indptr[-1], refcheck=False)
    column.resize(indptr[-1], refcheck=False)
    if not keep_weights:
        _check_csr(ids, indptr, indices, column.shape)
        _raise_fault(faults, ids, indptr, indices)
    return ids, indptr, indices, column


def build(repo: Repository, label: str, normalized: bool = True) -> AssociativeNetwork:
    """The network a relation label names, checked by ``relation_for`` and
    ``require_edges``, and normalized unless ``normalized`` is false: in the
    build for a co-occurrence network, which ``normalize`` then returns."""
    relation = relation_for(repo, label)
    if relation.kind == COOCCURRENCE:
        net = build_cooccurrence(repo, relation.mu, normalized=normalized)
    else:
        net = build_occurrence(repo, relation.mu)
    net = require_edges(net)
    return normalize(net) if normalized else net


class WalkTables(NamedTuple):
    """What a walk reads of a normalized network: its ids, ``indptr`` and
    ``indices``, and each row's running weight sums ``cum``, which the walk
    bisects to sample a destination.  These are the only holders of
    ``cum``."""

    ids: Tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    cum: np.ndarray


def _walk_tables(net: AssociativeNetwork) -> WalkTables:
    """Normalized ``net``'s walk tables: references to its ids and CSR
    structure, and ``cum`` summed from its weights."""
    cum = _row_cumsum(net.indptr, net.weights)
    cum.flags.writeable = False
    return WalkTables(net.ids, net.indptr, net.indices, cum)


def walk_tables(repo: Repository, label: str) -> WalkTables:
    """The walk's arrays of the normalized network for a relation label,
    checked as ``relation_for`` and ``require_edges`` check it.

    A co-occurrence network's weights are made one block of rows at a time
    and dropped once that block's ``cum`` is written and its edges checked,
    so no full-length weights array is ever made; the arrays and every
    error are those of the full build.  An occurrence network is made by
    ``build`` and then let go of its weights."""
    relation = relation_for(repo, label)
    if relation.kind == OCCURRENCE:
        return _walk_tables(build(repo, label))
    ids, indptr, indices, cum = _cooccurrence(repo, relation.mu, normalized=True, keep_weights=False)
    for column in (indptr, indices, cum):
        column.flags.writeable = False
    return WalkTables(tuple(ids), indptr, indices, cum)


def normalize(net: AssociativeNetwork) -> AssociativeNetwork:
    """Scale each node's outgoing weights into a probability distribution.

    Each row is divided by its total, summed in destination order.  Nodes
    without outgoing edges are unchanged.  A network that is already
    normalized is returned as it is.  A row total past the largest float is
    an error, as is a weight that the division takes to 0.

    One pass over the rows, ``_normalize_rows``, makes the weights, with
    one row-sized scratch array for the totals; ``build_cooccurrence``
    normalizes with the same rule while it builds.  The ids and CSR
    structure were checked when ``net`` was made, so only the new weights
    are checked.
    """
    if net.normalized:
        return net
    weights = np.empty_like(net.weights)
    _normalize_rows(net.ids, net.indptr.tolist(), net.weights, weights)
    if len(weights) and weights.min() == 0.0:  # an underflow: w / total is never negative
        k = int(np.argmin(weights))
        raise ValueError(f"non-positive weight on {_edge(net.ids, net.indptr, net.indices, k)}")
    weights.flags.writeable = False
    out = copy.copy(net)
    out.weights, out.normalized = weights, True
    return out


_BLOCK = 1 << 16  # edge lines per written block
_READ_CHARS = 1 << 18  # characters per read block
_SLOT_BITS = 16  # a _FieldTable has 2**16 slots
_SLOT_SHIFT = np.uint64(64 - _SLOT_BITS)  # a key's top bits pick its slot
_WORDS = 8  # a _FieldTable key's words: fields up to 64 bytes can hit, wider ones never do
_BYTE_MASKS = np.array([(1 << 8 * v) - 1 for v in range(9)], dtype=np.uint64)  # low v bytes
_WORD_MIX = np.array(  # odd multipliers, one per word
    [0x9E3779B97F4A7C15 * (2 * j + 1) % 2**64 for j in range(_WORDS)], dtype=np.uint64
)


def save_network(net: AssociativeNetwork, destination) -> None:
    """Write a network as a TSV edge list.

    Header: label, node count, edge count, normalized flag, dangling tally.
    Body: one line per isolated node (single field), then one line per edge
    ``src\\tdst\\tweight`` with the weight in C99 hex-float form so round
    trips are bit-exact.

    Edge lines are written in blocks, each gathered from per-node and
    per-weight text tokens with numpy object arrays and joined at once; a
    weight's hex text is formatted once per distinct value in its block.
    """
    touched = np.zeros(len(net.ids), dtype=bool)
    touched[np.diff(net.indptr) > 0] = True
    touched[net.indices] = True
    tokens = np.array([node + "\t" for node in net.ids], dtype=object)
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write(
            f"{net.relation.label}\t{len(net.ids)}\t{net.edge_count}\t"
            f"{int(net.normalized)}\t{net.dangling}\n"
        )
        for i in np.flatnonzero(~touched).tolist():
            fh.write(net.ids[i] + "\n")
        for lo in range(0, net.edge_count, _BLOCK):
            hi = min(lo + _BLOCK, net.edge_count)
            distinct, which = np.unique(net.weights[lo:hi], return_inverse=True)
            texts = np.array([w.hex() + "\n" for w in distinct.tolist()], dtype=object)
            lines = np.empty((hi - lo, 3), dtype=object)
            lines[:, 0] = tokens[np.searchsorted(net.indptr, np.arange(lo, hi), side="right") - 1]
            lines[:, 1] = tokens[net.indices[lo:hi]]
            lines[:, 2] = texts[which]
            fh.write("".join(lines.ravel().tolist()))


def _utf8(text: str, source, line_no: int) -> bytes:
    """Encode text read with ``errors="surrogateescape"``; a byte that was not
    valid UTF-8 in the file fails to encode and is reported at its line."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        line = line_no + text.count("\n", 0, exc.start)
        raise NetworkFormatError(f"{source}:{line}", "not valid UTF-8") from None


def _blocks(fh):
    """The rest of the file in blocks of whole lines, each ending in "\\n"."""
    carry = ""
    for chunk in iter(lambda: fh.read(_READ_CHARS), ""):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield carry + chunk[:cut]
            carry = chunk[cut:]
        else:
            carry += chunk
    if carry:
        yield carry + "\n"


def _fields(data: bytes, source, line_no: int):
    """The fields of a block of lines starting at file line ``line_no``,
    bounded and sorted by kind.

    One scan for tabs and newlines bounds every field, and a line's count
    of separators is its field count: three fields make an edge line
    ``src, dst, weight``, one non-empty field an isolated node line and one
    empty field a blank line.  Any other line, and an edge line with an
    empty source or destination, is rejected here, before any weight is
    read.

    Gives the start and width in bytes of the isolated nodes', then every
    source's, then every destination's field; those of every weight field;
    and the block's line count.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((raw == 9) | (raw == 10))
    last = np.flatnonzero(raw.take(ends) == 10)  # each line's last field
    counts = np.diff(last, prepend=-1)
    edge = counts == 3
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    widths = ends - starts
    single = last[~edge]
    weight = last[edge]
    bad = ~edge & (counts != 1)
    bad[edge] = (widths.take(weight - 2) == 0) | (widths.take(weight - 1) == 0)
    bad = np.flatnonzero(bad)
    if bad.size:
        k = int(bad[0])
        fault = "empty node id" if edge[k] else f"expected 1 or 3 fields, got {counts[k]}"
        raise NetworkFormatError(f"{source}:{line_no + k}", fault)
    node = np.concatenate((single[widths.take(single) > 0], weight - 2, weight - 1))
    node_fields = starts.take(node), widths.take(node)
    return node_fields, (starts.take(weight), widths.take(weight)), len(last)


def _words(aligned: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Each field's first _WORDS * 8 bytes as little-endian 64-bit words,
    zero past its width: row j holds every field's word j.  ``aligned`` is
    the block as 64-bit words, ending in _WORDS + 1 zero words.  A word at
    an unaligned offset is put together from the two aligned words it
    straddles, which numpy gathers several times faster than it gathers
    from a byte-strided view."""
    k = min(_WORDS, max(1, (int(widths.max(initial=0)) + 7) // 8))
    at = starts >> 3
    shift = ((starts & 7) << 3).astype(np.uint64)
    back = np.uint64(63) - shift  # after a 1-bit shift: 64 - shift, never a full 64
    words = np.empty((k, len(starts)), dtype=np.uint64)
    low = aligned.take(at)
    low >>= shift
    for j, word in enumerate(words):
        high = aligned.take(at + (j + 1))
        np.left_shift(high, 1, out=word)
        word <<= back
        word |= low
        word &= _BYTE_MASKS.take(np.clip(widths - 8 * j, 0, 8))
        high >>= shift
        low = high
    return words


class _FieldTable:
    """A direct-mapped cache from a field's text to its value, looked up a
    whole column of fields at a time without making a Python object per
    field.

    A field is keyed by its width and its first _WORDS words, read as
    little-endian 64-bit words, zero past the width (so "a" and "a\\x00"
    differ by width).  A multiply-xor hash of the key picks one of
    2**_SLOT_BITS slots, and each slot holds the full key of the last text
    stored there.  A field is a hit only when its width and every word equal
    its slot's, so a lookup is exact: texts that share a hash or a slot are
    never taken for one another.  Only fields of up to _WORDS words, whose
    key is their whole text, are stored, so a wider field never hits.

    Missed fields are grouped by slot, and one field of each group takes
    the slot: its text is decoded once, given its value by ``make`` and
    stored with its key.  The group's other fields are then checked word
    for word against that key; those that hold a different text (a
    collision within the block, or a field too wide to store) are decoded
    and given to ``make`` one by one.  A collision so costs time, never a
    wrong value.
    """

    def __init__(self, dtype, make):
        self.widths = np.full(1 << _SLOT_BITS, -1, dtype=np.int32)
        self.words = np.zeros((_WORDS, 1 << _SLOT_BITS), dtype=np.uint64)
        self.values = np.zeros(1 << _SLOT_BITS, dtype=dtype)
        self.owner = np.zeros(1 << _SLOT_BITS, dtype=np.int32)  # scratch for _store
        self.make = make

    @staticmethod
    def hash(widths: np.ndarray, words: np.ndarray) -> np.ndarray:
        """A multiply-xor hash of each key, whose top _SLOT_BITS bits pick
        its slot; a trailing zero word leaves it unchanged, so a text hashes
        alike in blocks of any word count."""
        key = widths.astype(np.uint64)
        for word, mix in zip(words, _WORD_MIX):
            key ^= word * mix
        key *= _WORD_MIX[0]
        return key

    def lookup(self, data: bytes, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """The value of each field ``data[start:start + width]``; ``data``
        ends in _WORDS + 1 zero words past its last field."""
        words = _words(np.frombuffer(data, dtype="<u8", count=len(data) // 8), starts, widths)
        slot = (self.hash(widths, words) >> _SLOT_SHIFT).astype(np.intp)
        out = self.values.take(slot)  # before _store can overwrite a hit's slot
        miss = np.flatnonzero(self._differs(slot, widths, words))
        if miss.size:
            starts, widths, words, slot = starts[miss], widths[miss], words[:, miss], slot[miss]
            self._store(data, starts, widths, words, slot)
            lost = self._differs(slot, widths, words)  # to another text of this block
            out[miss] = self.values.take(slot)
            if lost.any():
                out[miss[lost]] = self._make_each(data, starts[lost], widths[lost])
        return out

    def _differs(self, slot, widths, words) -> np.ndarray:
        """Whether each field's key differs from the one stored in its slot."""
        differs = self.widths.take(slot) != widths
        for stored, word in zip(self.words, words):
            differs |= stored.take(slot) != word
        return differs

    def _store(self, data, starts, widths, words, slot) -> None:
        """Store one of the given fields in each slot that they name, unless
        that field is too wide to be its own key."""
        fields = np.arange(len(slot), dtype=np.int32)
        self.owner[slot] = fields
        first = np.flatnonzero((self.owner.take(slot) == fields) & (widths <= 8 * _WORDS))
        slot = slot[first]
        self.values[slot] = self._make_each(data, starts[first], widths[first])
        self.widths[slot] = widths[first]
        self.words[:, slot] = 0
        self.words[: len(words), slot] = words[:, first]

    def _make_each(self, data, starts, widths) -> np.ndarray:
        """``make`` of each field's text, decoded one field at a time."""
        texts = [data[s : s + w].decode() for s, w in zip(starts.tolist(), widths.tolist())]
        return np.fromiter(map(self.make, texts), self.values.dtype, len(texts))


def _raise_bad_weight(block: str, source, line_no: int) -> None:
    """Raise NetworkFormatError at the first edge line of ``block`` whose
    weight text float.fromhex rejects."""
    for k, line in enumerate(block.split("\n")):
        fields = line.split("\t")
        if len(fields) == 3:
            try:
                float.fromhex(fields[2])
            except (ValueError, OverflowError) as exc:
                raise NetworkFormatError(
                    f"{source}:{line_no + k}", f"bad weight {fields[2]!r}"
                ) from exc


def _read_body(
    fh, source, capacity: int
) -> Tuple[Dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
    """Parse the body of a network file into node ids with provisional
    numbers (to be renumbered by sorted id), and each edge's source number,
    destination number and weight in three columns: int32, int32 and
    float64.

    The columns are allocated once, ``capacity`` edges long, and each block
    is parsed straight into them; they grow only when the body holds more
    edges than that, so a header that understates its count still reads to
    the end and is reported with the counts found.  The columns returned
    are views of the edges read.

    The text is read in blocks, each as numpy arrays of its UTF-8 bytes.
    _fields bounds and sorts every field of a block and rejects a bad line;
    the node ids are then looked up in one _FieldTable and the weight texts
    in another, so a repeated text costs no Python call.  A bad weight text
    is reported at the first line that holds one.
    """
    ids: Dict[str, int] = {}
    nodes = _FieldTable(np.int32, lambda node: ids.setdefault(node, len(ids)))
    texts = _FieldTable(np.float64, float.fromhex)
    columns = [np.empty(capacity, np.int32), np.empty(capacity, np.int32), np.empty(capacity)]
    edges = 0
    line_no = 2
    for block in _blocks(fh):
        data = _utf8(block, source, line_no)
        node_fields, weight_fields, n_lines = _fields(data, source, line_no)
        padded = data + bytes(8 * (_WORDS + 1))
        node = nodes.lookup(padded, *node_fields)  # numbers the isolated nodes too
        try:
            weight = texts.lookup(padded, *weight_fields)
        except (ValueError, OverflowError):  # float.fromhex raises both
            _raise_bad_weight(block, source, line_no)
            raise
        n = len(weight)
        if edges + n > len(columns[0]):  # the header understated its count (or a pipe's size)
            size = max(edges + n, 2 * len(columns[0]))
            columns = [np.concatenate((c[:edges], np.empty(size - edges, c.dtype))) for c in columns]
        endpoints = node[len(node) - 2 * n :]  # past the isolated nodes
        for column, part in zip(columns, (endpoints[:n], endpoints[n:], weight)):
            column[edges : edges + n] = part
        edges += n
        line_no += n_lines
    return (ids, *(column[:edges] for column in columns))


def _ascending(src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether the edges (src[k], dst[k]) strictly ascend, checked in blocks
    so that no full-length temporary is made."""
    for lo in range(0, len(src) - 1, _BLOCK_ENTRIES):
        hi = min(lo + _BLOCK_ENTRIES + 1, len(src))  # blocks overlap by one edge
        rise = np.diff(src[lo:hi])
        if (rise < 0).any() or ((rise == 0) & (np.diff(dst[lo:hi]) <= 0)).any():
            return False
    return True


def load_network(source) -> AssociativeNetwork:
    """Parse a network TSV written by ``save_network``.

    Edge lines may come in any order.  Bytes that are not UTF-8, a bad header
    (a normalized flag other than 0 or 1, a negative dangling count), bad
    lines, duplicate edges, self-loops, weights that are not finite and
    positive, counts that disagree with the header, and a normalized flag on
    rows that do not sum to 1 (within 1e-9) raise NetworkFormatError.

    The edges are parsed into columns sized once from the header's edge
    count, capped at the edge lines the file's size can hold, so a header
    that overstates its count allocates no more than that.  The ids are
    renumbered in place a block at a time, and the source column is freed
    once the row offsets are made from it: past the parsed columns, the
    load holds no more than the network it returns, plus block- or
    row-sized scratch (and, for a file out of order, its sort).
    """
    with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline()
        header_bytes = len(_utf8(header, source, 1))
        if not header.strip():
            raise NetworkFormatError(f"{source}:1", "missing header line")
        fields = header.rstrip("\n").split("\t")
        if len(fields) != 5:
            raise NetworkFormatError(f"{source}:1", f"bad header ({len(fields)} fields, expected 5)")
        label, node_count_s, edge_count_s, normalized_s, dangling_s = fields
        try:
            relation = parse_relation(label)
        except RelationError as exc:
            raise NetworkFormatError(f"{source}:1", str(exc)) from exc
        try:
            node_count = int(node_count_s)
            edge_count = int(edge_count_s)
            normalized = bool(int(normalized_s))
            dangling = int(dangling_s)
        except ValueError as exc:
            raise NetworkFormatError(f"{source}:1", f"bad header counts: {exc}") from exc
        if normalized_s not in ("0", "1"):
            raise NetworkFormatError(
                f"{source}:1", f"normalized flag must be 0 or 1, got {normalized_s!r}"
            )
        if dangling < 0:
            raise NetworkFormatError(f"{source}:1", f"negative dangling count {dangling}")
        # an edge line holds at least 6 bytes ("a\tb\t1\n"), the last one 5
        body_bytes = os.fstat(fh.fileno()).st_size - header_bytes
        capacity = max(0, min(edge_count, (body_bytes + 1) // 6))
        seen, src, dst, weights = _read_body(fh, source, capacity)
    if len(seen) != node_count or len(weights) != edge_count:
        raise NetworkFormatError(
            str(source),
            f"truncated or corrupt file: header says {node_count} nodes/"
            f"{edge_count} edges, found {len(seen)}/{len(weights)}",
        )
    ids = sorted(seen)
    rank = np.empty(len(ids), dtype=np.int32)
    rank[[seen[node] for node in ids]] = np.arange(len(ids), dtype=np.int32)
    del seen
    for lo in range(0, len(src), _BLOCK_ENTRIES):  # in place: rank[src] is a second column
        for column in (src, dst):
            block = column[lo : lo + _BLOCK_ENTRIES]
            block[:] = rank.take(block)
    if not _ascending(src, dst):  # save_network writes every file in order
        # stable sort by (src, dst)
        keys = src.astype(np.int64)
        keys *= len(ids)
        keys += dst
        order = np.argsort(keys, kind="stable")
        del keys
        src = src[order]  # one gather at a time, each freeing the array it replaces
        dst = dst[order]
        weights = weights[order]
    indptr = np.searchsorted(src, np.arange(len(ids) + 1, dtype=src.dtype))
    del src  # past the parsed columns, the load holds no more than it returns
    try:
        net = AssociativeNetwork(
            relation, ids, indptr, dst, weights, normalized=normalized, dangling=dangling
        )
    except ValueError as exc:
        raise NetworkFormatError(str(source), str(exc)) from exc
    if normalized:
        with np.errstate(over="ignore"):  # a total past the largest float is reported as inf
            for node, _, _, total in _row_totals(net.indptr.tolist(), net.weights):
                if abs(total - 1.0) > 1e-9:
                    raise NetworkFormatError(
                        str(source),
                        f"header says normalized, but the out-weights of {ids[node]!r} "
                        f"sum to {float(total)!r}",
                    )
    return net
