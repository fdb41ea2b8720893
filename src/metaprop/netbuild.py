"""Occurrence and co-occurrence associative network construction.

A network is a directed, weighted, relation-labeled graph over resource ids.
Occurrence networks come from direct references (a resource listing another
resource's id, e.g. citations); co-occurrence networks connect resources that
share property values, weighted by overlap:

    w(i, j) = |shared| / (|values_i| + |values_j| - |shared|)

Outgoing weights can be normalized into per-node probability distributions
for the particle walk.

A network is held in compressed sparse row (CSR) form over the sorted node
ids: three numpy arrays give each row's start offset, the destination node
numbers and the weights.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np
import scipy.sparse

from .records import Repository

OCCURRENCE = "occurrence"
COOCCURRENCE = "cooccurrence"


class RelationError(ValueError):
    pass


class AlreadyNormalizedError(ValueError):
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
        return self.mu if self.kind == OCCURRENCE else "co" + self.mu


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


def _row_cumsum(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row's running weight sum, accumulated left to right as the
    scalar loop ``acc += w`` does (``np.cumsum`` is sequential; ``np.sum``
    is pairwise and may round differently)."""
    cum = np.empty_like(weights)
    bounds = indptr.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo < hi:
            np.cumsum(weights[lo:hi], out=cum[lo:hi])
    return cum


class AssociativeNetwork:
    """Directed weighted graph over resource ids, immutable once built.

    ``ids`` are the node ids in sorted order; node i's out-edges are
    ``indices[indptr[i]:indptr[i + 1]]`` (ascending node numbers, so in
    destination-id order) with ``weights`` at the same positions.  A
    normalized network also holds ``cum``, each row's running weight sum,
    which the walk bisects to sample a destination.
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
        self.index: Dict[str, int] = {node: i for i, node in enumerate(self.ids)}
        self.nodes = frozenset(self.ids)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.normalized = normalized
        self.dangling = dangling
        self._check()
        self.cum = _row_cumsum(self.indptr, self.weights) if normalized else None
        for column in (self.indptr, self.indices, self.weights, self.cum):
            if column is not None:
                column.flags.writeable = False

    def _check(self) -> None:
        ids, indptr, indices, weights = self.ids, self.indptr, self.indices, self.weights
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("node ids must be sorted and distinct")
        if (
            indptr.shape != (len(ids) + 1,)
            or indptr[0] != 0
            or indptr[-1] != len(indices)
            or weights.shape != indices.shape
            or np.any(np.diff(indptr) < 0)
        ):
            raise ValueError("malformed CSR arrays")
        if len(indices) and (indices.min() < 0 or indices.max() >= len(ids)):
            raise ValueError("edge target not in node set")
        src = self._sources()
        for bad, what in (
            (indices == src, "self-loop on"),
            (np.isnan(weights), "NaN weight on"),
            (~(weights > 0.0), "non-positive weight on"),
            (weights == np.inf, "infinite weight on"),
        ):
            hit = np.flatnonzero(bad)
            if hit.size:
                k = hit[0]
                raise ValueError(f"{what} ({ids[src[k]]!r}, {ids[indices[k]]!r})")
        step = np.diff(indices)
        same_row = src[1:] == src[:-1]
        hit = np.flatnonzero(same_row & (step <= 0))
        if hit.size:
            k = hit[0] + 1
            what = "duplicate edge" if step[k - 1] == 0 else "unsorted row at"
            raise ValueError(f"{what} ({ids[src[k]]!r}, {ids[indices[k]]!r})")

    def _sources(self) -> np.ndarray:
        """The source node number of every edge, aligned with ``indices``."""
        return np.repeat(np.arange(len(self.ids), dtype=np.int32), np.diff(self.indptr))

    def _row(self, node: str) -> Tuple[int, int]:
        i = self.index.get(node)
        if i is None:
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

    def weight(self, src: str, dst: str) -> Optional[float]:
        j = self.index.get(dst)
        if j is None:
            return None
        lo, hi = self._row(src)
        k = lo + int(np.searchsorted(self.indices[lo:hi], j))
        if k < hi and self.indices[k] == j:
            return float(self.weights[k])
        return None

    @property
    def edge_count(self) -> int:
        return len(self.indices)

    @property
    def pair_count(self) -> int:
        """Number of unordered node pairs joined by at least one edge."""
        # each upward edge (src < dst) is one pair, and its src*n+dst keys are
        # already sorted in CSR order; a downward edge adds a pair only when
        # its reverse is not an upward edge.  No full-length key array or
        # whole-array sort is made.
        src, dst, n = self._sources(), self.indices, len(self.ids)
        up = dst > src  # no self-loops, so the rest point down
        forward = src[up].astype(np.int64) * n + dst[up]
        down = ~up
        backward = dst[down].astype(np.int64) * n + src[down]
        backward.sort()
        if not forward.size:
            return int(backward.size)
        matched = forward.take(np.searchsorted(forward, backward), mode="clip") == backward
        return int(forward.size + backward.size - np.count_nonzero(matched))

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


def _indptr(src: np.ndarray, n: int) -> np.ndarray:
    """Row offsets for edges whose (sorted) source node numbers are ``src``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr


def build_occurrence(repo: Repository, mu: str) -> AssociativeNetwork:
    """Network of direct references: each listed target gets weight
    1/|values|, where the denominator counts ALL listed values (including
    self-references and ids missing from the repository).  Self-loops are
    dropped; references to unknown ids are dropped but tallied in
    ``dangling``.
    """
    ids = repo.ids()
    index = {rid: i for i, rid in enumerate(ids)}
    indptr = [0]
    indices = array("i")
    weights = array("d")
    dangling = 0
    for rec in repo:  # sorted by id, so rows come out in node order
        vals = rec.values(mu)
        if vals:
            w = 1.0 / len(vals)
            for target in sorted(vals):
                if target == rec.id:
                    continue
                j = index.get(target)
                if j is None:
                    dangling += 1
                else:
                    indices.append(j)
                    weights.append(w)
        indptr.append(len(indices))
    return AssociativeNetwork(
        Relation(OCCURRENCE, mu), ids, indptr, indices, weights, dangling=dangling
    )


def build_cooccurrence(
    repo: Repository, mu: str, max_postings: Optional[int] = None
) -> AssociativeNetwork:
    """Symmetric network of shared property values, as S = B·Bᵀ over the
    node x value incidence matrix B.

    Equivalent to the brute-force all-pairs definition: for every pair with a
    nonempty value intersection of size c, both directed edges get weight
    c / (|values_i| + |values_j| - c), from exact integer counts.
    ``max_postings`` optionally skips values held by more than that many
    resources (off by default; results are exact when off).
    """
    ids = repo.ids()
    n = len(ids)
    value_ids: Dict[str, int] = {}
    rows, cols = array("i"), array("i")
    for i, rec in enumerate(repo):
        for v in rec.values(mu):
            rows.append(i)
            cols.append(value_ids.setdefault(v, len(value_ids)))
    rows = np.frombuffer(rows, dtype=np.int32)
    cols = np.frombuffer(cols, dtype=np.int32)
    sizes = np.bincount(rows, minlength=n).astype(np.int64)
    if max_postings is not None:
        kept = np.bincount(cols)[cols] <= max_postings
        rows, cols = rows[kept], cols[kept]
    incidence = scipy.sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.int32), (rows, cols)), shape=(n, len(value_ids))
    )
    shared = incidence @ incidence.T
    shared.sort_indices()
    src = np.repeat(np.arange(n, dtype=np.int32), np.diff(shared.indptr))
    off_diagonal = shared.indices != src
    src = src[off_diagonal]
    dst = shared.indices[off_diagonal]
    co = shared.data[off_diagonal].astype(np.int64)
    weights = co / (sizes[src] + sizes[dst] - co)
    return AssociativeNetwork(Relation(COOCCURRENCE, mu), ids, _indptr(src, n), dst, weights)


def normalize(net: AssociativeNetwork) -> AssociativeNetwork:
    """Scale each node's outgoing weights into a probability distribution.

    Each row is divided by its total, summed in destination order.  Nodes
    without outgoing edges are unchanged.  Normalizing an already normalized
    network is an error.
    """
    if net.normalized:
        raise AlreadyNormalizedError(f"network {net.relation.label!r} is already normalized")
    degree = np.diff(net.indptr)
    nonempty = degree > 0
    totals = _row_cumsum(net.indptr, net.weights)[net.indptr[1:][nonempty] - 1]
    weights = net.weights / np.repeat(totals, degree[nonempty])
    return AssociativeNetwork(
        net.relation, net.ids, net.indptr, net.indices, weights,
        normalized=True, dangling=net.dangling,
    )


_BLOCK = 1 << 16  # edge lines per written block; also the parsed-weight cache's bound
_READ_CHARS = 1 << 18  # characters per read block
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b"\t\n")


class _Memo(dict):
    """A dict that fills in a missing key with ``make(key)``: a new key costs
    one Python call, a repeated one a C-level lookup."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


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


def _edge_fields(block: str, ids: _Memo, source, line_no: int):
    """Split a block into its edge lines' fields, ``src, dst, weight`` per
    line; also give the block-relative row of each edge line and the
    block's line count.

    A block of edge lines only is recognised by its separators, which must
    run tab, tab, newline; it is checked and split with C-level calls.  Any
    other block is read line by line: isolated node lines are numbered into
    ``ids``, blank lines are skipped and any other line is rejected.
    """
    seps = _utf8(block, source, line_no).translate(None, _NOT_SEPARATORS)
    if seps == b"\t\t\n" * (len(seps) // 3):
        fields = block.replace("\n", "\t").split("\t")
        fields.pop()  # the empty field after the last newline
        rows = range(len(fields) // 3)
        return fields, rows, len(rows)
    lines = block.split("\n")
    lines.pop()
    rows = []
    for k, line in enumerate(lines):
        n_tabs = line.count("\t")
        if n_tabs == 2:
            rows.append(k)
        elif n_tabs == 0:
            if line:
                ids[line]  # numbers an isolated node
        else:
            raise NetworkFormatError(
                f"{source}:{line_no + k}", f"expected 1 or 3 fields, got {n_tabs + 1}"
            )
    fields = "\t".join([lines[k] for k in rows]).split("\t") if rows else []
    return fields, rows, len(lines)


def _read_body(fh, source) -> Tuple[Dict[str, int], array, array, array]:
    """Parse the body of a network file into compact buffers: node ids with
    provisional numbers (to be renumbered by sorted id), and each edge's
    source number, destination number and weight in flat typed arrays.

    The text is read in blocks, and a block's edge lines are converted by
    C-level calls rather than a Python loop per line.  A repeated weight
    text is parsed once, from a cache cleared when it passes _BLOCK entries.
    """
    ids = _Memo(lambda node: len(ids))
    values = _Memo(float.fromhex)
    srcs, dsts, weights = array("i"), array("i"), array("d")
    line_no = 2
    for block in _blocks(fh):
        fields, rows, n_lines = _edge_fields(block, ids, source, line_no)
        n = len(rows)
        srcs.frombytes(np.fromiter(map(ids.__getitem__, fields[0::3]), np.int32, n).tobytes())
        dsts.frombytes(np.fromiter(map(ids.__getitem__, fields[1::3]), np.int32, n).tobytes())
        if len(values) > _BLOCK:
            values.clear()
        texts = fields[2::3]
        try:
            weights.frombytes(np.fromiter(map(values.__getitem__, texts), np.float64, n).tobytes())
        except (ValueError, OverflowError):  # float.fromhex raises both
            for k, text in zip(rows, texts):
                try:
                    float.fromhex(text)
                except (ValueError, OverflowError) as exc:
                    raise NetworkFormatError(f"{source}:{line_no + k}", f"bad weight {text!r}") from exc
            raise
        line_no += n_lines
    return ids, srcs, dsts, weights


def load_network(source) -> AssociativeNetwork:
    """Parse a network TSV written by ``save_network``.

    Edge lines may come in any order.  Bytes that are not UTF-8, a bad header
    (a normalized flag other than 0 or 1, a negative dangling count), bad
    lines, duplicate edges, self-loops, weights that are not finite and
    positive, counts that disagree with the header, and a normalized flag on
    rows that do not sum to 1 (within 1e-9) raise NetworkFormatError.
    """
    with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline()
        _utf8(header, source, 1)
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
        seen, srcs, dsts, weights = _read_body(fh, source)
    if len(seen) != node_count or len(weights) != edge_count:
        raise NetworkFormatError(
            str(source),
            f"truncated or corrupt file: header says {node_count} nodes/"
            f"{edge_count} edges, found {len(seen)}/{len(weights)}",
        )
    ids = sorted(seen)
    rank = np.empty(len(ids), dtype=np.int32)
    rank[[seen[node] for node in ids]] = np.arange(len(ids), dtype=np.int32)
    src = rank[np.frombuffer(srcs, dtype=np.int32)]
    dst = rank[np.frombuffer(dsts, dtype=np.int32)]
    del srcs, dsts  # the sort below is load's memory peak; keep only what it needs
    # stable sort by (src, dst); near-linear on a file already in that order
    keys = src.astype(np.int64)
    keys *= len(ids)
    keys += dst
    order = np.argsort(keys, kind="stable")
    del keys
    src, dst = src[order], dst[order]
    weights = np.frombuffer(weights)[order]
    try:
        net = AssociativeNetwork(
            relation, ids, _indptr(src, len(ids)), dst, weights,
            normalized=normalized, dangling=dangling,
        )
    except ValueError as exc:
        raise NetworkFormatError(str(source), str(exc)) from exc
    if normalized:
        rows = np.flatnonzero(np.diff(net.indptr) > 0)
        sums = net.cum[net.indptr[rows + 1] - 1]
        bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
        if bad.size:
            k = bad[0]
            raise NetworkFormatError(
                str(source),
                f"header says normalized, but the out-weights of {ids[rows[k]]!r} "
                f"sum to {float(sums[k])!r}",
            )
    return net
