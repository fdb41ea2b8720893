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
from bisect import bisect_left
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
    # S is symmetric, so S's CSC arrays are its CSR arrays, and CSC
    # conversion leaves each row's indices sorted with no separate sort
    shared = (incidence @ incidence.T).tocsc().T
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
    network, or one with a row total past the largest float, is an error.
    """
    if net.normalized:
        raise AlreadyNormalizedError(f"network {net.relation.label!r} is already normalized")
    degree = np.diff(net.indptr)
    nonempty = degree > 0
    with np.errstate(over="ignore"):  # an overflowing row is reported below
        totals = _row_cumsum(net.indptr, net.weights)[net.indptr[1:][nonempty] - 1]
    overflow = np.flatnonzero(totals == np.inf)
    if overflow.size:
        node = net.ids[np.flatnonzero(nonempty)[overflow[0]]]
        raise ValueError(f"out-weights of {node!r} sum past the largest float")
    weights = net.weights / np.repeat(totals, degree[nonempty])
    return AssociativeNetwork(
        net.relation, net.ids, net.indptr, net.indices, weights,
        normalized=True, dangling=net.dangling,
    )


_BLOCK = 1 << 16  # edge lines per written block; also the parsed-weight cache's bound
_READ_CHARS = 1 << 18  # characters per read block
_EDGE_SEPARATORS = np.frombuffer(b"\t\t\n", dtype=np.uint8)
_SLOT_BITS = 16  # a _FieldTable has 2**16 slots
_SLOT_SHIFT = np.uint64(64 - _SLOT_BITS)  # a key's top bits pick its slot
_WORDS = 8  # the widest field a _FieldTable holds, in 64-bit words
_BYTE_MASKS = np.array([(1 << 8 * v) - 1 for v in range(9)], dtype=np.uint64)  # low v bytes
_WORD_MIX = np.array(  # odd multipliers, one per word
    [0x9E3779B97F4A7C15 * (2 * j + 1) % 2**64 for j in range(_WORDS)], dtype=np.uint64
)


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


def _line_fields(block: str, ids: _Memo, source, line_no: int):
    """Read a block line by line: isolated node lines are numbered into
    ``ids``, blank lines are skipped and edge lines are split into their
    fields, ``src, dst, weight`` per line; any other line is rejected.
    Also give the block's line count."""
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
    return fields, len(lines)


def _field_bounds(data: bytes):
    """The start and width in bytes of every field of a block of edge lines
    only, as two (lines, 3) arrays; None when the block must be read line by
    line.

    One scan for tabs and newlines bounds every field.  A block of edge
    lines only is recognised by its separators, which must run tab, tab,
    newline.  A block with a field wider than _WORDS words is read line by
    line too.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((raw == 9) | (raw == 10))
    if len(ends) % 3 or np.any(raw[ends].reshape(-1, 3) != _EDGE_SEPARATORS):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    widths = ends - starts
    if widths.max() > 8 * _WORDS:
        return None
    return starts.reshape(-1, 3), widths.reshape(-1, 3)


def _words(aligned: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Each field's bytes as little-endian 64-bit words, zero past its
    width: row j holds every field's word j.  ``aligned`` is the block as
    64-bit words, ending in _WORDS + 1 zero words.  A word at an unaligned
    offset is put together from the two aligned words it straddles, which
    numpy gathers several times faster than it gathers from a byte-strided
    view."""
    k = max(1, (int(widths.max()) + 7) // 8)
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

    A field of up to _WORDS words is keyed by its width and its bytes read
    as little-endian 64-bit words, zero past the width (so "a" and "a\\x00"
    differ by width).  A multiply-xor hash of the key picks one of
    2**_SLOT_BITS slots, and each slot holds the full key of the last text
    stored there.  A field is a hit only when its width and every word equal
    its slot's, so a lookup is exact: texts that share a hash or a slot are
    never taken for one another.

    Missed fields are grouped by slot, and one field of each group takes
    the slot: its text is decoded once, given its value by ``make`` and
    stored with its key.  The group's other fields are then checked word
    for word against that key; those that hold a different text (a
    collision within the block) are decoded and given to ``make`` one by
    one.  A collision so costs time, never a wrong value.
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
        """Store one of the given fields in each slot that they name."""
        fields = np.arange(len(slot), dtype=np.int32)
        self.owner[slot] = fields
        first = np.flatnonzero(self.owner.take(slot) == fields)
        slot = slot[first]
        self.values[slot] = self._make_each(data, starts[first], widths[first])
        self.widths[slot] = widths[first]
        self.words[:, slot] = 0
        self.words[: len(words), slot] = words[:, first]

    def _make_each(self, data, starts, widths) -> np.ndarray:
        """``make`` of each field's text, decoded one field at a time."""
        texts = [data[s : s + w].decode() for s, w in zip(starts.tolist(), widths.tolist())]
        return np.fromiter(map(self.make, texts), self.values.dtype, len(texts))


def _table_columns(data: bytes, starts, widths, nodes: _FieldTable, weights: _FieldTable):
    """A block of edge lines' source and destination numbers, looked up in
    ``nodes``, and weights, looked up in ``weights``."""
    padded = data + bytes(8 * (_WORDS + 1))
    # every source, then every destination
    node = nodes.lookup(padded, starts[:, :2].T.ravel(), widths[:, :2].T.ravel())
    weight = weights.lookup(padded, starts[:, 2], widths[:, 2])
    return node[: len(starts)], node[len(starts) :], weight


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


def _read_body(fh, source) -> Tuple[Dict[str, int], array, array, array]:
    """Parse the body of a network file into compact buffers: node ids with
    provisional numbers (to be renumbered by sorted id), and each edge's
    source number, destination number and weight in flat typed arrays.

    The text is read in blocks.  A block of edge lines only is read as
    numpy arrays of its UTF-8 bytes: its ids and weight texts are looked up
    in two _FieldTables, so a repeated text costs no Python call.  Any other
    block is read line by line, and its weight texts are parsed through a
    cache cleared when it passes _BLOCK entries.  A bad weight text is
    reported at the first line that holds one.
    """
    ids = _Memo(lambda node: len(ids))
    values = _Memo(float.fromhex)
    nodes = _FieldTable(np.int32, ids.__getitem__)
    texts = _FieldTable(np.float64, float.fromhex)
    srcs, dsts, weights = array("i"), array("i"), array("d")
    line_no = 2
    for block in _blocks(fh):
        data = _utf8(block, source, line_no)
        bounds = _field_bounds(data)
        if bounds is None:  # lines of other kinds are checked before any weight
            fields, n_lines = _line_fields(block, ids, source, line_no)
        try:
            if bounds is None:
                n = len(fields) // 3
                src = np.fromiter(map(ids.__getitem__, fields[0::3]), np.int32, n)
                dst = np.fromiter(map(ids.__getitem__, fields[1::3]), np.int32, n)
                if len(values) > _BLOCK:
                    values.clear()
                weight = np.fromiter(map(values.__getitem__, fields[2::3]), np.float64, n)
            else:
                src, dst, weight = _table_columns(data, *bounds, nodes, texts)
                n_lines = len(weight)
        except (ValueError, OverflowError):  # float.fromhex raises both
            _raise_bad_weight(block, source, line_no)
            raise
        srcs.frombytes(memoryview(src).cast("B"))
        dsts.frombytes(memoryview(dst).cast("B"))
        weights.frombytes(memoryview(weight).cast("B"))
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
