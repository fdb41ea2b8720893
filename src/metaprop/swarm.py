"""Discrete particle spreading activation over an associative network.

The walk is one tick loop, ``_walk``; ``propagate`` sets it up from a
repository, with one ``netbuild.numbered_values`` table per property, and
fills a store from its summed deposits.  Every node seeds one particle
carrying its home's non-empty metadata and energy 1.0.  Each tick every
live particle moves to a neighbor sampled from its node's normalized
outgoing weights (one draw from the home's own RNG substream), its energy is
multiplied by (1 - delta), and it deposits its payload values, weighted by
that energy, at the new node for each property the node holds no values of.
All live particles share the energy (1 - delta)^t, so the loop keeps one
scalar.  Particles that hit a dead end freeze and never act again.

Each particle's substream is MT19937 seeded by ``init_by_array`` over the
32-bit words of ``derive_seed(seed, home id)``, bit-identical to
``random.Random`` with that seed.  All particles' generators run at once, as
one (624, n) uint32 state read word by word as MT19937 reads it: each tick
regenerates the two words its draw takes, so a walk generates no draw past
its last tick.

A tick works on arrays of the live particles: their draws are one row
from the generator, one vectorized bisection over the ``netbuild.WalkTables``'
``cum``, the only holder of each row's running weight sums, finds every
move, and only the particles that reach a node missing a property they
carry deposit.  The loop itself takes, per property, the mask of the nodes
that receive it and derives the carriers: the holders that are not
receivers.  ``propagate`` passes the nodes that hold no value, and the
evaluation grid the nodes the property was removed from.
``propagate`` walks every particle.  The grid passes ``carriers_only``:
then only the particles that carry a property walk whenever the energy
floor cannot stop a walk that still has a live particle (see ``_walk``),
and the ticks, frozen count and residual energy, which the grid discards,
count only the walked particles.
Deposits are kept as (node, value) keys per tick and summed when the loop
ends with ``np.add.at`` in event order, so each sum is the same float that
adding the energies one by one gives, and each (node, property) entry
lists its values in name order, the order its store dump holds.  Every
other float sum here is left to right too, never built-in ``sum``, whose
rounding changed in Python 3.12.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Tuple

import numpy as np

from .netbuild import AssociativeNetwork, WalkTables, _walk_tables, normalize, numbered_values
from .records import Repository, _check_token, _dump_fields, _value_fault

ENERGY_FORMAT = "%.12g"  # store dump rendering; in-memory energies stay exact


def derive_seed(master: int, *parts: object) -> int:
    """Stable 64-bit sub-seed from a master seed and a label path."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(master).encode("utf-8"))
    for p in parts:
        h.update(b"\x1f")
        h.update(str(p).encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class PropagationConfig:
    delta: float = 0.15
    max_steps: int = 50
    energy_floor: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if not self.energy_floor >= 0.0:  # NaN too, which would switch the floor off
            raise ValueError(f"energy_floor must be >= 0, got {self.energy_floor}")


class RecommendationStore:
    """Accumulator mapping (node, property) to value -> summed energy."""

    def __init__(self):
        self._entries: Dict[Tuple[str, str], Dict[str, float]] = {}

    def add(self, node: str, mu: str, value: str, energy: float) -> None:
        entry = self._entries.setdefault((node, mu), {})
        entry[value] = entry.get(value, 0.0) + energy

    def entry(self, node: str, mu: str) -> Mapping[str, float]:
        return self._entries.get((node, mu), {})

    def entries(self):
        """((node, mu), {value: energy}) pairs in sorted key order."""
        for key in sorted(self._entries):
            yield key, self._entries[key]

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_values(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecommendationStore):
            return NotImplemented
        return self._entries == other._entries


@dataclass
class PropagationResult:
    store: RecommendationStore
    ticks: int
    frozen: int
    residual_energy: float

    def report(self) -> str:
        return (
            f"ticks={self.ticks} frozen={self.frozen} "
            f"residual_energy={ENERGY_FORMAT % self.residual_energy} "
            f"store_entries={len(self.store)} store_values={self.store.total_values}"
        )


# MT19937 as random.Random runs it, for many seeds at once: column j of a
# (624, n) uint32 state is the generator random.Random(seeds[j]) holds.
_N, _M = 624, 397
_UPPER, _LOWER, _MATRIX_A = 0x80000000, 0x7FFFFFFF, 0x9908B0DF


# init_by_array starts from init_genrand(19650218), the same for every key;
# numpy seeds its legacy generator from an int seed with init_genrand
_INIT_BY_ARRAY_START = np.random.RandomState(19650218).get_state()[1]


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """The (624, n) states random.Random(seed) holds after seeding, for each
    uint64 seed: ``init_by_array`` over the seed's 32-bit words, low word
    first, as a run of in-place row operations over all seeds at once."""
    seeds = seeds.astype(np.uint64)
    low = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    # step k adds key[j] + j with j = k mod the key's length; a seed below
    # 2**32, 0 included, is a one-word key, so it adds its low word every step
    added = (low, np.where(high != 0, high + np.uint32(1), low))
    mt = np.repeat(_INIT_BY_ARRAY_START[:, None], len(seeds), axis=1)
    mixed = np.empty(len(seeds), dtype=np.uint32)
    i = 1
    for k in range(2 * _N - 1):  # init_by_array's two loops, of 624 and 623 steps
        first = k < _N
        prev, row = mt[i - 1], mt[i]
        np.right_shift(prev, 30, out=mixed)
        np.bitwise_xor(mixed, prev, out=mixed)
        np.multiply(mixed, np.uint32(1664525 if first else 1566083941), out=mixed)
        np.bitwise_xor(row, mixed, out=row)
        if first:
            np.add(row, added[k & 1], out=row)
        else:
            np.subtract(row, np.uint32(i), out=row)
        i += 1
        if i == _N:
            mt[0] = mt[_N - 1]
            i = 1
    mt[0] = _UPPER
    return mt


def _draws(seeds: np.ndarray) -> Iterator[np.ndarray]:
    """random.Random(seed).random() for every seed, one float64 row per
    call and without end: row t holds each seed's t-th draw.

    A draw reads state words k and k + 1, and each is regenerated just
    before it is read.  When word w is regenerated, the words after it
    still hold the old generation and the words before it the new one:
    what a whole-state twist reads at w, so the words come out the same."""
    mt = _seed_states(seeds)
    while True:
        for k in range(0, _N, 2):
            for w in (k, k + 1):
                y = (mt[w] & _UPPER) | (mt[(w + 1) % _N] & _LOWER)
                mt[w] = mt[(w + _M) % _N] ^ (y >> 1) ^ ((y & 1) * _MATRIX_A)
            y = mt[k : k + 2] ^ (mt[k : k + 2] >> 11)
            y ^= (y << 7) & 0x9D2C5680
            y ^= (y << 15) & 0xEFC60000
            y ^= y >> 18
            # genrand_res53: a 27-bit and a 26-bit word make one 53-bit double
            yield ((y[0] >> 5) * 67108864.0 + (y[1] >> 6)) / 9007199254740992.0


def _sequential_sum(values) -> float:
    """0.0 plus each value in turn, left to right: the float a ``+=`` loop
    gives.  From Python 3.12 on, built-in ``sum`` rounds floats with
    compensated summation, so it can return another float for the same
    values; results bytes must not depend on the Python version."""
    # cumsum adds strictly in order, where np.sum adds pairwise
    partial = np.cumsum(np.asarray(values, dtype=np.float64))
    return 0.0 + float(partial[-1]) if partial.size else 0.0


def _node_seeds(ids, seed: int) -> np.ndarray:
    """``derive_seed(seed, node)`` for every node, as uint64s: the hash of
    the seed and separator is taken once and copied per node."""
    prefix = hashlib.blake2b(digest_size=8)
    prefix.update(str(seed).encode("utf-8") + b"\x1f")
    digests = []
    for node in ids:
        h = prefix.copy()
        h.update(node.encode("utf-8"))
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype=">u8")


def propagate(
    net: AssociativeNetwork, repo: Repository, cfg: PropagationConfig
) -> PropagationResult:
    """Run synchronous ticks until max_steps or the summed energy of
    non-frozen particles drops to the floor.

    A raw network is normalized first, and the walk reads its
    ``netbuild._walk_tables``.  Per tick, each non-frozen particle
    moves (or freezes at a dead end) and deposits at its new node unless
    that node is its home.  Deterministic for a fixed (network, repository,
    config).
    """
    walk = _walk_tables(normalize(net))
    ids = walk.ids  # sorted, so particle (and node) i is the i-th id
    records = [repo.record(node) for node in ids]
    holders = Counter(mu for rec in records for mu, values in rec.properties.items() if values)
    # a property every node holds has no metadata-poor node to deposit at
    tables = [(mu, numbered_values(records, mu)) for mu in sorted(holders) if holders[mu] < len(ids)]
    payload = [(~values.holds, values) for _, values in tables]
    deposits, ticks, frozen, residual = _walk(walk, cfg, payload)
    store = RecommendationStore()
    for (mu, values), totals in zip(tables, deposits):
        _fill_store(store, ids, mu, values.names, totals)
    return PropagationResult(store=store, ticks=ticks, frozen=frozen, residual_energy=residual)


def _floor_never_stops(cfg: PropagationConfig) -> bool:
    """Whether the energy floor can stop no walk that still has a live
    particle: the walk's own ``energy *= 1 - delta`` chain, run to the last
    tick's check, stays above the floor.  The chain never rises, and a left
    to right sum of k >= 1 copies of an energy is at least that energy, so
    the check's outcome then does not depend on how many particles live."""
    keep = 1.0 - cfg.delta
    energy = 1.0
    for _ in range(cfg.max_steps - 1):
        # at or below the floor the chain stays there; at a fixed point it
        # stays put, which keeps the loop short at any max_steps
        if energy <= cfg.energy_floor or energy * keep == energy:
            break
        energy *= keep
    return energy > cfg.energy_floor


def _walk(
    net: WalkTables,
    cfg: PropagationConfig,
    payload: list,
    carriers_only: bool = False,
):
    """The tick loop, over a normalized network's ``netbuild.WalkTables``
    with one particle per node, node i's seeded by
    ``derive_seed(cfg.seed, net.ids[i])``.  ``payload`` lists
    each carried property as (receiver mask, ``netbuild.NumberedValues``): a
    live particle whose home holds the property and is not a receiver carries
    it, and deposits its home's values at each receiver it reaches.

    With ``carriers_only``, and when ``_floor_never_stops(cfg)``, only the
    particles that carry some property walk.  Each particle draws from its
    own substream and moves alone, and the floor then never stops a walk
    with a live particle, so the deposits are those of the walk of every
    particle; the ticks, frozen particles and residual energy count only
    the walked particles.

    Returns each property's ``_deposit_totals``, keyed node * number of
    values + value number, then the ticks run, the frozen particles and the
    live particles' summed energy.
    """
    deposits = [[] for _ in payload]
    carriers = [values.holds & ~receiver for receiver, values in payload]
    keep = 1.0 - cfg.delta
    indptr, indices, cum = net.indptr, net.indices, net.cum
    # live: the homes of the non-frozen particles, ascending
    if carriers_only and _floor_never_stops(cfg):
        live = np.flatnonzero(np.any(carriers, axis=0))
    else:
        live = np.arange(len(net.ids))
    rows = _draws(_node_seeds([net.ids[i] for i in live.tolist()], cfg.seed))
    walkers = len(live)
    pos = np.arange(walkers)  # each live particle's column in a row of draws
    at = live  # each live particle's current node
    energy = 1.0
    t = 0
    while live.size and t < cfg.max_steps:
        # summed particle by particle: energy * len(live) may round differently
        if _sequential_sum(np.full(len(live), energy)) <= cfg.energy_floor:
            break
        row = next(rows)  # each particle's t-th draw
        t += 1
        energy *= keep
        lo, hi = indptr[at], indptr[at + 1]
        moves = lo < hi
        if not moves.all():  # dead ends: those particles freeze, drawing nothing
            live, pos, lo, hi = live[moves], pos[moves], lo[moves], hi[moves]
        draws = row[pos]
        # bisect_right over each row of cum: the first edge whose cumulative
        # weight exceeds the draw lies in [base, base + size]
        base, size = lo, hi - lo
        for _ in range(int(size.max(initial=1) - 1).bit_length()):
            half = size >> 1
            mid = base + half
            base = np.where(cum.take(mid) <= draws, mid, base)
            size -= half
        base += cum.take(base) <= draws
        # min() keeps a draw above a row total that falls short of 1.0 on the row
        at = indices[np.minimum(base, hi - 1)]
        # carriers are never receivers, so a particle back home never deposits
        for carrier, (receiver, values), ticks in zip(carriers, payload, deposits):
            hit = np.flatnonzero(carrier[live] & receiver[at])
            if hit.size:
                homes, value_ptr = live[hit], values.value_ptr
                start, counts = value_ptr[homes], value_ptr[homes + 1] - value_ptr[homes]
                # each hit's value numbers, in ascending home order
                offsets = np.arange(counts.sum()) + np.repeat(start - np.cumsum(counts) + counts, counts)
                # int64 before the product: n * len(names) can pass 2**31
                keys = np.repeat(at[hit].astype(np.int64) * len(values.names), counts)
                keys += values.value_ids[offsets]
                ticks.append((keys, energy))
    totals = [_deposit_totals(ticks) for ticks in deposits]
    return totals, t, walkers - len(live), _sequential_sum(np.full(len(live), energy))


def _deposit_totals(ticks) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct keys of one property's deposits, given per tick as
    (keys, energy), in ascending order, with each key's energies summed with
    ``np.add.at`` one by one in event order, the same float that
    ``entry[x] + e`` gives."""
    keys = np.concatenate([k for k, _ in ticks] or [np.empty(0, dtype=np.int64)])
    energies = np.repeat([e for _, e in ticks], [len(k) for k, _ in ticks])
    distinct, which = np.unique(keys, return_inverse=True)
    totals = np.zeros(len(distinct))
    np.add.at(totals, which, energies)
    return distinct, totals


def _fill_store(store: RecommendationStore, ids, mu: str, names, deposits) -> None:
    """Put one property's ``_deposit_totals``, keyed node * len(names) + value
    number, into ``store``.  The keys ascend by node, then by value number,
    which is name order, so each entry lists its values as its dump does."""
    keys, totals = deposits
    nodes, values = np.divmod(keys, len(names))
    starts = np.flatnonzero(np.diff(nodes, prepend=-1)).tolist()
    value_names = np.array(names, dtype=object)[values].tolist()
    totals = totals.tolist()
    for node, lo, hi in zip(nodes[starts].tolist(), starts, starts[1:] + [len(nodes)]):
        store._entries[(ids[node], mu)] = dict(zip(value_names[lo:hi], totals[lo:hi]))


def save_store(store: RecommendationStore, destination) -> None:
    """Dump as ``node\\tproperty\\tvalue\\tenergy`` lines, sorted."""
    with open(destination, "w", encoding="utf-8") as fh:
        for (node, mu), values in store.entries():
            for value in sorted(values):
                fh.write(f"{node}\t{mu}\t{value}\t{ENERGY_FORMAT % values[value]}\n")


def load_store(source) -> RecommendationStore:
    """Read a store dump; an energy that is not a finite number >= 0, a node
    or value that is not a valid record id or value, a property that is not
    a valid property type, or a duplicate (node, property, value) line
    raises ValueError at its line."""
    store = RecommendationStore()
    with open(source, "r", encoding="utf-8") as fh:
        for where, (node, mu, value, energy_s) in _dump_fields(fh, source, 1, 4):
            try:
                energy = float(energy_s)
            except ValueError:
                energy = math.nan
            if not (math.isfinite(energy) and energy >= 0.0):
                raise ValueError(f"{where}: energy must be a finite number >= 0, got {energy_s!r}")
            fault = _value_fault(node)
            if fault:
                raise ValueError(f"{where}: node {fault}")
            try:
                _check_token(mu, "property")
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            fault = _value_fault(value)
            if fault:
                raise ValueError(f"{where}: value {fault}")
            if value in store.entry(node, mu):
                raise ValueError(f"{where}: duplicate value {value!r} for ({node!r}, {mu!r})")
            store.add(node, mu, value, energy)
    return store
