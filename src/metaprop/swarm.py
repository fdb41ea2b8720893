"""Discrete particle spreading activation over an associative network.

``propagate`` is one tick loop.  Every node seeds one particle carrying its
home's non-empty metadata and energy 1.0.  Each tick every live particle
moves to a neighbor sampled from its node's normalized outgoing weights (one
draw from the home's own RNG substream), its energy is multiplied by
(1 - delta), and it deposits its payload values, weighted by that energy, at
the new node for each property the node holds no values of.  All live
particles share the energy (1 - delta)^t, so the loop keeps one scalar.
Particles that hit a dead end freeze and never act again.

A tick works on arrays of the live particles: their draws are taken in one
pass, one vectorized bisection over ``net.cum`` finds every move, and only
the particles that reach a node missing a property they carry deposit.
Every deposit in a tick carries the same energy, so the order of deposits
within a tick cannot change any sum; each (node, property) still receives
its values in ascending home order, as a per-particle loop would add them.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Mapping, Tuple

import numpy as np

from .netbuild import AssociativeNetwork
from .records import Repository, UnknownResourceError

ENERGY_FORMAT = "%.12g"  # store dump rendering; in-memory energies stay exact


class NotNormalizedError(ValueError):
    pass


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
        if self.energy_floor < 0.0:
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


def propagate(
    net: AssociativeNetwork, repo: Repository, cfg: PropagationConfig
) -> PropagationResult:
    """Run synchronous ticks until max_steps or the summed energy of
    non-frozen particles drops to the floor.

    Per tick, each non-frozen particle moves (or freezes at a dead end) and
    deposits at its new node unless that node is its home.  Deterministic
    for a fixed (network, repository, config).
    """
    if not net.normalized:
        raise NotNormalizedError("network must be normalized before propagation")
    ids = net.ids  # sorted, so particle (and node) i is the i-th id
    n = len(ids)
    columns: Dict[str, list] = {}  # property -> each node's sorted values, or None
    rngs = []  # each live particle's substream, aligned with live
    for i, node in enumerate(ids):
        if node not in repo:
            raise UnknownResourceError(node)
        for mu, values in repo.record(node).properties.items():
            if values:
                column = columns.get(mu)
                if column is None:
                    column = columns[mu] = [None] * n
                column[i] = sorted(values)
        rngs.append(random.Random(derive_seed(cfg.seed, node)))
    # (mu, holds-mu mask over nodes, values) in property order; a property
    # every node holds has no metadata-poor node to deposit at
    payload = []
    for mu in sorted(columns):
        held = np.fromiter((v is not None for v in columns[mu]), dtype=bool, count=n)
        if not held.all():
            payload.append((mu, held, columns[mu]))
    store = RecommendationStore()
    keep = 1.0 - cfg.delta
    indptr, indices, cum = net.indptr, net.indices, net.cum
    live = np.arange(n)  # homes of the non-frozen particles, ascending
    at = live  # each live particle's current node
    energy = 1.0
    t = 0
    while live.size and t < cfg.max_steps:
        # a sequential sum: energy * len(live) may round differently
        if sum([energy] * len(live)) <= cfg.energy_floor:
            break
        t += 1
        energy *= keep
        lo, hi = indptr[at], indptr[at + 1]
        moves = lo < hi
        if not moves.all():  # dead ends: those particles freeze, drawing nothing
            live, lo, hi = live[moves], lo[moves], hi[moves]
            rngs = list(compress(rngs, moves.tolist()))
        draws = np.fromiter(map(random.Random.random, rngs), dtype=np.float64, count=len(rngs))
        # bisect_right over each row of cum: the first edge whose cumulative
        # weight exceeds the draw
        last = hi - 1
        while (open_ := lo < hi).any():
            mid = (lo + hi) >> 1
            left = draws < cum.take(mid, mode="clip")
            hi = np.where(open_ & left, mid, hi)
            lo = np.where(open_ & ~left, mid + 1, lo)
        # min() keeps a draw above a row total that falls short of 1.0 on the row
        at = indices[np.minimum(lo, last)]
        # events in ascending home order per property (see the module
        # docstring); a particle back home never deposits, since its home
        # holds every property it carries
        for mu, held, values in payload:
            hit = np.flatnonzero(held[live] & ~held[at])
            for home, node in zip(live[hit].tolist(), at[hit].tolist()):
                node_id = ids[node]
                for x in values[home]:
                    store.add(node_id, mu, x, energy)
    return PropagationResult(
        store=store,
        ticks=t,
        frozen=n - len(live),
        residual_energy=sum([energy] * len(live)),
    )


def save_store(store: RecommendationStore, destination) -> None:
    """Dump as ``node\\tproperty\\tvalue\\tenergy`` lines, sorted."""
    with open(destination, "w", encoding="utf-8") as fh:
        for (node, mu), values in store.entries():
            for value in sorted(values):
                fh.write(f"{node}\t{mu}\t{value}\t{ENERGY_FORMAT % values[value]}\n")


def load_store(source) -> RecommendationStore:
    """Read a store dump; a duplicate (node, property, value) line or an
    energy that is not a finite number >= 0 raises ValueError at its line."""
    store = RecommendationStore()
    with open(source, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n")
            if not stripped:
                continue
            where = f"{source}:{line_no}"
            parts = stripped.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{where}: expected 4 fields, got {len(parts)}")
            node, mu, value, energy_s = parts
            try:
                energy = float(energy_s)
            except ValueError:
                energy = math.nan
            if not (math.isfinite(energy) and energy >= 0.0):
                raise ValueError(f"{where}: energy must be a finite number >= 0, got {energy_s!r}")
            if value in store.entry(node, mu):
                raise ValueError(f"{where}: duplicate value {value!r} for ({node!r}, {mu!r})")
            store.add(node, mu, value, energy)
    return store
