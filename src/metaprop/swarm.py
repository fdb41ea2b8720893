"""Discrete particle spreading activation over an associative network.

``propagate`` is one loop.  Every node seeds one particle carrying its
home's non-empty metadata and energy 1.0.  Each tick every live particle
moves to a neighbor sampled from its node's normalized outgoing weights (one
draw from the home's own RNG substream), its energy is multiplied by
(1 - delta), and it deposits its payload values, weighted by that energy, at
the new node for each property the node holds no values of.  All live
particles share the energy (1 - delta)^t, so the loop keeps one scalar.
Particles that hit a dead end freeze and never act again.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

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

    Per tick, each non-frozen particle, in home-id order, moves (or freezes
    at a dead end) and deposits at its new node unless that node is its
    home.  Deterministic for a fixed (network, repository, config).
    """
    if not net.normalized:
        raise NotNormalizedError("network must be normalized before propagation")
    ids = net.ids  # sorted, so particle (and node) i is the i-th id
    payloads, held, rngs = [], [], []
    for node in ids:
        if node not in repo:
            raise UnknownResourceError(node)
        props = repo.record(node).properties
        payloads.append([(mu, sorted(props[mu])) for mu in sorted(props) if props[mu]])
        held.append({mu for mu, values in props.items() if values})
        rngs.append(random.Random(derive_seed(cfg.seed, node)))
    store = RecommendationStore()
    keep = 1.0 - cfg.delta
    # memoryviews hand bisect plain Python numbers
    indptr, indices, cum = memoryview(net.indptr), memoryview(net.indices), memoryview(net.cum)
    at = list(range(len(ids)))  # each particle's current node, by home
    live = list(range(len(ids)))  # homes of the non-frozen particles, ascending
    energy = 1.0
    t = 0
    while live and t < cfg.max_steps:
        # a sequential sum: energy * len(live) may round differently
        if sum([energy] * len(live)) <= cfg.energy_floor:
            break
        t += 1
        energy *= keep
        still = []
        for home in live:
            lo, hi = indptr[at[home]], indptr[at[home] + 1]
            if lo == hi:
                continue  # dead end: the particle freezes
            # the first edge whose cumulative weight exceeds the draw; min()
            # keeps a draw above a row total that falls short of 1.0 on the row
            node = indices[min(bisect.bisect_right(cum, rngs[home].random(), lo, hi), hi - 1)]
            at[home] = node
            still.append(home)
            if node == home:
                continue
            for mu, values in payloads[home]:
                if mu not in held[node]:  # the node is metadata-poor at mu
                    for x in values:
                        store.add(ids[node], mu, x, energy)
        live = still
    return PropagationResult(
        store=store,
        ticks=t,
        frozen=len(ids) - len(live),
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
