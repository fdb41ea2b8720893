"""Discrete particle spreading activation over an associative network.

Every node seeds one particle carrying a frozen copy of that node's full
metadata and an energy that starts at 1.0 and shrinks by a factor (1 - delta)
per traversed edge.  Each tick a particle moves to a neighbor sampled from
the node's normalized outgoing weights, decays, and deposits its payload
values (weighted by its current energy) at nodes whose own metadata for a
property is empty.  Particles that hit a dead end freeze and never act again.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from .netbuild import AssociativeNetwork
from .records import Repository, UnknownResourceError

ENERGY_FORMAT = "%.12g"  # store dump rendering; in-memory energies stay exact


class NotNormalizedError(ValueError):
    pass


class NoOutgoingEdgesError(ValueError):
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


@dataclass
class Particle:
    home: str
    current: str
    energy: float
    payload: Mapping[str, FrozenSet[str]]
    frozen: bool = False
    rng: random.Random = field(default=None, repr=False, compare=False)


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


def init_particles(net: AssociativeNetwork, repo: Repository, seed: int = 0) -> List[Particle]:
    """One particle per network node, at home with energy 1.0 and a private
    RNG substream derived from (seed, home id)."""
    if not net.normalized:
        raise NotNormalizedError("network must be normalized before propagation")
    particles = []
    for node in sorted(net.nodes):
        if node not in repo:
            raise UnknownResourceError(node)
        payload = dict(repo.record(node).properties)
        particles.append(
            Particle(
                home=node,
                current=node,
                energy=1.0,
                payload=payload,
                rng=random.Random(derive_seed(seed, node)),
            )
        )
    return particles


def choose_next(out_edges: Sequence[Tuple[str, float]], rng: random.Random) -> str:
    """Sample a destination from (dst, weight) pairs; weights must form a
    probability distribution.  Consumes exactly one draw from ``rng``."""
    if not out_edges:
        raise NoOutgoingEdgesError("no outgoing edges to sample from")
    u = rng.random()
    acc = 0.0
    for dst, w in out_edges:
        acc += w
        if u < acc:
            return dst
    return out_edges[-1][0]  # guard against float slack in the cumulative sum


def decay(energy: float, delta: float) -> float:
    return (1.0 - delta) * energy


def recommend_meta(
    node: str, particle: Particle, repo: Repository, store: RecommendationStore
) -> None:
    """Deposit the particle's payload at ``node`` for every property type the
    node itself lacks.  Never mutates the node's actual metadata."""
    for mu in sorted(particle.payload):
        values = particle.payload[mu]
        if not values:
            continue
        if repo.meta(node, mu):
            continue  # node is not metadata-poor at mu
        for x in sorted(values):
            store.add(node, mu, x, particle.energy)


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

    Per tick, each non-frozen particle moves (or freezes at a dead end),
    decays by (1 - delta), and recommends at its new node unless that node
    is its home.  Deterministic for a fixed (network, repository, config).
    """
    if not net.normalized:
        raise NotNormalizedError("network must be normalized before propagation")
    particles = init_particles(net, repo, cfg.seed)
    store = RecommendationStore()
    keep = 1.0 - cfg.delta
    # a move bisects the current node's row of the cumulative-weight column,
    # which picks exactly the destination choose_next's linear scan would,
    # from the same single draw; memoryviews hand bisect plain Python numbers
    ids, index = net.ids, net.index
    indptr, indices, cum = memoryview(net.indptr), memoryview(net.indices), memoryview(net.cum)
    active = particles
    t = 0
    while active and t < cfg.max_steps:
        if sum(p.energy for p in active) <= cfg.energy_floor:
            break
        t += 1
        still = []
        for p in active:  # sorted by home id: canonical accumulation order
            row = index[p.current]
            lo, hi = indptr[row], indptr[row + 1]
            if lo == hi:
                p.frozen = True
                continue
            idx = bisect.bisect_right(cum, p.rng.random(), lo, hi)
            p.current = ids[indices[min(idx, hi - 1)]]
            p.energy *= keep
            if p.current != p.home:
                recommend_meta(p.current, p, repo, store)
            still.append(p)
        active = still
    return PropagationResult(
        store=store,
        ticks=t,
        frozen=sum(1 for p in particles if p.frozen),
        residual_energy=sum(p.energy for p in active),
    )


def save_store(store: RecommendationStore, destination) -> None:
    """Dump as ``node\\tproperty\\tvalue\\tenergy`` lines, sorted."""
    with open(destination, "w", encoding="utf-8") as fh:
        for (node, mu), values in store.entries():
            for value in sorted(values):
                fh.write(f"{node}\t{mu}\t{value}\t{ENERGY_FORMAT % values[value]}\n")


def load_store(source) -> RecommendationStore:
    store = RecommendationStore()
    with open(source, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n")
            if not stripped:
                continue
            parts = stripped.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{source}:{line_no}: expected 4 fields, got {len(parts)}")
            node, mu, value, energy_s = parts
            store.add(node, mu, value, float(energy_s))
    return store
