import bisect
import math
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop import swarm
from metaprop.netbuild import (
    AssociativeNetwork,
    build_cooccurrence,
    build_occurrence,
    normalize,
    parse_relation,
)
from metaprop.records import Repository, ResourceRecord, UnknownResourceError, make_record
from metaprop.swarm import (
    NotNormalizedError,
    PropagationConfig,
    PropagationResult,
    RecommendationStore,
    _draws,
    _sequential_sum,
    derive_seed,
    load_store,
    propagate,
    save_store,
)


def added_in_turn(values):
    """0.0 plus each value in turn: the walk's energy sums, whatever the
    Python version (built-in ``sum`` compensates float rounding from 3.12)."""
    total = 0.0
    for x in values:
        total += x
    return total


def reference_propagate(net, repo, cfg):
    """The per-particle scalar loop that propagate's per-tick array step
    replaced; kept as the oracle for stores, ticks, frozen counts and
    residual energies."""
    if not net.normalized:
        raise NotNormalizedError("network must be normalized before propagation")
    ids = net.ids
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
    indptr, indices, cum = memoryview(net.indptr), memoryview(net.indices), memoryview(net.cum)
    at = list(range(len(ids)))
    live = list(range(len(ids)))
    energy = 1.0
    t = 0
    while live and t < cfg.max_steps:
        if added_in_turn([energy] * len(live)) <= cfg.energy_floor:
            break
        t += 1
        energy *= keep
        still = []
        for home in live:
            lo, hi = indptr[at[home]], indptr[at[home] + 1]
            if lo == hi:
                continue
            node = indices[min(bisect.bisect_right(cum, rngs[home].random(), lo, hi), hi - 1)]
            at[home] = node
            still.append(home)
            if node == home:
                continue
            for mu, values in payloads[home]:
                if mu not in held[node]:
                    for x in values:
                        store.add(ids[node], mu, x, energy)
        live = still
    return PropagationResult(
        store=store,
        ticks=t,
        frozen=len(ids) - len(live),
        residual_energy=added_in_turn([energy] * len(live)),
    )


def exact(result):
    """A walk's outcome with energies as hex (the residual as repr, which
    also tells an int from a float) and each entry's values in insertion
    order, so equal means bit for bit."""
    return (
        [(key, [(x, e.hex()) for x, e in values.items()]) for key, values in result.store.entries()],
        result.ticks,
        result.frozen,
        repr(result.residual_energy),
    )


def geometric(delta, t):
    """(1 - delta)^t by repeated multiplication, mirroring the per-tick update."""
    e = 1.0
    for _ in range(t):
        e *= 1.0 - delta
    return e


def walk(repo, **cfg):
    """Propagate over the repository's normalized ``cite`` occurrence network."""
    return propagate(normalize(build_occurrence(repo, "cite")), repo, PropagationConfig(**cfg))


@pytest.fixture
def cycle_repo():
    """A and B cite each other; only A carries a keyword, so only B can receive it."""
    return Repository(
        [make_record("A", {"cite": ["B"], "key": ["x"]}), make_record("B", {"cite": ["A"]})]
    )


class TestDecay:
    """Energies: every live particle carries (1 - delta)^t after t ticks."""

    def test_figure_values(self, cycle_repo):
        result = walk(cycle_repo, delta=0.15, max_steps=2, seed=0)
        assert result.store.entry("B", "key") == {"x": 0.85}  # A's particle is home at t=2
        assert result.residual_energy == 2 * geometric(0.15, 2)  # two particles at ~0.7225

    def test_zero_decay_identity(self, cycle_repo):
        # energy stays 1.0, so the floor never stops the walk
        result = walk(cycle_repo, delta=0.0, max_steps=5, seed=0)
        assert result.ticks == 5
        assert result.residual_energy == 2.0
        assert result.store.entry("B", "key") == {"x": 3.0}  # ticks 1, 3 and 5

    def test_full_decay(self, cycle_repo):
        # energy is 0 after the first tick, which ends the walk at the floor
        result = walk(cycle_repo, delta=1.0, seed=0)
        assert result.ticks == 1
        assert result.residual_energy == 0.0
        assert result.store.entry("B", "key") == {"x": 0.0}


class TestInitParticles:
    """Set-up: one particle per network node, each carrying its home's metadata."""

    def test_three_node_network(self, chain_repo):
        result = walk(chain_repo, max_steps=1, seed=4)
        assert result.ticks == 1
        assert result.frozen == 1  # C's particle, at a dead end
        assert result.residual_energy == 2 * 0.85

    def test_payload_is_full_metadata(self):
        repo = Repository([make_record("A", {"cite": ["B"], "key": ["x"]}), make_record("B", {})])
        result = walk(repo, max_steps=1, seed=0)
        assert result.store.entry("B", "key") == {"x": 0.85}
        assert result.store.entry("B", "cite") == {"B": 0.85}

    def test_empty_network(self):
        result = walk(Repository(), seed=0)
        assert result.ticks == 0
        assert result.frozen == 0
        assert len(result.store) == 0

    def test_node_missing_from_repository(self, chain_repo):
        net = normalize(build_occurrence(chain_repo, "cite"))
        with pytest.raises(UnknownResourceError) as excinfo:
            propagate(net, Repository([make_record("A", {})]), PropagationConfig())
        assert excinfo.value.resource_id == "B"  # the first missing id in sorted order


class TestChooseNext:
    """Moves: each move takes one draw from the home's own RNG substream."""

    def test_single_edge(self, cycle_repo):
        result = walk(cycle_repo, delta=0.15, max_steps=4, seed=0)
        assert result.frozen == 0
        assert result.store.entry("B", "key") == {"x": geometric(0.15, 1) + geometric(0.15, 3)}

    def test_empirical_frequencies(self):
        # 20,000 spokes, each with out-weights 0.25 to "a" and 0.75 to "b";
        # a spoke's particle deposits its own id at the node it reaches
        spokes = [f"s{i:05d}" for i in range(20_000)]
        n = len(spokes)
        net = AssociativeNetwork(
            parse_relation("cite"),
            ["a", "b"] + spokes,
            [0, 0] + [2 * i for i in range(n + 1)],
            [0, 1] * n,
            [0.25, 0.75] * n,
            normalized=True,
        )
        repo = Repository(
            [make_record("a", {}), make_record("b", {})]
            + [make_record(s, {"tag": [s]}) for s in spokes]
        )
        result = propagate(net, repo, PropagationConfig(max_steps=1, seed=123))
        to_a, to_b = len(result.store.entry("a", "tag")), len(result.store.entry("b", "tag"))
        assert to_a + to_b == n
        assert abs(to_a / n - 0.25) < 0.01

    def test_no_edges(self):
        repo = Repository([make_record(r, {"key": [r]}) for r in ("A", "B", "C")])
        result = walk(repo, seed=0)
        assert (result.ticks, result.frozen, len(result.store)) == (1, 3, 0)
        assert result.residual_energy == 0


class TestRecommendMeta:
    """Deposits: a payload property lands only where the node holds none of it."""

    def test_figure_sequence_reinforcement(self):
        # n1 -> n3 deposits at t=1, n2 -> m -> n3 deposits again at t=2
        repo = Repository(
            [
                make_record("m", {"cite": ["n3"]}),
                make_record("n1", {"cite": ["n3"], "key": ["swarm", "algorithms"]}),
                make_record("n2", {"cite": ["m"], "key": ["swarm"]}),
                make_record("n3", {}),
            ]
        )
        entry = walk(repo, delta=0.15, seed=0).store.entry("n3", "key")
        assert entry["swarm"] == 0.85 + 0.85 * 0.85  # ~1.573
        assert entry["algorithms"] == 0.85

    def test_metadata_poor_guard(self):
        repo = Repository(
            [make_record("n1", {"cite": ["n3"], "key": ["swarm"]}),
             make_record("n3", {"key": ["already"]})]
        )
        result = walk(repo, seed=0)
        assert result.store.entry("n3", "key") == {}
        assert result.store.entry("n3", "cite") == {"n3": 0.85}  # n3 holds no cite

    def test_empty_payload_property(self):
        repo = Repository(
            [ResourceRecord("A", {"cite": frozenset({"B"}), "key": frozenset()}),
             make_record("B", {})]
        )
        result = walk(repo, seed=0)
        assert result.store.entry("B", "key") == {}
        assert result.store.entry("B", "cite") == {"B": 0.85}

    def test_node_metadata_never_mutated(self, chain_repo):
        before = {rec.id: dict(rec.properties) for rec in chain_repo}
        result = walk(chain_repo, seed=0)
        assert result.store.entry("C", "key")
        assert {rec.id: dict(rec.properties) for rec in chain_repo} == before
        assert chain_repo.meta("C", "key") == frozenset()


class TestPropagate:
    def test_two_node_dead_end(self):
        repo = Repository([make_record("A", {"cite": ["B"], "key": ["x"]}), make_record("B", {})])
        net = normalize(build_occurrence(repo, "cite"))
        result = propagate(net, repo, PropagationConfig(delta=0.15, max_steps=10, seed=0))
        assert result.store.entry("B", "key") == {"x": 0.85}
        assert result.frozen == 2  # B's particle at t=1, A's at t=2

    def test_chain_closed_form(self, chain_repo):
        net = normalize(build_occurrence(chain_repo, "cite"))
        result = propagate(net, chain_repo, PropagationConfig(seed=9))
        assert result.store.entry("B", "key") == {"x": geometric(0.15, 1)}
        assert result.store.entry("C", "key") == {"x": geometric(0.15, 2)}

    def test_full_decay_zero_energies(self, chain_repo):
        net = normalize(build_occurrence(chain_repo, "cite"))
        for delta, energy in ((1.0, 0.0), (0.0, 1.0)):
            result = propagate(net, chain_repo, PropagationConfig(delta=delta, seed=0))
            assert len(result.store)
            for _, values in result.store.entries():
                assert all(e == energy for e in values.values())

    def test_deterministic_store(self):
        records = [
            make_record(f"r{i}", {"key": [f"k{i % 4}", "shared"], "jour": [f"j{i % 3}"]})
            for i in range(20)
        ]
        repo = Repository(records)
        net = normalize(build_cooccurrence(repo, "key"))
        cfg = PropagationConfig(seed=42)
        assert propagate(net, repo, cfg).store == propagate(net, repo, cfg).store

    def test_seed_changes_walks(self):
        records = [
            make_record(f"r{i}", {"key": ["shared"]} | ({"jour": [f"j{i}"]} if i % 2 else {}))
            for i in range(12)
        ]
        repo = Repository(records)
        net = normalize(build_cooccurrence(repo, "key"))
        a = propagate(net, repo, PropagationConfig(seed=1)).store
        b = propagate(net, repo, PropagationConfig(seed=2)).store
        assert a != b

    def test_home_node_exclusion(self):
        # complete symmetric 2-node graph: particles bounce back and forth and
        # keep passing their home; the home must never receive its own values
        repo = Repository(
            [make_record("a", {"key": ["shared"], "jour": ["ja"]}),
             make_record("b", {"key": ["shared"]})]
        )
        net = normalize(build_cooccurrence(repo, "key"))
        result = propagate(net, repo, PropagationConfig(seed=5, max_steps=20))
        assert "ja" not in result.store.entry("a", "jour")
        # b has no jour, so it accumulates a's journal over repeated visits
        assert result.store.entry("b", "jour")["ja"] > 0

    def test_metadata_poor_guard_holds_everywhere(self):
        repo = Repository(
            [make_record(f"r{i}", {"key": ["shared"], "jour": [f"j{i % 2}"]}) for i in range(10)]
        )
        net = normalize(build_cooccurrence(repo, "key"))
        result = propagate(net, repo, PropagationConfig(seed=3))
        for (node, mu), _ in result.store.entries():
            assert not repo.meta(node, mu)

    def test_termination_by_energy_floor(self, chain_repo):
        net = normalize(build_occurrence(chain_repo, "cite"))
        result = propagate(net, chain_repo, PropagationConfig(max_steps=1000, energy_floor=0.5, seed=0))
        assert result.ticks < 1000

    def test_unnormalized_rejected(self, chain_repo):
        with pytest.raises(NotNormalizedError):
            propagate(build_occurrence(chain_repo, "cite"), chain_repo, PropagationConfig())

    def test_total_store_energy_bound(self):
        repo = Repository(
            [make_record(f"r{i}", {"key": ["shared"], "jour": [f"j{i}"]}) for i in range(8)]
        )
        net = normalize(build_cooccurrence(repo, "key"))
        cfg = PropagationConfig(seed=17)
        result = propagate(net, repo, cfg)
        total = sum(e for _, vals in result.store.entries() for e in vals.values())
        # each particle deposits at most its per-tick energy, once per tick,
        # and it carries two payload values (one key + one jour)
        bound = 2 * sum(8 * geometric(cfg.delta, t) for t in range(1, result.ticks + 1))
        assert total <= bound + 1e-9


class TestStoreSerialization:
    def test_round_trip(self, tmp_path):
        store = RecommendationStore()
        store.add("C", "key", "x", 0.85 * 0.85)
        store.add("B", "key", "x", 0.85)
        path = tmp_path / "store.tsv"
        save_store(store, path)
        assert "C\tkey\tx\t0.7225" in path.read_text()
        loaded = load_store(path)
        assert loaded.entry("B", "key")["x"] == pytest.approx(0.85, abs=1e-12)

    def test_dump_deterministic(self, tmp_path, chain_repo):
        net = normalize(build_occurrence(chain_repo, "cite"))
        paths = []
        for name in ("a.tsv", "b.tsv"):
            result = propagate(net, chain_repo, PropagationConfig(seed=21))
            p = tmp_path / name
            save_store(result.store, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_duplicate_value_rejected(self, tmp_path):
        path = tmp_path / "store.tsv"
        path.write_text("A\tkey\tx\t0.5\nA\tkey\ty\t0.5\nA\tkey\tx\t0.5\n")
        with pytest.raises(ValueError, match=r"store\.tsv:3: duplicate value 'x'"):
            load_store(path)

    @pytest.mark.parametrize("energy", ["abc", "", "nan", "inf", "-inf", "-0.5"])
    def test_bad_energy_rejected(self, tmp_path, energy):
        path = tmp_path / "store.tsv"
        path.write_text(f"A\tkey\tx\t0.5\nB\tkey\tx\t{energy}\n")
        with pytest.raises(ValueError, match=r"store\.tsv:2: energy must be"):
            load_store(path)

    def test_zero_energy_accepted(self, tmp_path):
        path = tmp_path / "store.tsv"
        path.write_text("A\tkey\tx\t0\n")
        assert load_store(path).entry("A", "key") == {"x": 0.0}


class TestSequentialSum:
    def test_cancellation_is_not_compensated(self):
        # a += loop loses the 1.0 to rounding; compensated summation (built-in
        # sum from Python 3.12 on, math.fsum) keeps it
        assert _sequential_sum([1e16, 1.0, -1e16]) == 0.0
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0

    def test_empty_and_negative_zero(self):
        assert _sequential_sum([]).hex() == _sequential_sum([-0.0]).hex() == (0.0).hex()

    # bounded so that no partial sum overflows: numpy warns where += does not
    @given(st.lists(st.floats(-1e300, 1e300), max_size=300))
    def test_equals_a_loop(self, values):
        # numpy's pairwise np.sum differs from the loop on longer lists
        assert _sequential_sum(values).hex() == added_in_turn(values).hex()
        assert _sequential_sum(np.array(values)).hex() == added_in_turn(values).hex()


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


@st.composite
def walk_cases(draw):
    """A random normalized network with dead ends and isolated nodes, over
    records holding some, none or empty sets of three properties."""
    rnd = random.Random(draw(st.integers(0, 2**32)))  # shapes the network and records
    n = draw(st.integers(0, 60))
    ids = [f"n{i:02d}" for i in range(n)]
    indptr, indices, weights = [0], [], []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        targets = sorted(rnd.sample(others, min(len(others), rnd.choice([0, 0, 1, 2, 3, 5]))))
        indices += targets
        weights += [rnd.uniform(1e-3, 10.0) for _ in targets]
        indptr.append(len(indices))
    net = normalize(AssociativeNetwork(parse_relation("cite"), ids, indptr, indices, weights))
    records = []
    for node in ids:
        props = {}
        for mu in ("auth", "jour", "key"):
            if rnd.random() < 0.6:  # else the record lacks mu; an empty set also holds none
                props[mu] = frozenset(rnd.sample("uvwx", rnd.randint(0, 3)))
        records.append(ResourceRecord(node, props))
    cfg = PropagationConfig(
        delta=draw(st.sampled_from([0.0, 0.15, 1.0])),
        max_steps=draw(st.integers(1, 40)),
        energy_floor=draw(st.sampled_from([0.0, 1e-4, 50.0])),
        seed=draw(st.integers(0, 2**32)),
    )
    return net, Repository(records), cfg


def three_out_network(seed):
    """A normalized 30-node network in which every node cites three others
    (so no particle ever freezes), two thirds of whose records hold a key."""
    rnd = random.Random(seed)
    ids = [f"n{i:02d}" for i in range(30)]
    indptr, indices, weights = [0], [], []
    for i in range(len(ids)):
        targets = sorted(rnd.sample([j for j in range(len(ids)) if j != i], 3))
        indices += targets
        weights += [rnd.uniform(0.1, 1.0) for _ in targets]
        indptr.append(len(indices))
    net = normalize(AssociativeNetwork(parse_relation("cite"), ids, indptr, indices, weights))
    repo = Repository(
        [make_record(node, {"key": [f"k{i % 4}"]} if i % 3 else {}) for i, node in enumerate(ids)]
    )
    return net, repo


class TestMatchesReference:
    """propagate's per-tick array step against the per-particle scalar loop."""

    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    def test_random_networks(self, case):
        net, repo, cfg = case
        assert exact(propagate(net, repo, cfg)) == exact(reference_propagate(net, repo, cfg))

    def test_rows_summing_to_half(self):
        # each spoke's two out-weights sum to 0.5, so a draw in [0.5, 1) runs
        # past the row and min(k, hi - 1) sends it to the row's last edge, "b"
        spokes = [f"s{i:04d}" for i in range(2_000)]
        n = len(spokes)
        net = AssociativeNetwork(
            parse_relation("cite"),
            ["a", "b"] + spokes,
            [0, 0] + [2 * i for i in range(n + 1)],
            [0, 1] * n,
            [0.25, 0.25] * n,
            normalized=True,
        )
        repo = Repository(
            [make_record("a", {}), make_record("b", {})]
            + [make_record(s, {"tag": [s]}) for s in spokes]
        )
        cfg = PropagationConfig(max_steps=3, seed=8)
        result = propagate(net, repo, cfg)
        assert exact(result) == exact(reference_propagate(net, repo, cfg))
        assert result.frozen == n + 2  # everyone is at a dead end from tick 2
        assert abs(len(result.store.entry("b", "tag")) / n - 0.75) < 0.03

    @pytest.mark.parametrize("seed,steps", [(0, 313), (1, 640), (2, 950)])
    def test_walks_past_a_state_generation(self, seed, steps):
        # no dead ends, no decay and no floor: every particle draws once per
        # tick, so each substream reads past its first 624 state words (312
        # draws) into words regenerated from the new generation
        net, repo = three_out_network(seed)
        cfg = PropagationConfig(delta=0.0, max_steps=steps, energy_floor=0.0, seed=seed)
        result = propagate(net, repo, cfg)
        assert (result.ticks, result.frozen) == (steps, 0)
        assert exact(result) == exact(reference_propagate(net, repo, cfg))

    def test_floor_ends_a_long_walk_early(self, monkeypatch):
        # 30 particles at 0.85^t fall to the 1e-4 floor long before tick
        # 1000; the walk takes one row of draws per tick it runs, no more
        net, repo = three_out_network(3)
        taken = []

        def counted(seeds):
            for row in _draws(seeds):
                taken.append(row)
                yield row

        monkeypatch.setattr(swarm, "_draws", counted)
        cfg = PropagationConfig(max_steps=1000, seed=3)
        result = propagate(net, repo, cfg)
        assert (result.ticks, result.frozen) == (78, 0)
        assert len(taken) == result.ticks
        assert exact(result) == exact(reference_propagate(net, repo, cfg))

    @pytest.mark.parametrize("n", [0, 3])
    def test_no_edges(self, n):
        ids = [f"n{i}" for i in range(n)]
        net = AssociativeNetwork(parse_relation("cite"), ids, [0] * (n + 1), [], [], normalized=True)
        repo = Repository([make_record(node, {"key": [node]}) for node in ids])
        cfg = PropagationConfig(seed=1)
        assert exact(propagate(net, repo, cfg)) == exact(reference_propagate(net, repo, cfg))


# seeds that derive_seed can return: 64-bit ones, one-word keys below 2**32
# (0 included) and the edges where the key length changes
SEEDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]),
)


def reference_draws(seeds, count):
    """Each seed's first ``count`` random.Random(seed).random() draws, one
    column per seed."""
    columns = []
    for seed in seeds:
        rnd = random.Random(seed)
        columns.append([rnd.random() for _ in range(count)])
    return np.array(columns).T


def batched_draws(seeds, count):
    return np.array(list(islice(_draws(np.array(seeds, dtype=np.uint64)), count)))


class TestBatchedGenerator:
    """The walk's batched MT19937 against random.Random, draw for draw."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(SEEDS, min_size=1, max_size=6), st.integers(1, 1400))
    def test_matches_random(self, seeds, count):
        assert batched_draws(seeds, count).tolist() == reference_draws(seeds, count).tolist()

    def test_five_generations_with_mixed_key_lengths(self):
        # 1,250 draws read 2,500 state words: four whole generations of 624
        # and the start of a fifth; one- and two-word keys share a batch
        seeds = [0, 7, 2**32 - 1, 2**32, 2**64 - 1] + [derive_seed(3, f"n{i}") for i in range(5)]
        assert batched_draws(seeds, 1250).tolist() == reference_draws(seeds, 1250).tolist()

