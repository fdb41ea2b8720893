import bisect
import math
import random
import re
from itertools import islice
from statistics import NormalDist

import numpy as np
import pytest
from corpora import random_repository
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop import swarm
from metaprop.netbuild import (
    COOCCURRENCE,
    AssociativeNetwork,
    build_cooccurrence,
    build_occurrence,
    normalize,
    numbered_values,
    parse_relation,
)
from metaprop.records import Repository, ResourceRecord, UnknownResourceError, make_record
from metaprop.swarm import (
    PropagationConfig,
    PropagationResult,
    RecommendationStore,
    _draws,
    _floor_never_stops,
    _sequential_sum,
    _walk,
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
    net = normalize(net)
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
    also tells an int from a float) and each entry's values sorted, since the
    reference lists them in first-deposit order and a store in name order,
    so equal means bit for bit."""
    return (
        [
            (key, [(x, e.hex()) for x, e in sorted(values.items())])
            for key, values in result.store.entries()
        ],
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

    def test_deposit_keys_past_int32(self):
        # nodes * values passes 2**31 here; keys made in int32 wrapped, and
        # the last nodes' deposits were lost
        n = 70_000
        ids = [f"n{i:05d}" for i in range(n)]
        records = [ResourceRecord(rid, {"v": frozenset({f"x{i}"})} if i % 2 == 0 else {})
                   for i, rid in enumerate(ids)]
        chain = AssociativeNetwork(
            parse_relation("cite"), ids, list(range(n)) + [n - 1], range(1, n), [1.0] * (n - 1)
        )
        store = propagate(normalize(chain), Repository(records), PropagationConfig(max_steps=1)).store
        assert len(store) == n // 2
        assert all(store.entry(ids[i], "v") == {f"x{i - 1}": 0.85} for i in range(1, n, 2))

    def test_termination_by_energy_floor(self, chain_repo):
        net = normalize(build_occurrence(chain_repo, "cite"))
        result = propagate(net, chain_repo, PropagationConfig(max_steps=1000, energy_floor=0.5, seed=0))
        assert result.ticks < 1000

    def test_raw_network_walks_as_its_normalized_form(self, chain_repo):
        # a raw network used to be rejected
        raw = build_occurrence(chain_repo, "cite")
        cfg = PropagationConfig(seed=3)
        assert exact(propagate(raw, chain_repo, cfg)) == exact(propagate(normalize(raw), chain_repo, cfg))

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

    @pytest.mark.parametrize("line, count", [("B\tkey\t0.5", 3), ("B\tkey\tx\t0.5\t1", 5)])
    def test_wrong_field_count_rejected(self, tmp_path, line, count):
        path = tmp_path / "store.tsv"
        path.write_text(f"A\tkey\tx\t0.5\n{line}\n")
        with pytest.raises(ValueError, match=rf"store\.tsv:2: expected 4 fields, got {count}$"):
            load_store(path)

    def test_walk_store_iterates_as_its_dump(self, tmp_path):
        # several values per entry, deposited in no particular name order
        repo = random_repository(60, vocab_size=8, max_values=4, seed=3)
        net = normalize(build_cooccurrence(repo, "key"))
        store = propagate(net, repo, PropagationConfig(seed=8)).store
        path = tmp_path / "store.tsv"
        save_store(store, path)
        listed = [(key, list(values)) for key, values in store.entries()]
        assert listed == [(key, list(values)) for key, values in load_store(path).entries()]
        assert max(len(values) for _, values in listed) > 1

    def test_empty_node_rejected(self, tmp_path):
        path = tmp_path / "store.tsv"
        path.write_text("A\tkey\tx\t0.5\n\tkey\tx\t0.5\n")
        with pytest.raises(ValueError, match=r"store\.tsv:2: node must be a non-empty string, got ''"):
            load_store(path)

    @pytest.mark.parametrize(
        "mu, fault",
        [("", "must be a non-empty string, got ''"), ("k y", "must not contain whitespace: 'k y'")],
    )
    def test_bad_property_rejected(self, tmp_path, mu, fault):
        path = tmp_path / "store.tsv"
        path.write_text(f"A\tkey\tx\t0.5\na b\t{mu}\tv\t1\n")
        with pytest.raises(ValueError, match=rf"store\.tsv:2: property {re.escape(fault)}"):
            load_store(path)

    def test_empty_value_rejected(self, tmp_path):
        path = tmp_path / "store.tsv"
        path.write_text("A\tkey\tx\t0.5\nA\tkey\t\t0.25\n")
        with pytest.raises(ValueError, match=r"store\.tsv:2: value must be a non-empty string"):
            load_store(path)

    def test_spaces_in_node_and_value_accepted(self, tmp_path):
        # record ids and values may hold spaces; property types may not
        path = tmp_path / "store.tsv"
        path.write_text("a b\tkey\tv w\t1\n")
        assert load_store(path).entry("a b", "key") == {"v w": 1.0}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "store.tsv"
        path.write_text("\nA\tkey\tx\t0.5\n\nA\tkey\ty\t0.25\n\n")
        assert load_store(path).entry("A", "key") == {"x": 0.5, "y": 0.25}

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


@st.composite
def carrier_cases(draw):
    """A network (an occurrence one over citations, with dead ends, one over
    keywords, whose targets are no ids and so all dead ends, or a
    co-occurrence one), a payload of one or two properties with random
    receivers, and a config that passes or fails the floor guard."""
    label = draw(st.sampled_from(["cite", "key", "cokey", "coauth", "cojour"]))
    repo = random_repository(
        n_records=draw(st.integers(0, 40)),
        property_types=("key", "auth", "jour"),
        vocab_size=draw(st.sampled_from([5, 10, 30])),
        cite_rate=0.08,
        seed=draw(st.integers(0, 2**16)),
    )
    relation = parse_relation(label)
    build = build_cooccurrence if relation.kind == COOCCURRENCE else build_occurrence
    net = normalize(build(repo, relation.mu))
    records = list(repo)
    rnd = random.Random(draw(st.integers(0, 2**32)))  # picks the receivers
    payload = []
    properties = st.lists(st.sampled_from(["key", "auth", "jour", "none"]), min_size=1, max_size=2)
    for mu in draw(properties):
        values = numbered_values(records, mu)
        share = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))  # 1.0: no carriers
        payload.append((np.array([rnd.random() < share for _ in records], dtype=bool), values))
    delta = draw(st.sampled_from([0.0, 0.15, 0.5, 0.9, 0.999, 1.0]) | st.floats(0.0, 1.0))
    max_steps = draw(st.integers(1, 60))
    floor = draw(
        st.sampled_from([0.0, 1e-4, 0.5, 1.0, 50.0, geometric(delta, max_steps - 1)])
        | st.floats(0.0, 50.0)
    )
    seed = draw(st.integers(0, 2**64 - 1))
    cfg = PropagationConfig(delta=delta, max_steps=max_steps, energy_floor=floor, seed=seed)
    return net, cfg, payload


def walk_bytes(net, cfg, payload, carriers_only):
    """Each property's deposit keys and totals as (dtype, shape, bytes), so
    equal means equal in value and dtype, bit for bit."""
    totals, _, _, _ = _walk(net, cfg, payload, carriers_only=carriers_only)
    return [[(a.dtype, a.shape, a.tobytes()) for a in arrays] for arrays in totals]


class TestCarriersOnly:
    """The walk of the carrying particles alone against the walk of all."""

    @settings(max_examples=300, deadline=None)
    @given(carrier_cases())
    def test_deposits_equal_the_full_walk(self, case):
        net, cfg, payload = case
        assert walk_bytes(net, cfg, payload, True) == walk_bytes(net, cfg, payload, False)

    @pytest.mark.parametrize(
        "cfg,passes",
        [
            (PropagationConfig(), True),  # 0.85^49 ~ 3.5e-4 > 1e-4
            (PropagationConfig(max_steps=30), True),
            (PropagationConfig(max_steps=1, energy_floor=0.5), True),
            (PropagationConfig(max_steps=1, energy_floor=1.0), False),
            (PropagationConfig(max_steps=1, energy_floor=50.0), False),
            (PropagationConfig(energy_floor=0.5), False),
            (PropagationConfig(delta=0.999), False),
            (PropagationConfig(delta=1.0, max_steps=2, energy_floor=0.0), False),
            (PropagationConfig(delta=0.0, energy_floor=0.999), True),
            # the floor at the last checked energy itself: the check stops there
            (PropagationConfig(energy_floor=geometric(0.15, 49)), False),
            (PropagationConfig(energy_floor=math.nextafter(geometric(0.15, 49), 0.0)), True),
            # the chain is under the floor long before the last tick
            (PropagationConfig(max_steps=10**9), False),
            # the chain reaches a fixed point: 1.0, or the smallest subnormal
            (PropagationConfig(delta=0.0, max_steps=10**9, energy_floor=0.5), True),
            (PropagationConfig(max_steps=10**9, energy_floor=0.0), True),
        ],
    )
    def test_floor_guard(self, cfg, passes):
        assert _floor_never_stops(cfg) is passes

    def test_floor_at_the_last_checked_energy(self):
        # A -> B -> C -> A, and only A holds a key: its particle deposits at
        # B on tick 1 and at C on tick 2.  The floor equals the energy read
        # before tick 2, which stops a walk of A's particle alone there, but
        # not the walk of all three, whose summed energy is above it
        repo = Repository(
            [make_record("A", {"cite": ["B"], "key": ["x"]}),
             make_record("B", {"cite": ["C"]}), make_record("C", {"cite": ["A"]})]
        )
        net = normalize(build_occurrence(repo, "cite"))
        values = numbered_values(list(repo), "key")
        payload = [(~values.holds, values)]
        cfg = PropagationConfig(max_steps=2, energy_floor=geometric(0.15, 1))
        got = walk_bytes(net, cfg, payload, True)
        assert got == walk_bytes(net, cfg, payload, False)
        assert got[0][0][1] == (2,)  # deposits at B and at C

    @pytest.mark.parametrize(
        "cfg", [PropagationConfig(seed=4), PropagationConfig(energy_floor=0.5, seed=4)]
    )
    def test_empty_carrier_set(self, cfg):
        repo = random_repository(30, seed=4)
        net = normalize(build_cooccurrence(repo, "key"))
        values = numbered_values(list(repo), "auth")
        payload = [(np.ones(len(net.ids), dtype=bool), values)]  # every node receives
        got = walk_bytes(net, cfg, payload, True)
        assert got == walk_bytes(net, cfg, payload, False)
        assert [shape for (_, shape, _) in got[0]] == [(0,)] * 2


def oracle_base():
    """A raw directed network over 12 nodes as rows of (target, weight):
    nodes 0 and 7 are dead ends, and every other node has 2 to 4 out-edges
    of weight 1 to 4, so no walk is certain.  Also each node's ``tag``
    values, none for some nodes."""
    rnd = random.Random(11)
    n = 12
    rows = []
    for i in range(n):
        targets = [] if i in (0, 7) else rnd.sample([j for j in range(n) if j != i], rnd.randint(2, 4))
        rows.append([(j, float(rnd.randint(1, 4))) for j in sorted(targets)])
    tags = [sorted(rnd.sample("abcd", rnd.choice([0, 1, 1, 2]))) for _ in range(n)]
    return rows, tags


def stacked(rows, tags, copies):
    """``copies`` disjoint copies of a base network and its records: node i
    of copy c is ``c{c:04d}n{i:02d}``, node c * n + i of the stack, so each
    copy's particles walk it alone, on substreams of their own."""
    ids, indptr, indices, weights, records = [], [0], [], [], []
    for c in range(copies):
        for i, row in enumerate(rows):
            ids.append(f"c{c:04d}n{i:02d}")
            indices += [c * len(rows) + j for j, _ in row]
            weights += [w for _, w in row]
            indptr.append(len(indices))
            records.append(make_record(ids[-1], {"tag": tags[i]}))
    return AssociativeNetwork(parse_relation("cite"), ids, indptr, indices, weights), records


def expected_deposits(rows, carries, receiver, cfg):
    """Each (node, value) cell's expected deposit in one walk of a base
    network, and its variance, in closed form for a walk that the energy
    floor never stops: with P the normalized network (dead-end rows zero,
    so a frozen particle drops out) and C the carrier x value incidence,
    E = sum over t = 1..T of (1 - delta)^t (P^T)^t C, masked to the receivers.

    Particle h deposits at node j the energy Y_hj = sum over t of e_t
    [X_t = j].  The walk is a Markov chain, so it is at j at ticks t and
    t + k with chance P^t[h, j] P^k[j, j], which gives E[Y_hj^2]; particles
    move independently, so a cell's variance is the sum of its carriers'."""
    n = len(rows)
    P = np.zeros((n, n))
    for i, row in enumerate(rows):
        total = np.sum([w for _, w in row])
        for j, w in row:
            P[i, j] = w / total
    T = cfg.max_steps
    e = np.array([geometric(cfg.delta, t) for t in range(T + 1)])  # e[0] is unused
    powers = [np.eye(n)]
    for _ in range(T):
        powers.append(powers[-1] @ P)
    returns = np.array([np.diag(p) for p in powers])  # returns[k][j] = P^k[j, j]
    mean, square = np.zeros((n, n)), np.zeros((n, n))
    for t in range(1, T + 1):
        later = np.sum([e[t + k] * returns[k] for k in range(1, T - t + 1)], axis=0)
        mean += e[t] * powers[t]
        square += e[t] * powers[t] * (e[t] + 2 * later)
    C = carries.astype(float)
    mask = receiver[:, None]
    return mask * (mean.T @ C), mask * ((square - mean * mean).T @ C)


ORACLE_COPIES = 5000  # independent walks of the base network
ORACLE_ALPHA = 1e-3  # family-wise chance that a correct walk fails the check


class TestClosedFormOracle:
    """The walk's mean deposits over many independent walks of one network
    against their closed form.  ``reference_propagate`` shares the walk's
    design (the bisection over ``cum``, the substreams, the tick order);
    this oracle shares none of it, only the model: move by P, decay, deposit
    at a receiver."""

    @pytest.mark.parametrize("walker", ["propagate", "carriers_only"])
    def test_mean_deposits(self, walker):
        rows, tags = oracle_base()
        names = sorted(set().union(*tags))
        holds = np.array([bool(t) for t in tags])
        if walker == "propagate":
            receiver = ~holds
        else:  # every other holder receives too
            receiver = ~holds | (holds & (np.cumsum(holds) % 2 == 0))
        carries = np.array([[x in t for x in names] for t in tags]) & (holds & ~receiver)[:, None]
        cfg = PropagationConfig(seed=1)
        assert _floor_never_stops(cfg)
        expected, variance = expected_deposits(rows, carries, receiver, cfg)
        cells = expected > 0
        # Bonferroni over the cells, each mean normal by the CLT
        bound = NormalDist().inv_cdf(1 - ORACLE_ALPHA / (2 * cells.sum()))

        net, records = stacked(rows, tags, ORACLE_COPIES)
        got = np.zeros((ORACLE_COPIES, len(rows), len(names)))
        if walker == "propagate":
            for (node, _), values in propagate(net, Repository(records), cfg).store.entries():
                c, i = int(node[1:5]), int(node[6:])
                for x, energy in values.items():
                    got[c, i, names.index(x)] = energy
        else:
            values = numbered_values(records, "tag")
            payload = [(np.tile(receiver, ORACLE_COPIES), values)]
            ((keys, totals),), _, _, _ = _walk(normalize(net), cfg, payload, carriers_only=True)
            got.reshape(-1)[keys] = totals

        assert not got[:, ~cells].any(), "a deposit where the closed form expects none"
        z = (got.mean(axis=0)[cells] - expected[cells]) / np.sqrt(variance[cells] / ORACLE_COPIES)
        assert np.abs(z).max() <= bound, (z.round(2).tolist(), bound)


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

