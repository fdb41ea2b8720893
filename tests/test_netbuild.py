import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop.netbuild import (
    COOCCURRENCE,
    OCCURRENCE,
    AlreadyNormalizedError,
    NetworkFormatError,
    Relation,
    RelationError,
    build_cooccurrence,
    build_occurrence,
    load_network,
    normalize,
    parse_relation,
    save_network,
)
from metaprop.records import Repository, make_record
from metaprop.synthetic import random_repository


def brute_force_cooccurrence(repo, mu):
    """O(N^2) reference for the co-occurrence definition: edge weights as a
    dict {(src, dst): w}.  Kept independent of build_cooccurrence's sparse product."""
    weights = {}
    ids = repo.ids()
    for i, j in itertools.combinations(ids, 2):
        a, b = repo.meta(i, mu), repo.meta(j, mu)
        co = len(a & b)
        if co:
            w = co / (len(a) + len(b) - co)
            weights[(i, j)] = w
            weights[(j, i)] = w
    return weights


def edge_dict(net):
    return {(s, d): w for s, d, w in net.edges()}


class TestRelations:
    def test_labels(self):
        assert parse_relation("cite") == Relation(OCCURRENCE, "cite")
        assert parse_relation("cokey") == Relation(COOCCURRENCE, "key")
        assert parse_relation("coauth").label == "coauth"
        assert parse_relation("occ:cost") == Relation(OCCURRENCE, "cost")
        assert parse_relation("co:key") == Relation(COOCCURRENCE, "key")

    @pytest.mark.parametrize("bad", ["", "co", "a b", "co:", "occ:"])
    def test_bad_labels(self, bad):
        with pytest.raises(RelationError):
            parse_relation(bad)


class TestOccurrence:
    def test_fifty_citations_weight(self):
        targets = [f"t{i:02d}" for i in range(50)]
        records = [make_record(t, {}) for t in targets]
        records.append(make_record("src", {"cite": targets}))
        net = build_occurrence(Repository(records), "cite")
        for t in targets:
            assert net.weight("src", t) == 1 / 50 == 0.02

    def test_single_citation_weight_one(self):
        repo = Repository([make_record("a", {"cite": ["b"]}), make_record("b", {})])
        net = build_occurrence(repo, "cite")
        assert net.weight("a", "b") == 1.0

    def test_no_citations_no_edges(self):
        repo = Repository([make_record("a", {}), make_record("b", {})])
        net = build_occurrence(repo, "cite")
        assert net.edge_count == 0

    def test_dangling_counted_in_denominator_and_tally(self):
        # two listed targets, one missing from the repo: weight stays 1/2
        repo = Repository([make_record("a", {"cite": ["b", "ghost"]}), make_record("b", {})])
        net = build_occurrence(repo, "cite")
        assert net.weight("a", "b") == 0.5
        assert net.dangling == 1

    def test_self_citation_dropped_but_counted(self):
        repo = Repository([make_record("a", {"cite": ["a", "b"]}), make_record("b", {})])
        net = build_occurrence(repo, "cite")
        assert net.weight("a", "b") == 0.5
        assert net.weight("a", "a") is None

    def test_all_outgoing_weights_equal(self):
        repo = random_repository(40, cite_rate=0.2, seed=3)
        net = build_occurrence(repo, "cite")
        for node in net.nodes:
            weights = {w for _, w in net.out_edges(node)}
            assert len(weights) <= 1
            # emitted sum never exceeds 1 (strictly less only with danglers)
            assert sum(w for _, w in net.out_edges(node)) <= 1.0 + 1e-12


class TestCooccurrence:
    def test_table1_pair(self, table1_repo):
        net = build_cooccurrence(table1_repo, "key")
        assert net.weight("ni", "nj") == 0.5
        assert net.weight("nj", "ni") == 0.5
        assert net.edge_count == 2

    def test_identical_sets_weight_one(self):
        repo = Repository(
            [make_record("a", {"key": ["x", "y"]}), make_record("b", {"key": ["x", "y"]})]
        )
        net = build_cooccurrence(repo, "key")
        assert net.weight("a", "b") == 1.0

    def test_disjoint_sets_no_edge(self):
        repo = Repository([make_record("a", {"key": ["x"]}), make_record("b", {"key": ["y"]})])
        assert build_cooccurrence(repo, "key").edge_count == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        repo = random_repository(n_records=random.Random(seed).randint(5, 50), seed=seed)
        net = build_cooccurrence(repo, "key")
        assert edge_dict(net) == brute_force_cooccurrence(repo, "key")

    def test_symmetric_weights_in_unit_interval(self):
        repo = random_repository(30, seed=11)
        net = build_cooccurrence(repo, "auth")
        for s, d, w in net.edges():
            assert 0.0 < w <= 1.0
            assert net.weight(d, s) == w
            if w == 1.0:
                assert repo.meta(s, "auth") == repo.meta(d, "auth")

    def test_postings_cap_drops_hot_values(self):
        records = [make_record(f"r{i}", {"key": ["hot", f"k{i}"]}) for i in range(6)]
        repo = Repository(records)
        assert build_cooccurrence(repo, "key", max_postings=3).edge_count == 0
        assert build_cooccurrence(repo, "key").edge_count == 30


@pytest.mark.parametrize("seed", range(3))
def test_pair_count_matches_set_of_pairs(seed):
    # cite_rate 0.1 on 60 records gives mutual citations, counted once
    repo = random_repository(60, cite_rate=0.1, seed=seed)
    for net in (build_occurrence(repo, "cite"), build_cooccurrence(repo, "key")):
        assert net.pair_count == len({frozenset((s, d)) for s, d, _ in net.edges()})


class TestNormalize:
    def test_proportional_scaling(self):
        repo = Repository(
            [
                make_record("a", {"key": ["p", "q"]}),
                make_record("b", {"key": ["p", "q"]}),
                make_record("c", {"key": ["p"]}),
            ]
        )
        net = build_cooccurrence(repo, "key")
        normed = normalize(net)
        for node in normed.nodes:
            out = normed.out_edges(node)
            if out:
                assert math.isclose(sum(w for _, w in out), 1.0, abs_tol=1e-9)

    def test_hand_computed_three_node_fixture(self):
        # raw weights: a-b share both of two keywords (w=1), a-c and b-c share
        # one of {2,1} (w = 1/(2+1-1) = 0.5); row-normalized by hand below.
        repo = Repository(
            [
                make_record("a", {"key": ["p", "q"]}),
                make_record("b", {"key": ["p", "q"]}),
                make_record("c", {"key": ["p"]}),
            ]
        )
        normed = normalize(build_cooccurrence(repo, "key"))
        assert normed.weight("a", "b") == 1.0 / 1.5
        assert normed.weight("a", "c") == 0.5 / 1.5
        assert normed.weight("c", "a") == 0.5
        assert normed.weight("c", "b") == 0.5

    def test_single_edge_becomes_one(self):
        repo = Repository([make_record("a", {"cite": ["b", "x", "y"]}), make_record("b", {})])
        normed = normalize(build_occurrence(repo, "cite"))
        assert normed.weight("a", "b") == 1.0

    def test_double_normalization_is_an_error(self):
        repo = Repository([make_record("a", {"cite": ["b"]}), make_record("b", {})])
        normed = normalize(build_occurrence(repo, "cite"))
        with pytest.raises(AlreadyNormalizedError):
            normalize(normed)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_sequential_loop(self, seed):
        # reference: the scalar loops the array code replaced, compared bit
        # for bit, including the walk's cumulative column
        repo = random_repository(60, vocab_size=10, cite_rate=0.1, seed=seed)
        for net in (build_cooccurrence(repo, "key"), build_occurrence(repo, "cite")):
            normed = normalize(net)
            cum = iter(normed.cum.tolist())
            for node in sorted(net.nodes):
                raw = net.out_edges(node)
                total = 0.0
                for _, w in raw:
                    total += w
                acc = 0.0
                for (dst, w), (ndst, nw) in zip(raw, normed.out_edges(node)):
                    acc += w / total
                    assert (ndst, nw, next(cum)) == (dst, w / total, acc)

    def test_ratios_preserved(self):
        repo = random_repository(25, seed=5)
        net = build_cooccurrence(repo, "key")
        normed = normalize(net)
        for node in net.nodes:
            raw = net.out_edges(node)
            if len(raw) < 2:
                continue
            (d1, w1), (d2, w2) = raw[0], raw[1]
            assert math.isclose(
                normed.weight(node, d1) / normed.weight(node, d2), w1 / w2, rel_tol=1e-12
            )


class TestSerialization:
    def test_round_trip(self, table1_repo, tmp_path):
        net = build_cooccurrence(table1_repo, "key")
        path = tmp_path / "net.tsv"
        save_network(net, path)
        assert load_network(path) == net

    def test_round_trip_preserves_weights_bit_exact(self, tmp_path):
        targets = [f"t{i}" for i in range(49)]
        records = [make_record(t, {}) for t in targets]
        records.append(make_record("s", {"cite": targets}))
        net = build_occurrence(Repository(records), "cite")
        path = tmp_path / "net.tsv"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.weight("s", "t0") == 1.0 / 49  # not representable exactly in decimal

    def test_round_trip_keeps_isolated_nodes_and_flags(self, chain_repo, tmp_path):
        net = normalize(build_occurrence(chain_repo, "cite"))
        path = tmp_path / "net.tsv"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.nodes == net.nodes
        assert loaded.normalized
        assert loaded.relation == net.relation

    def test_unknown_relation_label(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("co\t0\t0\t0\t0\n")
        with pytest.raises(NetworkFormatError, match="'co'"):
            load_network(path)

    def test_truncated_file(self, table1_repo, tmp_path):
        net = build_cooccurrence(table1_repo, "key")
        path = tmp_path / "net.tsv"
        save_network(net, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(NetworkFormatError, match="corrupt"):
            load_network(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda edges: edges + edges[:1], "duplicate edge"),
            (lambda edges: edges + ["ni\tni\t0x1.0p-1"], "self-loop"),
            (lambda edges: [edges[0].rsplit("\t", 1)[0] + "\t-0x1.0p-1"] + edges[1:], "non-positive"),
            (lambda edges: [edges[0].rsplit("\t", 1)[0] + "\tzz"] + edges[1:], ":2: bad weight 'zz'"),
            (lambda edges: edges + ["ni\tnj"], ":4: expected 1 or 3 fields, got 2"),
        ],
        ids=["duplicate", "self-loop", "non-positive", "bad-weight", "two-fields"],
    )
    def test_bad_edge_lines_rejected(self, table1_repo, tmp_path, edit, message):
        # the header's edge count is kept in step, so only the edit is wrong
        path = tmp_path / "net.tsv"
        save_network(build_cooccurrence(table1_repo, "key"), path)
        header, *edges = path.read_text().splitlines()
        edges = edit(edges)
        fields = header.split("\t")
        fields[2] = str(len(edges))
        path.write_text("\n".join(["\t".join(fields)] + edges) + "\n")
        with pytest.raises(NetworkFormatError, match=message):
            load_network(path)

    def test_normalized_flag_checked_against_row_sums(self, tmp_path):
        repo = Repository(
            [
                make_record("a", {"key": ["p", "q"]}),
                make_record("b", {"key": ["p", "q"]}),
                make_record("c", {"key": ["p"]}),
            ]
        )
        path = tmp_path / "net.tsv"
        save_network(normalize(build_cooccurrence(repo, "key")), path)
        assert load_network(path).normalized
        # hand edit: a's weight to b goes from 2/3 to 1/2, so a's row sums to 5/6
        text = path.read_text()
        edited = text.replace(f"a\tb\t{(1.0 / 1.5).hex()}\n", f"a\tb\t{0.5.hex()}\n")
        assert edited != text
        path.write_text(edited)
        with pytest.raises(NetworkFormatError, match="normalized.*'a'"):
            load_network(path)


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=25), st.integers())
def test_cooccurrence_equals_brute_force_property(n, seed):
    repo = random_repository(n_records=n, seed=seed, vocab_size=8)
    net = build_cooccurrence(repo, "key")
    assert edge_dict(net) == brute_force_cooccurrence(repo, "key")
