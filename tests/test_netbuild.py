import contextlib
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop import netbuild
from metaprop.netbuild import (
    COOCCURRENCE,
    OCCURRENCE,
    AssociativeNetwork,
    NetworkFormatError,
    Relation,
    RelationError,
    build_cooccurrence,
    build_occurrence,
    load_network,
    normalize,
    numbered_values,
    parse_relation,
    relation_for,
    require_edges,
    save_network,
)
from metaprop.records import Repository, make_record

from corpora import brute_force_cooccurrence, edge_dict, edge_list, random_repository


def brute_force_occurrence(repo, mu):
    """The per-record loop that build_occurrence's array build replaced,
    kept as its oracle: the (src, dst, weight) edges in row order, and the
    dangling tally."""
    edges, dangling = [], 0
    for rec in repo:
        vals = rec.values(mu)
        for target in sorted(vals):
            if target == rec.id:
                continue
            if target in repo:
                edges.append((rec.id, target, 1.0 / len(vals)))
            else:
                dangling += 1
    return edges, dangling


BLOCK_SIZES = [1, 5, None]  # one-row blocks, blocks of up to 5 entries, the module's blocks
BLOCK_ENTRIES = pytest.mark.parametrize(
    "block_entries", BLOCK_SIZES, ids=["one-row-blocks", "5-entry-blocks", "default-blocks"]
)


@contextlib.contextmanager
def blocks_of(block_entries):
    """A context in which builds, checks and pair counts go by blocks of
    rows of at most ``block_entries`` entries (a costlier row is a block of
    its own); None keeps the module's block size."""
    with pytest.MonkeyPatch.context() as mp:
        if block_entries is not None:
            mp.setattr(netbuild, "_BLOCK_ENTRIES", block_entries)
        yield


def reference_save(net, path):
    """The per-edge writer that save_network's blocked writer replaced; kept
    as the oracle for the network file's bytes."""
    edges = edge_list(net)
    touched = {s for s, _, _ in edges} | {d for _, d, _ in edges}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{net.relation.label}\t{len(net.ids)}\t{net.edge_count}\t"
            f"{int(net.normalized)}\t{net.dangling}\n"
        )
        for node in net.ids:
            if node not in touched:
                fh.write(node + "\n")
        for src, dst, w in edges:
            fh.write(f"{src}\t{dst}\t{w.hex()}\n")


def rewrite_body(path, edit):
    """Apply ``edit`` to a network file's body lines, keeping the header."""
    header, *body = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(edit(body)))


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

    @pytest.mark.parametrize("label, message", [
        ("co", "unknown relation label: 'co'"),
        ("nosuch", "no property 'nosuch' in repository"),
    ])
    def test_relation_for_lists_the_valid_labels(self, label, message):
        repo = Repository([make_record("a", {"cite": ["b"], "key": ["x"]}), make_record("b", {})])
        valid = "; valid labels: cite, cocite, cokey"
        with pytest.raises(RelationError, match=f"^{re.escape(message + valid)}$"):
            relation_for(repo, label)
        assert relation_for(repo, "cokey") == Relation(COOCCURRENCE, "key")

    def test_unknown_kind(self):
        with pytest.raises(RelationError, match="^unknown relation kind: 'bogus'$"):
            Relation("bogus", "x")

    @pytest.mark.parametrize("cites", [["a"], ["ghost"], ["a", "ghost"]])
    def test_require_edges_refuses_an_occurrence_network_without_edges(self, cites):
        # build_occurrence drops a self-reference and an id that names no record
        repo = Repository([make_record("a", {"cite": cites}), make_record("b", {"cite": ["b"]})])
        assert relation_for(repo, "cite") == Relation(OCCURRENCE, "cite")
        net = build_occurrence(repo, "cite")
        assert net.edge_count == 0
        message = (
            "occurrence relation 'cite' produced no edges: "
            "no value of 'cite' is the id of another resource"
        )
        with pytest.raises(RelationError, match=f"^{re.escape(message)}$"):
            require_edges(net)
        co = build_cooccurrence(repo, "cite")
        assert co.edge_count == 0 and require_edges(co) is co

    def test_require_edges_passes_one_cross_reference(self):
        repo = Repository(
            [make_record("a", {"cite": ["a", "ghost"]}), make_record("b", {"cite": ["a"]})]
        )
        net = build_occurrence(repo, "cite")
        assert net.edge_count == 1 and require_edges(net) is net

    @given(st.dictionaries(
        st.sampled_from("abc"), st.lists(st.sampled_from("abcx"), min_size=1, max_size=3),
        min_size=1,
    ))
    def test_valid_labels_name_exactly_the_networks_require_edges_passes(self, cites):
        repo = Repository(
            [make_record(rid, {"cite": vals}) for rid, vals in cites.items()]
            + [make_record(rid, {}) for rid in "abc" if rid not in cites]
        )
        with pytest.raises(RelationError) as refused:
            relation_for(repo, "nosuch")
        valid = str(refused.value).split("; valid labels: ")[1].split(", ")
        net = build_occurrence(repo, "cite")
        with contextlib.nullcontext() if net.edge_count else pytest.raises(RelationError):
            require_edges(net)
        assert valid == (["cite", "cocite"] if net.edge_count else ["cocite"])

    @given(st.sampled_from([OCCURRENCE, COOCCURRENCE]), st.text("oc:x", min_size=1, max_size=7))
    def test_label_reads_back(self, kind, mu):
        relation = Relation(kind, mu)
        assert parse_relation(relation.label) == relation

    def test_occurrence_over_a_co_property_round_trips(self, tmp_path):
        # "coref" alone reads back as co-occurrence over "ref"
        repo = Repository([make_record("a", {"coref": ["b"]}), make_record("b", {"coref": ["a"]})])
        net = build_occurrence(repo, "coref")
        assert net.relation.label == "occ:coref"
        path = tmp_path / "net.tsv"
        save_network(net, path)
        assert load_network(path) == net


class TestOccurrence:
    def test_fifty_citations_weight(self):
        targets = [f"t{i:02d}" for i in range(50)]
        records = [make_record(t, {}) for t in targets]
        records.append(make_record("src", {"cite": targets}))
        net = build_occurrence(Repository(records), "cite")
        for t in targets:
            assert dict(net.out_edges("src")).get(t) == 1 / 50 == 0.02

    def test_single_citation_weight_one(self):
        repo = Repository([make_record("a", {"cite": ["b"]}), make_record("b", {})])
        net = build_occurrence(repo, "cite")
        assert dict(net.out_edges("a")).get("b") == 1.0

    def test_unknown_node_has_no_out_edges(self):
        repo = Repository([make_record("a", {"cite": ["b"]}), make_record("b", {})])
        assert build_occurrence(repo, "cite").out_edges("nosuch") == ()

    def test_no_citations_no_edges(self):
        repo = Repository([make_record("a", {}), make_record("b", {})])
        net = build_occurrence(repo, "cite")
        assert net.edge_count == 0

    def test_dangling_counted_in_denominator_and_tally(self):
        # two listed targets, one missing from the repo: weight stays 1/2
        repo = Repository([make_record("a", {"cite": ["b", "ghost"]}), make_record("b", {})])
        net = build_occurrence(repo, "cite")
        assert dict(net.out_edges("a")).get("b") == 0.5
        assert net.dangling == 1

    def test_self_citation_dropped_but_counted(self):
        repo = Repository([make_record("a", {"cite": ["a", "b"]}), make_record("b", {})])
        net = build_occurrence(repo, "cite")
        assert dict(net.out_edges("a")).get("b") == 0.5
        assert dict(net.out_edges("a")).get("a") is None

    def test_all_outgoing_weights_equal(self):
        repo = random_repository(40, cite_rate=0.2, seed=3)
        net = build_occurrence(repo, "cite")
        for node in net.nodes:
            weights = {w for _, w in net.out_edges(node)}
            assert len(weights) <= 1
            # emitted sum never exceeds 1 (strictly less only with danglers)
            assert sum(w for _, w in net.out_edges(node)) <= 1.0 + 1e-12


class TestNumberedValues:
    RECORDS = [
        make_record("a", {"key": ["z", "b"]}),
        make_record("b", {"jour": ["j"]}),
        make_record("c", {"key": ["é", "b", "a"]}),
    ]

    def test_table(self):
        table = numbered_values(self.RECORDS, "key")
        assert table.names == ["a", "b", "z", "é"]
        assert table.holds.tolist() == [True, False, True]
        assert table.value_ptr.tolist() == [0, 2, 2, 5]
        assert table.value_ids.tolist() == [1, 2, 0, 1, 3]

    @pytest.mark.parametrize("records", [RECORDS, []])
    def test_property_nobody_holds(self, records):
        table = numbered_values(records, "cite")
        assert table.names == []
        assert table.holds.tolist() == [False] * len(records)
        assert table.value_ptr.tolist() == [0] * (len(records) + 1)
        assert table.value_ids.size == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_each_node_reads_back_its_sorted_values(self, seed):
        records = list(random_repository(40, vocab_size=12, seed=seed))
        table = numbered_values(records, "key")
        assert table.names == sorted(set().union(*(rec.values("key") for rec in records)))
        for i, rec in enumerate(records):
            numbers = table.value_ids[table.value_ptr[i] : table.value_ptr[i + 1]].tolist()
            assert numbers == sorted(numbers)
            assert [table.names[k] for k in numbers] == sorted(rec.values("key"))
            assert table.holds[i] == bool(rec.values("key"))


class TestCooccurrence:
    def test_table1_pair(self, table1_repo):
        net = build_cooccurrence(table1_repo, "key")
        assert dict(net.out_edges("ni")).get("nj") == 0.5
        assert dict(net.out_edges("nj")).get("ni") == 0.5
        assert net.edge_count == 2

    def test_identical_sets_weight_one(self):
        repo = Repository(
            [make_record("a", {"key": ["x", "y"]}), make_record("b", {"key": ["x", "y"]})]
        )
        net = build_cooccurrence(repo, "key")
        assert dict(net.out_edges("a")).get("b") == 1.0

    def test_disjoint_sets_no_edge(self):
        repo = Repository([make_record("a", {"key": ["x"]}), make_record("b", {"key": ["y"]})])
        assert build_cooccurrence(repo, "key").edge_count == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        repo = random_repository(n_records=random.Random(seed).randint(5, 50), seed=seed)
        expected = brute_force_cooccurrence(repo, "key")
        for block_entries in BLOCK_SIZES:
            with blocks_of(block_entries):
                assert edge_dict(build_cooccurrence(repo, "key")) == expected

    def test_symmetric_weights_in_unit_interval(self):
        repo = random_repository(30, seed=11)
        net = build_cooccurrence(repo, "auth")
        for s, d, w in edge_list(net):
            assert 0.0 < w <= 1.0
            assert dict(net.out_edges(d)).get(s) == w
            if w == 1.0:
                assert repo.meta(s, "auth") == repo.meta(d, "auth")


@pytest.mark.parametrize("seed", range(3))
def test_pair_count_matches_set_of_pairs(seed):
    # cite_rate 0.1 on 60 records gives mutual citations, counted once
    repo = random_repository(60, cite_rate=0.1, seed=seed)
    for net in (build_occurrence(repo, "cite"), build_cooccurrence(repo, "key")):
        assert net.pair_count == len({frozenset((s, d)) for s, d, _ in edge_list(net)})


def test_pair_count_without_upward_edges():
    # only downward edges (b -> a, c -> a, c -> b), and no edges at all
    down = AssociativeNetwork(parse_relation("cite"), "abc", [0, 0, 1, 3], [0, 0, 1], [1.0] * 3)
    assert down.pair_count == 3
    assert AssociativeNetwork(parse_relation("cite"), "ab", [0, 0, 0], [], []).pair_count == 0


def test_pair_count_without_nodes():
    assert AssociativeNetwork(parse_relation("cite"), "", [0], [], []).pair_count == 0


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
        assert dict(normed.out_edges("a")).get("b") == 1.0 / 1.5
        assert dict(normed.out_edges("a")).get("c") == 0.5 / 1.5
        assert dict(normed.out_edges("c")).get("a") == 0.5
        assert dict(normed.out_edges("c")).get("b") == 0.5

    def test_single_edge_becomes_one(self):
        repo = Repository([make_record("a", {"cite": ["b", "x", "y"]}), make_record("b", {})])
        normed = normalize(build_occurrence(repo, "cite"))
        assert dict(normed.out_edges("a")).get("b") == 1.0

    def test_normalized_network_is_returned_as_is(self):
        # normalizing twice used to be an error
        repo = Repository([make_record("a", {"cite": ["b"]}), make_record("b", {})])
        normed = normalize(build_occurrence(repo, "cite"))
        assert normalize(normed) is normed

    def test_overflowing_row_total_is_an_error(self):
        big = np.finfo(np.float64).max * 0.75
        net = AssociativeNetwork(
            Relation(COOCCURRENCE, "key"), ["a", "b", "c"], [0, 0, 2, 2], [0, 2], [big, big]
        )
        with np.errstate(over="raise"), pytest.raises(ValueError, match="out-weights of 'b' sum past"):
            normalize(net)

    def test_underflowing_weight_is_an_error(self):
        net = AssociativeNetwork(
            Relation(COOCCURRENCE, "key"), ["a", "b", "c"], [0, 2, 2, 2], [1, 2], [1e-300, 1e300]
        )
        with pytest.raises(ValueError, match=re.escape("non-positive weight on ('a', 'b')")):
            normalize(net)

    def test_overflow_is_reported_before_an_earlier_underflow(self):
        big = np.finfo(np.float64).max * 0.75
        net = AssociativeNetwork(
            Relation(COOCCURRENCE, "key"), ["a", "b", "c"], [0, 2, 4, 4], [1, 2, 0, 2],
            [1e-300, 1e300, big, big],
        )
        with pytest.raises(ValueError, match="out-weights of 'b' sum past"):
            normalize(net)

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
            out = dict(normed.out_edges(node))
            assert math.isclose(out.get(d1) / out.get(d2), w1 / w2, rel_tol=1e-12)


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
        assert dict(loaded.out_edges("s")).get("t0") == 1.0 / 49  # not representable exactly in decimal

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
            (lambda edges: edges[:1] + edges, "duplicate edge"),  # in (src, dst) order
            (lambda edges: edges + ["ni\tni\t0x1.0p-1"], "self-loop"),
            (lambda edges: [edges[0].rsplit("\t", 1)[0] + "\t-0x1.0p-1"] + edges[1:], "non-positive"),
            (lambda edges: [edges[0].rsplit("\t", 1)[0] + "\tzz"] + edges[1:], ":2: bad weight 'zz'"),
            (lambda edges: edges + ["ni\tnj"], ":4: expected 1 or 3 fields, got 2"),
            (lambda edges: edges + ["\tni\t0x1.0p-1"], ":4: empty node id"),
            (lambda edges: edges + ["ni\t\t0x1.0p-1"], ":4: empty node id"),
            (lambda edges: [edges[0].rsplit("\t", 1)[0] + "\tinf"] + edges[1:], "infinite weight"),
            (lambda edges: [edges[0].rsplit("\t", 1)[0] + "\t-inf"] + edges[1:], "non-positive"),
            (lambda edges: [edges[0].rsplit("\t", 1)[0] + "\tnan"] + edges[1:], "NaN weight"),
            # float.fromhex raises OverflowError, not ValueError, on this one
            (lambda edges: [edges[0].rsplit("\t", 1)[0] + "\t0x1p99999"] + edges[1:], ":2: bad weight"),
        ],
        ids=["duplicate", "adjacent-duplicate", "self-loop", "non-positive", "bad-weight",
             "two-fields", "empty-source", "empty-destination", "inf", "-inf", "nan", "overflow"],
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

    def test_infinite_weight_rejected_on_construction(self):
        with pytest.raises(ValueError, match="infinite weight on \\('a', 'b'\\)"):
            AssociativeNetwork(Relation(OCCURRENCE, "cite"), ["a", "b"], [0, 1, 1], [1], [math.inf])

    @pytest.mark.parametrize("ids, indptr, indices, message", [
        (["b", "a"], [0, 1, 1], [1], "node ids must be sorted and distinct"),
        (["a", "a"], [0, 1, 1], [1], "node ids must be sorted and distinct"),
        (["a", "b"], [0, 1], [1], "malformed CSR arrays"),
        (["a", "b"], [0, 1, 0], [], "malformed CSR arrays"),
        (["a", "b"], [0, 1, 1], [2], "edge target not in node set"),
    ])
    def test_bad_arrays_rejected_on_construction(self, ids, indptr, indices, message):
        with pytest.raises(ValueError) as caught:
            AssociativeNetwork(Relation(OCCURRENCE, "cite"), ids, indptr, indices, [1.0] * len(indices))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "header, message",
        [
            ("cokey\t2\t2\t7\t-5", "normalized flag must be 0 or 1, got '7'"),
            ("cokey\t2\t2\t 1\t0", "normalized flag must be 0 or 1, got ' 1'"),
            ("cokey\t2\t2\t-1\t0", "normalized flag must be 0 or 1, got '-1'"),
            ("cokey\t2\t2\t01\t0", "normalized flag must be 0 or 1, got '01'"),
            ("cokey\t2\t2\t\t0", "bad header counts"),
            ("cokey\t2\t2\t0\t-5", "negative dangling count -5"),
            ("cokey\t2\t2\t0\tx", "bad header counts"),
            ("", "missing header line"),
            ("cokey\t2\t2\t0", r"bad header \(4 fields, expected 5\)"),
        ],
        ids=["flag-7", "flag-space-1", "flag-minus-1", "flag-01", "flag-empty", "dangling-minus-5", "dangling-x",
             "empty", "four-fields"],
    )
    def test_bad_header_fields_rejected(self, table1_repo, tmp_path, header, message):
        path = tmp_path / "net.tsv"
        save_network(build_cooccurrence(table1_repo, "key"), path)
        body = path.read_text().split("\n", 1)[1]
        path.write_text(header + "\n" + body)
        with pytest.raises(NetworkFormatError, match=f":1: {message}"):
            load_network(path)

    @pytest.mark.parametrize("line_no", [1, 2, 3])
    def test_non_utf8_bytes_name_their_line(self, table1_repo, tmp_path, line_no):
        path = tmp_path / "net.tsv"
        save_network(build_cooccurrence(table1_repo, "key"), path)
        lines = path.read_bytes().split(b"\n")
        lines[line_no - 1] = b"\xff" + lines[line_no - 1]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(NetworkFormatError, match=f":{line_no}: not valid UTF-8"):
            load_network(path)

    def test_crlf_file_loads(self, chain_repo, tmp_path):
        net = normalize(build_occurrence(chain_repo, "cite"))
        path = tmp_path / "net.tsv"
        save_network(net, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_network(path) == net

    def test_file_without_a_final_newline_loads(self, chain_repo, tmp_path):
        net = normalize(build_occurrence(chain_repo, "cite"))
        path = tmp_path / "net.tsv"
        save_network(net, path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert load_network(path) == net

    @pytest.mark.parametrize("chars", [1, 7, 33, 100])
    def test_lines_longer_than_a_read_block(self, table1_repo, tmp_path, monkeypatch, chars):
        # a block that holds no whole line is carried into the next read
        net = normalize(build_cooccurrence(table1_repo, "key"))
        path = tmp_path / "net.tsv"
        save_network(net, path)
        monkeypatch.setattr(netbuild, "_READ_CHARS", chars)
        assert load_network(path) == net


@pytest.fixture(scope="module")
def big_network_file(tmp_path_factory):
    """A 420-node co-occurrence network (175,980 edges, 5.6 MB): more
    edges than one write block and more text than one read block."""
    repo = Repository(
        [make_record(f"n{i:03d}", {"key": ["shared", f"k{i % 7}"]}) for i in range(420)]
    )
    net = normalize(build_cooccurrence(repo, "key"))
    path = tmp_path_factory.mktemp("big") / "net.tsv"
    save_network(net, path)
    return net, path


class TestBlockedIO:
    def test_bytes_and_round_trip(self, big_network_file, tmp_path):
        net, path = big_network_file
        assert net.edge_count > 2 * netbuild._BLOCK
        assert path.stat().st_size > 4 * netbuild._READ_CHARS
        reference_save(net, tmp_path / "reference.tsv")
        assert path.read_bytes() == (tmp_path / "reference.tsv").read_bytes()
        assert load_network(path) == net

    @pytest.mark.parametrize("extra", [[], ["\n"], ["n007\n"]], ids=["none", "blank", "node-only"])
    def test_bad_line_after_first_block_names_its_line(self, big_network_file, tmp_path, extra):
        _, saved = big_network_file
        path = tmp_path / "net.tsv"
        path.write_bytes(saved.read_bytes())
        bad = 150_000  # body index: far past the first read block

        def edit(body):
            body = body[:10] + extra + body[10:]  # a blank or node-only line still counts
            body[bad] = body[bad].rsplit("\t", 1)[0] + "\tzz\n"
            return body

        rewrite_body(path, edit)
        with pytest.raises(NetworkFormatError, match=f":{bad + 2}: bad weight 'zz'"):
            load_network(path)

    def test_field_count_error_in_a_later_block(self, big_network_file, tmp_path):
        _, saved = big_network_file
        path = tmp_path / "net.tsv"
        path.write_bytes(saved.read_bytes())
        rewrite_body(path, lambda body: body[:100_000] + ["n001\tn002\n", "\n"] + body[100_000:])
        with pytest.raises(NetworkFormatError, match=":100002: expected 1 or 3 fields, got 2"):
            load_network(path)

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["\tn002\t0x1p-1\n"], ":100002: empty node id"),
            (["n001\t\t0x1p-1\n"], ":100002: empty node id"),
            # a block's first faulty line is named, whichever its fault
            (["\t\t0x1p-1\n", "n001\tn002\n"], ":100002: empty node id"),
            (["n001\tn002\n", "\t\t0x1p-1\n"], ":100002: expected 1 or 3 fields, got 2"),
        ],
        ids=["source", "destination", "empty-first", "field-count-first"],
    )
    def test_empty_node_id_in_a_later_block(self, big_network_file, tmp_path, lines, message):
        _, saved = big_network_file
        path = tmp_path / "net.tsv"
        path.write_bytes(saved.read_bytes())
        rewrite_body(path, lambda body: body[:100_000] + lines + body[100_000:])
        with pytest.raises(NetworkFormatError, match=message):
            load_network(path)


def network_of(ids, edges):
    """A co-occurrence network over ``ids`` from (src, dst, weight) index
    triples in any order."""
    edges = sorted(edges)
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.add.at(indptr, [i + 1 for i, _, _ in edges], 1)
    return AssociativeNetwork(
        Relation(COOCCURRENCE, "key"), ids, np.cumsum(indptr),
        [j for _, j, _ in edges], [w for _, _, w in edges],
    )


def all_pairs(ids, weight=lambda i, j: 1.0 / (1 + i + j)):
    n = len(ids)
    return network_of(ids, [(i, j, weight(i, j)) for i in range(n) for j in range(n) if i != j])


@pytest.fixture
def table_lookups(monkeypatch):
    """Counts the fields looked up in a _FieldTable, to tell which path read
    a file."""
    count = [0]
    lookup = netbuild._FieldTable.lookup

    def counted(self, data, starts, widths):
        count[0] += len(starts)
        return lookup(self, data, starts, widths)

    monkeypatch.setattr(netbuild._FieldTable, "lookup", counted)
    return count


def assert_round_trip(net, path):
    save_network(net, path)
    loaded = load_network(path)
    assert loaded == net and loaded.dangling == net.dangling


class TestTableLoad:
    """Every block is read through _FieldTables."""

    @pytest.mark.parametrize(
        "ids, fields_per_edge",
        [
            (["a", "a\x00", "a\x00\x00", "ab", "b", "abcdefg", "abcdefgh", "abcdefgh\x00",
              "abcdefghi", "\x00", "\x00\x00", "é", "e\u0301"], 3),
            (["prefix01", "prefix01a", "prefix01b", "prefix01prefix02", "prefix01prefix02a",
              "prefix01prefix02b", "prefix02"], 3),
            (["x" * 63 + "a", "x" * 63 + "b", "y" * 64], 3),
            (["x" * 64 + "a", "x" * 64 + "b", "y"], 3),  # wider than a key: never stored
        ],
        ids=["trailing-nul-or-width", "8-byte-prefix", "64-bytes", "past-64-bytes"],
    )
    def test_ids_round_trip(self, tmp_path, table_lookups, ids, fields_per_edge):
        net = all_pairs(sorted(ids))
        assert_round_trip(net, tmp_path / "net.tsv")
        assert table_lookups[0] == fields_per_edge * net.edge_count

    def test_more_distinct_weights_than_table_slots(self, tmp_path, table_lookups):
        ids = [f"n{i:03d}" for i in range(270)]
        net = all_pairs(ids, lambda i, j: 1.0 + (i * 270 + j) * 2.0**-40)
        assert len(np.unique(net.weights)) > 1 << netbuild._SLOT_BITS
        assert_round_trip(net, tmp_path / "net.tsv")
        assert table_lookups[0] == 3 * net.edge_count

    def test_non_canonical_hex_weights(self, tmp_path, table_lookups):
        texts = ["0X1P-3", " 0x1p-3", "0x.8p0", "0x1p-3 ", "0x1.0000000000000p-3", "0x2p-4", "\x0b0x1p-3",
                 " " * 70 + "0x1p-3"]
        ids = [f"n{i}" for i in range(len(texts) + 1)]
        lines = [f"n{i}\tn{i + 1}\t{text}\n" for i, text in enumerate(texts)]
        path = tmp_path / "net.tsv"
        path.write_text(f"cokey\t{len(ids)}\t{len(lines)}\t0\t0\n" + "".join(lines[::-1]))
        expected = network_of(ids, [(i, i + 1, float.fromhex(t)) for i, t in enumerate(texts)])
        assert load_network(path) == expected
        assert table_lookups[0] == 3 * len(lines)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_isolated_blank_and_edge_lines_in_one_block(self, tmp_path, table_lookups, newline):
        wide = "w" * 70
        ids = ["a", "b", "c", "i", wide]
        edges = [(0, 1, 0.5), (1, 0, 0.25), (2, 0, 1.0 / 3.0)]
        lines = ["i", "", f"a\tb\t{0.5.hex()}", wide, "", f"c\ta\t{(1.0 / 3.0).hex()}",
                 f"b\ta\t{0.25.hex()}", ""]
        path = tmp_path / "net.tsv"
        path.write_bytes(
            f"cokey\t{len(ids)}\t{len(edges)}\t0\t0{newline}".encode()
            + "".join(line + newline for line in lines).encode()
        )
        assert load_network(path) == network_of(ids, edges)
        assert table_lookups[0] == 2 + 3 * len(edges)

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["a\tb\tzz", "b\ta\t0x1p-1", "", "c", "a\tc"], ":6: expected 1 or 3 fields, got 2"),
            (["a\tb\t0x1p-1", "b\ta\t0x1p-1\tx"], ":3: expected 1 or 3 fields, got 4"),
        ],
        ids=["two-fields-after-bad-weight", "four-fields"],
    )
    def test_bad_line_is_named_before_any_weight_is_read(self, tmp_path, lines, message):
        path = tmp_path / "net.tsv"
        path.write_text(f"cokey\t3\t{len(lines)}\t0\t0\n" + "".join(line + "\n" for line in lines))
        with pytest.raises(NetworkFormatError, match=message):
            load_network(path)

    def test_shuffled_multi_block_file(self, big_network_file, tmp_path, table_lookups):
        net, saved = big_network_file
        header, *body = saved.read_text().splitlines(keepends=True)
        random.Random(5).shuffle(body)
        path = tmp_path / "shuffled.tsv"
        path.write_text(header + "".join(body))
        assert load_network(path) == net
        assert table_lookups[0] == 3 * net.edge_count

    @pytest.mark.parametrize("block", [2, 3])
    def test_one_swapped_pair_is_sorted_wherever_it_is(self, tmp_path, monkeypatch, block):
        # the order check reads blocks of _BLOCK_ENTRIES edges that overlap
        # by one, so a swap across a block boundary is seen too
        monkeypatch.setattr(netbuild, "_BLOCK_ENTRIES", block)
        net = all_pairs(["a", "b", "c", "d"])
        path = tmp_path / "net.tsv"
        save_network(net, path)
        header, *body = path.read_text().splitlines(keepends=True)
        for k in range(len(body) - 1):
            path.write_text(header + "".join(body[:k] + [body[k + 1], body[k]] + body[k + 2 :]))
            assert load_network(path) == net

    def test_forced_collision_reads_every_field_exactly(self, big_network_file, tmp_path, monkeypatch):
        # every key in one slot: a hit still needs equal words, and a field
        # whose text lost the slot to another text is made on its own
        monkeypatch.setattr(
            netbuild._FieldTable, "hash",
            staticmethod(lambda widths, words: np.zeros(len(widths), dtype=np.uint64)),
        )
        net, saved = big_network_file
        assert load_network(saved) == net
        ids = sorted(["a", "a\x00", "ab", "abcdefgh", "abcdefgh\x00", "abcdefghi", "prefix01a",
                      "prefix01b", "prefix01prefix02a", "prefix01prefix02b"])
        assert_round_trip(all_pairs(ids), tmp_path / "net.tsv")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({150_000: "zz", 150_005: "yy", 150_010: "zz"}, ":150002: bad weight 'zz'"),
            ({150_000: "0x1p99999", 150_005: "zz"}, ":150002: bad weight '0x1p99999'"),
            ({150_005: "zz", 150_000: "0x1p-3", 150_010: "0x1p-3"}, ":150007: bad weight 'zz'"),
        ],
        ids=["repeated", "overflow-first", "after-good"],
    )
    def test_bad_weight_in_a_later_block_names_its_line(self, big_network_file, tmp_path, bad, message):
        _, saved = big_network_file
        path = tmp_path / "net.tsv"
        path.write_bytes(saved.read_bytes())

        def edit(body):
            for k, text in bad.items():
                body[k] = body[k].rsplit("\t", 1)[0] + f"\t{text}\n"
            return body

        rewrite_body(path, edit)
        with pytest.raises(NetworkFormatError, match=message):
            load_network(path)


IDS = st.text(
    st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",)),
    min_size=1,
    max_size=6,
)
WEIGHTS = st.one_of(
    st.sampled_from([2.0**-1074, 2.0**-1022 * 0.75, 1.0 - 2.0**-53, 0.5, 1.0, 1.0 / 3.0]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)


@st.composite
def raw_networks(draw, weight_values=WEIGHTS):
    """Unnormalized networks: rows of any degree (empty ones too), their
    weights drawn from up to four values."""
    ids = sorted(draw(st.sets(IDS, min_size=1, max_size=12)))
    n = len(ids)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs), max_size=40))) if pairs else []
    pool = draw(st.lists(weight_values, min_size=1, max_size=4))  # few distinct weights, repeated
    weights = [draw(st.sampled_from(pool)) for _ in chosen]
    indptr = [0] * (n + 1)
    for i, _ in chosen:
        indptr[i + 1] += 1
    for i in range(n):
        indptr[i + 1] += indptr[i]
    return AssociativeNetwork(
        Relation(COOCCURRENCE, "key"), ids, indptr, [j for _, j in chosen], weights,
        dangling=draw(st.integers(0, 3)),
    )


@st.composite
def networks(draw):
    net = draw(raw_networks())
    if draw(st.booleans()):
        try:
            net = normalize(net)
        except ValueError:  # a row total overflowed, or a weight underflowed to 0 against it
            pass
    return net


@settings(max_examples=60, deadline=None)
@given(networks(), st.randoms(use_true_random=False))
def test_save_load_round_trip_property(tmp_path_factory, net, rnd):
    out = tmp_path_factory.mktemp("rt")
    save_network(net, out / "net.tsv")
    reference_save(net, out / "reference.tsv")
    assert (out / "net.tsv").read_bytes() == (out / "reference.tsv").read_bytes()
    loaded = load_network(out / "net.tsv")
    assert loaded == net and loaded.dangling == net.dangling
    # split on "\n" alone: str.splitlines would also split ids at "\x85" or "\u2028"
    header, *body = [line + "\n" for line in (out / "net.tsv").read_text("utf-8").split("\n")[:-1]]
    rnd.shuffle(body)
    (out / "shuffled.tsv").write_text(header + "".join(body), encoding="utf-8")
    assert load_network(out / "shuffled.tsv") == net


@st.composite
def citing_repos(draw):
    """Records whose ``cite`` lists mix their own id, other records' ids,
    ids missing from the repository, and ids that are prefixes of others."""
    ids = draw(st.sets(IDS, min_size=1, max_size=10))
    ids |= {rid + "x" for rid in draw(st.sets(st.sampled_from(sorted(ids)), max_size=3))}
    ghosts = draw(st.sets(IDS, max_size=4)) | {rid[:-1] for rid in ids if len(rid) > 1}
    pool = sorted(ids | ghosts)
    records = []
    for rid in sorted(ids):
        cited = draw(st.sets(st.sampled_from(pool), max_size=6))
        if draw(st.booleans()):
            cited.add(rid)
        records.append(make_record(rid, {"cite": sorted(cited)} if cited else {}))
    return Repository(records)


@settings(max_examples=100, deadline=None)
@given(citing_repos())
def test_occurrence_equals_brute_force_property(repo):
    net = build_occurrence(repo, "cite")
    assert (edge_list(net), net.dangling) == brute_force_occurrence(repo, "cite")


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=25), st.integers())
def test_cooccurrence_equals_brute_force_property(n, seed):
    # records without a value are empty rows
    repo = random_repository(n_records=n, seed=seed, vocab_size=8)
    expected = brute_force_cooccurrence(repo, "key")
    for block_entries in BLOCK_SIZES:
        with blocks_of(block_entries):
            assert edge_dict(build_cooccurrence(repo, "key")) == expected


@BLOCK_ENTRIES
@settings(max_examples=60, deadline=None)
@given(raw_networks())
def test_pair_count_property(block_entries, net):
    with blocks_of(block_entries):
        assert net.pair_count == len({frozenset((s, d)) for s, d, _ in edge_list(net)})


@BLOCK_ENTRIES
@pytest.mark.parametrize(
    "faults, message",
    [
        ({"nan", "unsorted", "self-loop"}, "self-loop on ('d', 'd')"),
        ({"nan", "unsorted"}, "NaN weight on ('a', 'b')"),
        ({"unsorted", "duplicate"}, "unsorted row at ('c', 'a')"),
        ({"duplicate"}, "duplicate edge ('e', 'a')"),
    ],
)
def test_first_fault_of_the_highest_rank_is_reported(block_entries, faults, message):
    # the faults sit in different rows, so in different blocks when blocks are small
    rows = {
        "a": [(1, math.nan if "nan" in faults else 1.0)],
        "b": [(0, 1.0)],
        "c": [(1, 1.0), (0, 1.0)] if "unsorted" in faults else [(0, 1.0), (1, 1.0)],
        "d": [(3, 1.0)] if "self-loop" in faults else [(0, 1.0)],
        "e": [(0, 1.0), (0, 1.0)] if "duplicate" in faults else [(0, 1.0)],
    }
    indptr = np.cumsum([0] + [len(edges) for edges in rows.values()])
    edges = [edge for row in rows.values() for edge in row]
    with blocks_of(block_entries), pytest.raises(ValueError, match=re.escape(message)):
        AssociativeNetwork(
            Relation(COOCCURRENCE, "key"), list(rows), indptr,
            [j for j, _ in edges], [w for _, w in edges],
        )


def row_running_sums(indptr, weights):
    cum = np.empty_like(weights)
    for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        np.cumsum(weights[lo:hi], out=cum[lo:hi])
    return cum


def two_pass_normalize(net):
    """The normalize that the one-row-pass version replaced, kept as its
    oracle: each row's total from one pass of running sums, one division by
    the repeated totals, and ``cum`` from a second pass.  Gives the nonempty
    rows, their totals, the weights and ``cum``."""
    degree = np.diff(net.indptr)
    rows = np.flatnonzero(degree)
    with np.errstate(over="ignore"):
        totals = row_running_sums(net.indptr, net.weights)[net.indptr[rows + 1] - 1]
    weights = net.weights / np.repeat(totals, degree[rows])
    return rows, totals, weights, row_running_sums(net.indptr, weights)


ROUNDING = st.one_of(  # sums of these round, and some rows overflow or underflow
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0 / 3.0, 2.0 / 3.0, 1e-300, 1e300, 2.0**-1074]),
    WEIGHTS,
)


@settings(max_examples=200, deadline=None)
@given(raw_networks(ROUNDING))
def test_normalize_matches_two_pass_property(net):
    rows, totals, weights, cum = two_pass_normalize(net)
    overflow = rows[totals == np.inf]
    zero = np.flatnonzero(weights == 0.0)
    if overflow.size:
        message = f"out-weights of {net.ids[overflow[0]]!r} sum past the largest float"
    elif zero.size:
        src = np.searchsorted(net.indptr, zero[0], side="right") - 1
        message = f"non-positive weight on ({net.ids[src]!r}, {net.ids[net.indices[zero[0]]]!r})"
    else:
        normed = normalize(net)
        assert normed.weights.tobytes() == weights.tobytes()
        assert normed.cum.tobytes() == cum.tobytes()
        return
    with pytest.raises(ValueError, match=re.escape(message)):
        normalize(net)


def test_network_is_checked_once(monkeypatch):
    calls = []
    check = AssociativeNetwork._check
    monkeypatch.setattr(AssociativeNetwork, "_check", lambda net: calls.append(net) or check(net))
    raw = build_cooccurrence(random_repository(30, seed=1), "key")
    normed = normalize(raw)
    assert calls == [raw]
    assert normed.indices is raw.indices and not normed.weights.flags.writeable
    assert not normed.cum.flags.writeable
