import json
import os

import pytest

from metaprop import evalharness, netbuild, records, swarm
from metaprop.cli import _float_list, _propagation, build_parser, main

from corpora import random_repository


@pytest.fixture
def record_file(tmp_path):
    path = tmp_path / "records.jsonl"
    lines = [
        {"id": "A", "properties": {"cite": ["B"], "key": ["x"]}},
        {"id": "B", "properties": {"cite": ["C"]}},
        {"id": "C", "properties": {}},
    ]
    path.write_text("\n".join(json.dumps(o) for o in lines) + "\n")
    return path


@pytest.fixture
def table1_file(tmp_path):
    path = tmp_path / "table1.jsonl"
    lines = [
        {"id": "ni", "properties": {"key": ["repository", "metadata", "particle"]}},
        {"id": "nj", "properties": {"key": ["images", "repository", "metadata"]}},
    ]
    path.write_text("\n".join(json.dumps(o) for o in lines) + "\n")
    return path


@pytest.fixture
def repo_file(record_file, tmp_path):
    out = tmp_path / "repo.jsonl"
    assert main(["ingest", str(record_file), str(out)]) == 0
    return out


class TestIngest:
    def test_valid_file(self, record_file, tmp_path, capsys):
        rc = main(["ingest", str(record_file), str(tmp_path / "repo.jsonl")])
        assert rc == 0
        assert "3 records" in capsys.readouterr().out

    def test_malformed_line_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "m1"}\n{broken\n')
        rc = main(["ingest", str(path), str(tmp_path / "repo.jsonl")])
        assert rc != 0
        assert "line 2" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["ingest", str(path), str(tmp_path / "repo.jsonl")]) == 0
        assert "0 records" in capsys.readouterr().out

    def test_non_string_value_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "properties": {"k": [["x"]]}}\n')
        rc = main(["ingest", str(path), str(tmp_path / "repo.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: line 1: value of 'k' must be a non-empty string, got ['x']\n"
        )


class TestBuildNetwork:
    def test_citation_counts(self, repo_file, tmp_path, capsys):
        rc = main(["build-network", str(repo_file), "--relation", "cite",
                   "--output", str(tmp_path / "net.tsv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "directed_edges=2" in out
        assert "nodes=3" in out

    def test_cokey_table1(self, table1_file, tmp_path, capsys):
        repo = tmp_path / "repo.jsonl"
        assert main(["ingest", str(table1_file), str(repo)]) == 0
        rc = main(["build-network", str(repo), "--relation", "cokey", "--no-normalize",
                   "--output", str(tmp_path / "net.tsv")])
        assert rc == 0
        assert "directed_edges=2" in capsys.readouterr().out
        body = (tmp_path / "net.tsv").read_text()
        assert float.fromhex("0x1.0000000000000p-1") == 0.5
        assert "0x1.0000000000000p-1" in body

    def test_summary_line(self, tmp_path, capsys):
        # a <-> b is one pair, b -> c another; "ghost" names no resource
        records = tmp_path / "records.jsonl"
        lines = [
            {"id": "a", "properties": {"cite": ["b"]}},
            {"id": "b", "properties": {"cite": ["a", "c"]}},
            {"id": "c", "properties": {"cite": ["ghost"]}},
            {"id": "d", "properties": {}},
        ]
        records.write_text("".join(json.dumps(o) + "\n" for o in lines))
        repo = tmp_path / "repo.jsonl"
        assert main(["ingest", str(records), str(repo)]) == 0
        capsys.readouterr()
        assert main(["build-network", str(repo), "--relation", "cite",
                     "--output", str(tmp_path / "net.tsv")]) == 0
        assert capsys.readouterr().out == (
            "relation=cite nodes=4 directed_edges=3 unordered_pairs=2 dangling=1 normalized=1\n"
        )

    def test_cooccurrence_pairs_are_half_the_edges(self, tmp_path, capsys):
        assert main(["build-network", str(_corpus_file(tmp_path)), "--relation", "cokey",
                     "--output", str(tmp_path / "net.tsv")]) == 0
        fields = dict(f.split("=") for f in capsys.readouterr().out.split())
        assert int(fields["directed_edges"]) > 0
        assert int(fields["unordered_pairs"]) * 2 == int(fields["directed_edges"])

    def test_unknown_relation_lists_valid_labels(self, repo_file, tmp_path, capsys):
        rc = main(["build-network", str(repo_file), "--relation", "nosuch",
                   "--output", str(tmp_path / "net.tsv")])
        assert rc != 0
        err = capsys.readouterr().err
        assert "cite" in err and "cokey" in err

    def test_valid_labels_read_back(self, tmp_path, capsys):
        # an occurrence relation over "coref" is "occ:coref"; "coref" is co-occurrence over "ref"
        records = tmp_path / "records.jsonl"
        lines = [
            {"id": "a", "properties": {"coref": ["b"]}},
            {"id": "b", "properties": {"coref": ["a"], "ref": ["x"]}},
        ]
        records.write_text("".join(json.dumps(o) + "\n" for o in lines))
        repo = tmp_path / "repo.jsonl"
        assert main(["ingest", str(records), str(repo)]) == 0
        capsys.readouterr()
        assert main(["build-network", str(repo), "--relation", "nosuch",
                     "--output", str(tmp_path / "net.tsv")]) == 1
        err = capsys.readouterr().err
        assert "valid labels: occ:coref, cocoref, coref\n" in err
        net = tmp_path / "net.tsv"
        assert main(["build-network", str(repo), "--relation", "occ:coref",
                     "--output", str(net)]) == 0
        assert "relation=occ:coref " in capsys.readouterr().out
        assert net.read_text().startswith("occ:coref\t")

    def test_occurrence_relation_without_edges_is_an_error(self, repo_file, tmp_path, capsys):
        # "x" names no resource; this used to write an edgeless network with dangling=1
        net = tmp_path / "net.tsv"
        rc = main(["build-network", str(repo_file), "--relation", "key", "--output", str(net)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: occurrence relation 'key' produced no edges: "
            "no value of 'key' is the id of another resource\n"
        )
        assert not net.exists()

    @pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "raw"])
    @pytest.mark.parametrize("label", ["cite", "cokey"])
    def test_writes_the_network_netbuild_builds(self, tmp_path, label, normalized):
        repo = random_repository(40, vocab_size=10, cite_rate=0.1, seed=0)
        repo_file, net, expected = (tmp_path / name for name in ("repo.jsonl", "net.tsv", "x.tsv"))
        records.save_repository(repo, repo_file)
        raw = [] if normalized else ["--no-normalize"]
        argv = ["build-network", str(repo_file), "--relation", label, "--output", str(net)]
        assert main(argv + raw) == 0
        netbuild.save_network(netbuild.build(repo, label, normalized), expected)
        assert net.read_bytes() == expected.read_bytes()


class TestPropagate:
    def _build(self, repo_file, tmp_path):
        net = tmp_path / "net.tsv"
        assert main(["build-network", str(repo_file), "--relation", "cite",
                     "--output", str(net)]) == 0
        return net

    def test_chain_dump(self, repo_file, tmp_path, capsys):
        net = self._build(repo_file, tmp_path)
        store = tmp_path / "store.tsv"
        rc = main(["propagate", str(net), str(repo_file), "--seed", "5",
                   "--output", str(store)])
        assert rc == 0
        assert "C\tkey\tx\t0.7225" in store.read_text()
        assert "ticks=" in capsys.readouterr().out

    def test_full_decay_zeroes(self, repo_file, tmp_path):
        net = self._build(repo_file, tmp_path)
        store = tmp_path / "store.tsv"
        assert main(["propagate", str(net), str(repo_file), "--seed", "5",
                     "--delta", "1.0", "--output", str(store)]) == 0
        energies = {line.split("\t")[3] for line in store.read_text().splitlines()}
        assert energies == {"0"}

    def test_same_seed_byte_identical(self, repo_file, tmp_path):
        net = self._build(repo_file, tmp_path)
        dumps = []
        for name in ("s1.tsv", "s2.tsv"):
            path = tmp_path / name
            assert main(["propagate", str(net), str(repo_file), "--seed", "11",
                         "--output", str(path)]) == 0
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1]

    def test_raw_network_is_normalized_on_load(self, repo_file, tmp_path):
        # it used to need a --normalize flag; the file's header says whether it is
        raw = tmp_path / "raw.tsv"
        assert main(["build-network", str(repo_file), "--relation", "cite",
                     "--no-normalize", "--output", str(raw)]) == 0
        stores = []
        for net in (raw, self._build(repo_file, tmp_path)):
            store = tmp_path / f"{net.stem}-store.tsv"
            assert main(["propagate", str(net), str(repo_file), "--seed", "1",
                         "--output", str(store)]) == 0
            stores.append(store.read_bytes())
        assert stores[0] == stores[1]

    def test_non_utf8_network_is_an_error(self, repo_file, tmp_path, capsys):
        net = self._build(repo_file, tmp_path)
        header, first, rest = net.read_bytes().split(b"\n", 2)
        net.write_bytes(header + b"\n" + first.replace(b"A", b"A\xff", 1) + b"\n" + rest)
        rc = main(["propagate", str(net), str(repo_file), "--output", str(tmp_path / "s.tsv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {net}:2: not valid UTF-8")

    def test_infinite_weight_is_an_error(self, repo_file, tmp_path, capsys):
        net = tmp_path / "raw.tsv"
        assert main(["build-network", str(repo_file), "--relation", "cite",
                     "--no-normalize", "--output", str(net)]) == 0
        header, first, rest = net.read_text().split("\n", 2)
        net.write_text(header + "\n" + first.rsplit("\t", 1)[0] + "\tinf\n" + rest)
        rc = main(["propagate", str(net), str(repo_file),
                   "--output", str(tmp_path / "s.tsv")])
        assert rc == 1
        assert "infinite weight on ('A', 'B')" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--delta", "2", "delta must be in [0, 1], got 2.0"),
            ("--max-steps", "0", "max_steps must be >= 1, got 0"),
            ("--energy-floor", "-1e-3", "energy_floor must be >= 0, got -0.001"),
            ("--energy-floor", "nan", "energy_floor must be >= 0, got nan"),
        ],
        ids=["delta", "max-steps", "energy-floor", "energy-floor-nan"],
    )
    def test_bad_walk_setting_is_an_error(self, repo_file, tmp_path, capsys, option, value, message):
        net = self._build(repo_file, tmp_path)
        store = tmp_path / "store.tsv"
        rc = main(["propagate", str(net), str(repo_file), "--seed", "1", f"{option}={value}",
                   "--output", str(store)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not store.exists()

    def test_node_missing_from_repository_is_an_error(self, repo_file, tmp_path, capsys):
        net = self._build(repo_file, tmp_path)  # nodes A, B and C
        partial = tmp_path / "partial.jsonl"
        partial.write_text(json.dumps({"id": "A", "properties": {"key": ["x"]}}) + "\n")
        store = tmp_path / "store.tsv"
        rc = main(["propagate", str(net), str(partial), "--seed", "1", "--output", str(store)])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown resource id: 'B'\n"
        assert not store.exists()

    def test_overflowing_row_is_an_error(self, repo_file, tmp_path, capsys):
        # normalizing on load used to end in a traceback
        net = tmp_path / "raw.tsv"
        largest = float.hex(1.7976931348623157e308)
        net.write_text(f"cite\t3\t2\t0\t0\nA\tB\t{largest}\nA\tC\t{largest}\n")
        store = tmp_path / "s.tsv"
        assert_one_error(
            capsys,
            ["propagate", str(net), str(repo_file), "--seed", "1", "--output", str(store)],
            "out-weights of 'A' sum past the largest float",
        )
        assert not store.exists()

    def test_generated_seed_is_printed(self, repo_file, tmp_path, capsys):
        net = self._build(repo_file, tmp_path)
        assert main(["propagate", str(net), str(repo_file),
                     "--output", str(tmp_path / "s.tsv")]) == 0
        assert "seed=" in capsys.readouterr().out


def _corpus_file(tmp_path, n=40, seed=0):
    from metaprop.records import save_repository
    from metaprop.synthetic import two_cluster_corpus

    path = tmp_path / "corpus.jsonl"
    save_repository(two_cluster_corpus(n_records=n, seed=seed), path)
    return path


_DEFAULTS_ARGV = {
    "propagate": ["propagate", "net.tsv", "repo.jsonl", "--output", "store.tsv"],
    "experiment": ["experiment", "repo.jsonl", "--relations", "cokey",
                   "--properties", "jour", "--output", "results.tsv"],
}


@pytest.mark.parametrize("command", sorted(_DEFAULTS_ARGV))
def test_walk_defaults_are_the_library_defaults(command):
    args = build_parser().parse_args(_DEFAULTS_ARGV[command])
    assert args.seed is None
    assert _propagation(args) == swarm.PropagationConfig()


class TestExperiment:
    def test_default_grid_row_count(self, tmp_path, capsys):
        corpus = _corpus_file(tmp_path)
        results = tmp_path / "results.tsv"
        rc = main(["experiment", str(corpus), "--relations", "cokey",
                   "--properties", "jour", "--runs", "1", "--seed", "3",
                   "--output", str(results)])
        assert rc == 0
        assert len(results.read_text().splitlines()) == 1 + 55  # header + 5x11 grid
        assert "cokey/jour" in capsys.readouterr().out

    def test_repeat_identical(self, tmp_path):
        corpus = _corpus_file(tmp_path)
        blobs = []
        for name in ("r1.tsv", "r2.tsv"):
            path = tmp_path / name
            assert main(["experiment", str(corpus), "--relations", "cokey",
                         "--properties", "jour", "--runs", "1", "--seed", "7",
                         "--densities", "0.41", "--output", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_small_grid_arithmetic(self, tmp_path):
        corpus = _corpus_file(tmp_path)
        results = tmp_path / "results.tsv"
        assert main(["experiment", str(corpus), "--relations", "cokey",
                     "--properties", "jour", "--runs", "1", "--seed", "3",
                     "--densities", "0.5", "--percentiles", "0,1",
                     "--output", str(results)]) == 0
        assert len(results.read_text().splitlines()) == 1 + 2

    def test_unknown_property_is_an_error(self, tmp_path, capsys):
        # it used to exit 0 with 55 rows that scored 0 over 0 nodes
        corpus = _corpus_file(tmp_path)
        results = tmp_path / "results.tsv"
        rc = main(["experiment", str(corpus), "--relations", "cokey",
                   "--properties", "nosuch", "--runs", "1", "--seed", "3",
                   "--output", str(results)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: no property 'nosuch' in repository; its property types: auth, jour, key\n"
        )
        assert not results.exists()

    def test_empty_densities_is_an_error(self, tmp_path, capsys):
        # it used to run no job and end with "all cells failed"
        corpus = _corpus_file(tmp_path)
        results = tmp_path / "results.tsv"
        rc = main(["experiment", str(corpus), "--relations", "cokey",
                   "--properties", "jour", "--densities", "", "--seed", "3",
                   "--output", str(results)])
        assert rc == 1
        assert capsys.readouterr().err == "error: densities must not be empty\n"
        assert not results.exists()

    def test_bad_percentile_list_is_one_error_line(self, tmp_path, capsys):
        # the lists are parsed by the command, not by argparse, whose exit is 2
        corpus = _corpus_file(tmp_path)
        results = tmp_path / "results.tsv"
        rc = main(["experiment", str(corpus), "--relations", "cokey",
                   "--properties", "jour", "--percentiles", "0,x", "--seed", "3",
                   "--output", str(results)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: could not convert string to float: 'x'\n"
        assert not results.exists()

    def test_workers_below_one_is_an_error(self, tmp_path, capsys, monkeypatch):
        # it used to run the grid serially and exit 0
        built = []
        monkeypatch.setattr(evalharness, "walk_tables", lambda *a: built.append(a))
        results = tmp_path / "results.tsv"
        assert_one_error(
            capsys,
            ["experiment", str(_corpus_file(tmp_path)), "--relations", "cokey",
             "--properties", "jour", "--workers", "-3", "--seed", "3", "--output", str(results)],
            "workers must be >= 1, got -3",
        )
        assert not built and not results.exists()

    def test_failed_cells_are_reported(self, tmp_path, capsys):
        results = tmp_path / "results.tsv"
        rc = main(["experiment", str(_corpus_file(tmp_path)), "--relations", "cokey,nosuch",
                   "--properties", "jour", "--densities", "0.41,0.61", "--percentiles", "0",
                   "--runs", "1", "--seed", "3", "--output", str(results)])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == ["cell error"] * 2 + ["2 cell failures recorded"]
        assert err[0].startswith(
            "cell error: nosuch/jour density=0.41 run=-1: network build failed: no property 'nosuch'"
        )
        assert err[1].startswith("cell error: nosuch/jour density=0.61 run=-1: ")
        assert len(results.read_text().splitlines()) == 1 + 2  # the cokey rows

    def test_all_cells_failed_is_an_error(self, tmp_path, capsys):
        results = tmp_path / "results.tsv"
        results.write_bytes(b"an earlier run's results\n")
        rc = main(["experiment", str(_corpus_file(tmp_path)), "--relations", "nosuch",
                   "--properties", "jour", "--densities", "0.41", "--runs", "1", "--seed", "3",
                   "--output", str(results)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err[1:] == ["1 cell failures recorded", "error: all cells failed"]
        # the earlier file is not truncated
        assert results.read_bytes() == b"an earlier run's results\n"
        # a file holding the header alone has no rows; report rejects it
        header_only = tmp_path / "header_only.tsv"
        header_only.write_text(evalharness.RESULTS_HEADER + "\n")
        assert main(["report", str(header_only)]) == 1
        assert capsys.readouterr() == ("", f"error: {header_only}: results file contains no rows\n")

    def test_occurrence_relation_without_edges_fails_its_cells(self, tmp_path, capsys):
        # no journal name is a record id, so "jour" makes no edge; the grid
        # used to walk the edgeless network and write rows of F = 0.0
        results = tmp_path / "results.tsv"
        results.write_bytes(b"an earlier run's results\n")
        rc = main(["experiment", str(_corpus_file(tmp_path)), "--relations", "jour",
                   "--properties", "jour", "--densities", "0.41,0.61", "--runs", "1",
                   "--seed", "3", "--output", str(results)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        reason = (
            "network build failed: occurrence relation 'jour' produced no edges: "
            "no value of 'jour' is the id of another resource"
        )
        assert err == [
            f"cell error: jour/jour density=0.41 run=-1: {reason}",
            f"cell error: jour/jour density=0.61 run=-1: {reason}",
            "2 cell failures recorded",
            "error: all cells failed",
        ]
        assert results.read_bytes() == b"an earlier run's results\n"

    def test_grid_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(_DEFAULTS_ARGV["experiment"])
        assert _float_list(args.densities) == evalharness.DEFAULT_DENSITIES
        assert _float_list(args.percentiles) == evalharness.DEFAULT_PERCENTILES
        assert args.runs == evalharness.ExperimentConfig.runs

    def test_landscapes_written(self, tmp_path):
        corpus = _corpus_file(tmp_path)
        land = tmp_path / "land"
        assert main(["experiment", str(corpus), "--relations", "cokey",
                     "--properties", "jour", "--runs", "1", "--seed", "3",
                     "--densities", "0.41", "--output", str(tmp_path / "r.tsv"),
                     "--landscape-dir", str(land)]) == 0
        assert (land / "cokey__jour.tsv").exists()

    def test_landscape_names_escape_a_slash_and_a_percent(self, tmp_path, capsys):
        # a property type may hold "/", which used to fail the landscape
        # write after the grid had run; "%" is escaped too, so "dc/subject"
        # and "dc%2Fsubject" name two files
        corpus = tmp_path / "dc.jsonl"
        lines = [
            {"id": f"r{i:02d}", "properties": {
                "dc/subject": [f"s{i % 3}"], "dc%2Fsubject": [f"t{i % 4}"], "jour": [f"j{i % 2}"]}}
            for i in range(12)
        ]
        corpus.write_text("".join(json.dumps(o) + "\n" for o in lines))
        results, land = tmp_path / "r.tsv", tmp_path / "land"
        assert main(["experiment", str(corpus), "--relations", "co:dc/subject,co:dc%2Fsubject",
                     "--properties", "jour", "--runs", "1", "--seed", "3", "--densities", "0.41",
                     "--output", str(results), "--landscape-dir", str(land)]) == 0
        out = capsys.readouterr().out
        assert "co:dc/subject/jour\t" in out and "co:dc%2Fsubject/jour\t" in out
        rows = evalharness.load_results(results)
        assert {p.name: p.read_text() for p in land.iterdir()} == {
            "co:dc%2Fsubject__jour.tsv": evalharness.landscape_text(rows, "co:dc/subject", "jour"),
            "co:dc%252Fsubject__jour.tsv": evalharness.landscape_text(rows, "co:dc%2Fsubject", "jour"),
        }


def assert_one_error(capsys, argv, reason):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err


@pytest.mark.parametrize("command", ["ingest", "build-network", "propagate", "experiment"])
def test_unwritable_output_is_an_error(command, record_file, repo_file, tmp_path, capsys):
    missing = str(tmp_path / "missing" / "out")
    net = tmp_path / "net.tsv"
    assert main(["build-network", str(repo_file), "--relation", "cite", "--output", str(net)]) == 0
    argv = {
        "ingest": ["ingest", str(record_file), missing],
        "build-network": ["build-network", str(repo_file), "--relation", "cite", "--output", missing],
        "propagate": ["propagate", str(net), str(repo_file), "--seed", "1", "--output", missing],
        "experiment": ["experiment", str(_corpus_file(tmp_path)), "--relations", "cokey",
                       "--properties", "jour", "--runs", "1", "--seed", "3", "--densities", "0.41",
                       "--percentiles", "0", "--output", missing],
    }[command]
    assert_one_error(capsys, argv, "No such file or directory")


@pytest.mark.parametrize("output, reason", [
    ("missing/r.tsv", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unusable_output_fails_before_the_grid(tmp_path, capsys, monkeypatch, output, reason):
    def grid(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(evalharness, "run_experiment", grid)
    assert_one_error(
        capsys,
        ["experiment", str(_corpus_file(tmp_path)), "--relations", "cokey", "--properties", "jour",
         "--runs", "1", "--seed", "3", "--output", str(tmp_path / output)],
        reason,
    )


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes through any permission bits")
def test_unwritable_output_directory_fails_before_the_grid(tmp_path, capsys, monkeypatch):
    # it used to be reported only after the whole grid had run
    def grid(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(evalharness, "run_experiment", grid)
    corpus = _corpus_file(tmp_path)
    locked = tmp_path / "locked"
    locked.mkdir(mode=0o500)
    try:
        assert_one_error(
            capsys,
            ["experiment", str(corpus), "--relations", "cokey", "--properties", "jour",
             "--runs", "1", "--seed", "3", "--output", str(locked / "r.tsv")],
            "Permission denied",
        )
    finally:
        locked.chmod(0o700)


def test_landscape_dir_naming_a_file_fails_before_the_grid(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    results = tmp_path / "r.tsv"
    assert_one_error(
        capsys,
        ["experiment", str(_corpus_file(tmp_path)), "--relations", "cokey", "--properties", "jour",
         "--runs", "1", "--seed", "3", "--output", str(results), "--landscape-dir", str(taken)],
        "File exists",
    )
    assert not results.exists()


class TestReport:
    def _results(self, tmp_path):
        corpus = _corpus_file(tmp_path)
        results = tmp_path / "results.tsv"
        assert main(["experiment", str(corpus), "--relations", "cokey",
                     "--properties", "jour,auth", "--runs", "1", "--seed", "3",
                     "--densities", "0.41,0.61", "--percentiles", "0,0.5,1",
                     "--output", str(results)]) == 0
        return results

    def test_report_on_experiment_output(self, tmp_path, capsys):
        results = self._results(tmp_path)
        capsys.readouterr()
        assert main(["report", str(results)]) == 0
        out = capsys.readouterr().out
        assert "cokey/jour" in out and "cokey/auth" in out
        assert out.count("F-score landscape") == 2

    def test_empty_results_file(self, tmp_path, capsys):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        assert main(["report", str(path)]) != 0

    def test_missing_cell_is_an_error(self, tmp_path, capsys):
        # it used to end in a KeyError traceback
        results = self._results(tmp_path)
        lines = results.read_text().splitlines(keepends=True)
        dropped = [line for line in lines if line.startswith("cokey\tjour\t0.61\t0.5\t")]
        assert len(dropped) == 1
        lines.remove(dropped[0])
        results.write_text("".join(lines))
        assert_one_error(
            capsys, ["report", str(results)],
            "no row for cokey/jour at density 0.61, percentile 0.5",
        )

    def test_missing_cell_prints_no_table(self, tmp_path, capsys):
        # cokey/auth's landscape comes first and is whole; it used to be
        # printed, with the pair table, before the error
        results = self._results(tmp_path)
        lines = results.read_text().splitlines(keepends=True)
        results.write_text("".join(l for l in lines if not l.startswith("cokey\tjour\t0.61\t0.5\t")))
        capsys.readouterr()
        assert main(["report", str(results)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: no row for cokey/jour")

    def test_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.tsv")]) != 0

    def _assert_rejected(self, capsys, results, message):
        capsys.readouterr()
        assert main(["report", str(results)]) == 1
        assert capsys.readouterr() == ("", f"error: {results}:{message}\n")

    def test_second_row_for_a_cell_is_an_error(self, tmp_path, capsys):
        # a copy with F 0.0 used to exit 0, pull the mean F down and take the
        # cell's place in the landscape
        results = self._results(tmp_path)
        lines = results.read_text().splitlines(keepends=True)
        fields = next(l for l in lines if l.startswith("cokey\tjour\t0.41\t0.0\t")).split("\t")
        fields[6] = "0.0"
        results.write_text("".join(lines) + "\t".join(fields))
        self._assert_rejected(
            capsys, results,
            f"{len(lines) + 1}: a second row for cokey/jour at density 0.41, percentile 0.0",
        )

    @pytest.mark.parametrize("column, bad", [(4, "1.5"), (5, "-0.25"), (6, "nan"), (10, "2")])
    def test_score_outside_the_unit_interval_is_an_error(self, tmp_path, capsys, column, bad):
        results = self._results(tmp_path)
        header, first, rest = results.read_text().split("\n", 2)
        fields = first.split("\t")
        fields[column] = bad
        results.write_text("\n".join([header, "\t".join(fields), rest]))
        name = header.split("\t")[column]
        self._assert_rejected(capsys, results, f"2: {name} must be in [0, 1], got {bad!r}")

    @pytest.mark.parametrize(
        "column, bad, reason",
        [(2, "5.0", "in (0, 1)"), (3, "7.0", "in [0, 1]"), (7, "0", ">= 1"), (8, "-3", ">= 0")],
        ids=["density", "percentile", "runs", "nodes_scored"],
    )
    def test_grid_field_outside_its_range_is_an_error(self, tmp_path, capsys, column, bad, reason):
        # such a row used to load, and its density or percentile to become one
        # more landscape row or column
        results = self._results(tmp_path)
        header, first, rest = results.read_text().split("\n", 2)
        fields = first.split("\t")
        fields[column] = bad
        results.write_text("\n".join([header, "\t".join(fields), rest]))
        name = header.split("\t")[column]
        self._assert_rejected(capsys, results, f"2: {name} must be {reason}, got {bad!r}")


def test_program_bug_keeps_its_traceback(record_file, tmp_path, monkeypatch):
    # only data errors become "error:" lines; a bug must not be hidden as one
    def ingest(fh):
        raise TypeError("a bug")

    monkeypatch.setattr(records, "ingest", ingest)
    with pytest.raises(TypeError, match="a bug"):
        main(["ingest", str(record_file), str(tmp_path / "repo.jsonl")])
