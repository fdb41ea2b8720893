import hashlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from metaprop import cli, evalharness
from metaprop.evalharness import load_results
from metaprop.records import save_repository
from metaprop.synthetic import two_cluster_corpus

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script_main(name):
    return runpy.run_path(str(SCRIPTS / name))["main"]


def test_synthetic_experiment_runs(tmp_path, capsys):
    # 2 relations x 2 properties x 5 densities x 11 percentiles
    main = runpy.run_path(str(SCRIPTS / "run_synthetic_experiment.py"))["main"]
    output = tmp_path / "results.tsv"
    assert main(["--records", "60", "--runs", "1", "--output", str(output)]) == 0
    assert len(load_results(output)) == 220
    out, err = capsys.readouterr()
    assert f"60 records, 220 grid cells -> {output}" in out
    assert err == ""  # no cell errors


def test_synthetic_experiment_writes_what_the_cli_writes(tmp_path, capsys):
    demo, land = tmp_path / "demo.tsv", tmp_path / "land"
    argv = ["--records", "40", "--runs", "2", "--seed", "3", "--output", str(demo),
            "--landscape-dir", str(land)]
    assert _script_main("run_synthetic_experiment.py")(argv) == 0
    corpus, direct = tmp_path / "corpus.jsonl", tmp_path / "direct.tsv"
    save_repository(two_cluster_corpus(n_records=40, seed=3), corpus)
    assert cli.main(["experiment", str(corpus), "--relations", "cokey,coauth",
                     "--properties", "jour,auth", "--runs", "2", "--max-steps", "30",
                     "--seed", "3", "--output", str(direct)]) == 0
    assert demo.read_bytes() == direct.read_bytes()
    assert sorted(p.name for p in land.iterdir()) == [
        "coauth__auth.tsv", "coauth__jour.tsv", "cokey__auth.tsv", "cokey__jour.tsv"
    ]
    out = capsys.readouterr().out
    # the experiment's pair table, the banner, then the report's tables
    assert out.count("pair\tmax_fscore") == 3 and out.count("F-score landscape") == 4


def test_synthetic_experiment_output_in_a_missing_directory(tmp_path, capsys, monkeypatch):
    def grid(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(evalharness, "run_experiment", grid)
    output = tmp_path / "missing" / "results.tsv"
    assert _script_main("run_synthetic_experiment.py")(["--records", "40", "--output", str(output)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "No such file or directory" in err
    assert "Traceback" not in err


HEPTH_ABSTRACTS = {
    "1992/9201001.abs": """\\
Paper: hep-th/9201001
From: Alice Smith <alice@Phys.Uni.EDU>
Date: Wed, 1 Jan 1992 12:00:00 GMT   (10kb)

Title: Strings on a lattice
Authors: Alice Smith, Bob Jones (Uni) and Carol White
Comments: 10 pages
Journal-ref: Nucl.Phys. B380 (1992) 1-20
\\
  An abstract.
\\
""",
    "1993/9301002.abs": """\\
Paper: 9301002
From: bob@lab.org
Date: 1993

Title: Branes
Author: Bob Jones
\\
  Another abstract.
\\
""",
}

# what the converter wrote when it had its own JSON writer
HEPTH_RECORDS = (
    b'{"id": "9201001", "properties": {"auth": ["Alice Smith", "Bob Jones", "Carol White"], '
    b'"cite": ["9301002"], "date": ["1992-01"], "jour": ["Nucl.Phys. B"], '
    b'"org": ["phys.uni.edu"]}}\n'
    b'{"id": "9301002", "properties": {"auth": ["Bob Jones"], "cite": ["9201001"], '
    b'"date": ["1993"], "org": ["lab.org"]}}\n'
)


def test_convert_hepth(tmp_path, capsys):
    for name, text in HEPTH_ABSTRACTS.items():
        path = tmp_path / "abs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    citations = tmp_path / "citations"
    # the malformed line is skipped, and so is a citing paper with no abstract
    citations.write_text("9201001 9301002\n9301002 9201001\nnot a citation line\n9999999 9201001\n")
    output = tmp_path / "records.jsonl"
    argv = ["--abstracts", str(tmp_path / "abs"), "--citations", str(citations), "--output", str(output)]
    assert _script_main("convert_hepth.py")(argv) == 0
    assert capsys.readouterr().out == f"2 records, 2 citation links -> {output}\n"
    assert output.read_bytes() == HEPTH_RECORDS
    assert cli.main(["ingest", str(output), str(tmp_path / "repo.jsonl")]) == 0
    assert capsys.readouterr().out == "2 records, 5 property types\n"


# toy size: two processes per step
BENCH_ARGV = ["--records", "300", "--repeat", "2"]


def _bench_main():
    return runpy.run_path(str(SCRIPTS / "bench.py"))["main"]


def _report(layer, capsys, *options):
    # the script exits if any value but a wall time or a peak differs
    # between processes, so each digest it prints is one they agree on
    assert _bench_main()([layer, *BENCH_ARGV, *options]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    for key, value in report.items():
        if key.endswith(("wall_s", "ru_maxrss_mib")):
            assert len(value) == 2 and all(v > 0 for v in value), key
        elif key.endswith("sha256"):
            assert len(value) == 64 and int(value, 16) >= 0, key
    return report


def test_bench_ingest_runs(capsys):
    # one save process then one load process per repeat; the load process
    # writes what it loaded back out, and its digest must equal the save's
    report = _report("ingest", capsys)
    assert set(report) == {
        "corpus", "python", "save_wall_s", "save_ru_maxrss_mib", "load_wall_s",
        "load_ru_maxrss_mib", "file_sha256",
    }
    assert report["corpus"]["records"] == 300 and report["corpus"]["file_mib"] > 0


def test_bench_build_runs(capsys):
    # one build-network build then one walk_tables process per repeat; both
    # digest the walk's arrays, which must agree
    report = _report("build", capsys)
    assert set(report) == {
        "network", "python", "normalized_build_wall_s", "normalized_build_ru_maxrss_mib",
        "normalized_sha256", "walk_tables_wall_s", "walk_tables_ru_maxrss_mib", "walk_sha256",
    }
    network = report["network"]
    assert network["records"] == 300 and network["edges"] > 0


def test_bench_build_rejects_walk_tables_that_differ():
    main = _bench_main()
    child = main.__globals__["_child"]

    def child_building_other_arrays(child_argv, cwd):
        out = child(child_argv, cwd)
        if child_argv[-1] == "walk_tables":
            out["walk_sha256"] = "0" * 64
        return out

    main.__globals__["_child"] = child_building_other_arrays
    with pytest.raises(SystemExit, match="^walk_sha256 differs between processes"):
        main(["build", *BENCH_ARGV])


def test_bench_network_io_runs(capsys):
    # one save process then one load process per repeat
    report = _report("io", capsys)
    assert set(report) == {
        "network", "python", "save_wall_s", "pre_save_ru_maxrss_mib", "save_ru_maxrss_mib",
        "load_wall_s", "load_ru_maxrss_mib", "file_sha256", "arrays_sha256",
    }
    assert all(a <= b for a, b in zip(report["pre_save_ru_maxrss_mib"], report["save_ru_maxrss_mib"]))
    assert report["network"]["records"] == 300 and report["network"]["edges"] > 0
    assert report["network"]["normalized"] is True and report["network"]["file_mib"] >= 0


def test_bench_network_io_saves_what_build_network_writes(tmp_path, monkeypatch, capsys):
    # the save step, run in tmp_path, leaves its file there as network.tsv
    monkeypatch.chdir(tmp_path)
    assert _bench_main()(["io", "--records", "300", "--child", "save"]) == 0
    saved = json.loads(capsys.readouterr().out.splitlines()[-1])
    save_repository(two_cluster_corpus(300, seed=0), "repo.jsonl")
    assert cli.main(["build-network", "repo.jsonl", "--relation", "cokey",
                     "--output", "cli.tsv"]) == 0
    written = (tmp_path / "cli.tsv").read_bytes()
    assert (tmp_path / "network.tsv").read_bytes() == written
    assert saved["file_sha256"] == hashlib.sha256(written).hexdigest()


def test_bench_network_io_rejects_a_loaded_network_that_differs():
    main = _bench_main()
    child = main.__globals__["_child"]

    def child_loading_other_arrays(child_argv, cwd):
        out = child(child_argv, cwd)
        if child_argv[-1] == "load":
            out["arrays_sha256"] = "0" * 64
        return out

    main.__globals__["_child"] = child_loading_other_arrays
    with pytest.raises(SystemExit, match="^arrays_sha256 differs between processes"):
        main(["io", *BENCH_ARGV])


def test_bench_grid_runs(capsys):
    # two workers, so each process reaps workers whose peak it reports
    report = _report("grid", capsys, "--workers", "2")
    assert set(report) == {
        "grid", "python", "wall_s", "ru_maxrss_mib", "children_ru_maxrss_mib",
        "results_sha256", "errors",
    }
    assert report["grid"]["records"] == 300 and report["grid"]["jobs"] == 10
    assert report["grid"]["workers"] == 2 and report["errors"] == 0
    assert _bench_main()(["grid", "--records", "300", "--repeat", "1"]) == 0
    serial = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert serial["grid"]["workers"] == 1 and serial["children_ru_maxrss_mib"] == [0.0]
    assert serial["results_sha256"] == report["results_sha256"]


def test_coverage_counts_the_lines_a_run_executes():
    root = SCRIPTS.parent
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "coverage.py"), "--", "-q", "-p", "no:cacheprovider",
         "tests/test_records.py::TestIngest"],
        cwd=root, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    report = json.loads(out.splitlines()[-1])
    assert report["pytest_status"] == 0
    files = report["files"]
    assert set(files) == {f"src/metaprop/{p.name}" for p in (root / "src" / "metaprop").glob("*.py")}
    for counts in files.values():
        assert set(counts["executed"]) <= set(counts["executable"])
    records = files["src/metaprop/records.py"]
    source = (root / "src" / "metaprop" / "records.py").read_text().splitlines()

    def line_of(text):
        (line,) = [k for k, code in enumerate(source, start=1) if code.strip() == text]
        return line

    assert line_of("obj, end = _scan_json(stripped, 0)") in records["executed"]
    assert line_of("return ingest(fh)") in set(records["executable"]) - set(records["executed"])
    assert 0 < records["percent"] < 100
    # TestIngest never imports netbuild
    assert files["src/metaprop/netbuild.py"]["executed"] == []
    assert files["src/metaprop/netbuild.py"]["executable"]
