import json
import runpy
from pathlib import Path

import pytest

from metaprop.evalharness import load_results

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_synthetic_experiment_runs(tmp_path, capsys):
    # 2 relations x 2 properties x 5 densities x 11 percentiles
    main = runpy.run_path(str(SCRIPTS / "run_synthetic_experiment.py"))["main"]
    output = tmp_path / "results.tsv"
    assert main(["--records", "60", "--runs", "1", "--output", str(output)]) == 0
    assert len(load_results(output)) == 220
    out, err = capsys.readouterr()
    assert f"60 records, 220 grid cells -> {output}" in out
    assert err == ""  # no cell errors


# toy size: two processes per step
BENCH_ARGV = ["--records", "300", "--repeat", "2"]


def _bench_main():
    return runpy.run_path(str(SCRIPTS / "bench.py"))["main"]


def _report(layer, capsys):
    # the script exits if any value but a wall time or a peak differs
    # between processes, so each digest it prints is one they agree on
    assert _bench_main()([layer, *BENCH_ARGV]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    for key, value in report.items():
        if key.endswith(("wall_s", "ru_maxrss_mib")):
            assert len(value) == 2 and all(v > 0 for v in value), key
        elif key.endswith("sha256"):
            assert len(value) == 64 and int(value, 16) >= 0, key
    return report


def test_bench_build_runs(capsys):
    report = _report("build", capsys)
    assert set(report) == {
        "network", "python", "build_wall_s", "normalize_wall_s", "pairs_wall_s",
        "start_ru_maxrss_mib", "build_ru_maxrss_mib", "normalize_ru_maxrss_mib",
        "pairs_ru_maxrss_mib", "arrays_sha256",
    }
    network = report["network"]
    assert network["records"] == 300 and network["edges"] > 0
    # a co-occurrence network joins each pair both ways
    assert network["pairs"] * 2 == network["edges"]
    peaks = zip(*(report[f"{k}_ru_maxrss_mib"] for k in ("start", "build", "normalize", "pairs")))
    for start, build, normalized, pairs in peaks:
        assert start <= build <= normalized <= pairs


def test_bench_network_io_runs(capsys):
    # one save process then one load process per repeat
    report = _report("io", capsys)
    assert set(report) == {
        "network", "python", "save_wall_s", "save_ru_maxrss_mib", "load_wall_s",
        "load_ru_maxrss_mib", "file_sha256", "arrays_sha256",
    }
    assert report["network"]["records"] == 300 and report["network"]["edges"] > 0
    assert report["network"]["normalized"] is True and report["network"]["file_mib"] >= 0


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
    report = _report("grid", capsys)
    assert set(report) == {"grid", "python", "wall_s", "ru_maxrss_mib", "results_sha256", "errors"}
    assert report["grid"]["records"] == 300 and report["grid"]["jobs"] == 10
    assert report["errors"] == 0
