import json
import runpy
from pathlib import Path

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


def test_bench_network_io_runs(capsys):
    # toy size: one save process and one load process
    main = runpy.run_path(str(SCRIPTS / "bench_network_io.py"))["main"]
    assert main(["--records", "300", "--repeat", "1"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["network"]["records"] == 300 and report["network"]["edges"] > 0
    assert len(report["save_wall_s"]) == len(report["load_wall_s"]) == 1
    assert len(report["file_sha256"]) == len(report["arrays_sha256"]) == 64


def test_bench_build_runs(capsys):
    # toy size: one process
    main = runpy.run_path(str(SCRIPTS / "bench_build.py"))["main"]
    assert main(["--records", "300", "--repeat", "1"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["network"]["records"] == 300 and report["network"]["edges"] > 0
    assert len(report["build_wall_s"]) == len(report["normalize_wall_s"]) == 1
    start, build, after = (report[f"{k}_ru_maxrss_mib"][0] for k in ("start", "build", "normalize"))
    assert 0 < start <= build <= after
    assert len(report["arrays_sha256"]) == 64
