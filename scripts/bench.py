#!/usr/bin/env python3
"""Time one layer of the pipeline on the co-keyword network of the two-cluster corpus.

    PYTHONPATH=src python scripts/bench.py {ingest,build,io,grid} [--records 5000] [--repeat 3]
                                           [--workers 1]

Every layer runs on ``two_cluster_corpus(N, seed=0)`` (made untimed) with the
``cokey`` relation, and each repeat runs each of its steps in a fresh process
that reads its own peak RSS (``ru_maxrss``).  ``ingest`` times
``save_repository`` of the corpus in one process and ``load_repository`` of
that record file in another, which writes what it loaded back out, untimed,
so that both processes report the digest of the same bytes.  ``build`` times
the two builds the product runs, each with the peak after it:
``build_cooccurrence(..., normalized=True)``, as ``build-network`` builds, in
one process, and ``walk_tables``, as ``run_experiment`` builds, in another.
Both digest the walk's arrays (ids, ``indptr``, ``indices``, ``cum``), which
must agree; the build's ``cum`` is summed by ``netbuild._walk_tables`` after
its peak is read, as a network holds none.  ``io`` times ``save_network`` of
the network ``build-network`` writes in one process, which reads its peak
just before the save as well as after it, and ``load_network`` of that file
in another.  ``grid``
times ``run_experiment`` (network build included) over the default densities
and percentiles, ``jour`` as the target, 2 runs each, on ``--workers`` worker
processes (one by default), and reads the largest reaped worker's peak as
well as its own.  Prints one JSON object with the keys of the layer's
``BENCH_*.json`` record: every process's wall times and peaks, and each
other value once.  Those values
(digests, edge and error counts) must agree between processes, and a loaded
network's digest must equal the saved one's; the script exits with an error
when they do not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# each child runs in the run's temporary directory, so these names are its files
NETWORK, RESULTS = "network.tsv", "results.tsv"
RECORDS, RESAVED = "records.jsonl", "resaved.jsonl"


def _peak_mib(who=resource.RUSAGE_SELF) -> float:
    return round(resource.getrusage(who).ru_maxrss / 1024.0, 1)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, round(time.perf_counter() - t0, 4)


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _network_sha256(header: str, ids, *arrays) -> str:
    h = hashlib.sha256(header.encode("utf-8"))
    h.update("\n".join(ids).encode("utf-8"))
    for column in arrays:
        h.update(memoryview(column))
    return h.hexdigest()


def _saved_sha256(net) -> str:
    # what a network file holds, so a saved and a loaded network compare equal
    header = f"{net.relation.label}\t{int(net.normalized)}\t{net.dangling}\n"
    return _network_sha256(header, net.ids, net.indptr, net.indices, net.weights)


def _save_records(records: int) -> dict:
    from metaprop.records import save_repository
    from metaprop.synthetic import two_cluster_corpus

    repo = two_cluster_corpus(records, seed=0)
    _, wall = _timed(save_repository, repo, RECORDS)
    return {
        "corpus": {"records": records, "file_mib": round(os.path.getsize(RECORDS) / 2**20, 2)},
        "save_wall_s": wall, "save_ru_maxrss_mib": _peak_mib(), "file_sha256": _file_sha256(RECORDS),
    }


def _load_records(records: int) -> dict:
    from metaprop.records import load_repository, save_repository

    repo, wall = _timed(load_repository, RECORDS)
    peak = _peak_mib()
    save_repository(repo, RESAVED)
    return {"load_wall_s": wall, "load_ru_maxrss_mib": peak, "file_sha256": _file_sha256(RESAVED)}


def _network(records: int, net) -> dict:
    return {"records": records, "relation": "cokey", "edges": len(net.indices)}


def _walk_sha256(net) -> str:
    return _network_sha256("", net.ids, net.indptr, net.indices, net.cum)


def _build_normalized(records: int) -> dict:
    from metaprop import netbuild
    from metaprop.synthetic import two_cluster_corpus

    repo = two_cluster_corpus(records, seed=0)
    net, wall = _timed(netbuild.build_cooccurrence, repo, "key", normalized=True)
    peak = _peak_mib()
    tables = netbuild._walk_tables(net)  # the walk's cum, which the network does not hold
    return {
        "network": _network(records, net),
        "normalized_build_wall_s": wall, "normalized_build_ru_maxrss_mib": peak,
        "normalized_sha256": _network_sha256("", net.ids, net.indptr, net.indices, net.weights,
                                             tables.cum),
        "walk_sha256": _walk_sha256(tables),
    }


def _walk_tables(records: int) -> dict:
    from metaprop.netbuild import walk_tables
    from metaprop.synthetic import two_cluster_corpus

    repo = two_cluster_corpus(records, seed=0)
    tables, wall = _timed(walk_tables, repo, "cokey")
    return {
        "network": _network(records, tables), "walk_tables_wall_s": wall,
        "walk_tables_ru_maxrss_mib": _peak_mib(), "walk_sha256": _walk_sha256(tables),
    }


def _save(records: int) -> dict:
    from metaprop.netbuild import build_cooccurrence, save_network
    from metaprop.synthetic import two_cluster_corpus

    net = build_cooccurrence(two_cluster_corpus(records, seed=0), "key", normalized=True)
    pre_save = _peak_mib()  # so a save that raises the build's peak shows
    _, wall = _timed(save_network, net, NETWORK)
    return {
        "network": {"records": records, "relation": "cokey", "normalized": net.normalized,
                    "edges": net.edge_count, "file_mib": round(os.path.getsize(NETWORK) / 2**20, 1)},
        "save_wall_s": wall, "pre_save_ru_maxrss_mib": pre_save, "save_ru_maxrss_mib": _peak_mib(),
        "file_sha256": _file_sha256(NETWORK), "arrays_sha256": _saved_sha256(net),
    }


def _load(records: int) -> dict:
    from metaprop.netbuild import load_network

    net, wall = _timed(load_network, NETWORK)
    return {"load_wall_s": wall, "load_ru_maxrss_mib": _peak_mib(), "arrays_sha256": _saved_sha256(net)}


def _grid(records: int, workers: int) -> dict:
    from metaprop.evalharness import ExperimentConfig, run_experiment, save_results
    from metaprop.synthetic import two_cluster_corpus

    repo = two_cluster_corpus(records, seed=0)
    cfg = ExperimentConfig(network_relations=("cokey",), target_properties=("jour",), runs=2)
    result, wall = _timed(run_experiment, repo, cfg, workers=workers)
    save_results(result.rows, RESULTS)
    return {
        "grid": {"records": records, "relation": "cokey", "target": "jour",
                 "densities": list(cfg.densities), "percentiles": list(cfg.percentiles),
                 "runs": cfg.runs, "workers": workers, "jobs": len(cfg.densities) * cfg.runs},
        "wall_s": wall, "ru_maxrss_mib": _peak_mib(),
        # the pool's workers are reaped when run_experiment returns; 0.0 with one worker
        "children_ru_maxrss_mib": _peak_mib(resource.RUSAGE_CHILDREN),
        "results_sha256": _file_sha256(RESULTS), "errors": len(result.errors),
    }


STEPS = {
    "save_records": _save_records, "load_records": _load_records,
    "build_normalized": _build_normalized, "walk_tables": _walk_tables,
    "save": _save, "load": _load, "grid": _grid,
}
LAYERS = {
    "ingest": ("save_records", "load_records"), "build": ("build_normalized", "walk_tables"),
    "io": ("save", "load"), "grid": ("grid",),
}


def _child(argv, cwd: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *argv],
        cwd=cwd, env=env, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("layer", choices=LAYERS)
    parser.add_argument("--records", type=int, default=5000)
    parser.add_argument("--repeat", type=int, default=3, help="processes to time per step")
    parser.add_argument("--workers", type=int, default=1, help="grid worker processes (grid only)")
    parser.add_argument("--child", choices=STEPS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        options = {"workers": args.workers} if args.child == "grid" else {}
        print(json.dumps(STEPS[args.child](args.records, **options)))
        return 0
    report = {}  # key -> its value in every process, in run order
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.repeat):
            for step in LAYERS[args.layer]:
                argv = [args.layer, "--records", str(args.records), "--workers", str(args.workers),
                        "--child", step]
                for key, value in _child(argv, tmp).items():
                    report.setdefault(key, []).append(value)
    for key, seen in report.items():
        if not key.endswith(("wall_s", "ru_maxrss_mib")):  # one value, the same in every process
            if any(value != seen[0] for value in seen):
                raise SystemExit(f"{key} differs between processes: {seen}")
            report[key] = seen[0]
    report["python"] = platform.python_version()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
