#!/usr/bin/env python3
"""Time writing and reading the network TSV of the 5,000-record cokey network.

    PYTHONPATH=src python scripts/bench_network_io.py [--repeat 3] [--records 5000]

Builds ``normalize(build_cooccurrence(two_cluster_corpus(N, seed=0), "key"))``
and times ``save_network`` and ``load_network`` on it.  Each repeat runs two
fresh processes: one builds the network (untimed) and times the save, the
other times only the load, so the load's peak RSS (``ru_maxrss``) is its own
and not the network build's.  Prints one JSON object with the wall times,
the peak RSS of each process, the network file's size and sha256, and one
sha256 over the loaded network (relation, flags, ids and arrays), which must
equal the saved network's; a speed-up must leave both digests unchanged.
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


def _arrays_sha256(net) -> str:
    h = hashlib.sha256(f"{net.relation.label}\t{int(net.normalized)}\t{net.dangling}\n".encode())
    h.update("\n".join(net.ids).encode("utf-8"))
    for column in (net.indptr, net.indices, net.weights):
        h.update(memoryview(column))
    return h.hexdigest()


def _peak_mib() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def _save(records: int, path: str) -> dict:
    from metaprop.netbuild import build_cooccurrence, normalize, save_network
    from metaprop.synthetic import two_cluster_corpus

    net = normalize(build_cooccurrence(two_cluster_corpus(records, seed=0), "key"))
    t0 = time.perf_counter()
    save_network(net, path)
    wall = time.perf_counter() - t0
    peak = _peak_mib()
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return {"wall_s": wall, "ru_maxrss_mib": peak, "edges": net.edge_count,
            "file_sha256": h.hexdigest(), "arrays_sha256": _arrays_sha256(net)}


def _load(path: str) -> dict:
    from metaprop.netbuild import load_network

    t0 = time.perf_counter()
    net = load_network(path)
    wall = time.perf_counter() - t0
    peak = _peak_mib()
    return {"wall_s": wall, "ru_maxrss_mib": peak, "arrays_sha256": _arrays_sha256(net)}


def _child(*args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="save and load processes to time")
    parser.add_argument("--records", type=int, default=5000)
    parser.add_argument("--child", nargs=2, metavar=("STEP", "PATH"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        step, path = args.child
        print(json.dumps(_save(args.records, path) if step == "save" else _load(path)))
        return 0
    saves, loads = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "network.tsv")
        for _ in range(args.repeat):
            saves.append(_child("--records", str(args.records), "--child", "save", path))
            loads.append(_child("--child", "load", path))
        file_mib = round(os.path.getsize(path) / 2**20, 1)
    digests = {(s["file_sha256"], s["arrays_sha256"]) for s in saves}
    loaded = {r["arrays_sha256"] for r in loads}
    if len(digests) != 1 or loaded != {arrays for _, arrays in digests}:
        raise SystemExit(f"network bytes differ between processes: {sorted(digests)}, {sorted(loaded)}")
    file_sha256, arrays_sha256 = digests.pop()
    print(json.dumps({
        "network": {"records": args.records, "relation": "cokey", "normalized": True,
                    "edges": saves[0]["edges"], "file_mib": file_mib},
        "python": platform.python_version(),
        "save_wall_s": [round(s["wall_s"], 4) for s in saves],
        "save_ru_maxrss_mib": [s["ru_maxrss_mib"] for s in saves],
        "load_wall_s": [round(r["wall_s"], 4) for r in loads],
        "load_ru_maxrss_mib": [r["ru_maxrss_mib"] for r in loads],
        "file_sha256": file_sha256,
        "arrays_sha256": arrays_sha256,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
