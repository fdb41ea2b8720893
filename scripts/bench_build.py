#!/usr/bin/env python3
"""Time building and normalizing the co-keyword network of the two-cluster corpus.

    PYTHONPATH=src python scripts/bench_build.py [--records 5000] [--repeat 3]

Each repeat runs one fresh process, which makes ``two_cluster_corpus(N,
seed=0)`` (untimed), then times ``build_cooccurrence(repo, "key")`` and
``normalize`` of its result, reading the process's peak RSS (``ru_maxrss``)
before the build, after it and after normalize.  Prints one JSON object with
the wall times and peaks of every process and one sha256 over the raw and the
normalized network's arrays, which must be the same in every process; a
change to either step must leave it unchanged.
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
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _peak_mib() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def _run(records: int) -> dict:
    from metaprop.netbuild import build_cooccurrence, normalize
    from metaprop.synthetic import two_cluster_corpus

    repo = two_cluster_corpus(records, seed=0)
    start_peak = _peak_mib()
    t0 = time.perf_counter()
    raw = build_cooccurrence(repo, "key")
    t1 = time.perf_counter()
    build_peak = _peak_mib()
    net = normalize(raw)
    t2 = time.perf_counter()
    h = hashlib.sha256("\n".join(net.ids).encode("utf-8"))
    for column in (raw.indptr, raw.indices, raw.weights, net.weights, net.cum):
        h.update(memoryview(column))
    return {"build_s": t1 - t0, "normalize_s": t2 - t1, "start_mib": start_peak,
            "build_mib": build_peak, "normalize_mib": _peak_mib(), "edges": net.edge_count,
            "arrays_sha256": h.hexdigest()}


def _child(records: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--records", str(records), "--child"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="processes to time")
    parser.add_argument("--records", type=int, default=5000)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_run(args.records)))
        return 0
    runs = [_child(args.records) for _ in range(args.repeat)]
    digests = {r["arrays_sha256"] for r in runs}
    if len(digests) != 1:
        raise SystemExit(f"network arrays differ between processes: {sorted(digests)}")
    print(json.dumps({
        "network": {"records": args.records, "relation": "cokey", "edges": runs[0]["edges"]},
        "python": platform.python_version(),
        "build_wall_s": [round(r["build_s"], 4) for r in runs],
        "normalize_wall_s": [round(r["normalize_s"], 4) for r in runs],
        "start_ru_maxrss_mib": [r["start_mib"] for r in runs],
        "build_ru_maxrss_mib": [r["build_mib"] for r in runs],
        "normalize_ru_maxrss_mib": [r["normalize_mib"] for r in runs],
        "arrays_sha256": digests.pop(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
