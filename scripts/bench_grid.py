#!/usr/bin/env python3
"""Time the default evaluation grid at 5,000 records.

    PYTHONPATH=src python scripts/bench_grid.py [--repeat 3]

Runs ``run_experiment`` on ``two_cluster_corpus(5000, seed=0)`` over the
``cokey`` network with ``jour`` as the target: the default 5 densities x 11
percentiles, 2 runs each, one worker.  Each repeat times the whole grid,
network build included.  Prints one JSON object with the wall time of each
repeat, the process's peak RSS (``ru_maxrss``) and the sha256 of the
results TSV, which a speed-up must leave unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
import time

from metaprop.evalharness import ExperimentConfig, run_experiment, save_results
from metaprop.synthetic import two_cluster_corpus

N_RECORDS = 5000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="grids to time in this process")
    args = parser.parse_args(argv)
    repo = two_cluster_corpus(N_RECORDS, seed=0)
    cfg = ExperimentConfig(network_relations=("cokey",), target_properties=("jour",), runs=2)
    walls, digests = [], set()
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        result = run_experiment(repo, cfg, workers=1)
        walls.append(time.perf_counter() - t0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "results.tsv")
            save_results(result.rows, path)
            with open(path, "rb") as fh:
                digests.add(hashlib.sha256(fh.read()).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"results differ between repeats: {sorted(digests)}")
    print(json.dumps({
        "grid": {"records": N_RECORDS, "relation": "cokey", "target": "jour",
                 "densities": list(cfg.densities), "percentiles": list(cfg.percentiles),
                 "runs": cfg.runs, "workers": 1, "jobs": len(cfg.densities) * cfg.runs},
        "python": platform.python_version(),
        "wall_s": [round(w, 4) for w in walls],
        "ru_maxrss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "results_sha256": digests.pop(),
        "errors": len(result.errors),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
