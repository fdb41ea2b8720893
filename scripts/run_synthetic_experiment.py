#!/usr/bin/env python3
"""Run the full pipeline on a synthetic two-cluster corpus.

Generates a corpus, runs ``metaprop experiment`` on it, the atrophy/recover
grid for journal and author propagation over co-keyword and co-author
networks, then ``metaprop report``, which prints the max/mean F-score tables
plus one density x percentile landscape per pair.
"""

import argparse
import os
import sys
import tempfile

from metaprop import cli, records
from metaprop.evalharness import load_results
from metaprop.synthetic import two_cluster_corpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", type=int, default=400)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--output", default="synthetic_results.tsv")
    parser.add_argument("--landscape-dir", default=None)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus.jsonl")
        records.save_repository(two_cluster_corpus(n_records=args.records, seed=args.seed), corpus)
        experiment = [
            "experiment", corpus, "--relations", "cokey,coauth", "--properties", "jour,auth",
            "--runs", str(args.runs), "--max-steps", "30", "--seed", str(args.seed),
            "--workers", str(args.workers), "--output", args.output,
        ]
        if args.landscape_dir:
            experiment += ["--landscape-dir", args.landscape_dir]
        status = cli.main(experiment)
    if status:
        return status
    print(f"\n{args.records} records, {len(load_results(args.output))} grid cells -> {args.output}\n")
    return cli.main(["report", args.output])


if __name__ == "__main__":
    sys.exit(main())
