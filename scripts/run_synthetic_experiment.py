#!/usr/bin/env python3
"""Run the full pipeline on a synthetic two-cluster corpus.

Generates a corpus, runs the atrophy/recover grid for journal and author
propagation over co-keyword and co-author networks, and prints the max/mean
F-score tables plus one density x percentile landscape per pair.
"""

import argparse
import sys

from metaprop import cli
from metaprop.evalharness import ExperimentConfig, run_experiment, save_results, write_landscapes
from metaprop.swarm import PropagationConfig
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

    repo = two_cluster_corpus(n_records=args.records, seed=args.seed)
    cfg = ExperimentConfig(
        network_relations=("cokey", "coauth"),
        target_properties=("jour", "auth"),
        runs=args.runs,
        propagation=PropagationConfig(max_steps=30),
        master_seed=args.seed,
    )
    result = run_experiment(repo, cfg, workers=args.workers)
    save_results(result.rows, args.output)
    if args.landscape_dir:
        write_landscapes(result.rows, args.landscape_dir)

    print(f"{args.records} records, {len(result.rows)} grid cells -> {args.output}\n")
    for e in result.errors:
        print(f"cell error: {e}", file=sys.stderr)
    return cli.main(["report", args.output])


if __name__ == "__main__":
    sys.exit(main())
