"""Command-line pipeline: ingest records, build networks, propagate
metadata, run the evaluation grid, and render result tables.

Record files are JSON lines, one record per line:

    {"id": "m1", "properties": {"key": ["swarm", "algorithms"], "jour": ["tois"]}}

Relation labels: a bare property name is an occurrence relation over that
property ("cite"); a "co" prefix is a co-occurrence relation ("cokey",
"coauth").  Explicit "occ:NAME" / "co:NAME" forms disambiguate property
names that start with "co".

A data error (a ``ValueError``, an unknown resource id or an ``OSError``)
from any command is reported by ``main`` as one ``error:`` line with exit
status 1; any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import errno
import os
import random as _random
import sys

from . import evalharness, netbuild, records, swarm


def _err(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _float_list(text: str):
    return tuple(float(x) for x in text.split(",") if x.strip())


def _str_list(text: str):
    return tuple(x.strip() for x in text.split(",") if x.strip())


def cmd_ingest(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        repo = records.ingest(fh)
    records.save_repository(repo, args.output)
    print(f"{len(repo)} records, {len(repo.property_types())} property types")
    return 0


def cmd_build(args) -> int:
    repo = records.load_repository(args.repo)
    relation = netbuild.relation_for(repo, args.relation)
    if relation.kind == netbuild.COOCCURRENCE:
        net = netbuild.build_cooccurrence(repo, relation.mu)
    else:
        net = netbuild.build_occurrence(repo, relation.mu)
    net = netbuild.require_edges(net)
    if not args.no_normalize:
        net = netbuild.normalize(net)
    netbuild.save_network(net, args.output)
    print(
        f"relation={net.relation.label} nodes={len(net.ids)} "
        f"directed_edges={net.edge_count} unordered_pairs={net.pair_count} "
        f"dangling={net.dangling} normalized={int(net.normalized)}"
    )
    return 0


def _seed(args) -> int:
    """``--seed``, or a fresh draw when it is absent; printed either way so
    any run can be repeated."""
    seed = args.seed
    if seed is None:
        seed = _random.SystemRandom().randrange(2**63)
    print(f"seed={seed}")
    return seed


def _propagation(args, seed: int = 0) -> swarm.PropagationConfig:
    return swarm.PropagationConfig(
        delta=args.delta, max_steps=args.max_steps, energy_floor=args.energy_floor, seed=seed
    )


def cmd_propagate(args) -> int:
    cfg = _propagation(args, _seed(args))
    net = netbuild.load_network(args.network)
    repo = records.load_repository(args.repo)
    result = swarm.propagate(net, repo, cfg)
    swarm.save_store(result.store, args.output)
    print(result.report())
    return 0


def _print_pair_tables(summaries) -> None:
    print("pair\tmax_fscore\tmean_fscore\tanomalous")
    for (mu_y, mu_x), (fmax, fmean, anomalous) in summaries.items():
        flag = " *" if anomalous else ""
        print(f"{mu_y}/{mu_x}\t{fmax:.4f}\t{fmean:.4f}\t{int(anomalous)}{flag}")


def cmd_experiment(args) -> int:
    repo = records.load_repository(args.repo)
    cfg = evalharness.ExperimentConfig(
        network_relations=_str_list(args.relations),
        target_properties=_str_list(args.properties),
        densities=_float_list(args.densities),
        percentiles=_float_list(args.percentiles),
        runs=args.runs,
        propagation=_propagation(args),
        master_seed=_seed(args),
    )
    # before the grid runs, so an unusable path fails at once; the results
    # file is not opened, which would truncate an existing one
    directory = os.path.dirname(args.output) or "."
    if os.path.isdir(args.output):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.output)
    if not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.output)
    if not os.access(directory, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), args.output)
    if args.landscape_dir:
        os.makedirs(args.landscape_dir, exist_ok=True)
    result = evalharness.run_experiment(repo, cfg, workers=args.workers)
    if result.rows:  # with none, an earlier results file at the path is kept
        evalharness.save_results(result.rows, args.output)
        if args.landscape_dir:
            evalharness.write_landscapes(result.rows, args.landscape_dir)
    _print_pair_tables(evalharness.pair_summaries(result.rows))
    for e in result.errors:
        print(
            f"cell error: {e.mu_y}/{e.mu_x} density={e.density} run={e.run}: {e.message}",
            file=sys.stderr,
        )
    if result.errors:
        print(f"{len(result.errors)} cell failures recorded", file=sys.stderr)
    if not result.rows:
        return _err("all cells failed")
    return 0


def cmd_report(args) -> int:
    rows = evalharness.load_results(args.results)
    if not rows:
        return _err(f"{args.results}: results file contains no rows")
    # every landscape is made before anything is printed, so a missing
    # cell leaves standard output empty
    landscapes = [
        (pair, evalharness.landscape_text(rows, *pair))
        for pair in sorted({(r.mu_y, r.mu_x) for r in rows})
    ]
    _print_pair_tables(evalharness.pair_summaries(rows))
    for (mu_y, mu_x), text in landscapes:
        print(f"\nF-score landscape {mu_y}/{mu_x} (rows: density, columns: percentile)")
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaprop", description="Associative-network metadata propagation pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the walk's settings, shared by propagate and experiment; defaults are the library's
    walk = argparse.ArgumentParser(add_help=False)
    walk.add_argument("--delta", type=float, default=swarm.PropagationConfig.delta)
    walk.add_argument("--max-steps", type=int, default=swarm.PropagationConfig.max_steps)
    walk.add_argument("--energy-floor", type=float, default=swarm.PropagationConfig.energy_floor)
    walk.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("ingest", help="parse a record file into a repository store")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-network", help="build an associative network from a repository")
    p.add_argument("repo")
    p.add_argument("--relation", required=True, help="relation label, e.g. cite, cokey, coauth")
    p.add_argument("--output", required=True)
    p.add_argument("--no-normalize", action="store_true", help="keep raw edge weights")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("propagate", parents=[walk], help="run particle propagation over a saved network")
    p.add_argument("network")
    p.add_argument("repo")
    p.add_argument("--output", required=True, help="recommendation store dump path")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("experiment", parents=[walk], help="run the atrophy/recover evaluation grid")
    p.add_argument("repo")
    p.add_argument("--relations", required=True, help="comma-separated relation labels (mu_y)")
    p.add_argument("--properties", required=True, help="comma-separated property types (mu_x)")
    # parsed in cmd_experiment, so a bad list is a data error
    p.add_argument("--densities", default=",".join(map(repr, evalharness.DEFAULT_DENSITIES)))
    p.add_argument("--percentiles", default=",".join(map(repr, evalharness.DEFAULT_PERCENTILES)))
    p.add_argument("--runs", type=int, default=evalharness.ExperimentConfig.runs)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", required=True, help="results TSV path")
    p.add_argument("--landscape-dir", default=None, help="write per-pair F-score matrices here")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="print tables and landscapes from a results file")
    p.add_argument("results")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit status (1 for a data error)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, records.UnknownResourceError) as exc:
        return _err(str(exc))


if __name__ == "__main__":
    sys.exit(main())
