"""One pass of a workload's operation, timed with tracing off or traced.

Each pass runs in a fresh child process (see child.py) after set-up, and
returns a dict that run.py turns into metrics and correctness verdicts.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import pickle
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace

from metaprop import cli, evalharness, netbuild, records, swarm
from metaprop.evalharness import (
    MetricsRow,
    accept_meta,
    build_relation_network,
    f_score,
    kill_meta,
    precision,
    recall,
    save_results,
)
from metaprop.swarm import derive_seed, propagate

from spans import Tracer
from workloads import file_sha256

MB = 1024.0 * 1024.0


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def _cost(before, after, wall: float) -> dict:
    (s0, c0), (s1, c1) = before, after
    cpu = (s1.ru_utime + s1.ru_stime - s0.ru_utime - s0.ru_stime) + (
        c1.ru_utime + c1.ru_stime - c0.ru_utime - c0.ru_stime
    )
    # an upper bound: this process's high-water RSS plus that of the largest
    # reaped pool worker (ru_maxrss is KiB on Linux)
    peak = (s1.ru_maxrss + c1.ru_maxrss) / 1024.0
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak}


def grid_problems(workload, rows) -> list:
    """Shape checks on a grid's rows that hold at every seed."""
    expected = len(workload.targets) * len(workload.densities) * len(workload.percentiles)
    if len(rows) != expected:
        return [f"{len(rows)} result rows, expected {expected}"]
    for r in rows:
        scores = (r.precision, r.recall, r.f_score, r.f_score_max)
        if r.runs_averaged != workload.runs or not all(0.0 <= s <= 1.0 for s in scores):
            return [f"bad result row: {r}"]
    return []


def run_cli(argv) -> int:
    """``metaprop.cli.main`` in this process, its chatter kept off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 1


def _pipeline_outputs(workdir: str, tag: str) -> tuple:
    digests, problems = {}, []
    for name in ("network", "store"):
        path = os.path.join(workdir, f"{tag}-{name}.tsv")
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            problems.append(f"{name} file missing or empty")
        else:
            digests[name] = file_sha256(path)
    return digests, problems


def timed_grid(workload, seed: int, repo, workdir: str, workers: int, tag: str) -> dict:
    cfg = workload.config(seed)
    before = _usage()
    t0 = time.perf_counter()
    result = evalharness.run_experiment(repo, cfg, workers=workers)
    wall = time.perf_counter() - t0
    after = _usage()
    path = os.path.join(workdir, f"{tag}-results.tsv")
    save_results(result.rows, path)
    return dict(
        _cost(before, after, wall),
        failed_units=len(result.errors),
        problems=grid_problems(workload, result.rows),
        digests={"results": file_sha256(path)},
    )


def timed_pipeline(workload, seed: int, workdir: str, tag: str) -> dict:
    commands = workload.commands(workdir, seed, tag)
    before = _usage()
    t0 = time.perf_counter()
    codes = [run_cli(argv) for _, argv in commands]
    wall = time.perf_counter() - t0
    after = _usage()
    digests, problems = _pipeline_outputs(workdir, tag)
    return dict(
        _cost(before, after, wall),
        failed_units=sum(1 for c in codes if c != 0),
        problems=problems,
        digests=digests,
    )


def _span_s(span: dict) -> float:
    return span["end"] - span["start"]


def _degree_stats(net) -> dict:
    # out_edges is cached by then, so this costs no sort
    degrees = [len(net.out_edges(n)) for n in net.nodes]
    return {
        "netbuild.edges": net.edge_count,
        "netbuild.degree_median": statistics.median(degrees),
        "netbuild.degree_max": max(degrees),
    }


def _swarm_stats(tracer: Tracer, ticks: int, store_values: int, scored_values: int) -> dict:
    walks = tracer.durations("swarm.propagate")
    return {
        "swarm.propagate_first_s": walks[0],
        "swarm.propagate_s": statistics.median(walks[1:] or walks),
        "swarm.ticks": ticks,
        "swarm.store_values": store_values,
        "swarm.scored_share": scored_values / store_values if store_values else 0.0,
    }


def _build_stats(tracer: Tracer) -> dict:
    return {
        "netbuild.build_s": tracer.total("netbuild.build"),
        "netbuild.normalize_s": tracer.total("netbuild.normalize"),
        "netbuild.rss_mb": tracer.first("netbuild.normalize")["rss_end_mb"]
        - tracer.first("netbuild.build")["rss_start_mb"],
    }


def _traced_job(tracer, net, repo, mu_x, density, percentiles, prop_cfg, seed, counts):
    """evalharness._run_cell_once, with a span around each public call."""
    rng = random.Random(seed)
    with tracer.span("evalharness.kill_meta"):
        atrophied_repo, outcome = kill_meta(repo, 1.0 - density, mu_x, rng)
    with tracer.span("swarm.propagate"):
        result = propagate(net, atrophied_repo, replace(prop_cfg, seed=seed))
    scored = sorted(outcome.atrophied_ids)
    counts["ticks"] += result.ticks
    counts["store_values"] += result.store.total_values
    counts["scored_values"] += sum(len(result.store.entry(rid, mu_x)) for rid in scored)
    per_rho = {}
    for rho in percentiles:
        with tracer.span("evalharness.accept_meta"):
            accepted_map = accept_meta(result.store, rho)
        with tracer.span("evalharness.score"):
            pr_sum, pr_n, re_sum = 0.0, 0, 0.0
            for rid in scored:
                truth = outcome.ground_truth[(rid, mu_x)]
                acc = accepted_map.get((rid, mu_x), frozenset())
                if acc:
                    pr_sum += precision(truth, acc)
                    pr_n += 1
                re_sum += recall(truth, acc)
            pr = pr_sum / pr_n if pr_n else 0.0
            re = re_sum / len(scored) if scored else 0.0
            per_rho[rho] = (pr, re, f_score(pr, re))
    return per_rho, len(scored)


def _rows(cfg, mu_y: str, source_mu: str, results: dict) -> list:
    """run_experiment's aggregation of per-run results into grid rows."""
    rows = []
    for mu_x in cfg.target_properties:
        for d_idx, density in enumerate(cfg.densities):
            run_keys = [(mu_x, d_idx, run) for run in range(cfg.runs) if (mu_x, d_idx, run) in results]
            if not run_keys:
                continue
            n_scored = results[run_keys[0]][1]
            for rho in cfg.percentiles:
                prs = [results[k][0][rho][0] for k in run_keys]
                res = [results[k][0][rho][1] for k in run_keys]
                fs = [results[k][0][rho][2] for k in run_keys]
                rows.append(
                    MetricsRow(
                        mu_y=mu_y,
                        mu_x=mu_x,
                        density=density,
                        percentile=rho,
                        precision=sum(prs) / len(prs),
                        recall=sum(res) / len(res),
                        f_score=sum(fs) / len(fs),
                        f_score_max=max(fs),
                        runs_averaged=len(run_keys),
                        nodes_scored=n_scored,
                        anomalous=(source_mu == mu_x),
                    )
                )
    return rows


def traced_grid(workload, seed: int, repo, workdir: str, tag: str, tracer: Tracer) -> dict:
    """A serial copy of run_experiment built from public functions.

    Its results TSV must be byte-identical to run_experiment's.  It pickles
    the pool's initargs once, as a spawn-started pool would ship them (the
    fork-started pool never does); that span is measured but left out of
    the copy's wall time."""
    cfg = workload.config(seed)
    mu_y = workload.relation
    counts = {"ticks": 0, "store_values": 0, "scored_values": 0}
    results, errors = {}, 0
    with contextlib.ExitStack() as patches:
        for attr in ("build_cooccurrence", "build_occurrence"):
            patches.enter_context(tracer.patched(evalharness, attr, "netbuild.build"))
        patches.enter_context(tracer.patched(evalharness, "normalize", "netbuild.normalize"))
        with tracer.span("evalharness.grid") as grid:
            with tracer.span("evalharness.build_relation_network"):
                net = build_relation_network(repo, mu_y)
            with tracer.span("evalharness.ship") as ship:
                blob = pickle.dumps(({mu_y: net}, repo))
                pickle.loads(blob)  # what each worker would pay to receive it
            ship_mb = len(blob) / MB
            del blob
            for mu_x in cfg.target_properties:
                for d_idx, density in enumerate(cfg.densities):
                    for run in range(cfg.runs):
                        job_seed = derive_seed(cfg.master_seed, mu_y, mu_x, d_idx, run)
                        with tracer.span("evalharness.job"):
                            try:
                                results[(mu_x, d_idx, run)] = _traced_job(
                                    tracer, net, repo, mu_x, density, cfg.percentiles,
                                    cfg.propagation, job_seed, counts,
                                )
                            except Exception:  # run_experiment makes any job failure a cell error
                                traceback.print_exc(file=sys.stderr)
                                errors += 1
            rows = _rows(cfg, mu_y, net.relation.mu, results)
    path = os.path.join(workdir, f"{tag}-results.tsv")
    save_results(rows, path)
    return {
        "traced_wall_s": _span_s(grid) - _span_s(ship),
        "build_s": tracer.total("evalharness.build_relation_network"),
        "failed_units": errors,
        "problems": grid_problems(workload, rows),
        "digests": {"results": file_sha256(path)},
        "layers": {
            **_build_stats(tracer),
            **_degree_stats(net),
            **_swarm_stats(tracer, counts["ticks"], counts["store_values"], counts["scored_values"]),
            "evalharness.kill_s": tracer.total("evalharness.kill_meta"),
            "evalharness.accept_s": tracer.total("evalharness.accept_meta"),
            "evalharness.score_s": tracer.total("evalharness.score"),
            "evalharness.jobs": len(tracer.durations("evalharness.job")),
            "evalharness.ship_mb": ship_mb,
            "evalharness.ship_s": _span_s(ship),
        },
    }


def traced_pipeline(workload, seed: int, workdir: str, tag: str, tracer: Tracer) -> dict:
    """The pipeline's CLI commands with a span around each library call
    they make; ``cli.self_s`` is the commands' time outside those calls."""
    mu_x = workload.targets[0]
    walks = []
    library = [
        (records, "ingest", "records.ingest"),
        (records, "save_repository", "records.save_repository"),
        (records, "load_repository", "records.load_repository"),
        (netbuild, "build_cooccurrence", "netbuild.build"),
        (netbuild, "build_occurrence", "netbuild.build"),
        (netbuild, "normalize", "netbuild.normalize"),
        (netbuild, "save_network", "netbuild.save_network"),
        (netbuild, "load_network", "netbuild.load_network"),
        (swarm, "save_store", "swarm.save_store"),
    ]
    codes = {}
    with contextlib.ExitStack() as patches:
        for module, attr, name in library:
            patches.enter_context(tracer.patched(module, attr, name))
        patches.enter_context(tracer.patched(swarm, "propagate", "swarm.propagate", keep=walks))
        with tracer.span("pipeline") as pipeline:
            for name, argv in workload.commands(workdir, seed, tag):
                with tracer.span("cli." + name):
                    codes[name] = run_cli(argv)
    digests, problems = _pipeline_outputs(workdir, tag)
    layers = {f"cli.{name}_s": tracer.total(f"cli.{name}") for name in codes}
    layers["cli.self_s"] = sum(
        tracer.self_time(i) for i, s in enumerate(tracer.spans) if s["name"].startswith("cli.")
    )
    if walks:
        args, kwargs, result = walks[0]
        called = inspect.signature(swarm.propagate).bind(*args, **kwargs).arguments
        net, repo = called["net"], called["repo"]
        # the records that lost mu_x are the ones whose deposits can be scored
        poor = [rid for rid in repo.ids() if not repo.meta(rid, mu_x)]
        scored = sum(len(result.store.entry(rid, mu_x)) for rid in poor)
        layers.update(_degree_stats(net))
        layers.update(_swarm_stats(tracer, result.ticks, result.store.total_values, scored))
    if tracer.durations("netbuild.build"):
        layers.update(_build_stats(tracer))
    network = os.path.join(workdir, f"{tag}-network.tsv")
    layers.update({
        "netbuild.save_s": tracer.total("netbuild.save_network"),
        "netbuild.load_s": tracer.total("netbuild.load_network"),
        "netbuild.file_mb": os.path.getsize(network) / MB if os.path.exists(network) else 0.0,
        "swarm.save_store_s": tracer.total("swarm.save_store"),
    })
    return {
        "traced_wall_s": _span_s(pipeline),
        "failed_units": sum(1 for c in codes.values() if c != 0),
        "problems": problems,
        "digests": digests,
        "layers": layers,
    }
