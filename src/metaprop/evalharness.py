"""Atrophy/recover evaluation: destroy a fraction of one property's values,
propagate over a chosen network, accept recommendations by per-node energy
percentile, and score precision/recall/F against the removed ground truth
over a (density x percentile) grid averaged across repeated runs.

``kill_meta``, ``swarm.propagate`` and ``accept_meta`` define what a grid job
scores.  The grid builds each network's walk arrays directly, by
``netbuild.walk_tables``, never a full co-occurrence network; ``build_relation_network``
remains only for a traced grid that runs the jobs' definition step by step.
The job does the same work once per run: the target property's
holders and values are numbered once per grid by ``netbuild.numbered_values``,
atrophy is a mask over node numbers, one ``swarm._walk`` call carries only
the target property from the nodes that keep it to the atrophied ones and
sums its deposits, and every percentile's threshold is read from one sort
of those sums.  That call walks only the particles of the nodes that keep
the target whenever the energy floor cannot end the walk early (see
``swarm._walk``), since no other particle can deposit it.  Sums of floats
run left to right, so results bytes do not depend on the Python version.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

import numpy as np

from .netbuild import (
    COOCCURRENCE,
    AssociativeNetwork,
    NumberedValues,
    WalkTables,
    build_cooccurrence,
    build_occurrence,
    normalize,
    numbered_values,
    parse_relation,
    relation_for,
    require_edges,
    walk_tables,
)
from .records import Repository, ResourceRecord, _check_token, _dump_fields
from .swarm import PropagationConfig, RecommendationStore, _sequential_sum, _walk, derive_seed

DEFAULT_DENSITIES = (0.01, 0.21, 0.41, 0.61, 0.81)
DEFAULT_PERCENTILES = tuple(round(i / 10, 1) for i in range(11))

# the range of each grid setting and results column that has one, checked
# by ExperimentConfig and by load_results; NaN lies outside every range
_UNIT = ("in [0, 1]", lambda x: 0.0 <= x <= 1.0)
_RANGES = {
    "density": ("in (0, 1)", lambda x: 0.0 < x < 1.0),
    "percentile": _UNIT,
    "runs": (">= 1", lambda x: x >= 1),
    "nodes_scored": (">= 0", lambda x: x >= 0),
    "precision": _UNIT,
    "recall": _UNIT,
    "fscore": _UNIT,
    "fscore_max": _UNIT,
}


def _check_range(name: str, value, shown, where: str = "") -> None:
    """Raise ValueError "{where}{name} must be {range}, got {shown}" when
    ``value`` lies outside ``name``'s range."""
    bound, holds = _RANGES[name]
    if not holds(value):
        raise ValueError(f"{where}{name} must be {bound}, got {shown}")


@dataclass(frozen=True)
class ExperimentConfig:
    network_relations: Tuple[str, ...]  # relation labels (the mu_y axis)
    target_properties: Tuple[str, ...]  # property types to score (mu_x)
    densities: Tuple[float, ...] = DEFAULT_DENSITIES
    percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES
    runs: int = 20
    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    master_seed: int = 0

    def __post_init__(self):
        for axis in ("network_relations", "target_properties", "densities", "percentiles"):
            entries = getattr(self, axis)
            if not entries:
                raise ValueError(f"{axis} must not be empty")
            repeated = [x for k, x in enumerate(entries) if x in entries[:k]]
            if repeated:  # its jobs would run, and its rows be written, twice
                raise ValueError(f"{axis} repeats {repeated[0]!r}")
        for name, values in (
            ("density", self.densities), ("percentile", self.percentiles), ("runs", (self.runs,))
        ):
            for x in values:
                _check_range(name, x, x)
        if self.propagation.seed != 0:  # every walk's seed derives from master_seed
            raise ValueError(
                f"propagation.seed must be 0, got {self.propagation.seed}; set master_seed"
            )


@dataclass(frozen=True)
class AtrophyOutcome:
    atrophied_ids: FrozenSet[str]
    ground_truth: Mapping[Tuple[str, str], FrozenSet[str]]


@dataclass(frozen=True)
class MetricsRow:
    mu_y: str
    mu_x: str
    density: float
    percentile: float
    precision: float
    recall: float
    f_score: float
    f_score_max: float  # max single-run F for this cell
    runs_averaged: int
    nodes_scored: int
    anomalous: bool


@dataclass(frozen=True)
class CellError:
    mu_y: str
    mu_x: str
    density: float
    run: int
    message: str


@dataclass
class ExperimentResult:
    rows: List[MetricsRow]
    errors: List[CellError]


def _atrophy_pick(eligible: list, fraction: float, rng: random.Random) -> list:
    """The members of ``eligible`` (the holders of the atrophied property,
    in id order) that lose it: floor(fraction * len(eligible)) of them,
    drawn by one ``rng.sample``.  The draw depends only on the positions
    in ``eligible``, so ids and node numbers pick the same records."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    return rng.sample(eligible, math.floor(fraction * len(eligible)))


def kill_meta(
    repo: Repository, fraction: float, mu_x: str, rng: random.Random
) -> Tuple[Repository, AtrophyOutcome]:
    """Empty the ``mu_x`` value sets of floor(fraction * h) of the h
    resources that have any, chosen uniformly; everything else untouched.
    The count is taken over the holders only, so at grid density d a
    property that only some records hold keeps a share d of its holders.
    Returns the atrophied repository and the removed ground truth.

    With ``propagate`` and ``accept_meta``, this defines what a grid job
    scores; the job itself atrophies a node mask drawn by the same pick."""
    eligible = [rid for rid in repo.ids() if repo.meta(rid, mu_x)]
    chosen = set(_atrophy_pick(eligible, fraction, rng))
    truth: Dict[Tuple[str, str], FrozenSet[str]] = {}
    records = []
    for rec in repo:
        if rec.id in chosen:
            truth[(rec.id, mu_x)] = rec.properties[mu_x]
            props = {mu: v for mu, v in rec.properties.items() if mu != mu_x}
            records.append(ResourceRecord(rec.id, props))
        else:
            records.append(rec)
    return Repository(records), AtrophyOutcome(frozenset(chosen), truth)


def accept_meta(
    store: RecommendationStore, rho: float
) -> Dict[Tuple[str, str], FrozenSet[str]]:
    """Per (node, property) entry, accept every value whose energy is at or
    above the nearest-rank rho-quantile of that entry's own energies.
    rho=0 accepts everything; rho=1 accepts the max-energy tie set.

    This defines what a grid job accepts; the job reads every rho's
    threshold from one sort of its scored entries instead."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    accepted: Dict[Tuple[str, str], FrozenSet[str]] = {}
    for key, values in store.entries():
        energies = sorted(values.values())
        rank = max(1, math.ceil(rho * len(energies)))
        threshold = energies[rank - 1]
        accepted[key] = frozenset(v for v, e in values.items() if e >= threshold)
    return accepted


def precision(truth: FrozenSet[str], accepted: FrozenSet[str]) -> float:
    if not accepted:
        raise ValueError("precision undefined for an empty accepted set")
    return len(truth & accepted) / len(accepted)


def recall(truth: FrozenSet[str], accepted: FrozenSet[str]) -> float:
    if not truth:
        raise ValueError("recall undefined for an empty ground-truth set")
    return len(truth & accepted) / len(truth)


def f_score(pr: float, re: float) -> float:
    if pr + re == 0.0:
        return 0.0
    return 2.0 * pr * re / (pr + re)


def build_relation_network(repo: Repository, label: str) -> AssociativeNetwork:
    """The normalized network for a relation label, checked by
    ``relation_for`` and ``require_edges``.  ``build_cooccurrence``
    normalizes while it builds, and ``normalize`` then returns its network
    unchanged; an occurrence network is normalized by ``normalize``.

    The grid does not call this: ``run_experiment`` builds only the walk's
    arrays, by ``netbuild.walk_tables``, which gives this network's arrays
    and errors.  It remains for callers that trace a grid step by step."""
    relation = relation_for(repo, label)
    if relation.kind == COOCCURRENCE:
        net = build_cooccurrence(repo, relation.mu, normalized=True)
    else:
        net = build_occurrence(repo, relation.mu)
    return normalize(require_edges(net))


def _run_cell_once(
    net: WalkTables,
    target: NumberedValues,
    density: float,
    percentiles: Sequence[float],
    prop_cfg: PropagationConfig,
    seed: int,
) -> Tuple[Dict[float, Tuple[float, float, float]], int]:
    """One atrophy+propagate run; returns per-rho (precision, recall, F)
    macro-averages over the atrophied nodes, plus how many were scored.

    Equal to ``kill_meta``, then ``propagate`` and ``accept_meta`` at each
    rho, scored node by node: the walk carries only the target property,
    from the nodes that keep it to the atrophied ones, so it records
    exactly the deposits that are scored, summed as the store sums them.
    It walks with ``carriers_only``: only the particles of the nodes that
    keep the target walk, unless the energy floor could stop the walk, and
    the walk's ticks, frozen count and residual energy go unread."""
    rng = random.Random(seed)
    n = len(net.ids)
    atrophied = np.zeros(n, dtype=bool)
    atrophied[_atrophy_pick(np.flatnonzero(target.holds).tolist(), 1.0 - density, rng)] = True
    ((keys, totals),), _, _, _ = _walk(
        net, replace(prop_cfg, seed=seed), [(atrophied, target)], carriers_only=True
    )
    n_values = len(target.names)
    truth_sizes = np.diff(target.value_ptr)
    truth_keys = np.repeat(np.arange(n) * n_values, truth_sizes) + target.value_ids
    # every entry by node, then energy: an entry's accepted values at rho
    # run from the start of its threshold's tie group to the entry's end
    nodes = keys // max(n_values, 1)
    order = np.lexsort((totals, nodes))
    keys, nodes, energies = keys[order], nodes[order], totals[order]
    new_tie = np.diff(nodes, prepend=-1) != 0
    starts = np.flatnonzero(new_tie)
    ends = np.flatnonzero(np.diff(nodes, append=-1)) + 1
    sizes = ends - starts
    new_tie[1:] |= energies[1:] != energies[:-1]
    tie_start = np.maximum.accumulate(np.where(new_tie, np.arange(len(keys)), 0))
    hits_before = np.concatenate(([0], np.cumsum(np.isin(keys, truth_keys))))
    entry_truth = truth_sizes[nodes[starts]]
    scored = int(atrophied.sum())
    per_rho: Dict[float, Tuple[float, float, float]] = {}
    for rho in percentiles:
        rank = np.maximum(1, np.ceil(rho * sizes)).astype(np.int64)
        first = tie_start[starts + rank - 1]
        hits = hits_before[ends] - hits_before[first]
        # nodes without an entry accept nothing: no precision term, and a
        # recall term of 0.0, which leaves a left-to-right sum unchanged
        pr_sum = _sequential_sum(hits / (ends - first))
        re_sum = _sequential_sum(hits / entry_truth)
        pr = pr_sum / len(starts) if len(starts) else 0.0
        re = re_sum / scored if scored else 0.0
        per_rho[rho] = (pr, re, f_score(pr, re))
    return per_rho, scored


# the config, each network's WalkTables and the targets are shipped to
# workers once, at pool start; a job is only its key
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(cfg, networks, targets):
    _WORKER_STATE.update(cfg=cfg, networks=networks, targets=targets)


def _job(key: Tuple[str, str, int, int]):
    """Run the job ``(mu_y, mu_x, d_idx, run)``: its result, or the message
    of a data error (ValueError), so a bad cell never takes down the whole
    grid; any other exception is a program bug and raises."""
    mu_y, mu_x, d_idx, run = key
    cfg = _WORKER_STATE["cfg"]
    seed = derive_seed(cfg.master_seed, mu_y, mu_x, d_idx, run)
    try:
        return _run_cell_once(
            _WORKER_STATE["networks"][mu_y], _WORKER_STATE["targets"][mu_x],
            cfg.densities[d_idx], cfg.percentiles, cfg.propagation, seed,
        )
    except ValueError as exc:
        return str(exc)


def _outcome(future: Future):
    """A pooled job's result or message; a job lost with a dead worker
    process gets a message that names the cause."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        return f"worker process died: {exc!r}"


def run_experiment(repo: Repository, cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Full grid: for each (mu_y, mu_x, density, run), atrophy and propagate
    once, then score every percentile.  Each mu_y's ``WalkTables`` are
    built once from the full repository, by ``walk_tables``, so no full
    weights array is made and no worker holds one.  Results are independent of
    ``workers``.  A network that fails to build, a job that raises ValueError, and a job
    whose worker process dies or that is submitted after one died are each
    reported as ``CellError``s; any other exception in a job raises.  A
    target property that no record holds, or fewer than one worker, is an
    error, raised before any network is built."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    properties = repo.property_types()
    for mu_x in cfg.target_properties:
        if mu_x not in properties:
            raise ValueError(
                f"no property {mu_x!r} in repository; its property types: {', '.join(properties)}"
            )
    networks: Dict[str, WalkTables] = {}
    # records in id order, which is the node order of every network built here
    records = list(repo)
    targets = {mu_x: numbered_values(records, mu_x) for mu_x in cfg.target_properties}
    errors: List[CellError] = []
    for mu_y in cfg.network_relations:
        try:
            networks[mu_y] = walk_tables(repo, mu_y)
        except ValueError as exc:
            for mu_x in cfg.target_properties:
                for density in cfg.densities:
                    errors.append(CellError(mu_y, mu_x, density, -1, f"network build failed: {exc}"))
    keys = [
        (mu_y, mu_x, d_idx, run)
        for mu_y in networks
        for mu_x in cfg.target_properties
        for d_idx in range(len(cfg.densities))
        for run in range(cfg.runs)
    ]
    if workers > 1 and len(keys) > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(cfg, networks, targets)
        ) as pool:
            futures = []
            for key in keys:
                try:
                    futures.append(pool.submit(_job, key))
                except BrokenProcessPool as exc:  # this job and every later one are lost
                    lost = Future()
                    lost.set_exception(exc)
                    futures += [lost] * (len(keys) - len(futures))
                    break
            outcomes = [_outcome(future) for future in futures]
    else:
        _init_worker(cfg, networks, targets)
        try:
            outcomes = [_job(key) for key in keys]
        finally:  # this process is no worker: let the networks go with the call
            _WORKER_STATE.clear()

    rows: List[MetricsRow] = []
    # keys run cell by cell, each cell's runs in run order
    for start in range(0, len(keys), cfg.runs):
        mu_y, mu_x, d_idx, _ = keys[start]
        density = cfg.densities[d_idx]
        done = []
        for run, outcome in enumerate(outcomes[start:start + cfg.runs]):
            if isinstance(outcome, str):
                errors.append(CellError(mu_y, mu_x, density, run, outcome))
            else:
                done.append(outcome)
        if not done:
            continue
        anomalous = networks[mu_y].mu == mu_x
        for rho in cfg.percentiles:
            prs, res, fs = zip(*(per_rho[rho] for per_rho, _ in done))
            rows.append(
                MetricsRow(
                    mu_y=mu_y,
                    mu_x=mu_x,
                    density=density,
                    percentile=rho,
                    precision=_sequential_sum(prs) / len(prs),
                    recall=_sequential_sum(res) / len(res),
                    f_score=_sequential_sum(fs) / len(fs),
                    f_score_max=max(fs),
                    runs_averaged=len(done),
                    nodes_scored=done[0][1],
                    anomalous=anomalous,
                )
            )
    return ExperimentResult(rows, errors)


RESULTS_HEADER = (
    "mu_y\tmu_x\tdensity\tpercentile\tprecision\trecall\tfscore\truns\t"
    "nodes_scored\tanomalous\tfscore_max"
)


def save_results(rows: Sequence[MetricsRow], destination) -> None:
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for r in rows:
            fh.write(
                f"{r.mu_y}\t{r.mu_x}\t{r.density!r}\t{r.percentile!r}\t"
                f"{r.precision!r}\t{r.recall!r}\t{r.f_score!r}\t{r.runs_averaged}\t"
                f"{r.nodes_scored}\t{int(r.anomalous)}\t{r.f_score_max!r}\n"
            )


_RESULTS_COLUMNS = RESULTS_HEADER.split("\t")


def _number(kind, parts: List[str], i: int, where: str):
    """Field ``i`` of a results line parsed by ``kind`` (int or float) and
    checked against its column's range."""
    name = _RESULTS_COLUMNS[i]
    try:
        value = kind(parts[i])
    except ValueError:
        raise ValueError(f"{where}: {name} must be {kind.__name__}, got {parts[i]!r}") from None
    if name in _RANGES:
        _check_range(name, value, repr(parts[i]), f"{where}: ")
    return value


def load_results(source) -> List[MetricsRow]:
    """Read a results file; a numeric field that does not parse, a score
    (precision, recall, F or max F) outside [0, 1], a density, percentile or
    run count outside the range ``ExperimentConfig`` allows, a negative
    ``nodes_scored``, an ``anomalous`` flag other than 0 or 1, a ``mu_y``
    that is not a relation label, a ``mu_x`` that is not a property type,
    or a second row for a (mu_y, mu_x, density, percentile) cell raises
    ValueError at its line."""
    rows: List[MetricsRow] = []
    cells = set()
    with open(source, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != RESULTS_HEADER:
            raise ValueError(f"{source}: not a results file (bad header)")
        for where, parts in _dump_fields(fh, source, 2, 11):
            if parts[9] not in ("0", "1"):
                raise ValueError(f"{where}: anomalous must be 0 or 1, got {parts[9]!r}")
            row = MetricsRow(
                mu_y=parts[0],
                mu_x=parts[1],
                density=_number(float, parts, 2, where),
                percentile=_number(float, parts, 3, where),
                precision=_number(float, parts, 4, where),
                recall=_number(float, parts, 5, where),
                f_score=_number(float, parts, 6, where),
                f_score_max=_number(float, parts, 10, where),
                runs_averaged=_number(int, parts, 7, where),
                nodes_scored=_number(int, parts, 8, where),
                anomalous=parts[9] == "1",
            )
            try:
                parse_relation(row.mu_y)
                _check_token(row.mu_x, "mu_x")
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            cell = (row.mu_y, row.mu_x, row.density, row.percentile)
            if cell in cells:
                raise ValueError(
                    f"{where}: a second row for {row.mu_y}/{row.mu_x} at density "
                    f"{row.density!r}, percentile {row.percentile!r}"
                )
            cells.add(cell)
            rows.append(row)
    return rows


def pair_summaries(rows: Sequence[MetricsRow]) -> Dict[Tuple[str, str], Tuple[float, float, bool]]:
    """(mu_y, mu_x) -> (max F, mean F, anomalous) over the density/percentile grid."""
    grouped: Dict[Tuple[str, str], List[MetricsRow]] = {}
    for r in rows:
        grouped.setdefault((r.mu_y, r.mu_x), []).append(r)
    out = {}
    for key, cells in sorted(grouped.items()):
        fs = [c.f_score for c in cells]
        out[key] = (max(fs), _sequential_sum(fs) / len(fs), cells[0].anomalous)
    return out


def landscape_text(rows: Sequence[MetricsRow], mu_y: str, mu_x: str) -> str:
    """One density x percentile F-score matrix as plain TSV text; a
    (density, percentile) cell that the pair's rows lack is a ValueError."""
    cells = {(r.density, r.percentile): r.f_score for r in rows if r.mu_y == mu_y and r.mu_x == mu_x}
    densities = sorted({d for d, _ in cells})
    percentiles = sorted({p for _, p in cells})
    missing = [(d, p) for d in densities for p in percentiles if (d, p) not in cells]
    if missing:
        d, p = missing[0]
        raise ValueError(f"no row for {mu_y}/{mu_x} at density {d!r}, percentile {p!r}")
    lines = ["density\\percentile\t" + "\t".join(repr(p) for p in percentiles)]
    for d in densities:
        vals = "\t".join(repr(cells[(d, p)]) for p in percentiles)
        lines.append(f"{d!r}\t{vals}")
    return "\n".join(lines) + "\n"


def write_landscapes(rows: Sequence[MetricsRow], directory) -> List[str]:
    """Write one landscape matrix file per (mu_y, mu_x) pair, named
    ``MU_Y__MU_X.tsv`` with "%" written "%25", "/" written "%2F" and "_"
    written "%5F" in each part, since a label may hold a "/" and a part with
    no "_" keeps the "__" joint unambiguous; returns paths."""
    import os

    def part(text: str) -> str:
        return text.replace("%", "%25").replace("/", "%2F").replace("_", "%5F")

    os.makedirs(directory, exist_ok=True)
    paths = []
    pairs = sorted({(r.mu_y, r.mu_x) for r in rows})
    for mu_y, mu_x in pairs:
        path = os.path.join(directory, f"{part(mu_y)}__{part(mu_x)}.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(landscape_text(rows, mu_y, mu_x))
        paths.append(path)
    return paths
