"""The benchmark's workloads and their seeded inputs.

One seed drives everything a workload needs: the corpus, the grid's master
seed and the walk seed.  The program under test only ever sees the record
file written here.  Generation is never timed.

- grid-cokey-5k: the criterion-7 grid over the dense co-keyword network
  (2.77M directed edges at seed 0); netbuild and the worker pool dominate,
  and every deposit is scored.
- cli-pipeline-5k: ingest -> build-network -> propagate through the CLI on
  the co-keyword corpus with ``jour`` dropped from ~40% of records; the
  network is written as TSV, then parsed back, and one walk runs cold.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Tuple

from metaprop.evalharness import DEFAULT_DENSITIES, DEFAULT_PERCENTILES, ExperimentConfig
from metaprop.records import Repository, ResourceRecord
from metaprop.swarm import PropagationConfig
from metaprop.synthetic import two_cluster_corpus

RECORDS_FILE = "records.jsonl"
DROP_SHARE = 0.4  # share of cli-pipeline records whose ``jour`` is removed


def cokey_corpus(n_records: int, seed: int) -> Repository:
    return two_cluster_corpus(n_records, seed=seed)


def partial_jour_corpus(n_records: int, seed: int) -> Repository:
    """The co-keyword corpus with ``jour`` removed from each record with
    probability DROP_SHARE, so propagation has metadata-poor nodes to fill."""
    rng = random.Random(seed)
    out = []
    for rec in two_cluster_corpus(n_records, seed=seed):
        props = dict(rec.properties)
        if rng.random() < DROP_SHARE:
            del props["jour"]
        out.append(ResourceRecord(rec.id, props))
    return Repository(out)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "grid": one run_experiment call; "pipeline": three CLI commands
    corpus: Callable[[int, int], Repository]
    n_records: int
    relation: str
    targets: Tuple[str, ...]  # grid mu_x; for the pipeline, the dropped property
    densities: Tuple[float, ...] = DEFAULT_DENSITIES
    percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES
    runs: int = 1
    max_steps: int = PropagationConfig.max_steps
    workers: int = 1

    @property
    def units(self) -> int:
        """Operations one pass attempts: grid jobs, or CLI commands."""
        if self.kind == "pipeline":
            return 3
        return len(self.targets) * len(self.densities) * self.runs

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            network_relations=(self.relation,),
            target_properties=self.targets,
            densities=self.densities,
            percentiles=self.percentiles,
            runs=self.runs,
            propagation=PropagationConfig(max_steps=self.max_steps),
            master_seed=seed,
        )

    def commands(self, workdir: str, seed: int, prefix: str) -> list:
        """The pipeline's CLI argument lists; outputs are named ``prefix``-*."""
        def out(name):
            return os.path.join(workdir, f"{prefix}-{name}")

        return [
            ("ingest", ["ingest", os.path.join(workdir, RECORDS_FILE), out("repo.jsonl")]),
            ("build_network", ["build-network", out("repo.jsonl"), "--relation", self.relation,
                               "--output", out("network.tsv")]),
            ("propagate", ["propagate", out("network.tsv"), out("repo.jsonl"), "--seed", str(seed),
                           "--max-steps", str(self.max_steps), "--output", out("store.tsv")]),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-cokey-5k",
            kind="grid",
            corpus=cokey_corpus,
            n_records=5000,
            relation="cokey",
            targets=("jour",),
            densities=(0.21, 0.61),
            percentiles=(0.0, 0.5, 1.0),
            runs=2,
            max_steps=30,
            workers=2,
        ),
        Workload(
            name="cli-pipeline-5k",
            kind="pipeline",
            corpus=partial_jour_corpus,
            n_records=5000,
            relation="cokey",
            targets=("jour",),
            max_steps=30,
        ),
    )
}


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate(workload: Workload, seed: int, workdir: str) -> dict:
    """Write the workload's record file for ``seed``; return its shape.

    The file is written here rather than with ``records.save_repository`` so
    that its bytes depend only on the seed and the corpus generator."""
    repo = workload.corpus(workload.n_records, seed)
    path = os.path.join(workdir, RECORDS_FILE)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in repo:
            props = {mu: sorted(rec.properties[mu]) for mu in sorted(rec.properties)}
            fh.write(json.dumps({"id": rec.id, "properties": props}, sort_keys=True) + "\n")
    return {
        "records": len(repo),
        "values": sum(len(v) for rec in repo for v in rec.properties.values()),
        "coverage": {mu: sum(1 for rec in repo if rec.values(mu)) for mu in repo.property_types()},
        "sha256": file_sha256(path),
    }
