"""Byte pins for the files that cross the program's boundary.

The network TSV, the store dump and the results TSV are metaprop's output
contract: the same records, relation, seed and grid must give the same bytes.
The digests below were taken from the dict-of-dicts implementation that the
array-backed network replaced, so any change to build, normalize, walk or
serialization order shows up here as a digest mismatch.
"""

import hashlib
import random

import pytest

from metaprop.evalharness import ExperimentConfig, run_experiment, save_results
from metaprop.netbuild import (
    build_cooccurrence,
    build_occurrence,
    load_network,
    normalize,
    save_network,
)
from metaprop.records import Repository, ResourceRecord
from metaprop.swarm import PropagationConfig, propagate, save_store
from metaprop.synthetic import two_cluster_corpus

from corpora import random_repository

PINS = {
    "cokey-raw": "36144df59d1edac0230d0d58e3c681ae198b10c46c9c1e137cac80b5c5b31291",
    "cokey-network": "d10c0b29cbe6d014002838ef2a671da0c500b9f8dd19eb65b707540b788a6519",
    "cite-network": "d822ff52ed445cea55daecb8ec2b8b124a353c69a53e67fc7237a2d7ca03a0c8",
    "cokey-store": "f87acf54907f9f793e3920bdc239362693e968bcb5ac59fe24d408708edf3483",
    "cite-store": "87dee2ba71666d46bcb6baf49997029da282155d3d2a7c12dbd3f7ccf197aecf",
    # re-pinned when the atrophy count came to be taken over the holders
    # only (this corpus's jour has partial coverage)
    "results": "4fef836a20e2a7ccd0c0f87adb9014d8bb91c013dfaddef51f309526992d3dd6",
}


def partial_jour_corpus():
    """two_cluster_corpus(300) with ``jour`` dropped from ~40% of records."""
    rng = random.Random(7)
    out = []
    for rec in two_cluster_corpus(300, seed=3):
        props = dict(rec.properties)
        if rng.random() < 0.4:
            del props["jour"]
        out.append(ResourceRecord(rec.id, props))
    return Repository(out)


def cite_corpus():
    return random_repository(200, property_types=("key", "jour"), cite_rate=0.01, seed=4)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned")
    repo, cites = partial_jour_corpus(), cite_corpus()
    raw = build_cooccurrence(repo, "key")
    save_network(raw, out / "cokey-raw")
    cokey = normalize(raw)
    save_network(cokey, out / "cokey-network")
    cite = normalize(build_occurrence(cites, "cite"))
    save_network(cite, out / "cite-network")
    save_store(propagate(cokey, repo, PropagationConfig(max_steps=20, seed=5)).store, out / "cokey-store")
    save_store(propagate(cite, cites, PropagationConfig(seed=6)).store, out / "cite-store")
    cfg = ExperimentConfig(
        network_relations=("cokey", "coauth"),
        target_properties=("jour",),
        densities=(0.21, 0.61),
        percentiles=(0.0, 0.5, 1.0),
        runs=2,
        propagation=PropagationConfig(max_steps=20),
        master_seed=11,
    )
    result = run_experiment(repo, cfg)
    assert not result.errors
    save_results(result.rows, out / "results")
    return out


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_bytes_pinned(outputs, name):
    assert sha256(outputs / name) == PINS[name]


@pytest.mark.parametrize("name", ["cokey-raw", "cokey-network", "cite-network"])
def test_shuffled_edge_lines_load_to_equal_network(outputs, tmp_path, name):
    header, *body = (outputs / name).read_text().splitlines(keepends=True)
    random.Random(1).shuffle(body)
    body.insert(len(body) // 2, "\n")  # blank lines are skipped
    shuffled = tmp_path / "shuffled.tsv"
    shuffled.write_text(header + "".join(body))
    net = load_network(shuffled)
    assert net == load_network(outputs / name)
    save_network(net, tmp_path / "resaved.tsv")
    assert (tmp_path / "resaved.tsv").read_bytes() == (outputs / name).read_bytes()
