"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 9 needs a converted hep-th 2003 record file and is skipped
unless METAPROP_HEPTH_RECORDS points at one.
"""

import itertools
import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop.evalharness import (
    ExperimentConfig,
    accept_meta,
    f_score,
    precision,
    recall,
    run_experiment,
    save_results,
)
from metaprop.netbuild import build_cooccurrence, build_occurrence, normalize
from metaprop.records import Repository, load_repository, make_record
from metaprop.swarm import PropagationConfig, RecommendationStore, propagate
from metaprop.synthetic import two_cluster_corpus

from corpora import random_repository


def edge_dict(net):
    """{(src, dst): weight} for every edge, read off the CSR arrays."""
    src = np.repeat(np.arange(len(net.ids)), np.diff(net.indptr)).tolist()
    ids = net.ids
    return {(ids[s], ids[d]): w for s, d, w in zip(src, net.indices.tolist(), net.weights.tolist())}


def test_criterion_1_formula_fixtures(table1_repo, chain_repo):
    net = build_cooccurrence(table1_repo, "key")
    assert dict(net.out_edges("ni")).get("nj") == 0.5
    assert dict(net.out_edges("nj")).get("ni") == 0.5

    targets = [f"t{i:02d}" for i in range(50)]
    repo = Repository([make_record(t, {}) for t in targets] + [make_record("s", {"cite": targets})])
    occurrence = build_occurrence(repo, "cite")
    assert all(dict(occurrence.out_edges("s")).get(t) == 0.02 for t in targets)

    # A -> B -> C: A's keyword arrives at B after one hop and at C after two
    chain = normalize(build_occurrence(chain_repo, "cite"))
    store = propagate(chain, chain_repo, PropagationConfig(delta=0.15, seed=0)).store
    assert store.entry("B", "key") == {"x": 0.85}
    assert abs(store.entry("C", "key")["x"] - 0.7225) < 1e-12
    print("ACCEPTANCE 1: PASS - formula fixtures exact")


def test_criterion_2_normalization_invariant():
    for seed in (0, 1):
        repo = random_repository(n_records=1000, vocab_size=40, cite_rate=0.004, seed=seed)
        for net in (build_cooccurrence(repo, "key"), build_occurrence(repo, "cite")):
            normed = normalize(net)
            for node in normed.nodes:
                out = normed.out_edges(node)
                if out:
                    assert math.isclose(sum(w for _, w in out), 1.0, abs_tol=1e-9)
    print("ACCEPTANCE 2: PASS - normalization sums to 1 within 1e-9 on 1,000-record repos")


def test_criterion_3_brute_force_cooccurrence_oracle():
    for seed in range(8):
        n = random.Random(seed).randint(2, 50)
        repo = random_repository(n_records=n, vocab_size=12, seed=seed)
        net = build_cooccurrence(repo, "key")
        built = edge_dict(net)
        reference = {}
        for i, j in itertools.combinations(repo.ids(), 2):
            a, b = repo.meta(i, "key"), repo.meta(j, "key")
            co = len(a & b)
            if co:
                w = co / (len(a) + len(b) - co)
                reference[(i, j)] = w
                reference[(j, i)] = w
        assert built == reference
    print("ACCEPTANCE 3: PASS - co-occurrence equals O(N^2) reference exactly")


def test_criterion_4_deterministic_walk_oracle():
    def geometric(t):
        e = 1.0
        for _ in range(t):
            e *= 1.0 - 0.15
        return e

    # chain A -> B -> C, only A carries a keyword
    chain = Repository(
        [
            make_record("A", {"cite": ["B"], "key": ["x"]}),
            make_record("B", {"cite": ["C"]}),
            make_record("C", {}),
        ]
    )
    net = normalize(build_occurrence(chain, "cite"))
    result = propagate(net, chain, PropagationConfig(seed=0))
    assert result.store.entry("B", "key") == {"x": geometric(1)}
    assert result.store.entry("C", "key") == {"x": geometric(2)}
    assert result.frozen == 3

    # plinko DAG: D -> B, E -> B, C -> A, B -> A; A is a dead end
    plinko = Repository(
        [
            make_record("A", {}),
            make_record("B", {"cite": ["A"]}),
            make_record("C", {"cite": ["A"], "tag": ["c"]}),
            make_record("D", {"cite": ["B"], "tag": ["d"]}),
            make_record("E", {"cite": ["B"], "tag": ["e"]}),
        ]
    )
    net = normalize(build_occurrence(plinko, "cite"))
    result = propagate(net, plinko, PropagationConfig(seed=0, max_steps=500))
    assert result.store.entry("B", "tag") == {"d": geometric(1), "e": geometric(1)}
    assert result.store.entry("A", "tag") == {"c": geometric(1), "d": geometric(2), "e": geometric(2)}
    # every particle reached the dead end and froze; exact sums above prove
    # nothing deposited after freezing
    assert result.frozen == 5
    assert result.residual_energy == 0.0
    print("ACCEPTANCE 4: PASS - deterministic-walk energies exact, dead-end freezing verified")


def test_criterion_5_metric_fixtures():
    truth = frozenset({"swarm", "network"})
    assert recall(truth, frozenset({"swarm"})) == 0.5
    assert precision(truth, frozenset({"swarm"})) == 1.0
    assert f_score(0.0, 0.0) == 0.0
    for pr in (0.0, 0.25, 0.5, 1.0):
        for re in (0.0, 0.3, 1.0):
            f = f_score(pr, re)
            if pr + re > 0:
                assert abs(f * (pr + re) - 2 * pr * re) < 1e-12
    print("ACCEPTANCE 5: PASS - metric fixtures and harmonic identity")


@settings(max_examples=200)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from(["n1", "n2", "n3"]), st.sampled_from(["key", "jour"])),
        st.dictionaries(
            st.text("abcdef", min_size=1, max_size=4),
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_criterion_6_percentile_endpoints(entries):
    store = RecommendationStore()
    for (node, mu), values in entries.items():
        for v, e in values.items():
            store.add(node, mu, v, e)
    all_accepted = accept_meta(store, 0.0)
    top_accepted = accept_meta(store, 1.0)
    for key, values in store.entries():
        assert all_accepted[key] == set(values)
        top = max(values.values())
        assert top_accepted[key] == {v for v, e in values.items() if e == top}


def test_criterion_6_pass_line():
    print("ACCEPTANCE 6: PASS - percentile endpoints (rho=0 all, rho=1 max tie set)")


def test_criterion_7_worker_determinism(tmp_path):
    repo = two_cluster_corpus(n_records=5000, seed=0)
    cfg = ExperimentConfig(
        network_relations=("cokey",),
        target_properties=("jour",),
        densities=(0.21, 0.61),
        percentiles=(0.0, 0.5, 1.0),
        runs=2,
        propagation=PropagationConfig(max_steps=30),
        master_seed=11,
    )
    serial = run_experiment(repo, cfg, workers=1)
    parallel = run_experiment(repo, cfg, workers=4)
    assert not serial.errors and not parallel.errors
    path_1 = tmp_path / "w1.tsv"
    path_4 = tmp_path / "w4.tsv"
    save_results(serial.rows, path_1)
    save_results(parallel.rows, path_4)
    assert path_1.read_bytes() == path_4.read_bytes()
    print("ACCEPTANCE 7: PASS - results byte-identical at 1 and 4 workers on 5,000 records")


def test_criterion_8_high_rho_wins_for_single_valued_property():
    f_low, f_high = [], []
    for seed in range(20):
        repo = two_cluster_corpus(n_records=150, seed=seed)
        cfg = ExperimentConfig(
            network_relations=("cokey",),
            target_properties=("jour",),
            densities=(0.61,),
            percentiles=(0.0, 1.0),
            runs=1,
            propagation=PropagationConfig(max_steps=30),
            master_seed=seed,
        )
        by_rho = {r.percentile: r.f_score for r in run_experiment(repo, cfg).rows}
        f_low.append(by_rho[0.0])
        f_high.append(by_rho[1.0])
    mean_low = sum(f_low) / len(f_low)
    mean_high = sum(f_high) / len(f_high)
    assert mean_high > mean_low + 0.05
    print(
        f"ACCEPTANCE 8: PASS - journal-over-co-keyword mean F rho=1 ({mean_high:.3f}) "
        f"beats rho=0 ({mean_low:.3f}) by > 0.05 over 20 seeds"
    )


HEPTH_ENV = "METAPROP_HEPTH_RECORDS"

# reported full-scale edge counts and headline F cells; convention unstated,
# so counts may match as either directed edges or unordered pairs
HEPTH_EDGE_COUNTS = {"cite": 27_240, "coauth": 724_406, "cokey": 12_418_172}
HEPTH_MAX_F = {("cite", "key"): 0.3913, ("coauth", "jour"): 0.2630}


@pytest.mark.skipif(HEPTH_ENV not in os.environ, reason=f"set {HEPTH_ENV} to a converted record file")
def test_criterion_9_hepth_reproduction():
    repo = load_repository(os.environ[HEPTH_ENV])
    for label, expected in HEPTH_EDGE_COUNTS.items():
        if label == "cite":
            net = build_occurrence(repo, "cite")
        else:
            net = build_cooccurrence(repo, label[2:])
        counts = (net.edge_count, net.pair_count)
        assert any(abs(c - expected) / expected <= 0.01 for c in counts), (
            f"{label}: {counts} vs expected {expected}"
        )
    for (mu_y, mu_x), expected in HEPTH_MAX_F.items():
        cfg = ExperimentConfig(
            network_relations=(mu_y,), target_properties=(mu_x,), runs=20, master_seed=0
        )
        rows = run_experiment(repo, cfg, workers=4).rows
        max_f = max(r.f_score for r in rows)
        assert abs(max_f - expected) <= 0.10, f"F({mu_x},{mu_y}) max {max_f} vs {expected}"
    print("ACCEPTANCE 9: PASS - hep-th edge counts within 1% and headline F cells within 0.10")
