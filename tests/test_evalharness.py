import math
import multiprocessing
import os
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaprop import evalharness, swarm
from metaprop.evalharness import (
    RESULTS_HEADER,
    CellError,
    ExperimentConfig,
    MetricsRow,
    accept_meta,
    build_relation_network,
    f_score,
    kill_meta,
    load_results,
    pair_summaries,
    landscape_text,
    precision,
    recall,
    run_experiment,
    save_results,
    write_landscapes,
)
from metaprop.netbuild import AssociativeNetwork, normalize, numbered_values, parse_relation
from metaprop.records import Repository, ResourceRecord, make_record
from metaprop.swarm import PropagationConfig, RecommendationStore, propagate
from metaprop.synthetic import two_cluster_corpus


def _store(entries):
    store = RecommendationStore()
    for (node, mu), values in entries.items():
        for v, e in values.items():
            store.add(node, mu, v, e)
    return store


class TestKillMeta:
    def _repo(self, n=10, with_jour=None):
        with_jour = range(n) if with_jour is None else with_jour
        return Repository(
            [
                make_record(
                    f"r{i}",
                    {"key": [f"k{i}"]} | ({"jour": [f"j{i}"]} if i in set(with_jour) else {}),
                )
                for i in range(n)
            ]
        )

    def test_fraction_zero(self):
        repo = self._repo()
        atrophied, outcome = kill_meta(repo, 0.0, "jour", random.Random(0))
        assert atrophied == repo
        assert not outcome.ground_truth

    def test_fraction_one_empties_everything(self):
        repo = self._repo()
        atrophied, outcome = kill_meta(repo, 1.0, "jour", random.Random(0))
        assert len(outcome.atrophied_ids) == 10
        for rid in atrophied.ids():
            assert atrophied.meta(rid, "jour") == frozenset()
            assert outcome.ground_truth[(rid, "jour")] == repo.meta(rid, "jour")

    def test_half_of_hundred(self):
        repo = self._repo(n=100)
        _, outcome = kill_meta(repo, 0.5, "jour", random.Random(1))
        assert len(outcome.atrophied_ids) == 50

    def test_other_properties_untouched(self):
        repo = self._repo()
        atrophied, outcome = kill_meta(repo, 1.0, "jour", random.Random(0))
        for rid in atrophied.ids():
            assert atrophied.meta(rid, "key") == repo.meta(rid, "key")

    def test_only_eligible_selected(self):
        repo = self._repo(n=10, with_jour=[0, 1, 2])
        _, outcome = kill_meta(repo, 1.0, "jour", random.Random(0))
        assert outcome.atrophied_ids == {"r0", "r1", "r2"}

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            kill_meta(self._repo(), 1.5, "jour", random.Random(0))


class TestAcceptMeta:
    def test_top_percentile_takes_max(self):
        store = _store({("n", "key"): {"a": 0.85 + 0.85 * 0.85, "b": 0.85}})
        assert accept_meta(store, 1.0)[("n", "key")] == {"a"}

    def test_zero_percentile_takes_all(self):
        store = _store({("n", "key"): {"a": 1.573, "b": 0.85}})
        assert accept_meta(store, 0.0)[("n", "key")] == {"a", "b"}

    def test_tie_at_max(self):
        store = _store({("n", "key"): {"a": 0.5, "b": 0.5}})
        assert accept_meta(store, 1.0)[("n", "key")] == {"a", "b"}

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            accept_meta(_store({}), 1.1)

    @settings(max_examples=100)
    @given(
        st.dictionaries(
            st.text("abcdef", min_size=1, max_size=3),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_rho_with_exact_endpoints(self, energies, rho1, rho2):
        store = _store({("n", "mu"): energies})
        lo, hi = sorted((rho1, rho2))
        acc_lo = accept_meta(store, lo)[("n", "mu")]
        acc_hi = accept_meta(store, hi)[("n", "mu")]
        assert acc_hi <= acc_lo
        assert accept_meta(store, 0.0)[("n", "mu")] == set(energies)
        top = max(energies.values())
        assert accept_meta(store, 1.0)[("n", "mu")] == {
            v for v, e in energies.items() if e == top
        }


class TestMetrics:
    def test_worked_example(self):
        truth = frozenset({"swarm", "network"})
        accepted = frozenset({"swarm"})
        assert precision(truth, accepted) == 1.0
        assert recall(truth, accepted) == 0.5

    def test_full_recall(self):
        assert recall(frozenset({"swarm"}), frozenset({"swarm"})) == 1.0

    def test_precision_ratio(self):
        assert precision(frozenset({"swarm"}), frozenset({"swarm", "x", "y", "z"})) == 0.25

    def test_no_overlap(self):
        assert precision(frozenset({"a"}), frozenset({"b"})) == 0.0

    def test_empty_accepted_recall_zero(self):
        assert recall(frozenset({"a"}), frozenset()) == 0.0

    def test_empty_truth_recall_undefined(self):
        with pytest.raises(ValueError, match="empty ground-truth set"):
            recall(frozenset(), frozenset({"a"}))

    def test_empty_accepted_precision_undefined(self):
        with pytest.raises(ValueError):
            precision(frozenset({"a"}), frozenset())

    def test_f_score(self):
        assert f_score(1.0, 1.0) == 1.0
        assert f_score(1.0, 0.5) == pytest.approx(2 / 3, abs=1e-4)
        assert f_score(0.0, 0.0) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_harmonic_identity(self, pr, re):
        f = f_score(pr, re)
        if pr + re > 0:
            assert abs(f * (pr + re) - 2 * pr * re) < 1e-12
        else:
            assert f == 0.0


def _small_cfg(**overrides):
    base = dict(
        network_relations=("cokey",),
        target_properties=("jour",),
        densities=(0.61,),
        percentiles=(0.0, 1.0),
        runs=2,
        propagation=PropagationConfig(max_steps=20),
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_default_grid_row_count(self):
        repo = two_cluster_corpus(n_records=40, seed=0)
        cfg = _small_cfg(
            densities=(0.01, 0.21, 0.41, 0.61, 0.81),
            percentiles=tuple(round(i / 10, 1) for i in range(11)),
            runs=1,
        )
        result = run_experiment(repo, cfg)
        assert len(result.rows) == 55
        assert not result.errors

    def test_deterministic(self):
        repo = two_cluster_corpus(n_records=40, seed=0)
        assert run_experiment(repo, _small_cfg()).rows == run_experiment(repo, _small_cfg()).rows

    def test_network_built_from_full_repository(self):
        # atrophy must not leak into construction: the mu_y network from the
        # full repo is what every run uses, whatever the atrophy seed
        repo = two_cluster_corpus(n_records=40, seed=0)
        assert build_relation_network(repo, "cokey") == build_relation_network(repo, "cokey")
        rows_a = run_experiment(repo, _small_cfg(master_seed=1)).rows
        rows_b = run_experiment(repo, _small_cfg(master_seed=2)).rows
        assert rows_a[0].nodes_scored == rows_b[0].nodes_scored

    def test_anomalous_diagonal_flagged(self):
        repo = two_cluster_corpus(n_records=30, seed=1)
        cfg = _small_cfg(network_relations=("cokey",), target_properties=("key", "jour"))
        rows = run_experiment(repo, cfg).rows
        flags = {(r.mu_x): r.anomalous for r in rows}
        assert flags["key"] is True
        assert flags["jour"] is False

    def test_beats_shuffled_metadata_baseline(self):
        repo = two_cluster_corpus(n_records=120, seed=3)
        # baseline: same graph-relevant structure, journal values permuted
        rng = random.Random(99)
        journals = [sorted(rec.values("jour"))[0] for rec in repo]
        rng.shuffle(journals)
        shuffled = Repository(
            [
                make_record(rec.id, {"key": sorted(rec.values("key")), "jour": [j]})
                for rec, j in zip(repo, journals)
            ]
        )
        cfg = _small_cfg(percentiles=(1.0,), runs=3)
        f_real = run_experiment(repo, cfg).rows[0].f_score
        f_base = run_experiment(shuffled, cfg).rows[0].f_score
        assert f_real > f_base + 0.1

    def test_cell_error_recorded_not_raised(self):
        repo = two_cluster_corpus(n_records=20, seed=0)
        cfg = _small_cfg(network_relations=("cokey", "nosuchprop"))
        result = run_experiment(repo, cfg)
        assert result.rows  # cokey cells survived
        assert result.errors  # occurrence over a property nobody has

    def test_bad_relation_cells_name_the_valid_labels(self):
        # the grid checks a relation as build-network does; its cells used
        # to read only "... for relation 'nosuchprop'"
        repo = two_cluster_corpus(n_records=20, seed=0)
        result = run_experiment(repo, _small_cfg(network_relations=("cokey", "nosuchprop")))
        suffix = "; valid labels: coauth, cojour, cokey"
        assert result.errors
        for e in result.errors:
            assert e.mu_y == "nosuchprop"
            assert e.message.endswith(suffix)

    def test_occurrence_relation_without_edges_fails_its_cells(self):
        # no journal name is a record id, so "jour" makes no edge; the grid
        # used to walk the edgeless network and score every cell F = 0.0,
        # where build-network refused the relation
        repo = two_cluster_corpus(n_records=20, seed=0)
        cfg = _small_cfg(
            network_relations=("jour", "cokey"), target_properties=("jour", "auth"),
            densities=(0.41, 0.61),
        )
        result = run_experiment(repo, cfg)
        reason = (
            "network build failed: occurrence relation 'jour' produced no edges: "
            "no value of 'jour' is the id of another resource"
        )
        assert result.errors == [
            CellError("jour", mu_x, d, -1, reason) for mu_x in ("jour", "auth") for d in (0.41, 0.61)
        ]
        alone = run_experiment(repo, replace(cfg, network_relations=("cokey",)))
        assert alone.errors == [] and result.rows == alone.rows

    def test_density_counts_only_the_holders(self):
        # 50 of 100 records hold jour: density d keeps a share d of them.
        # The count used to be floor((1 - d) * 100) capped at 50, so every
        # density below 0.5 atrophied all 50 holders and scored alike
        base = two_cluster_corpus(n_records=100, seed=0)
        repo = Repository(
            [rec if i % 2 == 0 else ResourceRecord(rec.id, {"key": rec.properties["key"]})
             for i, rec in enumerate(base)]
        )
        densities = (0.01, 0.21, 0.41)
        expected = {0.01: 49, 0.21: 39, 0.41: 29}
        for density in densities:
            _, outcome = kill_meta(repo, 1.0 - density, "jour", random.Random(0))
            assert len(outcome.atrophied_ids) == expected[density]
        rows = run_experiment(repo, _small_cfg(densities=densities)).rows
        assert {r.density: r.nodes_scored for r in rows} == expected

    def test_unknown_target_property_is_an_error(self, monkeypatch):
        # it used to give a full grid of rows scoring 0 over 0 nodes
        built = []
        monkeypatch.setattr(evalharness, "build_relation_network", lambda *a, **k: built.append(a))
        repo = two_cluster_corpus(n_records=20, seed=0)
        message = "no property 'nosuch' in repository; its property types: auth, jour, key"
        with pytest.raises(ValueError, match=message):
            run_experiment(repo, _small_cfg(target_properties=("jour", "nosuch")))
        assert not built  # raised before any network was built

    def test_propagation_seed_is_an_error(self):
        # every walk's seed derives from master_seed; this one was ignored
        with pytest.raises(ValueError, match="^propagation.seed must be 0, got 5; set master_seed$"):
            _small_cfg(propagation=PropagationConfig(seed=5))

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_results_do_not_depend_on_the_start_method(self, tmp_path, method):
        # a pool that does not fork pickles the config, networks and targets
        # into each worker; Python 3.14 makes forkserver the Linux default
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        script = (
            "import multiprocessing, sys\n"
            "from metaprop.evalharness import ExperimentConfig, run_experiment, save_results\n"
            "from metaprop.synthetic import two_cluster_corpus\n"
            "if __name__ == '__main__':\n"
            f"    multiprocessing.set_start_method({method!r}, force=True)\n"
            "    repo = two_cluster_corpus(n_records=300, seed=0)\n"
            "    cfg = ExperimentConfig(('cokey', 'coauth'), ('jour',), runs=2)\n"
            "    for workers in (1, 2):\n"
            "        save_results(run_experiment(repo, cfg, workers=workers).rows, sys.argv[workers])\n"
        )
        src = str(Path(evalharness.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        (tmp_path / "grid.py").write_text(script)
        outputs = [tmp_path / "w1.tsv", tmp_path / "w2.tsv"]
        subprocess.run(
            [sys.executable, str(tmp_path / "grid.py"), *map(str, outputs)],
            env={**os.environ, "PYTHONPATH": path}, check=True,
        )
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        assert len(load_results(outputs[0])) == 2 * 5 * 11

    def test_serial_grid_lets_its_networks_go(self):
        run_experiment(two_cluster_corpus(n_records=20, seed=0), _small_cfg(), workers=1)
        assert evalharness._WORKER_STATE == {}

    @pytest.mark.parametrize("axis", ["network_relations", "target_properties", "densities", "percentiles"])
    def test_empty_axis_is_an_error(self, axis):
        with pytest.raises(ValueError, match=f"^{axis} must not be empty$"):
            _small_cfg(**{axis: ()})

    @pytest.mark.parametrize("axis, entries", [
        ("network_relations", ("cokey", "cokey")),
        ("target_properties", ("jour", "key", "jour")),
        ("densities", (0.21, 0.21)),
        ("percentiles", (0.0, 0.5, 0.5)),
    ])
    def test_repeated_axis_entry_is_an_error(self, axis, entries):
        # its jobs used to run twice, and its rows to be written twice
        with pytest.raises(ValueError, match=f"^{axis} repeats {entries[-1]!r}$"):
            _small_cfg(**{axis: entries})

    @pytest.mark.parametrize("setting, value, message", [
        ("densities", (0.41, 1.0), "density must be in (0, 1), got 1.0"),
        ("densities", (0.0,), "density must be in (0, 1), got 0.0"),
        ("percentiles", (0.5, -0.1), "percentile must be in [0, 1], got -0.1"),
        ("percentiles", (math.nan,), "percentile must be in [0, 1], got nan"),
        ("runs", 0, "runs must be >= 1, got 0"),
    ])
    def test_setting_outside_its_range_is_an_error(self, setting, value, message):
        with pytest.raises(ValueError) as caught:
            _small_cfg(**{setting: value})
        assert str(caught.value) == message

    def test_grid_over_an_occurrence_relation(self, tmp_path):
        # records cite in their own cluster, one cites an id no record has,
        # and every fifth cites nothing, so its particle freezes at once
        base = two_cluster_corpus(n_records=60, seed=4)
        rnd = random.Random(4)
        ids = base.ids()
        records = []
        for i, rec in enumerate(base):
            cites = [] if i % 5 == 0 else rnd.sample(ids[i % 2::2], 3)
            cites = [rid for rid in cites if rid != rec.id] + (["r99999"] if i == 1 else [])
            records.append(make_record(rec.id, {**rec.properties, "cite": cites}))
        repo = Repository(records)
        net = build_relation_network(repo, "cite")
        assert net.dangling == 1 and 0 in np.diff(net.indptr)
        cfg = _small_cfg(network_relations=("cite", "cokey"), target_properties=("jour",), runs=2)
        paths = []
        for workers in (1, 2):
            result = run_experiment(repo, cfg, workers=workers)
            assert not result.errors
            paths.append(tmp_path / f"w{workers}.tsv")
            save_results(result.rows, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        seed = evalharness.derive_seed(cfg.master_seed, "cite", "jour", 0, 1)
        args = (net, repo, "jour", cfg.densities[0], cfg.percentiles, cfg.propagation, seed)
        assert exact(run_cell_once(*args)) == exact(reference_run_cell_once(*args))
        assert {r.mu_y for r in load_results(paths[0])} == {"cite", "cokey"}

    def test_data_error_in_walk_becomes_cell_error(self, monkeypatch):
        def walk(net, cfg, payload, carriers_only=False):
            raise ValueError("bad data")

        monkeypatch.setattr(evalharness, "_walk", walk)
        result = run_experiment(two_cluster_corpus(n_records=20, seed=0), _small_cfg(), workers=1)
        assert not result.rows
        assert [e.message for e in result.errors] == ["bad data", "bad data"]

    def test_program_bug_in_walk_raises(self, monkeypatch):
        def walk(net, cfg, payload, carriers_only=False):
            raise TypeError("a bug")

        monkeypatch.setattr(evalharness, "_walk", walk)
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(two_cluster_corpus(n_records=20, seed=0), _small_cfg(), workers=1)
        assert evalharness._WORKER_STATE == {}

    @pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork",
        reason="pool workers inherit the patched job only when forked",
    )
    def test_dead_worker_becomes_cell_errors(self, monkeypatch):
        run_cell_once = evalharness._run_cell_once

        def dies_at_021(net, target, density, *rest):
            if density == 0.21:
                os._exit(1)
            return run_cell_once(net, target, density, *rest)

        monkeypatch.setattr(evalharness, "_run_cell_once", dies_at_021)
        cfg = _small_cfg(densities=(0.21, 0.61), runs=3)
        result = run_experiment(two_cluster_corpus(n_records=20, seed=0), cfg, workers=2)
        assert result.errors
        for e in result.errors:
            assert e.message.startswith("worker process died: BrokenProcessPool(")
        # every job is either averaged into its cell's rows or reported lost
        averaged = {r.density: r.runs_averaged for r in result.rows}
        assert 0.21 not in averaged
        for density in cfg.densities:
            lost = sorted(e.run for e in result.errors if e.density == density)
            assert averaged.get(density, 0) + len(lost) == cfg.runs
            assert len(set(lost)) == len(lost)

    @pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork",
        reason="pool workers inherit the patched job only when forked",
    )
    def test_worker_dead_before_a_submit_becomes_cell_errors(self, monkeypatch):
        # the pool breaks while jobs are still being submitted: submit itself
        # raises BrokenProcessPool, which used to take down the whole grid
        run_cell_once = evalharness._run_cell_once

        def dies_at_021(net, target, density, *rest):
            if density == 0.21:
                os._exit(1)
            return run_cell_once(net, target, density, *rest)

        class OneJobAtATime(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                future.exception()  # waits for the job to end
                return future

        monkeypatch.setattr(evalharness, "_run_cell_once", dies_at_021)
        monkeypatch.setattr(evalharness, "ProcessPoolExecutor", OneJobAtATime)
        cfg = _small_cfg(densities=(0.61, 0.21), runs=2)
        result = run_experiment(two_cluster_corpus(n_records=20, seed=0), cfg, workers=2)
        # the jobs that finished before the worker died are kept
        assert {(r.density, r.runs_averaged) for r in result.rows} == {(0.61, 2)}
        # the job that killed it, and the one whose submit failed, are reported lost
        assert [(e.density, e.run) for e in result.errors] == [(0.21, 0), (0.21, 1)]
        for e in result.errors:
            assert e.message.startswith("worker process died: BrokenProcessPool(")


def reference_run_cell_once(net, repo, mu_x, density, percentiles, prop_cfg, seed):
    """The grid job as the public functions define it: kill_meta, then
    propagate over the atrophied repository, then accept_meta at each rho,
    with precision and recall added node by node in id order.  It is the
    oracle for the job, which does none of these steps."""
    rng = random.Random(seed)
    atrophied_repo, outcome = kill_meta(repo, 1.0 - density, mu_x, rng)
    result = propagate(net, atrophied_repo, replace(prop_cfg, seed=seed))
    scored = sorted(outcome.atrophied_ids)
    per_rho = {}
    for rho in percentiles:
        accepted_map = accept_meta(result.store, rho)
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


def run_cell_once(net, repo, mu_x, density, percentiles, prop_cfg, seed):
    target = numbered_values(list(repo), mu_x)
    return evalharness._run_cell_once(net, target, density, percentiles, prop_cfg, seed)


def exact(job):
    """A job's outcome with each score as its type and hex, so equal means
    bit for bit, and a numpy float (whose repr differs) never passes."""
    per_rho, scored = job
    return {rho: [(type(x), x.hex()) for x in v] for rho, v in per_rho.items()}, scored


@st.composite
def cell_cases(draw):
    """A random normalized network over records that hold ``jour`` or not,
    with dead ends, isolated nodes and, at times, no edges at all."""
    rnd = random.Random(draw(st.integers(0, 2**32)))  # shapes network and records
    n = draw(st.integers(0, 50))
    ids = [f"r{i:02d}" for i in range(n)]
    coverage = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    records = []
    for rid in ids:
        props = {"key": rnd.sample("abcdefgh", rnd.randint(0, 3))}
        if rnd.random() < coverage:
            props["jour"] = rnd.sample("uvwxyz", rnd.randint(1, 4))
        records.append(make_record(rid, props))
    degrees = draw(st.sampled_from([[0], [0, 1, 2], [0, 0, 1, 2, 3, 5], [2, 4, 8]]))
    indptr, indices, weights = [0], [], []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        targets = sorted(rnd.sample(others, min(len(others), rnd.choice(degrees))))
        indices += targets
        # whole-number weights make equal draws, walks and energy sums likely
        weights += [float(rnd.randint(1, 3)) for _ in targets]
        indptr.append(len(indices))
    net = normalize(AssociativeNetwork(parse_relation("cite"), ids, indptr, indices, weights))
    density = draw(st.sampled_from(evalharness.DEFAULT_DENSITIES) | st.floats(0.001, 0.999))
    percentiles = tuple(
        draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=6))
    )
    prop_cfg = PropagationConfig(
        delta=draw(st.sampled_from([0.0, 0.15, 0.5, 1.0])),
        max_steps=draw(st.integers(1, 30)),
        energy_floor=draw(st.sampled_from([0.0, 1e-4, 5.0])),
    )
    return net, Repository(records), density, percentiles, prop_cfg, draw(st.integers(0, 2**64 - 1))


class TestJobMatchesReference:
    """The grid job against kill_meta -> propagate -> accept_meta -> score."""

    @settings(max_examples=300, deadline=None)
    @given(cell_cases())
    def test_random_cells(self, case):
        net, repo, *rest = case
        assert exact(run_cell_once(net, repo, "jour", *rest)) == exact(
            reference_run_cell_once(net, repo, "jour", *rest)
        )

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_ties_everywhere(self, delta):
        # delta=1 leaves every deposit at energy 0.0 and delta=0 at 1.0, so
        # entries tie wholesale and rho 1 accepts whole tie groups
        repo = two_cluster_corpus(n_records=120, seed=5)
        net = build_relation_network(repo, "cokey")
        cfg = PropagationConfig(delta=delta, max_steps=6, energy_floor=0.0)
        rhos = (0.0, 0.3, 0.5, 0.7, 1.0)
        for seed in range(4):
            got = run_cell_once(net, repo, "jour", 0.41, rhos, cfg, seed)
            assert exact(got) == exact(reference_run_cell_once(net, repo, "jour", 0.41, rhos, cfg, seed))
            assert got[1] == 70  # floor(0.59 * 120) records lose jour

    def test_no_edges(self):
        repo = two_cluster_corpus(n_records=20, seed=0)
        ids = repo.ids()
        net = AssociativeNetwork(parse_relation("cokey"), ids, [0] * 21, [], [], normalized=True)
        got = run_cell_once(net, repo, "jour", 0.21, (0.0, 1.0), PropagationConfig(), 3)
        assert got == reference_run_cell_once(net, repo, "jour", 0.21, (0.0, 1.0), PropagationConfig(), 3)
        assert got == ({0.0: (0.0, 0.0, 0.0), 1.0: (0.0, 0.0, 0.0)}, 15)

    def test_partial_coverage(self):
        # jour is held by every third record: the atrophy count is taken
        # over the holders, and nodes that never held jour take no scored deposit
        base = two_cluster_corpus(n_records=90, seed=2)
        repo = Repository(
            [rec if i % 3 == 0 else ResourceRecord(rec.id, {"key": rec.properties["key"]})
             for i, rec in enumerate(base)]
        )
        net = build_relation_network(repo, "cokey")
        for density in (0.01, 0.5, 0.81):
            args = (density, evalharness.DEFAULT_PERCENTILES, PropagationConfig(max_steps=20), 9)
            got = run_cell_once(net, repo, "jour", *args)
            assert exact(got) == exact(reference_run_cell_once(net, repo, "jour", *args))
            assert got[1] == math.floor((1.0 - density) * 30)

    def test_default_grid_at_5k(self):
        # the default densities and percentiles at the acceptance grid's
        # size, one run per density
        repo = two_cluster_corpus(n_records=5000, seed=0)
        net = build_relation_network(repo, "cokey")
        target = numbered_values(list(repo), "jour")
        for d_idx, density in enumerate(evalharness.DEFAULT_DENSITIES):
            seed = evalharness.derive_seed(0, "cokey", "jour", d_idx, 0)
            args = (density, evalharness.DEFAULT_PERCENTILES, PropagationConfig(), seed)
            got = evalharness._run_cell_once(net, target, *args)
            assert exact(got) == exact(reference_run_cell_once(net, repo, "jour", *args))


def partial_jour_repo():
    """90 two-cluster records of which every third holds ``jour``."""
    base = two_cluster_corpus(n_records=90, seed=2)
    return Repository(
        [rec if i % 3 == 0 else ResourceRecord(rec.id, {"key": rec.properties["key"]})
         for i, rec in enumerate(base)]
    )


class TestJobWalksOnlyCarriers:
    """A grid job seeds only the particles whose home keeps the target,
    which no results byte shows: each call's count of seeded ids."""

    @pytest.fixture
    def seeded(self, monkeypatch):
        counts = []
        node_seeds = swarm._node_seeds

        def counted(ids, seed):
            ids = list(ids)
            counts.append(len(ids))
            return node_seeds(ids, seed)

        monkeypatch.setattr(swarm, "_node_seeds", counted)
        return counts

    @pytest.mark.parametrize("density", [0.01, 0.41, 0.81])
    def test_job_seeds_the_carriers(self, seeded, density):
        repo = partial_jour_repo()
        net = build_relation_network(repo, "cokey")
        run_cell_once(net, repo, "jour", density, (0.0, 1.0), PropagationConfig(), 7)
        _, outcome = kill_meta(repo, 1.0 - density, "jour", random.Random(7))
        atrophied = np.isin(net.ids, sorted(outcome.atrophied_ids))
        carriers = int((numbered_values(list(repo), "jour").holds & ~atrophied).sum())
        assert seeded == [carriers]
        assert 0 < carriers < 30  # fewer than the holders, a third of the nodes

    def test_job_seeds_every_node_when_the_floor_can_stop(self, seeded):
        repo = partial_jour_repo()
        net = build_relation_network(repo, "cokey")
        run_cell_once(net, repo, "jour", 0.41, (0.0, 1.0), PropagationConfig(energy_floor=0.5), 7)
        assert seeded == [90]

    def test_propagate_seeds_every_node(self, seeded):
        repo = partial_jour_repo()
        propagate(build_relation_network(repo, "cokey"), repo, PropagationConfig())
        assert seeded == [90]


class TestResultsIO:
    def test_round_trip(self, tmp_path):
        repo = two_cluster_corpus(n_records=30, seed=2)
        rows = run_experiment(repo, _small_cfg()).rows
        path = tmp_path / "results.tsv"
        save_results(rows, path)
        assert load_results(path) == rows

    @pytest.mark.parametrize(
        "column, bad",
        [(2, "x"), (4, ""), (7, "2.5"), (8, "many"), (10, "1,0")],
    )
    def test_bad_number_rejected(self, tmp_path, column, bad):
        fields = "cokey jour 0.61 0.0 0.5 0.5 0.5 2 10 0 0.5".split()
        fields[column] = bad
        path = tmp_path / "results.tsv"
        path.write_text(RESULTS_HEADER + "\n" + "\t".join(fields) + "\n")
        name = RESULTS_HEADER.split("\t")[column]
        with pytest.raises(ValueError, match=rf"results\.tsv:2: {name} must be"):
            load_results(path)

    @pytest.mark.parametrize("cut, count", [(slice(0, 10), 10), (slice(0, 12), 12)])
    def test_wrong_field_count_rejected(self, tmp_path, cut, count):
        fields = ("cokey jour 0.61 0.0 0.5 0.5 0.5 2 10 0 0.5".split() + ["x"])[cut]
        path = tmp_path / "results.tsv"
        path.write_text(RESULTS_HEADER + "\n" + "\t".join(fields) + "\n")
        with pytest.raises(ValueError, match=rf"results\.tsv:2: expected 11 fields, got {count}$"):
            load_results(path)

    def test_blank_lines_skipped(self, tmp_path):
        rows = ["cokey jour 0.61 0.0 0.5 0.5 0.5 2 10 0 0.5", "cokey jour 0.61 1.0 1.0 0.25 0.4 2 10 0 0.5"]
        lines = [RESULTS_HEADER] + ["\t".join(r.split()) for r in rows]
        plain, blank = tmp_path / "plain.tsv", tmp_path / "blank.tsv"
        plain.write_text("\n".join(lines) + "\n")
        blank.write_text("\n\n".join(lines) + "\n\n")
        assert load_results(blank) == load_results(plain)
        assert len(load_results(plain)) == 2

    @pytest.mark.parametrize("flag", ["7", "", "true", "-1"])
    def test_anomalous_flag_must_be_0_or_1(self, tmp_path, flag):
        fields = "cokey jour 0.61 0.0 0.5 0.5 0.5 2 10 0 0.5".split()
        fields[9] = flag
        path = tmp_path / "results.tsv"
        path.write_text(RESULTS_HEADER + "\n" + "\t".join(fields) + "\n")
        with pytest.raises(ValueError, match=r"results\.tsv:2: anomalous must be 0 or 1"):
            load_results(path)

    @pytest.mark.parametrize("label", ["", "co", "co key", "occ:"])
    def test_mu_y_must_be_a_relation_label(self, tmp_path, label):
        fields = "cokey jour 0.61 0.0 0.5 0.5 0.5 2 10 0 0.5".split()
        fields[0] = label
        path = tmp_path / "results.tsv"
        path.write_text(RESULTS_HEADER + "\n" + "\t".join(fields) + "\n")
        with pytest.raises(ValueError, match=r"results\.tsv:2: (unknown relation label|bad property type)"):
            load_results(path)

    @pytest.mark.parametrize(
        "mu_x, fault", [("", "must be a non-empty string"), ("j r", "must not contain whitespace")]
    )
    def test_mu_x_must_be_a_property_type(self, tmp_path, mu_x, fault):
        fields = "cokey jour 0.61 0.0 0.5 0.5 0.5 2 10 0 0.5".split()
        fields[1] = mu_x
        path = tmp_path / "results.tsv"
        path.write_text(RESULTS_HEADER + "\n" + "\t".join(fields) + "\n")
        with pytest.raises(ValueError, match=rf"results\.tsv:2: mu_x {fault}"):
            load_results(path)

    def test_landscape_matrix(self, tmp_path):
        repo = two_cluster_corpus(n_records=30, seed=2)
        rows = run_experiment(repo, _small_cfg(densities=(0.41, 0.61))).rows
        text = landscape_text(rows, "cokey", "jour")
        assert text.startswith("density\\percentile\t0.0\t1.0\n")
        assert len(text.strip().splitlines()) == 3
        paths = write_landscapes(rows, tmp_path / "land")
        assert len(paths) == 1

    def test_landscape_names_are_distinct_when_parts_hold_underscores(self, tmp_path):
        # joined bare, both pairs would be named co:a__b__c.tsv
        rows = [
            MetricsRow(mu_y, mu_x, 0.41, 0.5, p, p, p, p, runs_averaged=1, nodes_scored=1,
                       anomalous=False)
            for (mu_y, mu_x), p in ((("co:a__b", "c"), 0.25), (("co:a", "b__c"), 0.75))
        ]
        paths = write_landscapes(rows, tmp_path / "land")
        assert sorted(Path(path).name for path in paths) == [
            "co:a%5F%5Fb__c.tsv", "co:a__b%5F%5Fc.tsv"
        ]
        assert Path(paths[0]).read_text() == landscape_text(rows, "co:a", "b__c")
        assert Path(paths[1]).read_text() == landscape_text(rows, "co:a__b", "c")

    def test_pair_summaries(self):
        repo = two_cluster_corpus(n_records=30, seed=2)
        rows = run_experiment(repo, _small_cfg()).rows
        summaries = pair_summaries(rows)
        fmax, fmean, anomalous = summaries[("cokey", "jour")]
        assert fmax >= fmean
        assert not anomalous
