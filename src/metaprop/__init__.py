"""metaprop: associative-network construction, particle-based metadata
propagation, and an atrophy/recover evaluation harness.

The names below are re-exported from their submodules on first access
(PEP 562), so ``import metaprop.records`` does not load numpy or scipy;
the network modules pay that import when first used.
"""

import importlib

_EXPORTS = {
    "Repository": "records",
    "ResourceRecord": "records",
    "ingest": "records",
    "load_repository": "records",
    "make_record": "records",
    "save_repository": "records",
    "AssociativeNetwork": "netbuild",
    "Relation": "netbuild",
    "build_cooccurrence": "netbuild",
    "build_occurrence": "netbuild",
    "load_network": "netbuild",
    "normalize": "netbuild",
    "parse_relation": "netbuild",
    "save_network": "netbuild",
    "PropagationConfig": "swarm",
    "PropagationResult": "swarm",
    "RecommendationStore": "swarm",
    "load_store": "swarm",
    "propagate": "swarm",
    "save_store": "swarm",
    "AtrophyOutcome": "evalharness",
    "ExperimentConfig": "evalharness",
    "ExperimentResult": "evalharness",
    "MetricsRow": "evalharness",
    "accept_meta": "evalharness",
    "f_score": "evalharness",
    "kill_meta": "evalharness",
    "load_results": "evalharness",
    "precision": "evalharness",
    "recall": "evalharness",
    "run_experiment": "evalharness",
    "save_results": "evalharness",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
