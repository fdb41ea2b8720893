"""Corpora, and the oracles read off them, that only the tests use."""

import itertools
import random

import numpy as np

from metaprop.records import Repository, make_record


def random_repository(
    n_records: int = 50,
    property_types: tuple = ("key", "auth"),
    vocab_size: int = 30,
    max_values: int = 5,
    cite_rate: float = 0.0,
    seed: int = 0,
) -> Repository:
    """Unstructured random records; with ``cite_rate`` > 0 each record also
    cites a random subset of the other records."""
    rng = random.Random(seed)
    ids = [f"n{i:04d}" for i in range(n_records)]
    records = []
    for rid in ids:
        props = {}
        for mu in property_types:
            count = rng.randrange(max_values + 1)
            if count:
                props[mu] = rng.sample([f"{mu}-v{v}" for v in range(vocab_size)], count)
        if cite_rate > 0.0:
            cited = [other for other in ids if other != rid and rng.random() < cite_rate]
            if cited:
                props["cite"] = cited
        records.append(make_record(rid, props))
    return Repository(records)


def brute_force_cooccurrence(repo, mu):
    """O(N^2) reference for the co-occurrence definition: edge weights as a
    dict {(src, dst): w}.  Kept independent of build_cooccurrence's sparse product."""
    weights = {}
    ids = repo.ids()
    for i, j in itertools.combinations(ids, 2):
        a, b = repo.meta(i, mu), repo.meta(j, mu)
        co = len(a & b)
        if co:
            w = co / (len(a) + len(b) - co)
            weights[(i, j)] = w
            weights[(j, i)] = w
    return weights


def edge_list(net):
    """All (src, dst, weight) triples in sorted order, read off the CSR arrays."""
    src = np.repeat(np.arange(len(net.ids)), np.diff(net.indptr)).tolist()
    ids = net.ids
    return [(ids[s], ids[d], w) for s, d, w in zip(src, net.indices.tolist(), net.weights.tolist())]


def edge_dict(net):
    """{(src, dst): weight} for every edge."""
    return {(s, d): w for s, d, w in edge_list(net)}
