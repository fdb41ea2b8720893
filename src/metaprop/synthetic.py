"""Synthetic corpora for tests and desk-scale experiments.

The two-cluster corpus gives each cluster its own journal and keyword
vocabulary, with each journal tied to a topical keyword subset, so that
co-keyword neighborhoods are informative about the (single-valued) journal
property.  A share of records also takes one cluster-wide "bridge" keyword,
which keeps the topical communities connected within a cluster.
"""

from __future__ import annotations

import random

from .records import Repository, make_record

JOURNALS_PER_CLUSTER = 4
KEYWORDS_PER_JOURNAL = 8
BRIDGE_KEYWORDS = 6  # per cluster
KEYWORDS_PER_RECORD = 3  # topical ones, drawn from the record's journal's vocabulary
BRIDGE_RATE = 0.35  # the share of records that also take a bridge keyword


def two_cluster_corpus(n_records: int = 200, seed: int = 0) -> Repository:
    rng = random.Random(seed)
    records = []
    for i in range(n_records):
        cluster = i % 2
        j = rng.randrange(JOURNALS_PER_CLUSTER)
        journal = f"c{cluster}-journal{j}"
        vocab = [f"c{cluster}-j{j}-kw{k}" for k in range(KEYWORDS_PER_JOURNAL)]
        keywords = set(rng.sample(vocab, KEYWORDS_PER_RECORD))
        if rng.random() < BRIDGE_RATE:
            keywords.add(f"c{cluster}-bridge{rng.randrange(BRIDGE_KEYWORDS)}")
        records.append(
            make_record(
                f"r{i:05d}",
                {"jour": [journal], "key": sorted(keywords), "auth": [f"c{cluster}-author{j}"]},
            )
        )
    return Repository(records)
