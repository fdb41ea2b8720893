"""Synthetic corpora for tests and desk-scale experiments.

The two-cluster corpus gives each cluster its own journal and keyword
vocabulary, with each journal tied to a topical keyword subset, so that
co-keyword neighborhoods are informative about the (single-valued) journal
property.  A configurable share of cluster-wide "bridge" keywords keeps the
topical communities connected within a cluster.
"""

from __future__ import annotations

import random
from typing import Optional

from .records import Repository, make_record


def two_cluster_corpus(
    n_records: int = 200,
    journals_per_cluster: int = 4,
    keywords_per_journal: int = 8,
    bridge_keywords: int = 6,
    keywords_per_record: int = 3,
    bridge_rate: float = 0.35,
    seed: int = 0,
) -> Repository:
    rng = random.Random(seed)
    records = []
    for i in range(n_records):
        cluster = i % 2
        j = rng.randrange(journals_per_cluster)
        journal = f"c{cluster}-journal{j}"
        vocab = [f"c{cluster}-j{j}-kw{k}" for k in range(keywords_per_journal)]
        keywords = set(rng.sample(vocab, min(keywords_per_record, len(vocab))))
        if rng.random() < bridge_rate:
            keywords.add(f"c{cluster}-bridge{rng.randrange(bridge_keywords)}")
        records.append(
            make_record(
                f"r{i:05d}",
                {"jour": [journal], "key": sorted(keywords), "auth": [f"c{cluster}-author{j}"]},
            )
        )
    return Repository(records)

