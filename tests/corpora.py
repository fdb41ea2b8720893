"""Corpora that only the tests use."""

import random

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
