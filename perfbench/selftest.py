"""Toy-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a few hundred records, untraced and traced, and
checks that the result line carries every metric BENCHMARK.json names, each
with its unit, with nothing failed.  Then it pins, for each workload, the
digest of a perturbed copy of one output file and checks that the same run
now counts every unit as failed.  Takes about ten seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import run

TOY_RECORDS = {"grid-cokey-5k": 300, "cli-pipeline-5k": 300}
SEED = 3


def _check_line(line: dict, metrics: list) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, line
    assert list(line["metrics"]) == [m["name"] for m in metrics], line["metrics"]
    for m in metrics:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (m, got)


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from workloads import WORKLOADS

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for name, n_records in TOY_RECORDS.items():
        toy = dataclasses.replace(WORKLOADS[name], n_records=n_records)
        workdir = os.path.join(run.ROOT, ".perfbench", f"selftest-{name}")
        untraced = run.measure(toy, SEED, 1, False, workdir, {})
        _check_line(run.result_line(untraced, spec["end_to_end"]), spec["end_to_end"])
        traced = run.measure(toy, SEED, 1, True, workdir, {})
        _check_line(run.result_line(traced, spec["per_layer"]), spec["per_layer"])

        # flip one byte of an output the last pass wrote; pin that file's digest
        key = next(iter(traced.verdict.expected))
        path = os.path.join(workdir, f"traced-{key}.tsv")
        data = bytearray(open(path, "rb").read())
        data[-2] ^= 1
        outputs = dict(traced.verdict.expected, **{key: hashlib.sha256(data).hexdigest()})
        pins = {name: {str(SEED): {"input": untraced.shape, "outputs": outputs}}}
        perturbed = run.measure(toy, SEED, 1, False, workdir, pins)
        line = run.result_line(perturbed, spec["end_to_end"])
        assert line["correct"] is False and line["failed"] == line["attempted"] >= 1, line
        print(f"selftest {name}: ok ({untraced.passes} untraced passes; "
              f"perturbed {key} -> failed_frac {line['failed'] / line['attempted']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
