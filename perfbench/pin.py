"""Rewrite pinned.json: the input shape and output digests per seed.

    python3 perfbench/pin.py

For every workload and each seed of SEEDS this runs the traced measurement
with nothing pinned, requires every pass -- run_experiment or the CLI, and
the traced copy -- to produce the same bytes, and records the record file's shape and
digest, the output digests and the network's edge and degree counts.  A
change that is meant to alter outputs or inputs reruns it and says so.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEEDS = range(11)


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from workloads import WORKLOADS

    with open(run.PINNED, encoding="utf-8") as fh:
        pins = json.load(fh)
    for name in sorted(WORKLOADS):
        for seed in SEEDS:
            workdir = os.path.join(run.ROOT, ".perfbench", f"pin-{name}-{seed}")
            report = run.measure(WORKLOADS[name], seed, 0, True, workdir, {})
            if not report.verdict.correct:
                print(f"{name} seed {seed}: not pinned: {report.verdict.notes}", file=sys.stderr)
                return 1
            network = {k: report.values[f"netbuild.{k}"] for k in ("edges", "degree_median", "degree_max")}
            pins.setdefault(name, {})[str(seed)] = {
                "input": report.shape,
                "outputs": report.verdict.expected,
                "network": network,
            }
            print(f"{name} seed {seed}: {report.verdict.expected} {network}", flush=True)
            with open(run.PINNED, "w", encoding="utf-8") as fh:
                json.dump(pins, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
