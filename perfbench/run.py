"""metaprop benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a metaprop checkout; it imports the package from
``src/`` and writes only under ``.perfbench/``.  The seed is turned into a
record file (untimed), then every measured pass runs in a fresh child
process (child.py):

- ``--trace 0`` repeats rounds of one pass of the workload's operation with
  tracing off and a few set-up-only passes, while the next round still fits
  in S seconds (always at least one), and reports the medians of the
  end-to-end metrics named in BENCHMARK.json.
- ``--trace 1`` runs the operation once untraced, once untraced at one
  worker when the workload uses more (the serial reference), and once as
  the traced serial copy, and reports the per-layer metrics.  Per-layer
  metrics of a layer the workload never calls read 0.

Every pass's output is checked: its digests must equal the ones pinned for
this seed in pinned.json, or, at an unpinned seed, the first pass's; grid
rows must have the expected shape.  A failed pass counts all its units
(grid jobs or CLI commands) as failed.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PINNED = os.path.join(HERE, "pinned.json")
SETUPS_PER_ROUND = 2  # set-up-only passes before the first operation pass and after each
RUN_LIMIT_S = 170  # a pass still running this long after the start is killed


class Verdict:
    """Counts attempted and failed units and says whether outputs were right."""

    def __init__(self, workload, pin: dict | None):
        self.workload = workload
        self.pin = pin or {}
        self.expected = self.pin.get("outputs")
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def check(self, what: str, actual, expected) -> None:
        if expected is not None and actual != expected:
            self.notes.append(f"{what}: got {actual}, pinned {expected}")

    def judge(self, tag: str, out: dict | None) -> None:
        units = self.workload.units
        self.attempted += units
        if out is None:
            self.failed += units
            self.notes.append(f"{tag}: pass did not finish")
            return
        bad = list(out["problems"])
        if self.expected is None and not bad:
            self.expected = out["digests"]
        elif out["digests"] != self.expected:
            bad.append(f"output digests {out['digests']} != expected {self.expected}")
        if bad:
            self.failed += units
            self.notes.append(f"{tag}: " + "; ".join(bad))
        else:
            self.failed += out["failed_units"]
            if out["failed_units"]:
                self.notes.append(f"{tag}: {out['failed_units']} of {units} units failed")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.notes and self.attempted > 0


@dataclass
class Report:
    verdict: Verdict
    shape: dict
    deadline: float  # time.monotonic() by which every pass must have ended
    values: dict = field(default_factory=dict)  # metric name -> measured value
    passes: int = 0


def run_pass(report: Report, mode: str, workload, seed: int, workdir: str, workers: int, tag: str):
    """One child pass's JSON dict; None if it crashed or overran the run's
    deadline, with the reason on stderr."""
    from workloads import RECORDS_FILE

    cmd = [sys.executable, CHILD, mode, workload.name, str(seed),
           os.path.join(workdir, RECORDS_FILE), workdir, str(workers), tag]
    # own session, so a timeout can stop the child's pool workers with it
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(report.deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {tag} pass still running {RUN_LIMIT_S} s into the run", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {tag} pass exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def _median(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes) if passes else 0.0


def measure_untraced(workload, seed: int, seconds: float, workdir: str, report: Report) -> None:
    started = time.perf_counter()
    setups, ops = [], []

    def set_up_passes():
        for _ in range(SETUPS_PER_ROUND):
            tag = f"setup{len(setups)}"
            out = run_pass(report, "setup", workload, seed, workdir, workload.workers, tag)
            if out is None:
                report.verdict.notes.append(f"{tag}: pass did not finish")
                return
            setups.append(out)

    set_up_passes()
    longest_round = 0.0
    while True:
        round_started = time.perf_counter()
        tag = f"op{len(ops)}"
        out = run_pass(report, "op", workload, seed, workdir, workload.workers, tag)
        report.verdict.judge(tag, out)
        if out is None:
            break
        ops.append(out)
        set_up_passes()
        longest_round = max(longest_round, time.perf_counter() - round_started)
        if time.perf_counter() - started + longest_round > seconds:
            break
    report.passes = len(ops)
    report.values = {
        "wall_s": _median(ops, "wall_s"),
        "cpu_s": _median(ops, "cpu_s"),
        "peak_rss_mb": _median(ops, "peak_rss_mb"),
        "setup_s": _median(setups, "setup_s"),
    }


def measure_traced(workload, seed: int, workdir: str, report: Report) -> None:
    verdict = report.verdict
    ref = run_pass(report, "op", workload, seed, workdir, workload.workers, "ref")
    verdict.judge("ref", ref)
    serial = ref
    if workload.kind == "grid" and workload.workers > 1:
        serial = run_pass(report, "op", workload, seed, workdir, 1, "serial")
        verdict.judge("serial", serial)
    traced = run_pass(report, "trace", workload, seed, workdir, 1, "traced")
    verdict.judge("traced", traced)
    report.passes = 1
    if traced is None:
        return
    values = dict(traced["layers"])
    network = verdict.pin.get("network", {})
    for name in ("edges", "degree_median", "degree_max"):
        verdict.check(f"netbuild.{name}", values.get(f"netbuild.{name}"), network.get(name))
    values["trace.wall_s"] = traced["traced_wall_s"]
    if serial is not None:
        values["trace.overhead_s"] = traced["traced_wall_s"] - serial["wall_s"]
    if workload.kind == "grid" and serial is not None and ref is not None:
        values["evalharness.grid_w1_s"] = serial["wall_s"]
        # both walls untraced; the build runs once, before any job
        build = traced["build_s"]
        values["evalharness.parallel_efficiency"] = (serial["wall_s"] - build) / (
            workload.workers * (ref["wall_s"] - build)
        )
    report.values = values


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str, pins: dict) -> Report:
    from workloads import RECORDS_FILE, generate

    deadline = time.monotonic() + RUN_LIMIT_S
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    shape = generate(workload, seed, workdir)
    report = Report(Verdict(workload, pins.get(workload.name, {}).get(str(seed))), shape, deadline)
    report.verdict.check("input", shape, report.verdict.pin.get("input"))
    if trace:
        measure_traced(workload, seed, workdir, report)
    else:
        measure_untraced(workload, seed, seconds, workdir, report)
    # every output is digested by now; keep the inputs and the traced pass's
    # files (spans among them), not ~100 MB of network TSV per pipeline pass
    for name in os.listdir(workdir):
        if name != RECORDS_FILE and not name.startswith("traced-"):
            os.remove(os.path.join(workdir, name))
    return report


def result_line(report: Report, metrics: list) -> dict:
    """The final JSON object: every metric of ``metrics`` with its unit."""
    verdict = report.verdict
    return {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            m["name"]: {"value": report.values.get(m["name"], 0.0), "unit": m["unit"]} for m in metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "metaprop", "__init__.py")):
        print(f"perfbench: no metaprop package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(PINNED, encoding="utf-8") as fh:
        pins = json.load(fh)
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}")
    report = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir, pins)
    line = result_line(report, spec["per_layer" if args.trace else "end_to_end"])
    verdict = report.verdict
    for note in verdict.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} passes={report.passes} "
        f"failed_frac={verdict.failed / max(verdict.attempted, 1):.4f} "
        f"({verdict.failed}/{verdict.attempted}) correct={verdict.correct}"
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
