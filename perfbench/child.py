"""One measured pass of a workload, in a fresh process.

    python3 perfbench/child.py MODE WORKLOAD SEED RECORDS WORKDIR WORKERS TAG

Every mode first times set-up: importing metaprop and loading the record
file RECORDS with ``records.load_repository``.  Outputs go to WORKDIR, named
after TAG.  Then MODE ``setup`` stops, ``op`` runs the workload's operation
once with tracing off and WORKERS pool workers, and ``trace`` runs the traced
serial copy.  A fresh process per pass keeps the pool workers of one pass out
of the next pass's RUSAGE_CHILDREN.  Only os, sys and time are imported
before the timer starts, so set-up includes every other module metaprop
needs.  The last line of standard output is one JSON object.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    mode, name, seed, records_file, workdir, workers, tag = argv
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    t0 = time.perf_counter()
    from metaprop import records

    t1 = time.perf_counter()
    repo = records.load_repository(records_file)
    t2 = time.perf_counter()
    import json

    import passes
    from spans import Tracer
    from workloads import WORKLOADS

    workload, seed = WORKLOADS[name], int(seed)
    out = {"setup_s": t2 - t0}
    input_layers = {
        "records.ingest_s": t2 - t1,
        "records.count": len(repo),
        "records.values": sum(len(v) for rec in repo for v in rec.properties.values()),
    }
    if workload.kind == "pipeline":
        del repo  # the pipeline reads its own copies through the CLI
    if mode == "op" and workload.kind == "grid":
        out.update(passes.timed_grid(workload, seed, repo, workdir, int(workers), tag))
    elif mode == "op":
        out.update(passes.timed_pipeline(workload, seed, workdir, tag))
    elif mode == "trace":
        tracer = Tracer(f"{name}-{seed}")
        if workload.kind == "grid":
            out.update(passes.traced_grid(workload, seed, repo, workdir, tag, tracer))
        else:
            out.update(passes.traced_pipeline(workload, seed, workdir, tag, tracer))
        tracer.write(os.path.join(workdir, f"{tag}-spans.jsonl"))
        out["layers"].update(input_layers)
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
