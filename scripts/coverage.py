#!/usr/bin/env python3
"""Line coverage of the metaprop package under one pytest run, with the stdlib alone.

    python scripts/coverage.py [-- PYTEST_ARGS...]

Runs ``pytest PYTEST_ARGS`` in this process under ``trace.Trace``, with
``src/`` first on ``sys.path``, counting the lines run in the package's files
only.  A file's executable lines are the lines of every code object that
compiling it makes (``code.co_lines()``).  Code run in other processes (grid
workers, CLI subprocesses) or in threads that pytest starts is not counted.
The last line of standard output is one JSON object: pytest's exit status,
and for each file of ``src/metaprop``, relative to the repository root, its
sorted ``executed`` and ``executable`` line numbers and the share of the
latter that ran.  The exit status is pytest's.
"""

from __future__ import annotations

import json
import os
import sys
import trace

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "metaprop")


def _executable(path: str) -> set:
    with open(path, encoding="utf-8") as fh:
        codes = [compile(fh.read(), path, "exec")]
    lines = set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _traced_run(args) -> tuple:
    """pytest's exit status and the run's {(file, line): count} in the package."""
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    inside = {}  # co_filename -> whether it is one of the package's files

    def calls(frame, why, arg):  # give a line counter to package frames alone
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(PACKAGE + os.sep)
        return tracer.localtrace if inside[name] else None

    tracer.globaltrace = calls
    status = tracer.runfunc(pytest.main, list(args))
    return int(status), tracer.results().counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if args[:1] == ["--"]:
        args = args[1:]
    sys.path.insert(0, SRC)
    status, counts = _traced_run(args)
    ran = {}
    for (name, line), _ in counts.items():
        ran.setdefault(os.path.realpath(name), set()).add(line)
    files = {}
    for entry in sorted(os.listdir(PACKAGE)):
        if entry.endswith(".py"):
            path = os.path.join(PACKAGE, entry)
            executable = _executable(path)
            executed = ran.get(path, set()) & executable
            files[os.path.relpath(path, ROOT)] = {
                "executed": sorted(executed),
                "executable": sorted(executable),
                "percent": round(100.0 * len(executed) / len(executable), 1) if executable else 100.0,
            }
    print(json.dumps({"pytest_status": status, "files": files}))
    return status


if __name__ == "__main__":
    sys.exit(main())
