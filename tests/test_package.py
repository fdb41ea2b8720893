import os
import subprocess
import sys

import metaprop


def test_records_import_loads_no_numpy():
    # reading records is the set-up of every command; numpy and scipy are
    # paid for only by the modules that build and walk networks, and a
    # record needs no dataclasses, whose import loads inspect and ast
    heavy = "{'numpy', 'scipy', 'dataclasses'}"
    code = f"import sys, metaprop.records; print(sorted({heavy} & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(metaprop.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.stdout == "[]\n"
