"""circio runs on the standard library and click alone, in one process;
numpy is a test extra, and nothing loads dataclasses."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import circio

SRC = Path(circio.__file__).resolve().parent.parent

# A None entry in sys.modules makes every `import numpy` raise ImportError.
PROGRAM = textwrap.dedent(
    """
    import sys
    sys.modules["numpy"] = None
    from circio import CirculantGraph, ConnectionSet, isomorphic
    import circio.cli

    def graph(text):
        return CirculantGraph(ConnectionSet.parse(text))

    reject = isomorphic(graph("C8(1,2)"), graph("C8(1,3)"))
    iso = isomorphic(graph("C54(1,3,17,19)"), graph("C54(3,7,11,25)"))
    numpy = [m for m in sys.modules if m.split(".")[0] == "numpy"]
    pools = [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]
    print(
        reject.kind, reject.certificate, iso.kind, sys.modules["numpy"], numpy, pools,
        "dataclasses" in sys.modules,
    )
    """
)


def test_import_and_oracle_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # numpy's only entry is still the None placeholder: nothing imported it.
    assert done.stdout.split() == [
        "non-isomorphic",
        "spectrum[0]",
        "isomorphic",
        "None",
        "['numpy']",
        "[]",  # no process-pool module was imported either
        "False",  # nor dataclasses: the value types are plain slotted classes
    ]
