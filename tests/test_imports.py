"""What each command line call imports.

numpy is imported only by the float ladder, so ``eval --extrapolate`` is
the one subcommand that loads it: the exact determinant
(schurmzv.evaluate), numeric MZVs, regularization, the regularized check
and every checkerboard command run without it.

No call other than ``eval --extrapolate`` loads ``dataclasses`` or
``inspect`` either (numpy may load them): the value types are
``schurmzv.record.Record``s, so a call neither imports ``inspect`` nor
generates methods with ``exec`` at start-up.

Each call runs in a fresh interpreter, since this test process has long
since imported all three itself and a module loaded by one call would
hide whether the next one loads it too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = r"""
import contextlib, io, sys
argv = sys.argv[1:]
if argv:
    from schurmzv import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
else:
    import schurmzv.evaluate
print(*[m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules])
"""

GRIDS = {
    "sq.tab": "3 1 3\n1 3 1\n3 1 3\n",
    "stair.shape": ". x x\nx x\nx\n",
    "shape.tab": "x x x\nx x x\nx x x\n",
}

CALLS = {
    "evaluate": [],
    "eval": ["eval", "-M", "4", "sq.tab"],
    "expand": ["expand", "sq.tab"],
    "regularize": ["regularize", "sq.tab"],
    "decompose": ["decompose", "--ribbon", "stair.shape", "shape.tab"],
    "jt-check": ["jt-check", "-M", "4", "--ribbon", "stair.shape", "sq.tab"],
    "jt-check --regularized": ["jt-check", "--regularized", "--ribbon", "stair.shape", "sq.tab"],
    "mzv": ["mzv", "--index", "2,1,3"],
    "checkerboard eval": ["checkerboard", "eval", "sq.tab"],
    "checkerboard alpha": ["checkerboard", "alpha", "--n", "1..3"],
    "checkerboard tessellate": ["checkerboard", "tessellate", "--kind", "A", "stair.shape"],
    "eval --extrapolate": ["eval", "-M", "4", "--extrapolate", "--ladder", "8,16", "sq.tab"],
}


@pytest.mark.parametrize("name", list(CALLS))
def test_imports_of_each_call(name, tmp_path):
    for file, text in GRIDS.items():
        (tmp_path / file).write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *CALLS[name]],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    if name == "eval --extrapolate":
        assert "numpy" in loaded
    else:
        assert loaded == []
