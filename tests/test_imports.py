"""What each command line call imports.

The package imports no numpy: float truncations, the float ladder of
``eval --extrapolate`` and numeric MZVs all run in plain Python floats.
So no call loads numpy, and ``eval --extrapolate`` runs where ``import
numpy`` fails.

No call loads ``dataclasses`` or ``inspect`` either: the value types are
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
print(*[m for m in ("numpy", "dataclasses", "inspect") if sys.modules.get(m)])
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


def run_call(tmp_path, code, argv):
    """Run code with argv in a fresh interpreter in tmp_path, beside the
    GRIDS files; return the words it printed."""
    for file, text in GRIDS.items():
        (tmp_path / file).write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("name", list(CALLS))
def test_imports_of_each_call(name, tmp_path):
    assert run_call(tmp_path, PROBE, CALLS[name]) == []


def test_extrapolate_without_numpy(tmp_path):
    # A None entry in sys.modules makes ``import numpy`` raise ImportError.
    blocked = 'import sys\nsys.modules["numpy"] = None\n' + PROBE
    assert run_call(tmp_path, blocked, CALLS["eval --extrapolate"]) == []


def test_trace_targets_resolve():
    """Every function the benchmark tracer wraps exists in the package.

    ``Tracer.install`` looks each of ``perfbench/tracing.py``'s TARGETS up
    without a default, so a renamed or removed function would break every
    traced run.  The tracer imports only the standard library and is
    loaded from its path.
    """
    import importlib
    import importlib.util

    path = SRC.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"schurmzv.{mod}"), fn, None))
    ]
    assert tracing.TARGETS and missing == []
