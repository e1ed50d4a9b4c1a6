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

The benchmark's modules under ``perfbench/`` are loaded from their paths,
to check that what they read of the package still exists and works.
"""

import importlib
import importlib.util
import os
import random
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


def load_bench_module(name):
    """A module of ``perfbench/`` loaded from its path."""
    path = SRC.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    """Every function the benchmark tracer wraps exists in the package.

    ``Tracer.install`` looks each of ``perfbench/tracing.py``'s TARGETS up
    without a default, so a renamed or removed function would break every
    traced run.  The tracer imports only the standard library.
    """
    tracing = load_bench_module("tracing")
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"schurmzv.{mod}"), fn, None))
    ]
    assert tracing.TARGETS and missing == []


def cheap_ops(draw, rng, n, top_class):
    """The first ``n`` ops ``draw`` gives of cost class at most ``top_class``."""
    ops = []
    while len(ops) < n:
        cls, op = draw(rng)
        if op is not None and 0 <= cls <= top_class:
            ops.append(op)
    return ops


def test_benchmark_workloads_run_and_check(tmp_path, capsys):
    """The benchmark's workloads read library attributes that no other test
    here reads (``DiagonalTableau.value_map`` and ``value_at``,
    ``cli.render_grid``, ``cli.DEFAULT_LADDER``, ...): a few cheap ops of
    each, drawn, run and checked by ``perfbench/workloads.py``'s own
    functions, and one round of CLI calls in process."""
    from schurmzv import cli

    W = load_bench_module("workloads")
    rng = random.Random(25)
    for op in cheap_ops(W.draw_fillings, rng, 3, 2):
        report = W.fillings_run(op)
        assert report.equal and report.lhs == W.fillings_oracle(op)
    for op in cheap_ops(W.draw_checkerboard, rng, 3, 6):
        stair, column = W.closed_run(op)
        assert stair == column
    for _ in range(3):
        assert W.reg_run(W.draw_regularize(rng)).max_discrepancy <= W.REG_TOL

    def write(text):
        path = tmp_path / f"in{len(list(tmp_path.iterdir())):04d}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    for op in W.make_cli_round(rng, write):
        assert cli.main(op.argv) == 0, op.argv
        out = capsys.readouterr().out
        assert W.cli_check(op, W.parse_cli_output(out.encode("utf-8"))) is None, op.argv
