"""Whole CLI documents, byte for byte, against pinned outputs.

Each case runs the CLI in a fresh interpreter from ``tests/golden``, so the
input echo holds the bare file names and no module cache carries over from
other tests, and compares stdout with ``tests/golden/expected/<case>``.  The
expected files were written by the CLI before the subribbon loops were
folded into ``ribbons.ribbon_matrix``.  The float fields of the nine
``checkerboard_eval_sq*`` and ``jt_check_regularized_*`` documents were
rewritten when ``numeric_mzv`` became the Hölder convolution, which moved
them closer to 30-digit references.  They were rewritten again when
``numeric_mzv`` and the regularized check's determinant left numpy: each
moved number stays within n 2^-53 times the absolute sum of its n terms,
and the documents no longer depend on which BLAS kernel the CPU gets.
When the tolerance setting, which changed no value, was retired, fifteen
documents lost keys and nothing else: ``diagnostics.tolerance`` (the six
``checkerboard_eval_*``), ``diagnostics.entry_tolerance`` (the four
``jt_check_regularized_*``), and the ``input.T``/``input.check_tol``
echoes of flags nobody passed (those four and the five exact
``jt_check_*``).  A refactor must leave every file
unchanged; a change that makes numbers more accurate rewrites only the
fields it moves.

The grids: ``sqN_diagV.tab`` is the N x N {1,3} checkerboard with V on the
main diagonal; ``host12`` is the 12-cell host (4,3,3,2,1)/(1) of
tests/test_ribbons.py with its four-piece guide, whose table has empty and
undefined entries; ``host4`` is (3,2)/(1), cut into columns.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SRC = HERE.parent / "src"

CASES = {
    "decompose_host12": ["decompose", "--ribbon", "guide12.shape", "host12.shape"],
    "decompose_host12_pretty": ["decompose", "--pretty", "--ribbon", "guide12.shape", "host12.tab"],
    "decompose_host4": ["decompose", "--ribbon", "column4.shape", "host4.tab"],
    "decompose_sq3_stair": ["decompose", "--ribbon", "stair3.shape", "sq3_diag3.tab"],
    "decompose_sq3_column": ["decompose", "--ribbon", "column5.shape", "sq3_diag1.tab"],
    "decompose_sq5_stair": ["decompose", "--ribbon", "stair5.shape", "sq5_diag1.tab"],
    "decompose_sq5_column": ["decompose", "--ribbon", "column9.shape", "sq5_diag3.tab"],
    "jt_check_host12": ["jt-check", "-M", "5", "--ribbon", "guide12.shape", "host12.tab"],
    "jt_check_sq3_stair": ["jt-check", "-M", "6", "--ribbon", "stair3.shape", "sq3_diag3.tab"],
    "jt_check_sq3_column": ["jt-check", "-M", "6", "--ribbon", "column5.shape", "sq3_diag1.tab"],
    "jt_check_sq5_stair": ["jt-check", "-M", "7", "--ribbon", "stair5.shape", "sq5_diag3.tab"],
    "jt_check_sq5_column": ["jt-check", "-M", "7", "--ribbon", "column9.shape", "sq5_diag1.tab"],
    "jt_check_regularized_sq3_stair": [
        "jt-check", "--regularized", "--ribbon", "stair3.shape", "sq3_diag3.tab",
    ],
    "jt_check_regularized_sq3_diag1": [
        "jt-check", "--regularized", "--T", "0,1,2.5", "--ribbon", "stair3.shape", "sq3_diag1.tab",
    ],
    "jt_check_regularized_sq3_column": [
        "jt-check", "--regularized", "--T=-1,0.5", "--ribbon", "column5.shape", "sq3_diag1.tab",
    ],
    "jt_check_regularized_host4": [
        "jt-check", "--regularized", "--T", "0,1,3", "--ribbon", "column4.shape", "host4.tab",
    ],
    "eval_sq3_diag3": ["eval", "-M", "6", "sq3_diag3.tab"],
    "eval_sq3_diag1_extrapolate": [
        "eval", "-M", "6", "--extrapolate", "--ladder", "8,16", "sq3_diag1.tab",
    ],
    "eval_sq5_diag3": ["eval", "-M", "7", "sq5_diag3.tab"],
    "regularize_sq2_diag1": ["regularize", "sq2_diag1.tab"],
    "regularize_host4": ["regularize", "host4.tab"],
    "checkerboard_eval_sq3_diag3": ["checkerboard", "eval", "sq3_diag3.tab"],
    "checkerboard_eval_sq3_diag1": ["checkerboard", "eval", "sq3_diag1.tab"],
    "checkerboard_eval_sq3_diag1_t": ["checkerboard", "eval", "--T", "0.5", "sq3_diag1.tab"],
    "checkerboard_eval_sq5_diag3": ["checkerboard", "eval", "sq5_diag3.tab"],
    "checkerboard_eval_sq5_diag1": ["checkerboard", "eval", "sq5_diag1.tab"],
    "checkerboard_eval_host12": ["checkerboard", "eval", "host12_13.tab"],
}


def expected_path(name, argv):
    return GOLDEN / "expected" / (name + (".txt" if "--pretty" in argv else ".json"))


def test_every_expected_file_has_a_case():
    pinned = {p.stem for p in (GOLDEN / "expected").iterdir()}
    assert pinned == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name):
    argv = CASES[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "schurmzv.cli", *argv],
        capture_output=True, text=True, env=env, cwd=GOLDEN, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected_path(name, argv).read_text()


@pytest.mark.parametrize(
    "name", sorted(n for n, argv in CASES.items() if "--pretty" not in argv)
)
def test_input_echo_holds_only_given_flags(name):
    """Every key of the echoed input names a flag of the call, or is the
    positional file argument, which comes last."""
    argv = CASES[name]
    echo = json.loads(expected_path(name, argv).read_text())["input"]
    for key, value in echo.items():
        spellings = {"-" + key, "--" + key.replace("_", "-")}
        given = any(tok.split("=", 1)[0] in spellings for tok in argv)
        assert given or value == argv[-1], key
