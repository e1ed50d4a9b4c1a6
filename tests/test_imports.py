"""numpy is imported only by the float ladder and the regularized check:
neither the exact determinant (schurmzv.evaluate) nor the CLI loads it.

Each check runs in a fresh interpreter, since this test process has long
since imported numpy itself.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = r"""
import contextlib, io, sys
from pathlib import Path
import schurmzv.evaluate
print("evaluate", "numpy" in sys.modules)
from schurmzv import cli

tmp = Path(sys.argv[1])
def grid(name, text):
    (tmp / name).write_text(text)
    return str(tmp / name)

square = grid("sq.tab", "3 1 3\n1 3 1\n3 1 3\n")
stair = grid("stair.shape", ". x x\nx x\nx\n")
shape = grid("shape.tab", "x x x\nx x x\nx x x\n")
calls = {
    "import": [],
    "expand": ["expand", square],
    "decompose": ["decompose", "--ribbon", stair, shape],
    "jt-check": ["jt-check", "-M", "4", "--ribbon", stair, square],
}
for name, argv in calls.items():
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, name
    print(name, "numpy" in sys.modules)
"""


def test_cli_paths_leave_numpy_unimported(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == [
        "evaluate False", "import False", "expand False", "decompose False", "jt-check False",
    ]
