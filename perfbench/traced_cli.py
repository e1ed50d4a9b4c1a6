"""Run the schurmzv command line with the public functions traced.

Usage: python3 perfbench/traced_cli.py SPANS_FILE ARG...

Calls ``schurmzv.cli.main(ARG...)`` with the tracer installed, writes the
spans and the library's cache sizes to SPANS_FILE as JSON, and exits with
the command's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from schurmzv import cli  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    payload = {"spans": tracer.spans, "caches": tracing.cache_sizes()}
    Path(spans_file).write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
