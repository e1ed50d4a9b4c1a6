"""Start command-line calls on request and report how each went.

Usage: python3 -S perfbench/spawner.py

Reads one JSON list per line, ``[stdout file, stderr file, timeout,
program, arg...]``; starts the program with its output going to the two
files and its input from /dev/null, waits for it, killing it after
``timeout`` seconds, and writes one JSON line ``[exit code, peak RSS in
KiB]``.  Stops at the end of its input.

The benchmark starts its CLI calls through this small process because
the peak RSS that wait4 reports for a child also covers the memory of the
process that started it, and the benchmark's own is larger than a call's.
"""

import json
import os
import signal
import sys


def main() -> None:
    for line in sys.stdin:
        out, err, timeout, *argv = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(timeout)
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
