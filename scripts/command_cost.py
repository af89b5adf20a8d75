#!/usr/bin/env python3
"""Run one command and print what it cost: wall time and peak RSS.

    python3 scripts/command_cost.py trilnd lnds --expand --presentation stress.json > out.json

The command inherits stdin, stdout and stderr, so its output goes where
the caller sends it. Afterwards one line goes to stderr: the command, its
wall time in seconds and its peak resident set size in MB, read from the
child's own resource usage with os.wait4 (ru_maxrss, in KB on Linux).
A spawned child starts from its parent's high-water mark, so the figure
is never below this wrapper's own peak, a bare Python interpreter (about
13 MB on CPython 3.11); every trilnd command peaks above that. The exit
code is the command's, or 128 + N when signal N ended it. No threshold
is applied: the line is there to be read.
"""

import os
import shlex
import sys
import time


def main(argv) -> int:
    if not argv:
        print("usage: command_cost.py COMMAND [ARG ...]", file=sys.stderr)
        return 2
    started = time.monotonic()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.monotonic() - started
    code = os.waitstatus_to_exitcode(status)
    print(
        f"{shlex.join(argv)}: {seconds:.2f} s wall, {usage.ru_maxrss / 1024:.1f} MB peak RSS,"
        f" exit {code}",
        file=sys.stderr,
    )
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
