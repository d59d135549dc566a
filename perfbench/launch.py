"""Run one command and report its exit code, wall time and resource usage.

    python3 perfbench/launch.py OUT ERR -- PROGRAM ARG...

The command's stdout and stderr go to the files OUT and ERR; one JSON line
with exit, wall_s, cpu_s and maxrss_kib goes to this launcher's stdout.

Why a launcher: Linux carries a parent's peak RSS into its child's
``ru_maxrss`` at exec, so a child spawned straight from the benchmark
reports the benchmark's own peak whenever that is larger.  This process
imports almost nothing and stays small, so ``os.wait4`` reports the
command's own peak.
"""

import json
import os
import sys
import time


def main() -> int:
    out, err, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        sys.stderr.write(__doc__)
        return 2
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    json.dump({
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
