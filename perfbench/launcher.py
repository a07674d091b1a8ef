"""Child-process launcher for the benchmark's stage commands.

The benchmark starts this process before it builds its inputs and sends it
one JSON command per line; the launcher runs the command to completion and
answers with one JSON line: exit code, wall seconds, the child's CPU seconds
(user + system) and its max RSS.

It exists because Linux carries a process's resident-set high-water mark
across fork and exec: a stage forked from the benchmark itself, which holds
generated inputs and outputs, would report the benchmark's peak as its own.
This process stays small, so ``ru_maxrss`` from ``os.wait4`` is the stage's.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
