"""Job launcher: reads one JSON request per line on stdin, runs the command,
and answers with its exit code, wall time and rusage.

The benchmark starts jobs through this small process rather than directly:
on Linux a child's max-RSS starts from the memory high-water mark of the
process that spawned it, so jobs spawned by the benchmark itself would report
the benchmark's memory, not their own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                    env=req["env"], cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({
            "code": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss,
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
