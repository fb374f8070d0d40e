"""Run a command and print its exit code and peak RSS in KiB.

    python3 perfbench/peak_rss.py TIMEOUT_S STDOUT_PATH COMMAND...

The peak comes from the command's own rusage. The kernel carries a
process's high-water RSS across fork and exec, so a child started straight
from the benchmark's large process would report the benchmark's size; the
benchmark starts this small launcher instead, which starts the command.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    timeout_s, stdout_path, command = float(argv[0]), argv[1], argv[2:]
    with open(stdout_path, "wb") as sink:
        proc = subprocess.Popen(command, stdout=sink, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + timeout_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    print(proc.returncode, usage.ru_maxrss)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
