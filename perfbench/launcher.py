"""Starts the benchmark's child processes and reaps each with os.wait4.

Run as ``python3 -S -I perfbench/launcher.py``. Each line on standard input is
a JSON list ``[argv, stderr_path]``; the launcher runs that one child with
stdin and stdout on /dev/null and stderr to the file, waits for it, and
answers with one line ``wall_s maxrss_kb exit_code own_peak_kb``.

Linux counts the peak RSS of the process that starts a child into the child's
``ru_maxrss``: with vfork the memory the child has before exec is its
parent's. This process stays near the bare interpreter's size, below any
voxgen command, so each reading is the command's own; run.py, which holds
more, does not start the commands itself. ``own_peak_kb`` is this
process's own high-water mark (VmHWM), the floor it passes on.
"""

import json
import os
import sys
import time


def own_peak_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> None:
    for line in sys.stdin:
        argv, stderr_path = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        sys.stdout.write(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)} {own_peak_kb()}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
