"""Start the benchmark's child processes from a process that stays small.

Linux carries a process's peak RSS across fork and exec, so a child
forked from the benchmark process, which parses outputs of tens of MB,
would report the benchmark's peak as its own.  This launcher is started
before the benchmark grows and forks every child itself.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": s}``, and one
JSON answer per line on stdout,
``{"wall_s", "cpu_s", "rss_kb", "exit", "timed_out"}``.  End of input
ends the launcher.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(argv: list, stdout, stderr, timeout: float) -> dict:
    """Run argv to completion with a wall-clock timeout.

    The child is waited for without being reaped first, so the timeout can
    never signal a recycled pid; the rusage is the child's own.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr)

    def expire() -> None:
        with lock:
            if not state["exited"]:
                state["killed"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
    finally:
        timer.cancel()
        timer.join()
        if not state["exited"]:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "exit": proc.returncode,
        "timed_out": state["killed"],
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            answer = run(request["argv"], out, err, request["timeout"])
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
