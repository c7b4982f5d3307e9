"""Request launcher: starts each request subprocess for run.py.

    python3 -S -I spawner.py

Reads one job per line on standard input, a JSON list
[argv, stdout path, stderr path, timeout s]; runs argv (argv[0] an
absolute path) with stdin on /dev/null, kills it when the timeout
passes, and answers with one line [latency s, peak RSS KiB, exit code]
(-9 when killed).  SIGTERM kills and reaps a running request, then ends
this process.

This process exists for the peak RSS: Linux reports a child's ru_maxrss
as at least the peak RSS of the process it was started from, so requests
are started from this small interpreter rather than from run.py, whose
own memory would otherwise read as the program's.
"""

import json
import os
import select
import signal
import sys
from time import perf_counter


TERM = {signal.SIGTERM}


def run(argv, out, err, timeout):
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
    actions += [(os.POSIX_SPAWN_OPEN, fd, path,
                 os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                for fd, path in ((1, out), (2, err))]
    t0 = perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions,
                         setsigmask=())
    fd = os.pidfd_open(pid)
    timed_out = True
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, TERM)
        timed_out = not select.select([fd], [], [], timeout)[0]
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, TERM)
        if timed_out:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        os.close(fd)
    latency = perf_counter() - t0
    code = -signal.SIGKILL if timed_out else os.waitstatus_to_exitcode(status)
    return [latency, usage.ru_maxrss, code]


def main():
    # SIGTERM is taken only while waiting, so a started request is
    # always killed and reaped before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    signal.pthread_sigmask(signal.SIG_BLOCK, TERM)
    while True:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, TERM)
        line = sys.stdin.readline()
        signal.pthread_sigmask(signal.SIG_BLOCK, TERM)
        if not line:
            return
        print(json.dumps(run(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
