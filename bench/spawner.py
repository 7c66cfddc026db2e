"""Start benchmark jobs one at a time and report each one's wall time and peak RSS.

The kernel starts a child's peak-RSS record from the high-water mark of the
process that spawns it, so jobs are spawned from this small helper (started
with ``python3 -S``) rather than from the benchmark itself, whose memory grows
as it checks outputs.  Every job's ``ru_maxrss`` then reflects the job.

Protocol, one JSON object per line: a request on stdin
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``, and a
reply on stdout ``{"code": n, "wall_s": t, "maxrss_kb": k}``.  A job still
running after its timeout is killed and reported with code -9.  The helper
exits when its stdin closes.
"""

import json
import os
import signal
import sys
import time


def _files(req):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    return [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
    ]


def main():
    for line in sys.stdin:
        req = json.loads(line)
        files = _files(req)
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=files)
        signal.signal(signal.SIGALRM, lambda signum, frame: os.kill(pid, signal.SIGKILL))
        signal.alarm(req["timeout"])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
        reply = {
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
