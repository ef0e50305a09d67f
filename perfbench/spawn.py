"""Run one command; record its wall time, peak RSS and exit code.

Usage::

    python3 -S perfbench/spawn.py RESULT.json -- <command...>

Linux charges a child's ``ru_maxrss`` with the RSS of the process that
forked it (the forking image's high-water mark is folded in at ``exec``),
so a benchmark process holding large inputs would inflate every child's
peak.  This launcher is a bare interpreter of a few MB: it forks the
command, waits for it with ``wait4`` and writes what it measured, so the
reported peak is the command's own (and its reaped pool workers').

SIGINT and SIGTERM reach the command through the process group; the
launcher ignores them and keeps waiting, so a server can be interrupted
and still be measured.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    result_path, separator, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if separator != "--" or not argv:
        sys.stderr.write("usage: spawn.py RESULT.json -- <command...>\n")
        return 2
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"returncode": code, "wall_s": wall,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
