"""Run one sylsum CLI call with the benchmark's boundary hooks installed.

    python3 bench/launch.py SPAN_FILE SPAWN_NS REQUEST_ID CLI_ARGS...

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so the first
span covers interpreter start and the package import.  The spans are written
to SPAN_FILE as JSON; the exit code and output are those of ``sylsum``.
"""

from __future__ import annotations

import json
import sys

import tracer as tr


def main() -> int:
    span_file, spawn_ns, request = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    import sylsum.cli

    t = tr.Tracer()
    tr.install(t)
    t.request = request
    t.close(t.open(tr.STARTUP, start=spawn_ns))
    try:
        return sylsum.cli.main(sys.argv[4:])
    finally:
        t.request = None
        sys.stdout.flush()
        with open(span_file, "w") as fh:
            json.dump(t.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
