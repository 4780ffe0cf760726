"""Set-up probe: a fresh whitebench process that runs one cell twice.

Usage: python3 bench/probe.py SRC_DIR CLI_ARG...

Prints the time.monotonic() instants at which the first and the second
`whitebench.cli.main(CLI_ARG...)` returned. The caller, which noted the
instant it spawned this process, takes set-up as the time to the end of
the first call minus the steady time of the second: interpreter start,
imports, config parse and first-call warm-up.
"""
import contextlib
import io
import json
import sys
import time


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from whitebench import cli

    ends = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(sys.argv[2:])
        ends.append(time.monotonic())
        if rc != 0:
            return rc
    print(json.dumps({"first_end": ends[0], "second_end": ends[1]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
