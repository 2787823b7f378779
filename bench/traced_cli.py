"""Run one CLI command in this process with the layer spans installed.

    python3 bench/traced_cli.py <spans.json> <run id> <time|alloc> <command> ...

Writes the spans as a JSON list once the command has returned, and exits
with the command's exit code.  In ``alloc`` mode the graph build and
``certify`` spans run under tracemalloc and record their allocation peaks;
in ``time`` mode nothing runs under tracemalloc.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer, install
from spectral_limits import cli


def main(argv) -> int:
    out, run_id, mode, cli_args = argv[0], argv[1], argv[2], argv[3:]
    if mode not in ("time", "alloc"):
        raise SystemExit(f"unknown mode {mode!r}: expected time or alloc")
    tracer = Tracer(run_id, alloc=mode == "alloc")
    install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
    with open(out, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
