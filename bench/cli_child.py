"""Run one cmkit command line call with the benchmark's tracer installed.

Usage: python bench/cli_child.py SPAN_FILE ARGS...   (with PYTHONPATH=src)

Behaves like `python -m cmkit.cli ARGS...`: same stdout and exit code.  The
spans, counters and the wall-clock time at which `cmkit.cli.main` started are
written to SPAN_FILE as one JSON object.
"""

import json
import sys
import time

import cmkit.cli
from spans import Tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    main_start = time.time()
    try:
        code = cmkit.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"main_start": main_start, "spans": tracer.spans,
                       "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
