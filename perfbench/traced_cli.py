"""Run the escapemaps command line with the benchmark's spans installed.

Usage: python3 perfbench/traced_cli.py SPANS_FILE OP_ID SUBCOMMAND [ARGS...]

Behaves like ``python -m escapemaps SUBCOMMAND [ARGS...]`` (same output, same
exit code) and, when the command ends, writes the span summary and the spans
themselves to SPANS_FILE as JSON.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_file, op = sys.argv[1], sys.argv[2]
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    import escapemaps.cli

    try:
        return escapemaps.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        with open(spans_file, "w") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
