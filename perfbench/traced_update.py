"""Run one ``ecokg`` command with the tracer installed.

Usage: ``python3 perfbench/traced_update.py TRACE.json REQUEST-ID ECOKG-ARGS...``.
The exit code is the command's; the trace, with every span tagged
REQUEST-ID, is written to TRACE.json.
"""

import sys

from ecokg import cli

from tracer import Tracer


def main() -> int:
    trace_path, request, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.request = request
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
