"""Run one ``ecokg`` command, with speed samples taken while it runs.

Usage: ``python3 perfbench/timed_update.py RESULT.json ECOKG-ARGS...``.
A timer signal takes a speed sample (see speed.py) every
``SAMPLE_EVERY_S`` inside the command's own process, so the samples see
the machine at the speed the command saw. The exit code is the
command's; RESULT.json gets the mean speed factor over the command and
the seconds the samples took, from which the caller scales the wall
time of the whole process to the reference speed.
"""

import json
import sys
import time

import ecokg
from ecokg import cli

from speed import Speed


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    speed = Speed()
    speed.sample()
    start = time.perf_counter()
    with speed.sampling():
        code = cli.main(argv)
    end = time.perf_counter()
    speed.sample()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"ecokg": ecokg.__file__, "factor": speed.factor(start, end),
                   "sampling_s": speed.spent}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
