"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py SRC_DIR ARGV_JSON CPU

Runs on CPU (when this process may), where run.py times the calibration kernel
just before and after the probe.  Times ``import stratexp`` and then
REPEATS reports of the given argv (stdout captured), and prints
{"import_s", "report_s", "codes"} as JSON.  The first report pays for any
lazy set-up; the median of the others is the steady cost.
"""

import contextlib
import io
import json
import os
import sys
from time import perf_counter

REPEATS = 6


def main() -> int:
    src, argv, cpu = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3])
    if cpu in os.sched_getaffinity(0):
        os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, src)
    start = perf_counter()
    import stratexp.cli

    marks = [perf_counter()]
    codes = []
    for _ in range(REPEATS):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(stratexp.cli.main(list(argv)))
        marks.append(perf_counter())
    print(json.dumps({
        "import_s": marks[0] - start,
        "report_s": [b - a for a, b in zip(marks, marks[1:])],
        "codes": codes,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
