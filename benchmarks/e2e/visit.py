"""One visit of the timed pass, in a process of its own.

    python3 -m benchmarks.e2e.visit ram_mixed 7 0 6.0

:func:`measure.run` starts one of these per visit.  A fresh interpreter
gives every visit the same empty heap to build on and a peak RSS of its
own: built in a process that has already run a visit, the same scheme
took 1x to 3x as long to set up, depending on what the allocator had left
over.  Prints what the visit observed as one JSON line.
"""

from __future__ import annotations

import json
import sys

from . import measure
from .workloads import WORKLOADS


def main(argv: list[str]) -> int:
    workload, seed, number, seconds = argv
    print(json.dumps(measure.visit(
        WORKLOADS[workload], int(seed), int(number), seconds=float(seconds))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
