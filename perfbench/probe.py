"""Set-up probe: time one workload's set-up in a fresh interpreter.

    python3 perfbench/probe.py <workload> <workdir> <tag>

Prints one JSON line ``{"setup_s": ..., "errors": [...]}``.  The clock
starts before qgdd is imported, so import time is part of set-up.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    name, workdir, tag = sys.argv[1:4]
    errors = WORKLOADS[name](0).setup(Path(workdir), tag)
    print(json.dumps({"setup_s": perf_counter() - T0, "errors": errors}))


if __name__ == "__main__":
    main()
