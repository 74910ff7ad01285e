"""Time one session set-up in a fresh process and print it in seconds.

Set-up is what a user pays before the first session: importing dsbb84
(numpy included), loading the workload's config and computing the expected
observables. ``run.py`` starts this script several times per run and
reports the median.

    python3 perfbench/setup_probe.py clean-short
"""

import json
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(name: str) -> float:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import dsbb84

    if not Path(dsbb84.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"dsbb84 imported from {dsbb84.__file__}, not from {SRC}")
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))[name]
    constants = dsbb84.load_constants(spec["constants"])
    channel = dsbb84.load_channel(spec["channel"])
    dsbb84.expected_observables(constants, channel)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
