"""Time one cold set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload>

Imports the package before anything else, so that the standard-library
modules it pulls in are paid for as a user's first command pays for them,
then runs the workload's warm-up jobs (one small job per subcommand).
Prints ``{"setup_s": ..., "speed": ...}``: the wall time of import plus
warm-ups, and the machine's speed measured right after (see run.SpeedSampler).
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.path[0] + "/../src")
import moment_leibniz.cli  # noqa: E402,F401

imported = time.perf_counter() - start

import json  # noqa: E402

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    workload = WORKLOADS[sys.argv[1]]
    with run.work_dir() as path:
        run.write_inputs(workload.warmups, path)
        try:
            _, warmup_s = run.warm_up(workload)
        except run.BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
    speed = run.speed([run.speed_probe() for _ in range(9)])
    print(json.dumps({"setup_s": imported + warmup_s, "speed": speed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
