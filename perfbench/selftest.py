"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, must print every
   metric BENCHMARK.json names, with no failed job.
2. The output gate must bite: with one golden digest and one expected exit
   code made wrong, a tiny default-seed run must count both jobs as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
from workloads import WORKLOADS, build_jobs

TINY_SECONDS = 1


def tiny_run(name: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "0",
         "--seconds", str(TINY_SECONDS), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if out.returncode != 0:
        raise AssertionError(f"{name} --trace {trace} exited {out.returncode}: {out.stderr[-800:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = tiny_run(name, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                raise AssertionError(f"{name} --trace {trace}: metrics {sorted(got)} != {sorted(want)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{name} --trace {trace}: {result['failed']} failed jobs")
            print(f"ok  {name} --trace {trace}: {len(got)} metrics, {result['attempted']} jobs")


def check_gate() -> None:
    for name, workload in WORKLOADS.items():
        jobs = build_jobs(workload, run.DEFAULT_SEED, TINY_SECONDS)
        golden = dict(run.load_golden(name, run.DEFAULT_SEED))
        digest_job, exit_job = jobs[0], jobs[1]
        code, digest = golden[digest_job.id]
        golden[digest_job.id] = [code, digest[::-1]]
        exit_job.expect += 1
        with run.work_dir() as path:
            run.write_inputs(workload.warmups + jobs, path)
            cli, _ = run.warm_up(workload)
            records = run.run_loop(cli, jobs, golden)
        failed = {r["id"] for r in records if r["problem"] is not None}
        if failed != {digest_job.id, exit_job.id}:
            raise AssertionError(f"{name}: gate flagged {sorted(failed)}")
        print(f"ok  {name}: gate fails the wrong digest and the wrong exit code, "
              f"fail_ratio {len(failed) / len(records):.3f}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_gate()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
