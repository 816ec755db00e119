"""Record the default-seed exit codes and report digests in ``golden.json``.

    python3 perfbench/golden.py

Runs every job of every workload at the default seed and full length, checks
each report, and writes ``{workload: {job id: [exit code, sha256]}}``.  Run it
only on a commit whose reports are known to be right: the benchmark holds
every later commit to these bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
from workloads import FULL_SECONDS, WORKLOADS, build_jobs


def main() -> int:
    golden = {}
    for name, workload in WORKLOADS.items():
        jobs = build_jobs(workload, run.DEFAULT_SEED, FULL_SECONDS)
        entries = {}
        with run.work_dir() as path:
            run.write_inputs(workload.warmups + jobs, path)
            cli, _ = run.warm_up(workload)
            for job in jobs:
                code, text, _, tb = run.run_job(cli, job)
                problem = run.judge(job, code, text, tb, None)
                if problem:
                    print(f"{name} {job.id}: {problem}", file=sys.stderr)
                    return 1
                entries[job.id] = [code, hashlib.sha256(text.encode()).hexdigest()]
        golden[name] = entries
        print(f"{name}: {len(entries)} jobs")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
