"""The benchmark tracer still hooks what it counts.

``perfbench/tracing.py`` wraps the package from outside: it reads
``verify_moment``'s domain by position, its report's
``per_alpha_max_residual`` and ``probe_count``, and counts
``OperatorFamily.apply``.  A refactor that moves any of these breaks
``perfbench/run.py --trace 1`` without failing a job, so this test runs
three small jobs under the tracer and checks that the counters moved.
``Tracer.install`` patches the package for the life of the process, so
the jobs run in a child interpreter, which writes no bytecode: nothing
under ``perfbench/`` or elsewhere in the repository is written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# derivative family, r 2, N 2: proved
EXACT = {"kind": "derivative", "r": 2, "N": 2}
# T_(2)(f) = f ln|f| on one variable: constraint-checked, then sampled
LOG = {
    "kind": "identity_generated",
    "r": 1,
    "N": 2,
    "coefficients": [
        {
            "index": [2],
            "expr": {"kind": "poly", "dim": 1, "terms": [{"exponent": [0], "coeff": "1"}]},
        }
    ],
}

CHILD = """
import contextlib, io, json, sys
from moment_leibniz import cli
from tracing import Tracer

tracer = Tracer()
tracer.install()
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "counts": tracer.counts()}))
"""


def test_tracer_counts_a_traced_run(tmp_path):
    exact, log = tmp_path / "exact.json", tmp_path / "log.json"
    exact.write_text(json.dumps(EXACT))
    log.write_text(json.dumps(LOG))
    jobs = [
        ["verify-family", str(exact)],
        ["verify-family", str(log)],
        ["verify-semigroup", "--rank", "1", "--order", "2", "--probes", "4"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, json.dumps(jobs)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    counts = result["counts"]
    for name in (
        "momentfam.apply.calls",
        "momentfam.instances",
        "semigroup.instances",
        "funcmodel.calls.eval_float",
        "coeffsolve.constraint.evals",
    ):
        assert counts[name] > 0, name
