"""Every demo script runs to completion against the current API and prints pinned bytes."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout.  The demos are seeded and print no timing, so
# a refactor that moves none of their numbers leaves these unchanged.
STDOUT_SHA256 = {
    "01_product_rule.py": "ef32a418c01c3b19c6d92645061be5c65ebe6ccba50d71cad26cd856f6e4bb3a",
    "02_operator_families.py": "65305d72e0e254564568e22c2673f5e07106f6d84e5eb6542a474ff45ce96e85",
    "03_log_generated_families.py": "900a50ffcab7b4b53aca937dddf4334988a8dc03b17f04dbfa5eeeaec2213fc9",
    "04_power_sign_maps.py": "68953c25dd0edc60aa2e350f39cd1127d62ca5996795abfd46b162a8dfedd451",
    "05_exponential_sequences.py": "c597c2ec7b80d825e5cbaeae142d7608805c9ecb818aebd89185e2b05100b3d9",
}


def test_demos_exist():
    assert DEMOS
    assert sorted(STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
