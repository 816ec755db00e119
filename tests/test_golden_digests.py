"""The benchmark's seed-0 reports, replayed in-process.

``perfbench/golden.json`` pins the exit code and the sha256 of stdout of
every job the benchmark runs at seed 0.  Rounds 0-11 of ``exact-calculus``
cover every (rank, order) shape of each exact family kind and the three
``verify-leibniz`` ranks, so replaying them here keeps every exact verdict,
residual and witness byte under the unit tests.  Rounds 0-11 of
``sampled-families`` do the same for the float witnesses, constraint
violations and semigroup sweeps, and those of ``support-search`` for the
search, gen-family and rejected-support bytes.  Nothing under
``perfbench/`` is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from moment_leibniz.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 0
ROUNDS = range(12)  # RANK_ORDER has 12 (rank, order) shapes


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
GOLDEN_ALL = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
GOLDEN = GOLDEN_ALL["exact-calculus"]
OTHER_ROUNDS = {
    "sampled-families": WORKLOADS.sampled_families_round,
    "support-search": WORKLOADS.support_search_round,
}


@pytest.mark.parametrize("round_index", ROUNDS)
def test_exact_calculus_round_matches_golden(round_index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = WORKLOADS.exact_calculus_round(SEED, round_index)
    assert jobs
    for job in jobs:
        for name, content in job.files.items():
            (tmp_path / name).write_text(content, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(job.argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert [code, digest] == GOLDEN[job.id], job.id


@pytest.mark.parametrize("round_index", ROUNDS)
@pytest.mark.parametrize("workload", sorted(OTHER_ROUNDS))
def test_other_workload_round_matches_golden(
    workload, round_index, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    jobs = OTHER_ROUNDS[workload](SEED, round_index)
    assert jobs
    for job in jobs:
        for name, content in job.files.items():
            (tmp_path / name).write_text(content, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(job.argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert [code, digest] == GOLDEN_ALL[workload][job.id], job.id
