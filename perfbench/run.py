"""Benchmark: closed-loop ``moment-leibniz`` CLI jobs in one process, one thread.

    python3 perfbench/run.py --workload exact-calculus --seed 1 --seconds 20 --trace 0

Each job is one in-process ``moment_leibniz.cli.main(argv)`` call with stdout
captured; the next job starts when the previous one returns.  The seed makes
every input (argv and descriptor files).  Every job's exit code and report are
checked, and at the default seed the report bytes must match the digests in
``golden.json``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a traced pass (see ``tracing.py``), plus the tracing overhead against an
untraced run of the same jobs in a child process.  The last stdout line is
the JSON result; the lines above it are the same metrics for people.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Job, Workload, build_jobs  # noqa: E402
from tracing import LAYERS, COUNTERS, Tracer  # noqa: E402

DEFAULT_SEED = 0
SETUP_SAMPLES = 7  # fresh interpreters, each timed once

# Seconds one speed probe takes on the reference machine (2-core x86-64 VM,
# Python 3.11) in its fast state.  Reported times are wall times rescaled to
# that speed: see SpeedSampler.
REF_PROBE_S = 330e-6
PROBE_PERIOD_S = 0.02


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken setup)."""


# ---- machine speed ----


def speed_probe() -> float:
    """Seconds for a fixed stdlib-only task shaped like the package's work.

    The collector is off during the probe so that a larger heap left by the
    package cannot slow the probe and so hide the package's own slowdown.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: Dict[tuple, int] = {}
        total = Fraction(0)
        for i in range(150):
            key = (i % 7, i % 11, i % 13)
            counts[key] = counts.get(key, 0) + 1
            total += Fraction(i % 5 + 1, i % 3 + 2)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """The machine's speed, sampled between jobs and every PROBE_PERIOD_S inside them.

    The benchmark shares its cores with other tenants.  Their load flips
    this machine between a fast and a roughly two times slower state within
    a second, and the share of slow time drifts over tens of seconds, which
    moves raw wall times by more than the metrics' bounds.  The probe's time
    tracks the package's own (Fraction arithmetic, tuple-keyed dicts), so
    a job's wall time times the mean of REF_PROBE_S / probe time over the
    samples taken during it is its time at the reference speed: the drift
    cancels, and a change in the package does not.  In-job samples come from
    a SIGALRM timer, so they run on the job's own thread and core; their
    time is taken out of the job's time (and, when tracing, out of the
    layer that was running).
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.ticks: List[float] = []
        self._tracer = tracer
        self._busy = False

    def probe(self) -> float:
        self._busy = True
        try:
            return speed_probe()
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        elapsed = self.probe()
        self.ticks.append(elapsed)
        if self._tracer is not None:
            self._tracer.exclude(elapsed)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def speed(probes: List[float]) -> float:
    """Mean speed relative to the reference machine over probe samples."""
    return statistics.fmean(REF_PROBE_S / p for p in probes)


# ---- one job ----


def run_job(cli, job: Job):
    """Time one ``cli.main`` call; returns (exit code or None, stdout, seconds, traceback)."""
    out, err = io.StringIO(), io.StringIO()
    tb = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code, tb = None, traceback.format_exc()
    return code, out.getvalue(), time.perf_counter() - start, tb


def judge(job: Job, code, text: str, tb, golden: Optional[list]) -> Optional[str]:
    """Why the job's output is wrong, or None."""
    if tb is not None:
        return "traceback: " + tb.strip().splitlines()[-1]
    if code != job.expect:
        return f"exit {code}, expected {job.expect}"
    if golden is not None:
        want_code, want_digest = golden
        if code != want_code:
            return f"exit {code}, golden exit {want_code}"
        if hashlib.sha256(text.encode()).hexdigest() != want_digest:
            return "report bytes differ from the golden digest"
    report = None
    if text:
        if not text.endswith("\n"):
            return "report lacks the trailing newline"
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
    try:
        return job.check(report)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"report check raised {type(exc).__name__}: {exc}"


# ---- set-up ----


def write_inputs(jobs: List[Job], directory: Path) -> None:
    for job in jobs:
        for name, content in job.files.items():
            (directory / name).write_text(content, encoding="utf-8")


def load_cli():
    if not (SRC / "moment_leibniz" / "cli.py").is_file():
        raise BenchError(f"no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    return importlib.import_module("moment_leibniz.cli")


def warm_up(workload: Workload):
    """Import the package and run one small job per subcommand; returns (cli, seconds).

    The warm-up descriptor files must already be in the working directory.
    """
    start = time.perf_counter()
    cli = load_cli()
    for job in workload.warmups:
        code, text, _, tb = run_job(cli, job)
        problem = judge(job, code, text, tb, None)
        if problem:
            raise BenchError(f"warm-up {job.id} failed: {problem}")
    return cli, time.perf_counter() - start


def run_python(argv: List[str], timeout: float) -> dict:
    """Run a benchmark script in a fresh interpreter; returns its last stdout line as JSON."""
    try:
        out = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                             text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} took more than {timeout:.0f} s") from exc
    if out.returncode != 0:
        raise BenchError(f"{argv[0]} failed: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_sample(name: str) -> Dict[str, float]:
    """One cold set-up in a fresh interpreter (see setup_probe.py)."""
    sample = run_python([str(HERE / "setup_probe.py"), name], timeout=60)
    return {"raw": sample["setup_s"], "scaled": sample["setup_s"] * sample["speed"]}


@contextlib.contextmanager
def work_dir():
    """A private directory inside the checkout, entered for the duration.

    Descriptor paths in argv are bare file names, so report bytes do not
    depend on where the checkout lives.
    """
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


# ---- the closed loop ----


def run_loop(cli, jobs: List[Job], golden: Dict[str, list], tracer: Optional[Tracer] = None):
    """Run every job in order and check it; returns per-job records.

    ``seconds`` is a job's wall time less the in-job probes, ``speed`` the
    machine's mean speed over the probes during and around it, and
    ``scaled`` their product: the job's time at the reference speed.
    """
    records, inside = [], []
    sampler = SpeedSampler(tracer)
    layer_before, emit_before = dict.fromkeys(LAYERS, 0.0), 0.0
    with sampler.running():
        probes = [sampler.probe()]
        for job in jobs:
            first = len(sampler.ticks)
            code, text, seconds, tb = run_job(cli, job)
            inside.append(sampler.ticks[first:])
            probes.append(sampler.probe())
            problem = judge(job, code, text, tb, golden.get(job.id))
            record = {"id": job.id, "kind": job.kind, "exit": code,
                      "seconds": seconds - sum(inside[-1]),
                      "bytes": len(text.encode()), "problem": problem}
            if tracer is not None:
                now = dict(tracer.self_s)
                record["self_s"] = {k: now[k] - layer_before[k] for k in LAYERS}
                record["emit_s"] = tracer.emit_s - emit_before
                layer_before, emit_before = now, tracer.emit_s
            records.append(record)
            if problem:
                print(f"FAILED {job.id} ({' '.join(job.argv)}): {problem}", file=sys.stderr)
        probes.append(sampler.probe())
    for j, record in enumerate(records):
        # two between-job probes on each side, and every probe during the job
        record["speed"] = speed(inside[j] + probes[max(0, j - 1):j + 3])
        record["scaled"] = record["seconds"] * record["speed"]
    return records


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def shared_work_share(jobs: List[Job]) -> float:
    keys = [job.work_key for job in jobs]
    return 1.0 - len(set(keys)) / len(keys)


def traffic(jobs: List[Job], records: List[dict]) -> dict:
    n = len(jobs)
    return {
        "jobs": (n, "count"),
        "exact_share": (sum(j.arithmetic == "exact" for j in jobs) / n, "1"),
        "float_share": (sum(j.arithmetic == "float" for j in jobs) / n, "1"),
        "failing_verdict_share": (sum(j.expect == 1 for j in jobs) / n, "1"),
        "report_bytes": (sum(r["bytes"] for r in records), "B"),
    }


def load_golden(workload: str, seed: int) -> Dict[str, list]:
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload, {})


def prepare(args):
    """The job list, its golden digests and its shared-work share, which must be 0."""
    workload = WORKLOADS[args.workload]
    jobs = build_jobs(workload, args.seed, args.seconds)
    shared = shared_work_share(workload.warmups + jobs)
    if shared > 0:
        raise BenchError(f"{shared:.1%} of the jobs repeat another job's work")
    return workload, jobs, load_golden(workload.name, args.seed), shared


# ---- modes ----


def untraced(args) -> dict:
    workload, jobs, golden, shared = prepare(args)
    with work_dir() as path:
        write_inputs(workload.warmups, path)
        cli, _ = warm_up(workload)
        setups = [setup_sample(workload.name) for _ in range(SETUP_SAMPLES)]
        write_inputs(jobs, path)
        records = run_loop(cli, jobs, golden)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [r["scaled"] for r in records]
    raw = [r["seconds"] for r in records]
    failed = sum(r["problem"] is not None for r in records)
    n = len(records)
    metrics = {
        "jobs_per_s": (n / sum(scaled), "1/s"),
        "job_ms.p50": (1000 * statistics.median(scaled), "ms"),
        "job_ms.p90": (1000 * percentile(scaled, 0.9), "ms"),
        "setup_s": (statistics.median(s["scaled"] for s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "fail_ratio": (failed / n, "1"),
        "shared_work_share": (shared, "1"),
        "machine_speed": (statistics.median(r["speed"] for r in records), "x"),
        "wall.jobs_per_s": (n / sum(raw), "1/s"),
        "wall.job_ms.p50": (1000 * statistics.median(raw), "ms"),
        "wall.job_ms.p90": (1000 * percentile(raw, 0.9), "ms"),
        "wall.setup_s": (statistics.median(s["raw"] for s in setups), "s"),
        **{f"traffic.{k}": value for k, value in traffic(jobs, records).items()},
    }
    samples = {name: n for name in ("jobs_per_s", "job_ms.p50", "job_ms.p90")}
    samples["setup_s"] = len(setups)
    return finish(args, metrics, info, samples, n, failed)


def traced(args) -> dict:
    workload, jobs, golden, _ = prepare(args)
    plain = run_python([str(Path(__file__).resolve()), "--workload", workload.name, "--seed",
                        str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
                       timeout=170)
    with work_dir() as path:
        write_inputs(workload.warmups, path)
        cli, _ = warm_up(workload)
        write_inputs(jobs, path)
        tracer = Tracer()
        tracer.install()
        records = run_loop(cli, jobs, golden, tracer)
    wall = sum(r["scaled"] for r in records)
    self_s = {k: sum(r["self_s"][k] * r["speed"] for r in records) for k in LAYERS}
    failed = sum(r["problem"] is not None for r in records)
    counts = tracer.counts()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (100 * self_s[layer] / wall, "%")
    for layer in ("multiindex", "polycalc", "cli"):
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    metrics["cli.emit_s"] = (sum(r["emit_s"] * r["speed"] for r in records), "s")
    metrics["cli.report_bytes"] = (sum(r["bytes"] for r in records), "B")
    for name in COUNTERS:
        metrics[name] = (counts[name], "count")
    searches = counts["coeffsolve.cert_search.calls"]
    metrics["coeffsolve.cert_search.yield"] = (
        counts["coeffsolve.cert_search.found"] / searches if searches else 0.0, "1")
    metrics["trace.coverage_pct"] = (100 * sum(self_s.values()) / wall, "%")
    untraced_rate = plain["metrics"]["jobs_per_s"]["value"]
    metrics["trace.overhead_x"] = (untraced_rate / (len(records) / wall), "x")
    info = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    info["trace.job_s"] = (wall, "s")
    info["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{workload.name}-{args.seed}.json"
    spans.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                 "jobs": records}, indent=1) + "\n", encoding="utf-8")
    print(f"per-job layer self times written to {spans.relative_to(ROOT)}")
    return finish(args, metrics, info, {}, len(records) + plain["attempted"],
                  failed + plain["failed"])


def finish(args, metrics, info, samples, attempted, failed) -> dict:
    for name, (value, unit) in {**metrics, **info}.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"{args.workload:18s} {name:34s} {value:16.6f} {unit}{n}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("MOMENT_LEIBNIZ_SEED", None)  # would override every job's --seed
    try:
        result = traced(args) if args.trace else untraced(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
