"""Seeded job lists and output checks for the three benchmark workloads.

A job is one in-process ``moment_leibniz.cli.main(argv)`` call.  A workload
is a list of rounds.  Round ``i`` has the same job shapes (subcommand, rank,
order, family kind) under every seed; the seed draws only the random content
(polynomials, supports, maps and the per-job ``--seed``).  Runs under
different seeds therefore do the same kinds and amounts of work, which keeps
their timings comparable, and a run's job list is the same on every commit,
so two commits are timed on identical work.

The job lists are prefix-stable: the first ``k`` rounds of a long run are the
``k`` rounds of a short run with the same seed.  This module imports nothing
from the package under test, so that the benchmark can time the package
import itself; the combinatorics the checks need are re-derived here.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_BUDGET = 0, 1, 2, 3

# Run length the round counts below are sized for: at the reference speed
# (run.REF_PROBE_S) a run of this many --seconds spends about that long in
# jobs at the commit that introduced the benchmark.  A run's work does not
# depend on the machine's speed; shorter --seconds run a prefix of the rounds.
FULL_SECONDS = 15

Index = Tuple[int, ...]
Check = Callable[[Optional[dict]], Optional[str]]


@dataclass
class Job:
    """One CLI invocation with its expected exit code and report check."""

    id: str
    kind: str
    argv: List[str]
    expect: int
    check: Check
    # What the job computes, with the seed left out where it does not change
    # the work; two jobs with equal keys would share work.
    work_key: tuple
    # Arithmetic behind the verdict: "exact" or "float"; "none" for
    # enumeration and generation jobs.
    arithmetic: str = "none"
    files: Dict[str, str] = field(default_factory=dict)


# ---- multi-index combinatorics (independent of the package) ----


def indices(rank: int, order: int) -> List[Index]:
    """All alpha in N^rank with |alpha| <= order, lexicographically."""
    return [
        t for t in itertools.product(range(order + 1), repeat=rank) if sum(t) <= order
    ]


def band(rank: int, order: int) -> List[Index]:
    """The admissible band order/2 < |alpha| <= order."""
    return [a for a in indices(rank, order) if 2 * sum(a) > order]


def low(rank: int, order: int) -> List[Index]:
    """Nonzero indices the coefficient constraint forces to vanish: 2|alpha| <= order."""
    return [a for a in indices(rank, order) if sum(a) >= 1 and 2 * sum(a) <= order]


def leq(a: Index, b: Index) -> bool:
    return all(x <= y for x, y in zip(a, b))


# ---- random inputs ----


def _job_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def poly_terms(
    rng: random.Random, rank: int, max_degree: int, count: int, bound: int
) -> List[dict]:
    """Sparse rational polynomial as package JSON terms, at least one nonzero term."""
    terms: Dict[Index, Fraction] = {}
    while not terms:
        for _ in range(count):
            exp = [0] * rank
            for _ in range(rng.randint(0, max_degree)):
                exp[rng.randrange(rank)] += 1
            den = rng.choice((1, 2, 3))
            num = rng.randint(-bound * den, bound * den)
            if num:
                terms[tuple(exp)] = Fraction(num, den)
    return [{"exponent": list(e), "coeff": str(c)} for e, c in sorted(terms.items())]


def poly_expr(rank: int, terms: List[dict]) -> dict:
    return {"kind": "poly", "dim": rank, "terms": terms}


def dominant_expr(rng: random.Random, rank: int) -> dict:
    """A polynomial with no zero on the unit box: |c0| exceeds the other coefficients' sum."""
    rest = [t for t in poly_terms(rng, rank, 2, 2, 1) if any(t["exponent"])]
    total = sum(abs(Fraction(t["coeff"])) for t in rest)
    c0 = (math.floor(total) + rng.randint(1, 3)) * rng.choice((1, -1))
    return poly_expr(rank, [{"exponent": [0] * rank, "coeff": str(c0)}] + rest)


def affine_tau(rng: random.Random, rank: int) -> dict:
    """A rational affine map taking the open unit box into itself.

    Component i is b + sum_j w_j * y_j with y_j = x_j or 1 - x_j, weights
    w_j > 0 and b >= 0 with b + sum w_j <= 1, so each image lies strictly
    inside (0, 1).
    """
    perm = list(range(rank))
    rng.shuffle(perm)
    components = []
    for i in range(rank):
        cols = {perm[i]}
        if rank > 1 and rng.random() < 0.5:
            cols.add(rng.randrange(rank))
        linear: Dict[int, Fraction] = {}
        const = Fraction(0)
        used = Fraction(0)
        for j in sorted(cols):
            w = Fraction(rng.randint(1, 3), 8)
            used += w
            if rng.random() < 0.5:  # reflect: w * (1 - x_j)
                const += w
                linear[j] = linear.get(j, Fraction(0)) - w
            else:
                linear[j] = linear.get(j, Fraction(0)) + w
        const += Fraction(rng.randint(0, int((1 - used) * 8)), 8)
        terms = []
        if const:
            terms.append({"exponent": [0] * rank, "coeff": str(const)})
        for j, w in sorted(linear.items()):
            if w:
                exp = [0] * rank
                exp[j] = 1
                terms.append({"exponent": exp, "coeff": str(w)})
        components.append(terms)
    return {"rank": rank, "components": components}


def coefficients(rng: random.Random, rank: int, support: List[Index]) -> List[dict]:
    return [
        {"index": list(a), "expr": poly_expr(rank, poly_terms(rng, rank, 2, 3, 4))}
        for a in sorted(support, key=lambda a: (sum(a), a))
    ]


def band_subset(rng: random.Random, rank: int, order: int) -> List[Index]:
    full = band(rank, order)
    return sorted(rng.sample(full, rng.randint(1, len(full))))


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ---- report checks ----


def _envelope(report: Optional[dict], command: str, seed: int) -> Optional[str]:
    if report is None:
        return "no JSON report on stdout"
    if report.get("command") != command:
        return f"command {report.get('command')!r} != {command!r}"
    if report.get("seed") != seed:
        return f"seed {report.get('seed')!r} != {seed}"
    if not isinstance(report.get("failures"), list):
        return "failures is not a list"
    return None


def check_no_output(report: Optional[dict]) -> Optional[str]:
    return None if report is None else "expected no report on stdout"


def check_exact_pass(command: str, seed: int, extra: Callable[[dict], Optional[str]]) -> Check:
    """Exact verdicts: pass with max_residual exactly 0.0 and no failures."""

    def check(report: Optional[dict]) -> Optional[str]:
        problem = _envelope(report, command, seed)
        if problem:
            return problem
        if report["pass"] is not True or report["failures"]:
            return "exact job did not pass"
        if report["max_residual"] != 0.0:
            return f"exact max_residual {report['max_residual']!r} != 0.0"
        return extra(report)

    return check


def check_family_exact(seed: int, kind: str, rank: int, order: int, probes: int) -> Check:
    def extra(report: dict) -> Optional[str]:
        body = report["report"]
        if body["exact"] is not True or body["family"]["kind"] != kind:
            return "family report is not the exact family asked for"
        if body["probe_count"] != probes:
            return f"probe_count {body['probe_count']} != {probes}"
        per_alpha = body["per_alpha_max_residual"]
        if len(per_alpha) != len(indices(rank, order)):
            return f"{len(per_alpha)} alphas checked, expected {len(indices(rank, order))}"
        if any(v != 0.0 for v in per_alpha.values()):
            return "nonzero per-alpha residual on an exact family"
        return None

    return check_exact_pass("verify-family", seed, extra)


def check_family_sampled(seed: int, kind: str, rank: int, order: int, tol: float) -> Check:
    def check(report: Optional[dict]) -> Optional[str]:
        problem = _envelope(report, "verify-family", seed)
        if problem:
            return problem
        body = report.get("report")
        if body is None or report["pass"] is not True or report["failures"]:
            return "sampled family did not pass"
        if body["exact"] is not False or body["family"]["kind"] != kind:
            return "family report is not the sampled family asked for"
        if not 0.0 <= report["max_residual"] <= tol:
            return f"max_residual {report['max_residual']!r} outside [0, {tol}]"
        if len(body["per_alpha_max_residual"]) != len(indices(rank, order)):
            return "wrong number of alphas checked"
        return None

    return check


def check_violation(seed: int, witness: Index) -> Check:
    """Constraint violations exit 1 and name the doubled low index as a witness."""

    def check(report: Optional[dict]) -> Optional[str]:
        problem = _envelope(report, "verify-family", seed)
        if problem:
            return problem
        if report["pass"] is not False or not report["failures"]:
            return "violating family was not rejected with a witness"
        if "constraint_report" not in report:
            return "no constraint_report in a violation report"
        alphas = {tuple(f["alpha"]) for f in report["failures"]}
        if witness not in alphas:
            return f"witness alpha {list(witness)} missing from failures"
        return None

    return check


def check_semigroup(seed: int, rank: int, tamper: bool) -> Check:
    def check(report: Optional[dict]) -> Optional[str]:
        problem = _envelope(report, "verify-semigroup", seed)
        if problem:
            return problem
        sweeps = report.get("sweeps", [])
        if len(sweeps) != 3:
            return f"{len(sweeps)} sweeps, expected 3"
        if not tamper:
            if report["pass"] is not True or report["failures"]:
                return "untampered sequence did not pass"
            return None
        if report["pass"] is not False or not report["failures"]:
            return "tampered sequence was not rejected with witnesses"
        tampered_at = {s["rate"]: tuple(s["tampered_index"]) for s in sweeps}
        for failure in report["failures"]:
            if not leq(tampered_at[failure["rate"]], tuple(failure["alpha"])):
                return f"failure at alpha {failure['alpha']} does not involve the tampered index"
        return None

    return check


def check_search(seed: int, rank: int, order: int, max_size: Optional[int]) -> Check:
    """The pattern count must match the closed form: subsets of the band."""
    b = len(band(rank, order))
    top = b if max_size is None else min(max_size, b)
    expected = sum(math.comb(b, k) for k in range(top + 1))
    index_set = len(indices(rank, order)) - 1

    def check(report: Optional[dict]) -> Optional[str]:
        problem = _envelope(report, "search-supports", seed)
        if problem:
            return problem
        if report["pass"] is not True or report["index_set_size"] != index_set:
            return "search report does not pass or has the wrong index set"
        patterns = report["patterns"]
        if report["count"] != len(patterns) or len(patterns) != expected:
            return f"{len(patterns)} patterns, closed form gives {expected}"
        allowed = set(band(rank, order))
        for p in patterns:
            if p["certificate"] is not None or not {tuple(a) for a in p["support"]} <= allowed:
                return f"pattern {p['support']} is not a subset of the band"
        return None

    return check


def check_gen(seed: int, rank: int, order: int, support: List[Index]) -> Check:
    want = sorted(support)

    def check(report: Optional[dict]) -> Optional[str]:
        problem = _envelope(report, "gen-family", seed)
        if problem:
            return problem
        family = report.get("family", {})
        if report["pass"] is not True or family.get("kind") != "identity_generated":
            return "gen-family did not produce an identity-generated family"
        if (family["r"], family["N"]) != (rank, order):
            return "gen-family rank/order mismatch"
        got = sorted(tuple(c["index"]) for c in family["coefficients"])
        if got != want or report["pattern"]["certificate"] is not None:
            return "generated coefficients do not cover exactly the requested support"
        return None

    return check


def check_leibniz(seed: int, pairs: int) -> Check:
    def extra(report: dict) -> Optional[str]:
        if report.get("pairs") != pairs or report.get("exact") is not True:
            return "verify-leibniz report has the wrong pair count"
        return None

    return check_exact_pass("verify-leibniz", seed, extra)


# ---- job builders ----


def _family_job(
    job_id: str, kind: str, descriptor: dict, seed: int, expect: int, check: Check,
    arithmetic: str,
) -> Job:
    name = f"{job_id}.json"
    return Job(
        id=job_id,
        kind=kind,
        argv=["verify-family", name, "--seed", str(seed)],
        expect=expect,
        check=check,
        work_key=("verify-family", canonical(descriptor), seed),
        arithmetic=arithmetic,
        files={name: json.dumps(descriptor)},
    )


FAMILY_PROBES = 8  # verify-family --probes default
FAMILY_TOL = 1e-9  # --tol default
RANK_ORDER = [(r, n) for r in (1, 2, 3) for n in (1, 2, 3, 4)]
VIOLATION_SHAPES = [(r, n) for r in (1, 2, 3) for n in (2, 3, 4)]
LEIBNIZ_PAIRS = 4


def exact_calculus_round(seed: int, i: int) -> List[Job]:
    rng = random.Random(f"exact-calculus/{seed}/{i}")
    jobs = []
    for rank in (1, 2, 3):
        s = _job_seed(rng)
        argv = ["verify-leibniz", "--rank", str(rank), "--order", "4", "--degree", "6",
                "--pairs", str(LEIBNIZ_PAIRS), "--seed", str(s)]
        jobs.append(Job(f"{i:03d}-leibniz-r{rank}", "verify-leibniz", argv, EXIT_PASS,
                        check_leibniz(s, LEIBNIZ_PAIRS), ("verify-leibniz", rank, 4, 6, LEIBNIZ_PAIRS, s),
                        arithmetic="exact"))
    r, n = RANK_ORDER[i % 12]
    s = _job_seed(rng)
    jobs.append(_family_job(f"{i:03d}-derivative", "family-derivative",
                            {"kind": "derivative", "r": r, "N": n}, s, EXIT_PASS,
                            check_family_exact(s, "derivative", r, n, FAMILY_PROBES), "exact"))
    r, n = RANK_ORDER[(i + 5) % 12]
    s = _job_seed(rng)
    jobs.append(_family_job(f"{i:03d}-trivial", "family-trivial",
                            {"kind": "trivial", "r": r, "N": n}, s, EXIT_PASS,
                            check_family_exact(s, "trivial", r, n, FAMILY_PROBES), "exact"))
    r, n = RANK_ORDER[(i + 7) % 12]
    s = _job_seed(rng)
    descriptor = {"kind": "conjugated", "r": r, "N": n, "tau": affine_tau(rng, r),
                  "inner": {"kind": "derivative", "r": r, "N": n}}
    jobs.append(_family_job(f"{i:03d}-conjugated", "family-conjugated-derivative", descriptor, s,
                            EXIT_PASS, check_family_exact(s, "conjugated", r, n, FAMILY_PROBES), "exact"))
    return jobs


def sampled_families_round(seed: int, i: int) -> List[Job]:
    rng = random.Random(f"sampled-families/{seed}/{i}")
    jobs = []

    r, n = RANK_ORDER[i % 12]
    s = _job_seed(rng)
    descriptor = {"kind": "identity_generated", "r": r, "N": n,
                  "coefficients": coefficients(rng, r, band_subset(rng, r, n))}
    jobs.append(_family_job(f"{i:03d}-identity", "family-identity-generated", descriptor, s,
                            EXIT_PASS, check_family_sampled(s, "identity_generated", r, n, FAMILY_TOL),
                            "float"))

    r = i % 3 + 1
    s = _job_seed(rng)
    descriptor = {"kind": "first_order_leibniz", "r": r,
                  "c": poly_expr(r, poly_terms(rng, r, 2, 3, 4))}
    jobs.append(_family_job(f"{i:03d}-first-order", "family-first-order", descriptor, s,
                            EXIT_PASS, check_family_sampled(s, "first_order_leibniz", r, 1, FAMILY_TOL),
                            "float"))

    r, n = RANK_ORDER[(i + 5) % 12]
    s = _job_seed(rng)
    inner = {"kind": "identity_generated", "r": r, "N": n,
             "coefficients": coefficients(rng, r, band_subset(rng, r, n))}
    descriptor = {"kind": "conjugated", "r": r, "N": n, "tau": affine_tau(rng, r), "inner": inner}
    jobs.append(_family_job(f"{i:03d}-conjugated", "family-conjugated-identity", descriptor, s,
                            EXIT_PASS, check_family_sampled(s, "conjugated", r, n, FAMILY_TOL), "float"))

    # One forced-zero index gamma next to band indices: the alpha = 2*gamma sum
    # is C(2g, g) * c_gamma^2 alone, and c_gamma has no zero on the box.
    r, n = VIOLATION_SHAPES[i % 9]
    s = _job_seed(rng)
    gamma = rng.choice(low(r, n))
    coeffs = coefficients(rng, r, band_subset(rng, r, n))
    coeffs.append({"index": list(gamma), "expr": dominant_expr(rng, r)})
    descriptor = {"kind": "identity_generated", "r": r, "N": n, "coefficients": coeffs}
    witness = tuple(2 * g for g in gamma)
    jobs.append(_family_job(f"{i:03d}-violating", "family-violating", descriptor, s,
                            EXIT_FAIL, check_violation(s, witness), "float"))

    for rank, tamper in ((i % 3 + 1, False), ((i + 1) % 3 + 1, True)):
        s = _job_seed(rng)
        argv = ["verify-semigroup", "--rank", str(rank), "--order", "4", "--seed", str(s)]
        if tamper:
            argv.append("--tamper")
        jobs.append(Job(f"{i:03d}-semigroup{'-tampered' if tamper else ''}",
                        "semigroup-tampered" if tamper else "semigroup", argv,
                        EXIT_FAIL if tamper else EXIT_PASS, check_semigroup(s, rank, tamper),
                        ("verify-semigroup", rank, 4, tamper, s), arithmetic="float"))
    return jobs


def _subsets(rank: int, order: int, max_size: Optional[int]) -> int:
    """Candidate supports search-supports walks for this config."""
    size = len(indices(rank, order)) - 1
    top = size if max_size is None else min(max_size, size)
    return sum(math.comb(size, k) for k in range(top + 1))


def _search_pool() -> List[Tuple[int, int, Optional[int]]]:
    """Every (rank, order) whose enumeration fits the default budget and ends
    at the commit that introduced the benchmark, every --max-support-size
    variant of them that walks at most 800 candidate supports, and eight
    larger variants; cheapest first, so that short runs stay short.

    The many variants between 10 and 100 ms put enough jobs near the top
    decile that job_ms.p90 is not the time of one job."""
    full = [(1, n) for n in range(1, 13)] + [(2, n) for n in range(1, 5)]
    full += [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (6, 1)]
    pool: List[Tuple[int, int, Optional[int]]] = [(r, n, None) for r, n in full]
    pool += [
        (r, n, m)
        for r, n in full
        for m in range(2, len(indices(r, n)) - 1)
        if _subsets(r, n, m) <= 800
    ]
    pool += [(2, 4, 6), (2, 4, 8), (2, 4, 10), (4, 2, 6), (4, 2, 8), (1, 12, 6), (1, 12, 9),
             (1, 11, 8)]
    return sorted(pool, key=lambda e: (_subsets(*e), e[0], e[1], e[2] or 0))


SEARCH_POOL = _search_pool()
SEARCHES_PER_ROUND = 2
GEN_SHAPES = [(r, n) for r in (1, 2, 3) for n in range(1, 7)]
REJECT_SHAPES = [(r, n) for r in (2, 3) for n in (2, 3, 4)]
OVER_BUDGET = (3, 4)  # 34 indices against the default --budget 20


def support_search_round(seed: int, i: int) -> List[Job]:
    rng = random.Random(f"support-search/{seed}/{i}")
    jobs = []
    if i == 0:
        r, n = OVER_BUDGET
        s = _job_seed(rng)
        jobs.append(Job("000-over-budget", "search-over-budget",
                        ["search-supports", "--rank", str(r), "--order", str(n), "--seed", str(s)],
                        EXIT_BUDGET, check_no_output, ("search-supports", r, n, "over-budget")))
    for slot in range(SEARCHES_PER_ROUND):
        k = SEARCHES_PER_ROUND * i + slot
        if k >= len(SEARCH_POOL):
            break
        r, n, m = SEARCH_POOL[k]
        s = _job_seed(rng)
        argv = ["search-supports", "--rank", str(r), "--order", str(n), "--seed", str(s)]
        if m is not None:
            argv += ["--max-support-size", str(m)]
        size = len(indices(r, n)) - 1
        jobs.append(Job(f"{i:03d}-search{slot}", "search-supports", argv, EXIT_PASS,
                        check_search(s, r, n, m),
                        ("search-supports", r, n, size if m is None else min(m, size))))

    r, n = GEN_SHAPES[i % len(GEN_SHAPES)]
    s = _job_seed(rng)
    jobs.append(Job(f"{i:03d}-gen-band", "gen-family-band",
                    ["gen-family", "--rank", str(r), "--order", str(n), "--seed", str(s)],
                    EXIT_PASS, check_gen(s, r, n, band(r, n)), ("gen-family", r, n, None, s)))

    r, n = GEN_SHAPES[(i + 7) % len(GEN_SHAPES)]
    s = _job_seed(rng)
    support = band_subset(rng, r, n)
    spec = json.dumps([list(a) for a in support])
    jobs.append(Job(f"{i:03d}-gen-support", "gen-family-support",
                    ["gen-family", "--rank", str(r), "--order", str(n), "--support", spec,
                     "--seed", str(s)],
                    EXIT_PASS, check_gen(s, r, n, support), ("gen-family", r, n, spec, s)))

    # One forced-zero index plus a band subset: decomposable with no
    # certificate, so exit 2 whatever the seed.  The j-th use of a shape takes
    # candidate offset + j * stride of the |low| * 2^|band| candidates; the
    # stride is a prime no candidate count shares, so a run never repeats one.
    r, n = REJECT_SHAPES[i % len(REJECT_SHAPES)]
    lows, full = low(r, n), band(r, n)
    offset = random.Random(f"support-search/{seed}/reject/{r}/{n}").randrange(2**31)
    pick = (offset + (i // len(REJECT_SHAPES)) * 1_000_003) % (len(lows) << len(full))
    gamma, mask = lows[pick % len(lows)], pick // len(lows)
    support = sorted([gamma] + [a for k, a in enumerate(full) if mask >> k & 1])
    spec = json.dumps([list(a) for a in support])
    s = _job_seed(rng)
    jobs.append(Job(f"{i:03d}-gen-reject", "gen-family-reject",
                    ["gen-family", "--rank", str(r), "--order", str(n), "--support", spec,
                     "--seed", str(s)],
                    EXIT_INPUT, check_no_output, ("gen-family", r, n, spec, "rejected")))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    round_jobs: Callable[[int, int], List[Job]]
    full_rounds: int  # rounds in a run of FULL_SECONDS
    warmups: List[Job]  # one small job per subcommand, timed as set-up


def _exact_warmups() -> List[Job]:
    s = -1  # job seeds are >= 0, so warm-up work never repeats a timed job
    return [
        Job("warmup-leibniz", "warmup", ["verify-leibniz", "--rank", "1", "--order", "1",
            "--degree", "2", "--pairs", "1", "--seed", str(s)], EXIT_PASS,
            check_leibniz(s, 1), ("verify-leibniz", 1, 1, 2, 1, s)),
        _family_job("warmup-family", "warmup", {"kind": "derivative", "r": 1, "N": 1}, s,
                    EXIT_PASS, check_family_exact(s, "derivative", 1, 1, FAMILY_PROBES), "exact"),
    ]


def _sampled_warmups() -> List[Job]:
    s = -1
    descriptor = {"kind": "first_order_leibniz", "r": 1,
                  "c": poly_expr(1, [{"exponent": [1], "coeff": "1"}])}
    return [
        _family_job("warmup-family", "warmup", descriptor, s, EXIT_PASS,
                    check_family_sampled(s, "first_order_leibniz", 1, 1, FAMILY_TOL), "float"),
        Job("warmup-semigroup", "warmup", ["verify-semigroup", "--rank", "1", "--order", "1",
            "--probes", "4", "--seed", str(s)], EXIT_PASS, check_semigroup(s, 1, False),
            ("verify-semigroup", 1, 1, False, s)),
    ]


def _search_warmups() -> List[Job]:
    s = -1
    return [
        # rank 7 is outside the timed pool
        Job("warmup-search", "warmup", ["search-supports", "--rank", "7", "--order", "1",
            "--seed", str(s)], EXIT_PASS, check_search(s, 7, 1, None),
            ("search-supports", 7, 1, 7)),
        Job("warmup-gen", "warmup", ["gen-family", "--rank", "1", "--order", "1", "--seed", str(s)],
            EXIT_PASS, check_gen(s, 1, 1, band(1, 1)), ("gen-family", 1, 1, None, s)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-calculus", exact_calculus_round, 38, _exact_warmups()),
        Workload("sampled-families", sampled_families_round, 45, _sampled_warmups()),
        Workload("support-search", support_search_round,
                 math.ceil(len(SEARCH_POOL) / SEARCHES_PER_ROUND), _search_warmups()),
    )
}


def rounds_for(workload: Workload, seconds: float) -> int:
    return max(1, round(workload.full_rounds * seconds / FULL_SECONDS))


def build_jobs(workload: Workload, seed: int, seconds: float) -> List[Job]:
    jobs: List[Job] = []
    for i in range(rounds_for(workload, seconds)):
        jobs.extend(workload.round_jobs(seed, i))
    return jobs
