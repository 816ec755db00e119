"""End-to-end acceptance checks, one per headline capability.

Each test prints a single ``ACCEPTANCE <name>: PASS/FAIL (...)`` line
(run pytest with ``-s`` to see them) and then asserts the verdict, so a
broken capability shows up both in the printed summary and in the
pytest report.  Tolerances are part of the contract: families whose
reports are exact must come back with residual exactly 0.0, sampled
families must meet the stated bounds.
"""

import math
import random
import time
from fractions import Fraction

import sympy

from moment_leibniz import (
    Domain,
    MultiIndex,
    OperatorFamily,
    PolyLeaf,
    Polynomial,
    PowerSignMap,
    RationalPoint,
    TauMap,
    XLogAbs,
    binom,
    check_constraint,
    check_leibniz_all,
    check_multiplicative,
    conjugate,
    const_expr,
    constraint_indices,
    convolution_terms,
    dalpha,
    default_probe_pairs,
    enumerate_below,
    enumerate_height_at_most,
    enumerate_valid_constant_supports,
    eval_expr,
    forced_zero_analysis,
    make_derivative,
    make_exponential_moment_seq,
    make_identity_generated,
    make_power_sign,
    make_second_order_leibniz,
    make_trivial,
    random_polynomial,
    random_probe_pairs,
    random_valid_family,
    verify_moment,
    verify_moment_seq,
)


def _report(name: str, ok: bool, detail: str) -> None:
    """Print the one-line verdict for a capability, then assert it."""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _mi(*entries: int) -> MultiIndex:
    return MultiIndex(tuple(entries))


# ---- 1: product-derivative identity over exact rationals ----


def test_product_rule_exact_on_random_polynomials():
    started = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    bad = []
    for rank, pairs in ((1, 167), (2, 167), (3, 166)):
        for _ in range(pairs):
            f = random_polynomial(rng, rank, max_degree=6)
            g = random_polynomial(rng, rank, max_degree=6)
            failures = check_leibniz_all(f, g, 4)
            if failures:
                bad.append((rank, failures[0].to_json()))
            checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 500 and not bad and elapsed < 60.0
    _report(
        "product-rule-exact",
        ok,
        f"{checked} random pairs, ranks 1-3, degree <= 6, all orders <= 4, "
        f"{len(bad)} failures, {elapsed:.1f}s",
    )


# ---- 2: derivative family satisfies the convolution identity ----


def test_derivative_family_moment_identity():
    started = time.perf_counter()
    worst = 0.0
    probes_run = 0
    all_passed = True
    for rank in (1, 2, 3):
        domain = Domain.unit(rank, n_samples=8, seed=rank)
        family = make_derivative(rank, 4)
        probes = default_probe_pairs(domain, 34, random.Random(rank))
        report = verify_moment(family, probes, domain)
        probes_run += len(probes)
        worst = max(worst, report.max_residual)
        all_passed = all_passed and report.passed and report.exact
    elapsed = time.perf_counter() - started
    ok = all_passed and worst == 0.0 and probes_run >= 100 and elapsed < 60.0
    _report(
        "derivative-family",
        ok,
        f"ranks 1-3, order 4, {probes_run} probe pairs, "
        f"max residual {worst} (exact arithmetic), {elapsed:.1f}s",
    )


# ---- 3: trivial family is the only one with T_0 = 1 and zero tail ----


def _unit_candidate(perturb):
    """Rank-1 family with T_0 = 1 and every other T_alpha perturbed."""

    def rule(alpha, f):
        if alpha.is_zero():
            return PolyLeaf(Polynomial.constant(1, 1))
        return perturb(f)

    return OperatorFamily(1, 2, rule)


_NONZERO_TAILS = [
    ("f itself", lambda f: PolyLeaf(f)),
    ("constant 5", lambda f: const_expr(1, 5)),
    ("f squared", lambda f: PolyLeaf(f * f)),
    ("negated f", lambda f: PolyLeaf(f * -1)),
    ("f plus 1", lambda f: PolyLeaf(f + Polynomial.constant(1, 1))),
    ("first derivative", lambda f: PolyLeaf(dalpha(f, _mi(1)))),
    ("coordinate times f", lambda f: PolyLeaf(Polynomial.variable(1, 0) * f)),
    ("f log|f|", lambda f: XLogAbs(PolyLeaf(f))),
    ("affine 2f + 3", lambda f: PolyLeaf(f * 2 + Polynomial.constant(1, 3))),
    ("f cubed", lambda f: PolyLeaf(f * f * f)),
    ("f / 10^12", lambda f: PolyLeaf(f * Fraction(1, 10**12))),
]


def test_trivial_family_and_collapse():
    domain = Domain.unit(1, n_samples=8, seed=3)
    trivial = make_trivial(1, 2)
    report = verify_moment(trivial, default_probe_pairs(domain, 8, random.Random(3)), domain)

    # the collapse instances of the identity sit on the (0, f) pairs
    x = Polynomial.variable(1, 0)
    collapse_pairs = [
        (Polynomial.zero(1), f)
        for f in (
            Polynomial.constant(1, 2),
            x + Polynomial.constant(1, 1),
            x * x + Polynomial.constant(1, 1),
        )
    ]
    accepted = verify_moment(trivial, collapse_pairs, domain)

    missed = []
    unproved = []
    for label, perturb in _NONZERO_TAILS:
        verdict = verify_moment(_unit_candidate(perturb), collapse_pairs, domain)
        if verdict.passed:
            missed.append(label)
        if not verdict.exact:
            unproved.append(label)
    ok = (
        report.passed
        and report.max_residual == 0.0
        and accepted.passed
        and accepted.exact
        and accepted.max_residual == 0.0
        and not missed
        and unproved == ["f log|f|"]
    )
    detail = (
        f"trivial family residual {report.max_residual} (exact), "
        f"{len(_NONZERO_TAILS) - len(missed)}/{len(_NONZERO_TAILS)} nonzero tails rejected, "
        f"sampled: {unproved}"
    )
    if missed:
        detail += f", missed: {missed}"
    _report("trivial-collapse", ok, detail)


# ---- 4: log-generated families over every admissible support ----


def test_identity_generated_families_across_valid_supports():
    started = time.perf_counter()
    patterns_checked = 0
    runs = 0
    worst = 0.0
    vanishing_pairs = 0
    nonzero_at_vanish = 0
    all_passed = True
    for rank in (1, 2):
        domain = Domain.unit(rank, n_samples=8, seed=rank)
        vanish_point = domain.sample_points[0]
        vanishing = Polynomial.variable(rank, 0) - Polynomial.constant(
            rank, vanish_point[0]
        )
        partner = random_polynomial(random.Random(7 * rank), rank, max_degree=3)
        product = vanishing * partner
        for order in (1, 2, 3):
            for support in enumerate_valid_constant_supports(rank, order):
                patterns_checked += 1
                for seed in range(5):
                    coeffs, _ = random_valid_family(rank, order, support, seed)
                    check = check_constraint(coeffs, domain)
                    all_passed = all_passed and check.passed
                    family = make_identity_generated(coeffs)
                    probes = default_probe_pairs(
                        domain, 6, random.Random(1000 * order + seed)
                    )
                    rep = verify_moment(family, probes, domain)
                    runs += 1
                    worst = max(worst, rep.max_residual)
                    all_passed = all_passed and rep.passed
                    # only the empty support leaves no log term to sample
                    all_passed = all_passed and rep.exact is (not support)
                # where f*g vanishes both sides of the identity must be
                # exactly 0.0, not merely small
                family = make_identity_generated(random_valid_family(rank, order, support, 0)[0])
                for alpha in enumerate_height_at_most(rank, order):
                    if alpha.is_zero():
                        continue
                    lhs = eval_expr(family.apply(alpha, product), (vanish_point,))[0]
                    rhs = math.fsum(
                        binom(alpha, beta)
                        * eval_expr(family.apply(beta, vanishing), (vanish_point,))[0]
                        * eval_expr(family.apply(alpha - beta, partner), (vanish_point,))[0]
                        for beta in enumerate_below(alpha)
                    )
                    vanishing_pairs += 1
                    if lhs != 0.0 or rhs != 0.0:
                        nonzero_at_vanish += 1
    elapsed = time.perf_counter() - started
    ok = (
        all_passed
        and worst <= 1e-9
        and nonzero_at_vanish == 0
        and patterns_checked >= 148
    )
    _report(
        "identity-generated-supports",
        ok,
        f"{patterns_checked} admissible supports (ranks 1-2, orders 1-3), "
        f"{runs} seeded families, max residual {worst:.3e} <= 1e-9, "
        f"{vanishing_pairs} vanishing-product instances exactly 0.0, {elapsed:.1f}s",
    )


# ---- 5: coefficient indices forced to vanish, against brute force ----


def _brute_forced(support, rank, order):
    """Indices that vanish in every solution of the expanded system.

    Builds the constrained bilinear sums symbolically and solves them
    outright; an index is forced exactly when its symbol is zero in
    every solution branch.
    """
    ordered = sorted(support, key=lambda m: (m.height, tuple(m)))
    syms = {a: sympy.Symbol(f"c{'_'.join(map(str, a))}") for a in ordered}
    equations = []
    for alpha in constraint_indices(rank, order):
        total = sympy.Integer(0)
        for beta in enumerate_below(alpha)[1:-1]:
            gamma = alpha - beta
            if beta in syms and gamma in syms:
                total += binom(alpha, beta) * syms[beta] * syms[gamma]
        if total != 0:
            equations.append(sympy.expand(total))
    if not equations:
        return frozenset()
    solutions = sympy.solve(equations, list(syms.values()), dict=True)
    forced = set()
    for index, sym in syms.items():
        if solutions and all(sol.get(sym, sym) == 0 for sol in solutions):
            forced.add(index)
    return frozenset(forced)


def test_forced_zero_analysis_matches_brute_force():
    full_1_2 = frozenset(
        a for a in enumerate_height_at_most(1, 2) if not a.is_zero()
    )
    full_2_2 = frozenset(
        a for a in enumerate_height_at_most(2, 2) if not a.is_zero()
    )
    cases = [
        (1, 2, full_1_2, frozenset({_mi(1)})),
        (2, 2, full_2_2, frozenset({_mi(1, 0), _mi(0, 1)})),
        # cascade: removing the forced c_1 turns alpha = 4 into a pure
        # square in c_2, which is then forced as well
        (1, 4, frozenset({_mi(1), _mi(2)}), frozenset({_mi(1), _mi(2)})),
    ]
    mismatches = []
    for rank, order, support, expected in cases:
        forced = forced_zero_analysis(order, support)
        brute = _brute_forced(support, rank, order)
        if forced != expected or brute != expected:
            mismatches.append(
                {
                    "rank": rank,
                    "order": order,
                    "analysis": sorted(a.to_json() for a in forced),
                    "brute_force": sorted(a.to_json() for a in brute),
                }
            )
    ok = not mismatches
    _report(
        "forced-zeros",
        ok,
        f"{len(cases)} supports, analysis == symbolic brute force"
        + (f", mismatches: {mismatches}" if mismatches else ""),
    )


# ---- 6: second-order pair obeys its product rule ----


def test_second_order_pair_product_rule():
    rank = 2
    domain = Domain.unit(rank, n_samples=8, seed=6)
    x0 = Polynomial.variable(rank, 0)
    x1 = Polynomial.variable(rank, 1)
    b = (PolyLeaf(x0 * x1), const_expr(rank, 2))
    c = (PolyLeaf(x0 + Polynomial.constant(rank, 1)), PolyLeaf(x1))
    # T = T_(2) and A = T_(1) of an order-2 family indexed by rank 1; the
    # rule is its alpha = (2) instance, and alpha = (1) says A is a derivation
    pair = make_second_order_leibniz(const_expr(rank, 0), b, c, smoothness=2, dim=rank)

    rng = random.Random(6)
    probes = [
        (
            random_polynomial(rng, rank, max_degree=4),
            random_polynomial(rng, rank, max_degree=4),
        )
        for _ in range(100)
    ]
    report = verify_moment(pair, probes, domain)
    exact_ok = report.exact and report.passed and report.max_residual == 0.0
    exact_ok = exact_ok and set(report.per_alpha_max_residual) == {"0", "1", "2"}

    # smoothness below 2 rules out the quadratic part, below 1 the
    # first-order part as well
    zero_field = (const_expr(rank, 0), const_expr(rank, 0))
    clause_errors = 0
    try:
        make_second_order_leibniz(const_expr(rank, 0), b, c, smoothness=1, dim=rank)
    except ValueError:
        clause_errors += 1
    try:
        make_second_order_leibniz(
            const_expr(rank, 0), b, zero_field, smoothness=0, dim=rank
        )
    except ValueError:
        clause_errors += 1

    # the logarithmic part alone still satisfies the rule (float path)
    log_only = make_second_order_leibniz(
        const_expr(rank, 1), zero_field, zero_field, smoothness=0, dim=rank
    )
    log_report = verify_moment(log_only, probes[:20], domain)

    ok = exact_ok and clause_errors == 2 and log_report.passed and not log_report.exact
    _report(
        "second-order-pair",
        ok,
        f"100 probe pairs residual {report.max_residual} (exact), "
        f"{clause_errors}/2 smoothness clauses enforced, "
        f"log-only pair residual {log_report.max_residual:.3e}",
    )


# ---- 7: conjugation by a change of variables ----


def _strip_points(seed: int) -> tuple:
    """Eight seeded samples 3/8 + (1/4) k/64, 0 < k < 64, of the strip (3/8, 5/8)."""
    rng = random.Random(seed)
    return tuple(
        RationalPoint.of(Fraction(3, 8) + Fraction(1, 4) * Fraction(rng.randint(1, 63), 64))
        for _ in range(8)
    )


def test_conjugated_families_keep_the_identity():
    worst_exact = 0.0
    worst_float = 0.0
    worst_double = 0.0
    all_passed = True

    setups = [
        (Domain.unit(1, n_samples=8, seed=7), TauMap.affine([[-1]], [1])),
        (
            Domain.unit(2, n_samples=8, seed=7),
            TauMap.affine([[0, -1], [-1, 0]], [1, 1]),
        ),
    ]
    for domain, tau in setups:
        rank = domain.rank
        rng = random.Random(70 + rank)

        derived = conjugate(make_derivative(rank, 3), tau)
        rep = verify_moment(derived, default_probe_pairs(domain, 12, rng), domain)
        worst_exact = max(worst_exact, rep.max_residual)
        all_passed = all_passed and rep.passed and rep.exact

        support = frozenset(
            a for a in enumerate_height_at_most(rank, 2) if a.height == 2
        )
        coeffs, _ = random_valid_family(rank, 2, support, 7)
        logfam = conjugate(make_identity_generated(coeffs), tau)
        rep = verify_moment(logfam, default_probe_pairs(domain, 12, rng), domain)
        worst_float = max(worst_float, rep.max_residual)
        all_passed = all_passed and rep.passed

        # tau is an involution, so conjugating twice must reproduce the
        # original values
        base = make_identity_generated(coeffs)
        double = conjugate(conjugate(base, tau), tau)
        images = [double.eval_point(x) for x in domain.sample_points]
        all_passed = all_passed and all(map(domain.contains, images))
        probe = random_polynomial(rng, rank, max_degree=3)
        for alpha in enumerate_height_at_most(rank, 2):
            for x in domain.sample_points:
                diff = abs(
                    eval_expr(double.apply(alpha, probe), (double.eval_point(x),))[0]
                    - eval_expr(base.apply(alpha, probe), (base.eval_point(x),))[0]
                )
                worst_double = max(worst_double, diff)

    # non-involutive map with explicit inverse: samples sit on a strip
    # narrow enough that both the map and its inverse stay in the box
    strip = Domain(1, _strip_points(17))
    tau = TauMap(
        (
            Polynomial.variable(1, 0) * Fraction(1, 2)
            + Polynomial.constant(1, Fraction(1, 4)),
        )
    )
    tau_inv = TauMap(
        (Polynomial.variable(1, 0) * 2 - Polynomial.constant(1, Fraction(1, 2)),)
    )
    fam = make_derivative(1, 3)
    double = conjugate(conjugate(fam, tau), tau_inv)
    images = [double.eval_point(x) for x in strip.sample_points]
    all_passed = all_passed and all(map(strip.contains, images))
    probe = Polynomial.monomial((3,), Fraction(2, 3))
    for alpha in enumerate_height_at_most(1, 3):
        for x in strip.sample_points:
            diff = abs(
                eval_expr(double.apply(alpha, probe), (double.eval_point(x),))[0]
                - eval_expr(fam.apply(alpha, probe), (fam.eval_point(x),))[0]
            )
            worst_double = max(worst_double, diff)

    ok = (
        all_passed
        and worst_exact == 0.0
        and worst_float <= 1e-9
        and worst_double <= 1e-12
    )
    _report(
        "conjugation",
        ok,
        f"reflection and coordinate-swap maps, conjugated derivative residual "
        f"{worst_exact} (exact), conjugated log family {worst_float:.3e} <= 1e-9, "
        f"double conjugation max deviation {worst_double:.3e} <= 1e-12",
    )


# ---- 8: power-sign maps are multiplicative and keep signs ----


def test_power_sign_maps_multiplicative():
    domain = Domain.unit(1, n_samples=8, seed=8)
    half_plus_x = Polynomial.variable(1, 0) + Polynomial.constant(1, Fraction(1, 2))
    exponents = [const_expr(1, 1), const_expr(1, 2), PolyLeaf(half_plus_x)]
    taus = [TauMap.identity(1), TauMap.affine([[-1]], [1])]

    rng = random.Random(8)
    combos = 0
    worst = 0.0
    signs_ok = True
    all_passed = True
    minus_one = Polynomial.constant(1, -1)
    for exponent in exponents:
        for tau in taus:
            mapping = PowerSignMap(exponent, tau)
            probes = [
                (
                    random_polynomial(rng, 1, max_degree=4),
                    random_polynomial(rng, 1, max_degree=4),
                )
                for _ in range(50)
            ]
            report = check_multiplicative(mapping, probes, domain)
            combos += 1
            worst = max(worst, report.max_residual)
            # the sign survives: T_0(-1) is -1 at every sample
            sign = make_power_sign(mapping).apply(MultiIndex.zero(1), minus_one)
            signs_ok = signs_ok and set(eval_expr(sign, domain.sample_points)) == {-1.0}
            all_passed = all_passed and report.passed
    ok = combos == 6 and all_passed and signs_ok and worst <= 1e-9
    _report(
        "power-sign",
        ok,
        f"{combos} exponent/map combos x 50 probe pairs, max residual "
        f"{worst:.3e} <= 1e-9, signs preserved: {signs_ok}",
    )


# ---- 9: exponential sequences satisfy the convolution identity ----


def test_exponential_sequences_satisfy_convolution():
    worst = 0.0
    sweeps = 0
    all_passed = True
    for rank in (1, 2, 3):
        for rate in (0.0, 1.0, -1.0):
            rng = random.Random(900 + 10 * rank + int(rate))
            scales = [rng.uniform(0.5, 2.0) for _ in range(rank)]
            seq = make_exponential_moment_seq(rank, 4, rate, scales)
            report = verify_moment_seq(
                seq, random_probe_pairs(100, rng), tol=1e-10
            )
            sweeps += 1
            worst = max(worst, report.max_residual)
            all_passed = all_passed and report.passed

    # the rank-1 case must reduce to the scalar binomial recurrence,
    # term for term
    scalar_ok = True
    for k in range(5):
        expected = [
            (math.comb(k, j), _mi(j), _mi(k - j)) for j in range(k + 1)
        ]
        scalar_ok = scalar_ok and convolution_terms(_mi(k)) == expected

    ok = all_passed and worst <= 1e-10 and sweeps == 9 and scalar_ok
    _report(
        "exponential-semigroup",
        ok,
        f"{sweeps} rate/rank sweeps x 100 probe pairs, max residual "
        f"{worst:.3e} <= 1e-10, rank-1 terms match the scalar recurrence: {scalar_ok}",
    )
