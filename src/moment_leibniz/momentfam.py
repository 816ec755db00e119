"""Operator families T_alpha and the pointwise moment-identity verifier.

The identity under test is the binomial convolution

    T_alpha(f*g) = sum_{beta <= alpha} C(alpha, beta) T_beta(f) T_{alpha-beta}(g)

for all |alpha| <= N at every sample point; its alpha = 0 instance is
plain multiplicativity of T_0.  Families built from exact polynomial
data (trivial, derivative, and their reparametrized conjugates) are
verified with zero tolerance in rational arithmetic; families involving
f*ln|f| are verified in floating point against the domain tolerance.
Both kinds apply each operator once per probe, tabulate its values at
the sample points with ``funcmodel.eval_table`` (exact values come from
one expansion), and run the same loop over ``convolution_terms``;
``funcmodel.judge`` turns each instance into a residual and a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .multiindex import MultiIndex, convolution_terms, enumerate_height_at_most
from .polycalc import Polynomial, RationalPoint, dalpha, random_polynomial
from .funcmodel import (
    CheckReport,
    Domain,
    FuncExpr,
    GradDot,
    HessQuad,
    NotPolynomial,
    PolyLeaf,
    Product,
    Sum,
    TauMap,
    XLogAbs,
    as_polynomial,
    eval_expr,
    eval_table,
    expr_from_json,
    judge,
    witness_float,
    worse,
)
from .coeffsolve import CoeffFamily, ConstraintViolation, check_constraint

Rule = Callable[[MultiIndex, Polynomial], FuncExpr]


@dataclass
class OperatorFamily:
    """Operators T_alpha for |alpha| <= order, applied to polynomials.

    ``exact`` families promise log-free expressions, so the verifier can
    demand residual exactly zero.  ``point_maps`` reparametrize the
    evaluation point: T(f)(x) is the rule's expression evaluated at the
    composed image of x, which is how conjugation acts.
    """

    rank: int
    order: int
    kind: str
    exact: bool
    rule: Rule
    point_maps: tuple[TauMap, ...] = ()
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in (("rank", self.rank), ("order", self.order)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if not self.descriptor:
            self.descriptor = {"kind": self.kind, "r": self.rank, "N": self.order}

    def apply(self, alpha: MultiIndex, f: Polynomial) -> FuncExpr:
        if alpha.rank != self.rank:
            raise ValueError(f"index rank {alpha.rank}, family rank {self.rank}")
        if alpha.height > self.order:
            raise ValueError(f"|alpha| = {alpha.height} exceeds order {self.order}")
        if f.dim != self.rank:
            raise ValueError(f"probe dim {f.dim}, family rank {self.rank}")
        return self.rule(alpha, f)

    def eval_point(self, x: RationalPoint) -> RationalPoint:
        for tau in self.point_maps:
            x = tau(x)
        return x


# ---- constructors ----


def make_trivial(rank: int, order: int) -> OperatorFamily:
    """T_0(f) = 1 and T_alpha(f) = 0 for alpha != 0; exact."""

    def rule(alpha: MultiIndex, f: Polynomial) -> FuncExpr:
        if alpha.is_zero():
            return PolyLeaf(Polynomial.constant(rank, 1))
        return PolyLeaf(Polynomial.zero(rank))

    return OperatorFamily(rank, order, "trivial", True, rule)


def make_derivative(rank: int, order: int) -> OperatorFamily:
    """T_alpha(f) = D^alpha(f); exact, with T_0 the identity map."""
    if order < 1:
        raise ValueError(f"derivative family needs order >= 1, got {order}")

    def rule(alpha: MultiIndex, f: Polynomial) -> FuncExpr:
        return PolyLeaf(dalpha(f, alpha))

    return OperatorFamily(rank, order, "derivative", True, rule)


def make_identity_generated(
    cf: CoeffFamily,
    domain: Domain,
    validate: bool = True,
) -> OperatorFamily:
    """T_0(f) = f and T_alpha(f) = c_alpha * f * ln|f| for alpha != 0.

    The coefficients must satisfy the bilinear vanishing constraint on
    the domain samples; construction fails with ConstraintViolation
    otherwise.  ``validate=False`` skips the check so the verifier's
    failure detection can be exercised on purpose.
    """
    if domain.rank != cf.rank:
        raise ValueError(f"domain rank {domain.rank}, coefficients rank {cf.rank}")
    if validate:
        report = check_constraint(cf, domain.sample_points, domain.float_tolerance)
        if not report.passed:
            raise ConstraintViolation(report)
    rank = cf.rank

    def rule(alpha: MultiIndex, f: Polynomial) -> FuncExpr:
        if alpha.is_zero():
            return PolyLeaf(f)
        expr = cf.coefficient(alpha)
        if expr is None:
            return PolyLeaf(Polynomial.zero(rank))
        return Product((expr, XLogAbs(PolyLeaf(f))))

    return OperatorFamily(
        rank,
        cf.order,
        "identity_generated",
        False,
        rule,
        descriptor={
            "kind": "identity_generated",
            "r": rank,
            "N": cf.order,
            "coefficients": cf.to_json()["coefficients"],
        },
    )


def make_first_order_leibniz(c: FuncExpr, rank: int) -> OperatorFamily:
    """Order-1 family T_0(f) = f, T_e(f) = c * f * ln|f| for every unit index e.

    The single-coefficient case: no bilinear constraint exists at order 1,
    so any coefficient expression works.
    """
    if c.dim != rank:
        raise ValueError(f"coefficient dim {c.dim}, rank {rank}")

    def rule(alpha: MultiIndex, f: Polynomial) -> FuncExpr:
        if alpha.is_zero():
            return PolyLeaf(f)
        return Product((c, XLogAbs(PolyLeaf(f))))

    return OperatorFamily(
        rank,
        1,
        "first_order_leibniz",
        False,
        rule,
        descriptor={"kind": "first_order_leibniz", "r": rank, "c": c.to_json()},
    )


def conjugate(family: OperatorFamily, tau: TauMap, domain: Domain) -> OperatorFamily:
    """The family x -> T_alpha(f)(tau(x)).

    Keeps the inner family's expressions and prepends tau to the
    evaluation-point chain, so conjugates of exact families stay exact.
    tau must map the domain samples into the box.
    """
    if tau.rank != family.rank:
        raise ValueError(f"map rank {tau.rank}, family rank {family.rank}")
    for x in domain.sample_points:
        if not domain.contains(tau(x)):
            raise ValueError(f"tau image of sample {x.to_json()} leaves the box")
    return OperatorFamily(
        family.rank,
        family.order,
        "conjugated",
        family.exact,
        family.rule,
        point_maps=(tau,) + family.point_maps,
        descriptor={
            "kind": "conjugated",
            "r": family.rank,
            "N": family.order,
            "tau": tau.to_json(),
            "inner": family.descriptor,
        },
    )


def custom_family(
    rank: int,
    order: int,
    rule: Rule,
    exact: bool = False,
    kind: str = "custom",
) -> OperatorFamily:
    """Wrap an arbitrary alpha-indexed rule, e.g. for collapse probing."""
    return OperatorFamily(rank, order, kind, exact, rule)


# ---- probes ----


def default_probe_pairs(
    domain: Domain,
    count: int,
    rng,
) -> List[Tuple[Polynomial, Polynomial]]:
    """Seeded probe pairs; always includes the structured cases.

    The fixed prefix covers the zero function, constants, coordinate
    monomials, and a factor vanishing at the first sample point, then
    random sparse polynomials fill up to ``count`` pairs.
    """
    r = domain.rank

    def rand() -> Polynomial:
        return random_polynomial(rng, r, max_degree=3, terms=4, coeff_bound=6)

    vanishing = Polynomial.variable(r, 0) - Polynomial.constant(
        r, domain.sample_points[0][0]
    )
    pairs: List[Tuple[Polynomial, Polynomial]] = [
        (Polynomial.zero(r), rand()),
        (Polynomial.constant(r, 2), Polynomial.constant(r, -3)),
        (Polynomial.variable(r, 0), Polynomial.variable(r, r - 1)),
        (vanishing, rand()),
    ]
    while len(pairs) < count:
        pairs.append((rand(), rand()))
    return pairs[:count]


# ---- the verifier ----


@dataclass
class MomentReport:
    """Outcome of ``verify_moment`` over one family."""

    family: dict
    probe_count: int
    per_alpha_max_residual: Dict[str, float]
    max_residual: float
    passed: bool
    failures: List[dict]
    tolerance: float
    exact: bool
    seed: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "probe_count": self.probe_count,
            "per_alpha_max_residual": self.per_alpha_max_residual,
            "max_residual": self.max_residual,
            "pass": self.passed,
            "failures": self.failures,
            "tolerance": self.tolerance,
            "exact": self.exact,
            "seed": self.seed,
        }


def _alpha_key(alpha: MultiIndex) -> str:
    return ",".join(str(e) for e in alpha.entries)


def verify_moment(
    family: OperatorFamily,
    probes: Sequence[Tuple[Polynomial, Polynomial]],
    domain: Domain,
    seed: Optional[int] = None,
) -> MomentReport:
    """Check the binomial moment identity on every probe pair and sample.

    Exact families compare rational values and demand residual exactly
    zero; float families use the relative residual
    |lhs - rhs| / (1 + |lhs|) against the domain tolerance.  Failures
    carry the witnessing alpha, probe and point.
    """
    tol = domain.float_tolerance
    if domain.rank != family.rank:
        raise ValueError(f"domain rank {domain.rank}, family rank {family.rank}")
    alphas = enumerate_height_at_most(family.rank, family.order)
    terms = {alpha: convolution_terms(alpha) for alpha in alphas}
    points = [family.eval_point(x) for x in domain.sample_points]
    per_alpha = {_alpha_key(a): 0.0 for a in alphas}
    failures: List[dict] = []
    max_residual = 0.0
    for k, (f, g) in enumerate(probes):
        fg = f * g
        vf = {b: eval_table(family.apply(b, f), points, family.exact) for b in alphas}
        vg = {b: eval_table(family.apply(b, g), points, family.exact) for b in alphas}
        vfg = {a: eval_table(family.apply(a, fg), points, family.exact) for a in alphas}
        for alpha, splits in terms.items():
            key = _alpha_key(alpha)
            for i, x in enumerate(domain.sample_points):
                lhs = vfg[alpha][i]
                # a plain sum: exact terms are Fractions, so it stays exact
                rhs = sum(w * vf[beta][i] * vg[gamma][i] for w, beta, gamma in splits)
                residual, ok = judge(lhs, rhs, family.exact, tol)
                per_alpha[key] = worse(per_alpha[key], residual)
                max_residual = worse(max_residual, residual)
                if not ok:
                    failures.append(
                        {
                            "alpha": alpha.to_json(),
                            "probe": k,
                            "point": x.to_json(),
                            "lhs": witness_float(lhs),
                            "rhs": witness_float(rhs),
                            "residual": residual,
                        }
                    )
    return MomentReport(
        family=family.descriptor,
        probe_count=len(probes),
        per_alpha_max_residual=per_alpha,
        max_residual=max_residual,
        passed=not failures,
        failures=failures,
        tolerance=tol,
        exact=family.exact,
        seed=seed,
    )


def assert_trivial_collapse(
    candidate: OperatorFamily,
    probes: Sequence[Polynomial],
    domain: Domain,
) -> CheckReport:
    """Candidates with T_0 = 1 must have every other T_alpha vanish.

    Replays the two consequences of the moment identity that pin the
    collapse down: T_alpha(0) = 0 (from T_alpha(0) = 2 T_alpha(0)) and
    T_alpha(f*0) = T_alpha(f) + T_alpha(0).  Any candidate with some
    nonzero T_alpha violates one of them; the violated instance is the
    witness.  Requires T_0 = 1 on probes and samples up front.  Every
    bound is the domain tolerance.
    """
    tol = domain.float_tolerance
    zero_index = MultiIndex.zero(candidate.rank)
    zero_poly = Polynomial.zero(candidate.rank)
    points = [candidate.eval_point(x) for x in domain.sample_points]
    for f in probes:
        expr = candidate.apply(zero_index, f)
        for x, y in zip(domain.sample_points, points):
            if not abs(eval_expr(expr, y) - 1.0) <= tol:
                raise ValueError(
                    f"candidate does not have T_0 = 1 at sample {x.to_json()}"
                )
    failures: List[dict] = []
    max_residual = 0.0
    for alpha in enumerate_height_at_most(candidate.rank, candidate.order):
        if alpha.is_zero():
            continue
        at_zero = candidate.apply(alpha, zero_poly)
        zero_vals = [eval_expr(at_zero, y) for y in points]
        for x, v in zip(domain.sample_points, zero_vals):
            residual = abs(v)
            max_residual = worse(max_residual, residual)
            if not residual <= tol:
                failures.append(
                    {
                        "instance": "T_alpha(0) = 0",
                        "alpha": alpha.to_json(),
                        "point": x.to_json(),
                        "value": v,
                        "residual": residual,
                    }
                )
        for k, f in enumerate(probes):
            expr_f = candidate.apply(alpha, f)
            for x, y, v0 in zip(domain.sample_points, points, zero_vals):
                lhs = v0  # T_alpha(f*0) is T_alpha applied to the zero product
                rhs = eval_expr(expr_f, y) + v0
                residual, ok = judge(lhs, rhs, False, tol)
                max_residual = worse(max_residual, residual)
                if not ok:
                    failures.append(
                        {
                            "instance": "T_alpha(f*0) = T_alpha(f) + T_alpha(0)",
                            "alpha": alpha.to_json(),
                            "probe": k,
                            "point": x.to_json(),
                            "lhs": lhs,
                            "rhs": rhs,
                            "residual": residual,
                        }
                    )
    return CheckReport(
        check="trivial_collapse",
        passed=not failures,
        max_residual=max_residual,
        tolerance=tol,
        failures=failures,
        counts={"probes": len(probes), "points": len(points)},
    )


# ---- second-order pairs ----


def _vanishes(exprs: Sequence[FuncExpr]) -> Optional[bool]:
    """Whether every expression expands to the zero polynomial.

    None when some expression is not polynomial at all.
    """
    try:
        polys = [as_polynomial(e) for e in exprs]
    except NotPolynomial:
        return None
    return all(p.is_zero() for p in polys)


@dataclass
class SecondOrderPair:
    """The coupled operators

        T(f) = <f'' c, c> + <f', b> + a * f * ln|f|,   A(f) = <f', c>,

    expected to satisfy T(fg) = T(f) g + f T(g) + 2 A(f) A(g).
    ``exact`` when the log term is absent and b, c are polynomial.
    """

    rank: int
    smoothness: int
    a: FuncExpr
    b: tuple[FuncExpr, ...]
    c: tuple[FuncExpr, ...]
    exact: bool

    def __post_init__(self) -> None:
        # which parts T(f) has, decided once per pair
        self._has_c = not _vanishes(self.c)
        self._has_b = not _vanishes(self.b)
        self._has_a = not _vanishes([self.a])

    def apply_T(self, f: Polynomial) -> FuncExpr:
        parts: List[FuncExpr] = []
        if self._has_c:
            parts.append(HessQuad(f, self.c))
        if self._has_b:
            parts.append(GradDot(f, self.b))
        if self._has_a:
            parts.append(Product((self.a, XLogAbs(PolyLeaf(f)))))
        if not parts:
            return PolyLeaf(Polynomial.zero(self.rank))
        return Sum(tuple(parts)) if len(parts) > 1 else parts[0]

    def apply_A(self, f: Polynomial) -> FuncExpr:
        return GradDot(f, self.c)


def make_second_order_leibniz(
    a: FuncExpr,
    b: Sequence[FuncExpr],
    c: Sequence[FuncExpr],
    smoothness: int,
    rank: int,
) -> SecondOrderPair:
    """Build the pair, enforcing the smoothness clauses.

    smoothness = 1 forces c = 0 (no second-order term survives on C^1);
    smoothness = 0 additionally forces b = 0.  Violations raise
    ValueError rather than producing a pair the rule cannot hold for.
    """
    b = tuple(b)
    c = tuple(c)
    if len(b) != rank or len(c) != rank:
        raise ValueError(f"b and c need {rank} components")
    if smoothness not in (0, 1, 2):
        raise ValueError(f"smoothness must be 0, 1 or 2, got {smoothness}")
    b_zero, c_zero = _vanishes(b), _vanishes(c)
    if smoothness <= 1 and not c_zero:
        raise ValueError("smoothness <= 1 forces c = 0")
    if smoothness == 0 and not b_zero:
        raise ValueError("smoothness = 0 forces b = 0")
    exact = _vanishes([a]) is True and b_zero is not None and c_zero is not None
    return SecondOrderPair(rank, smoothness, a, b, c, exact)


def check_second_order(
    pair: SecondOrderPair,
    probes: Sequence[Tuple[Polynomial, Polynomial]],
    domain: Domain,
    seed: Optional[int] = None,
) -> CheckReport:
    """Check T(fg) = T(f) g + f T(g) + 2 A(f) A(g) on probes and samples.

    Exact pairs (no log term, polynomial fields) compare rational values
    with zero tolerance; the others use the domain tolerance.
    """
    tol = domain.float_tolerance
    points = domain.sample_points
    failures: List[dict] = []
    max_residual = 0.0
    for k, (f, g) in enumerate(probes):
        tf, tg, tfg, af, ag = (
            eval_table(expr, points, pair.exact)
            for expr in (
                pair.apply_T(f),
                pair.apply_T(g),
                pair.apply_T(f * g),
                pair.apply_A(f),
                pair.apply_A(g),
            )
        )
        for i, x in enumerate(points):
            lhs = tfg[i]
            # f(x) and g(x) are Fractions; times a float they round to float first
            rhs = tf[i] * g(x) + f(x) * tg[i] + 2 * af[i] * ag[i]
            residual, ok = judge(lhs, rhs, pair.exact, tol)
            max_residual = worse(max_residual, residual)
            if not ok:
                failures.append(
                    {
                        "probe": k,
                        "point": x.to_json(),
                        "lhs": witness_float(lhs),
                        "rhs": witness_float(rhs),
                        "residual": residual,
                    }
                )
    return CheckReport(
        check="second_order_rule",
        passed=not failures,
        max_residual=max_residual,
        tolerance=tol,
        failures=failures,
        counts={"probes": len(probes), "points": len(domain.sample_points)},
        seed=seed,
        details={"exact": pair.exact, "smoothness": pair.smoothness},
    )


# ---- descriptors ----


def family_from_json(data: dict, domain: Domain) -> OperatorFamily:
    """Rebuild a family from its JSON descriptor.

    Identity-generated descriptors re-run the coefficient constraint
    check against the provided domain.
    """
    if not isinstance(data, dict):
        raise ValueError(f"family descriptor must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind == "trivial":
        return make_trivial(data["r"], data["N"])
    if kind == "derivative":
        return make_derivative(data["r"], data["N"])
    if kind == "identity_generated":
        cf = CoeffFamily.from_json(
            {
                "rank": data["r"],
                "order": data["N"],
                "coefficients": data["coefficients"],
            }
        )
        return make_identity_generated(cf, domain)
    if kind == "first_order_leibniz":
        return make_first_order_leibniz(expr_from_json(data["c"]), data["r"])
    if kind == "conjugated":
        inner = family_from_json(data["inner"], domain)
        order = data["N"]
        if type(order) is not int or order != inner.order:
            raise ValueError(
                f"conjugated N must be the inner order {inner.order}, got {order!r}"
            )
        return conjugate(inner, TauMap.from_json(data["tau"]), domain)
    raise ValueError(f"unknown family kind {kind!r}")
