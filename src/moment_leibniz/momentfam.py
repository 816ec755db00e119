"""Operator families T_alpha and the pointwise moment-identity verifier.

The identity under test is the binomial convolution

    T_alpha(f*g) = sum_{beta <= alpha} C(alpha, beta) T_beta(f) T_{alpha-beta}(g)

for all |alpha| <= N at every sample point; its alpha = 0 instance is
plain multiplicativity of T_0.  Every family is an ``OperatorFamily``
over an alpha-indexed rule: the ``make_*`` constructors and ``conjugate``
build the described kinds, and any other rule goes straight to
``OperatorFamily(rank, order, rule)``.  The index rank and the number of
variables the operators act on are separate: second-order pairs are the
order-2 families indexed by rank 1 on functions of r variables, with
T_(1) = A and T_(2) = T, whose alpha = (2) instance is
T(fg) = T(f) g + f T(g) + 2 A(f) A(g).  A power-sign map M, built from
an exponent p and a map tau, is the order-0 family with T_0 = M
(``make_power_sign(p, tau)``), so its multiplicativity is the alpha = 0
instance: ``check_multiplicative(p, tau, ...)`` checks tau's rank, p > 0
at the samples and tau's images, then runs ``verify_moment`` on that
family.  Every family applies each operator once per probe.

Nothing that builds a family takes a domain, and reading a descriptor
verifies nothing.  A family holds at most one point map: ``conjugate``
composes the inner map with tau exactly, so a conjugate of a conjugate
still holds one polynomial map.  That map is the only way a family is
read through a change of variables: ``verify_moment``, and
``coeffsolve.check_constraint`` on a conjugate's ``coeff_family`` (the
inner one, unchanged), both evaluate at ``Domain.images(point_map)``,
which refuses an image outside the unit box before anything is checked.

How an instance is decided is read off the expressions the operators
return, probe by probe, before anything is expanded; a family declares
nothing about it.  When no T_beta(f), T_beta(g) or T_alpha(fg) of a
probe has an f*ln|f| node (``funcmodel.is_polynomial``), they all expand
to polynomials (trivial, derivative, log-free second-order pairs, their
reparametrized conjugates, and any user rule with log-free trees), and
each (probe, alpha) instance is one comparison in Q[x]: T_alpha(fg)
against the convolution over ``convolution_terms(alpha)``.
``polycalc.convolution_mismatches`` makes every comparison of a probe on
integer tables, its T(f) and T(g) tables each cleared of denominators by
one lcm.  Equal polynomials agree at every point, and so at every image
under the conjugating maps, so the instance passes with residual 0.0 and
nothing is evaluated.  Only an unequal one is summed in Fractions, by
``polycalc.convolution_sum``, and evaluated at the mapped sample
points, one column per side, where they must agree exactly; Fractions
are canonical, so these values are the pointwise convolution sums, and
the witnesses are the ones a pointwise loop finds.  If they agree at
every sample, the difference composed with the point map decides: a
nonzero one fails once, at ``polycalc.nonzero_grid_point`` of that
composition, and a zero one (a map that is not injective) passes.

When some expression has an f*ln|f| node, nothing of the probe is
expanded and its instances are sampled: the same expressions are
tabulated in floats with ``funcmodel.eval_expr``, one pass per
expression over all the sample points, and each point's convolution
products are added by ``funcmodel.convolution_column``, against the
domain tolerance.  The whole call evaluates at the one
``polycalc.PointColumns`` that ``Domain.images`` returns.  It keeps the
float values of each polynomial leaf (a coefficient, a probe, a product
of probes), so each is turned into floats once, however many alphas and
probes use it, and one set of power and monomial columns, from which
every exact value there is built.  ``funcmodel.judge_column`` turns each
alpha's column of sampled instances into residuals and verdicts; an
exact instance passes only when its sides are equal, and its residual
is |lhs - rhs|, or inf when that is too large for a float.

The collapse lemma needs no verifier of its own.  For a family with
T_0 = 1, the alpha instance at the probe pair (0, f) reads
T_alpha(0) = T_alpha(f) + T_alpha(0) + sum_{0<beta<alpha} C(alpha, beta)
T_beta(0) T_{alpha-beta}(f), so at the lowest alpha whose member is
nonzero on f it demands T_alpha(f) = 0.  ``verify_moment`` on (0, f)
pairs, which ``default_probe_pairs`` starts with, rejects such a family,
as a proof in Q[x] whenever its operators expand.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .multiindex import DimensionMismatch, MultiIndex, check_count
from .polycalc import (
    Polynomial,
    RationalPoint,
    compose,
    convolution_mismatches,
    convolution_sum,
    convolution_table,
    dalpha,
    eval_poly,
    eval_poly_values,
    nonzero_grid_point,
    random_polynomial,
)
from .funcmodel import (
    Domain,
    FuncExpr,
    PolyLeaf,
    Product,
    SignedPower,
    Sum,
    TauMap,
    XLogAbs,
    as_polynomial,
    convolution_column,
    eval_expr,
    expr_from_json,
    grad_dot,
    hess_quad,
    is_polynomial,
    judge_column,
    witness_float,
    worse,
)
from .coeffsolve import CoeffFamily

Rule = Callable[[MultiIndex, Polynomial], FuncExpr]


class OperatorFamily:
    """Operators T_alpha for |alpha| <= order, applied to polynomials.

    ``rule`` is any alpha-indexed rule.  Its indices have rank ``rank``;
    the functions it acts on have ``dim`` variables, which defaults to
    ``rank``.  Whether an instance is proved or sampled is decided by the
    verifier from the expressions the rule returns.  ``point_map``
    reparametrizes the evaluation point: T(f)(x) is the rule's expression
    evaluated at point_map(x), which is how conjugation acts.
    ``descriptor`` is the family's JSON form; the constructors below pass
    their own, and any other rule is described as
    ``{"kind": "custom", "r": dim, "N": order}``.  ``coeff_family`` holds
    an identity-generated family's coefficients, their constraint
    unchecked; like the rule's expressions, they are read at point_map(x).
    """

    def __init__(
        self, rank: int, order: int, rule: Rule, point_map: Optional[TauMap] = None,
        descriptor: Optional[dict] = None, dim: Optional[int] = None,
        coeff_family: Optional[CoeffFamily] = None,
    ) -> None:
        self.rank = rank
        self.order = order
        self.rule = rule
        self.point_map = point_map
        self.descriptor = descriptor
        self.dim = rank if dim is None else dim
        self.coeff_family = coeff_family
        check_count("rank", self.rank, 1)
        check_count("order", self.order, 0)
        check_count("dim", self.dim, 1)
        if self.descriptor is None:
            self.descriptor = {"kind": "custom", "r": self.dim, "N": self.order}

    def apply(self, alpha: MultiIndex, f: Polynomial) -> FuncExpr:
        if alpha.rank != self.rank:
            raise ValueError(f"index rank {alpha.rank}, family rank {self.rank}")
        if alpha.height > self.order:
            raise ValueError(f"|alpha| = {alpha.height} exceeds order {self.order}")
        if f.dim != self.dim:
            raise ValueError(f"probe dim {f.dim}, family dim {self.dim}")
        return self.rule(alpha, f)

    def eval_point(self, x: RationalPoint) -> RationalPoint:
        return x if self.point_map is None else self.point_map(x)


# ---- constructors ----


def make_trivial(rank: int, order: int) -> OperatorFamily:
    """T_0(f) = 1 and T_alpha(f) = 0 for alpha != 0."""
    check_count("rank", rank, 1)
    one, zero = PolyLeaf(Polynomial.constant(rank, 1)), PolyLeaf(Polynomial.zero(rank))

    def rule(alpha: MultiIndex, _f: Polynomial) -> FuncExpr:
        return one if alpha.is_zero() else zero

    descriptor = {"kind": "trivial", "r": rank, "N": order}
    return OperatorFamily(rank, order, rule, descriptor=descriptor)


def make_derivative(rank: int, order: int) -> OperatorFamily:
    """T_alpha(f) = D^alpha(f), with T_0 the identity map."""
    check_count("order", order, 1)

    def rule(alpha: MultiIndex, f: Polynomial) -> FuncExpr:
        return PolyLeaf(dalpha(f, alpha))

    descriptor = {"kind": "derivative", "r": rank, "N": order}
    return OperatorFamily(rank, order, rule, descriptor=descriptor)


def make_identity_generated(cf: CoeffFamily) -> OperatorFamily:
    """T_0(f) = f and T_alpha(f) = c_alpha * f * ln|f| for alpha != 0.

    The coefficient constraint is not checked here: ``coeff_family`` keeps
    ``cf`` for ``check_constraint``, and ``verify_moment`` fails a family
    that breaks it.
    """
    zero = PolyLeaf(Polynomial.zero(cf.rank))

    def rule(alpha: MultiIndex, f: Polynomial) -> FuncExpr:
        if alpha.is_zero():
            return PolyLeaf(f)
        expr = cf.coefficients.get(alpha)
        if expr is None:
            return zero
        return Product((expr, XLogAbs(PolyLeaf(f))))

    return OperatorFamily(cf.rank, cf.order, rule, descriptor=cf.to_json(), coeff_family=cf)


def make_first_order_leibniz(c: FuncExpr, rank: int) -> OperatorFamily:
    """Order-1 family T_0(f) = f, T_e(f) = c * f * ln|f| for every unit index e.

    The identity-generated family with ``c`` at every unit index: no
    bilinear constraint exists at order 1, so any coefficient works.
    """
    if c.dim != rank:
        raise ValueError(f"coefficient dim {c.dim}, rank {rank}")
    cf = CoeffFamily(rank, 1, {MultiIndex.unit(rank, i): c for i in range(rank)})
    family = make_identity_generated(cf)
    family.descriptor = {"kind": "first_order_leibniz", "r": rank, "c": c.to_json()}
    return family


def conjugate(family: OperatorFamily, tau: TauMap) -> OperatorFamily:
    """The family x -> T_alpha(f)(tau(x)).

    Keeps the inner family's expressions and ``coeff_family``, and
    composes its point map with tau exactly (``polycalc.compose``), so a
    conjugate holds one map, at whose images both its operators and its
    coefficients are read, and conjugates of proved families are proved.
    ``verify_moment`` and ``check_constraint`` refuse the family if its
    map sends a sample outside the box.
    """
    if tau.rank != family.dim:
        raise ValueError(f"map rank {tau.rank}, family dim {family.dim}")
    point_map = tau
    if family.point_map is not None:  # x -> inner(tau(x))
        point_map = TauMap(tuple(compose(p, tau.components) for p in family.point_map.components))
    return OperatorFamily(
        family.rank,
        family.order,
        family.rule,
        point_map=point_map,
        descriptor={
            "kind": "conjugated",
            "r": family.dim,
            "N": family.order,
            "tau": tau.to_json(),
            "inner": family.descriptor,
        },
        dim=family.dim,
        coeff_family=family.coeff_family,
    )


def make_power_sign(exponent: FuncExpr, tau: TauMap) -> OperatorFamily:
    """T_0(f)(x) = |f(tau(x))|^p(x) sgn(f(tau(x))), p the exponent; f o tau is exact."""

    def rule(_alpha: MultiIndex, f: Polynomial) -> FuncExpr:
        return SignedPower(PolyLeaf(compose(f, tau.components)), exponent)

    return OperatorFamily(tau.rank, 0, rule)


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


class MomentReport:
    """Outcome of ``verify_moment`` over one family.

    ``exact`` says that no instance was sampled: every probe's operators
    expanded to polynomials, so every verdict is a proof in Q[x].
    """

    def __init__(
        self, family: dict, probe_count: int, per_alpha_max_residual: Dict[str, float],
        max_residual: float, passed: bool, failures: List[dict], tolerance: float,
        exact: bool, seed: Optional[int] = None,
    ) -> None:
        self.family = family
        self.probe_count = probe_count
        self.per_alpha_max_residual = per_alpha_max_residual
        self.max_residual = max_residual
        self.passed = passed
        self.failures = failures
        self.tolerance = tolerance
        self.exact = exact
        self.seed = seed

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
    return ",".join(map(str, alpha))


def verify_moment(
    family: OperatorFamily,
    probes: Sequence[Tuple[Polynomial, Polynomial]],
    domain: Domain,
    seed: Optional[int] = None,
) -> MomentReport:
    """Check the binomial moment identity on every probe pair and sample.

    The family is evaluated at ``domain.images(family.point_map)``, which
    raises ValueError at an image outside the box.  Each probe's
    operators are applied once.  If their trees are all log-free, they
    are expanded and each alpha compares the polynomial T_alpha(fg) with the
    convolution sum, on integer tables (``polycalc.convolution_mismatches``);
    equal polynomials are equal at every point, so the instance passes with
    residual 0.0 unevaluated.  An unequal one is summed again in Fractions
    (``polycalc.convolution_sum``) for its witness values: both sides are
    evaluated at the samples and must agree exactly there; if they agree
    at every sample, their difference composed with the point map decides,
    and a nonzero one fails once, at its grid point.  Otherwise the
    same expressions are tabulated in floats and each instance is judged
    by the relative residual |lhs - rhs| / (1 + |lhs|) against the domain
    tolerance.  Failures carry the witnessing alpha, probe and point.
    """
    tol = domain.float_tolerance
    if domain.rank != family.dim:
        raise ValueError(f"domain rank {domain.rank}, family dim {family.dim}")
    terms = convolution_table(family.rank, family.order)
    alphas = list(terms)
    points = domain.images(family.point_map)
    per_alpha = {_alpha_key(a): 0.0 for a in alphas}
    failures: List[dict] = []
    max_residual = 0.0
    sampled = False
    for k, (f, g) in enumerate(probes):
        rows = [{b: family.apply(b, h) for b in alphas} for h in (f, g, f * g)]
        exact = all(is_polynomial(e) for row in rows for e in row.values())
        if exact:
            tf, tg, tfg = [{b: as_polynomial(e) for b, e in row.items()} for row in rows]
            # equal sides pass unevaluated; only an unequal one is summed in Fractions
            judged = convolution_mismatches(tf, tg, tfg, terms)
        else:
            vf, vg, vfg = [{b: eval_expr(e, points) for b, e in row.items()} for row in rows]
            sampled = True
            judged = alphas
        for alpha in judged:
            splits = terms[alpha]
            if exact:
                lhs_poly, rhs_poly = tfg[alpha], convolution_sum(tf, tg, splits)
                # only a witness needs values: Fractions are canonical, so
                # these equal the pointwise convolution sums
                xs = list(domain.sample_points)
                lhs_vals = eval_poly_values(lhs_poly, points)
                rhs_vals = eval_poly_values(rhs_poly, points)
                if lhs_vals == rhs_vals:
                    # unequal polynomials that agree at every mapped sample: unless
                    # their difference composed with the map is zero, it fails at
                    # the first grid point where that composition is nonzero
                    diff = lhs_poly - rhs_poly
                    if family.point_map is not None:
                        diff = compose(diff, family.point_map.components)
                    if diff:
                        x = nonzero_grid_point(diff)
                        y = family.eval_point(x)
                        xs.append(x)
                        lhs_vals.append(eval_poly(lhs_poly, y))
                        rhs_vals.append(eval_poly(rhs_poly, y))
                # an exact residual is never NaN, so the builtin max is the worst
                pairs = list(zip(lhs_vals, rhs_vals))
                residuals = [witness_float(abs(lhs - rhs)) for lhs, rhs in pairs]
                worst = max(residuals)
                failing = [i for i, (lhs, rhs) in enumerate(pairs) if lhs != rhs]
            else:
                xs, lhs_vals = domain.sample_points, vfg[alpha]
                rhs_vals = convolution_column(vf, vg, splits)
                residuals, worst, failing = judge_column(lhs_vals, rhs_vals, tol)
            key = _alpha_key(alpha)
            per_alpha[key] = worse(per_alpha[key], worst)
            max_residual = worse(max_residual, worst)
            for i in failing:
                failures.append(
                    {
                        "alpha": alpha.to_json(),
                        "probe": k,
                        "point": xs[i].to_json(),
                        "lhs": witness_float(lhs_vals[i]),
                        "rhs": witness_float(rhs_vals[i]),
                        "residual": residuals[i],
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
        exact=not sampled,
        seed=seed,
    )


def check_multiplicative(
    exponent: FuncExpr,
    tau: TauMap,
    probes: Sequence[Tuple[Polynomial, Polynomial]],
    domain: Domain,
) -> MomentReport:
    """M(f*g) = M(f) * M(g) for M = ``make_power_sign(exponent, tau)``, sampled.

    First tau must have the domain's rank, then p must be positive at
    every sample, then ``domain.images`` must accept tau; then
    ``verify_moment`` runs on M's family.
    """
    if tau.rank != domain.rank:
        raise DimensionMismatch(f"map rank {tau.rank} vs domain rank {domain.rank}")
    for x, p in zip(domain.sample_points, eval_expr(exponent, domain.sample_points)):
        if p <= 0:
            raise ValueError(f"exponent not positive at sample {x.to_json()}")
    domain.images(tau)
    return verify_moment(make_power_sign(exponent, tau), probes, domain)


# ---- second-order pairs ----


def _expansions(exprs: Sequence[FuncExpr]) -> Optional[List[Polynomial]]:
    """Every expression expanded, or None when one of them is not polynomial."""
    if all(map(is_polynomial, exprs)):
        return [as_polynomial(e) for e in exprs]
    return None


def make_second_order_leibniz(
    a: FuncExpr,
    b: Sequence[FuncExpr],
    c: Sequence[FuncExpr],
    smoothness: int,
    dim: int,
) -> OperatorFamily:
    """The second-order pair on functions of ``dim`` variables, as a family.

        T(f) = <f'' c, c> + <f', b> + a * f * ln|f|,   A(f) = <f', c>

    are T_(2) and T_(1) of an order-2 family indexed by rank 1, with
    T_0 the identity.  Its alpha = (2) instance is the pair's rule
    T(fg) = T(f) g + f T(g) + 2 A(f) A(g), since C(2, 1) = 2; its
    alpha = (1) instance says A is a derivation.

    smoothness = 1 forces c = 0 (no second-order term survives on C^1);
    smoothness = 0 additionally forces b = 0.  Violations, and fields
    whose dim is not ``dim``, raise ValueError rather than producing a
    family the rule cannot hold for.  The fields are expanded once, here,
    for these clauses; when a = 0 and b, c are log-free, the operators
    are built from those expansions.  The descriptor keeps the fields as
    given.
    """
    b = tuple(b)
    c = tuple(c)
    if len(b) != dim or len(c) != dim:
        raise ValueError(f"b and c need {dim} components")
    dims = sorted({e.dim for e in (a,) + b + c})
    if dims != [dim]:
        raise ValueError(f"a, b and c need dim {dim}, got dims {dims}")
    if type(smoothness) is not int or smoothness not in (0, 1, 2):
        raise ValueError(f"smoothness must be 0, 1 or 2, got {smoothness!r}")
    descriptor = {
        "kind": "second_order",
        "r": dim,
        "smoothness": smoothness,
        "a": a.to_json(),
        "b": [e.to_json() for e in b],
        "c": [e.to_json() for e in c],
    }
    a_polys, b_polys, c_polys = _expansions([a]), _expansions(b), _expansions(c)
    # a field vanishes when it expands and every component is the zero polynomial
    a_zero, b_zero, c_zero = (p is not None and not any(p) for p in (a_polys, b_polys, c_polys))
    if smoothness <= 1 and not c_zero:
        raise ValueError("smoothness <= 1 forces c = 0")
    if smoothness == 0 and not b_zero:
        raise ValueError("smoothness = 0 forces b = 0")
    if a_zero and b_polys is not None and c_polys is not None:
        # every probe of an exact pair is expanded: build its operators from
        # these expansions, so no field is expanded again per probe.  A log
        # pair keeps its trees, whose float values its probes are judged by.
        b = tuple(map(PolyLeaf, b_polys))
        c = tuple(map(PolyLeaf, c_polys))
    zero = PolyLeaf(Polynomial.zero(dim))

    def rule(alpha: MultiIndex, f: Polynomial) -> FuncExpr:
        if alpha.height == 0:
            return PolyLeaf(f)
        if alpha.height == 1:
            return grad_dot(f, c)
        terms = []
        if not c_zero:
            terms.append(hess_quad(f, c))
        if not b_zero:
            terms.append(grad_dot(f, b))
        if not a_zero:
            terms.append(Product((a, XLogAbs(PolyLeaf(f)))))
        if not terms:
            return zero
        return Sum(tuple(terms)) if len(terms) > 1 else terms[0]

    return OperatorFamily(1, 2, rule, descriptor=descriptor, dim=dim)


# ---- descriptors ----


def family_from_json(data: dict) -> OperatorFamily:
    """Rebuild a family from the whole of its JSON descriptor, verifying nothing.

    An ``identity_generated`` descriptor, nested or not, gives a family
    whose ``coeff_family`` the caller checks with ``check_constraint`` at
    the family's ``point_map``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"family descriptor must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind == "trivial":
        return make_trivial(data["r"], data["N"])
    if kind == "derivative":
        return make_derivative(data["r"], data["N"])
    if kind == "identity_generated":
        return make_identity_generated(CoeffFamily.from_json(data))
    if kind == "first_order_leibniz":
        # "N" may be left out, since the order is always 1
        _check_fixed(data.get("N", 1), 1, "first_order_leibniz N must be")
        return make_first_order_leibniz(expr_from_json(data["c"]), data["r"])
    if kind == "second_order":
        _check_fixed(data.get("N", 2), 2, "second_order N must be")
        return make_second_order_leibniz(
            expr_from_json(data["a"]),
            [expr_from_json(e) for e in data["b"]],
            [expr_from_json(e) for e in data["c"]],
            data["smoothness"],
            data["r"],
        )
    if kind == "conjugated":
        inner = family_from_json(data["inner"])
        _check_fixed(data["N"], inner.order, "conjugated N must be the inner order")
        _check_fixed(data["r"], inner.dim, "conjugated r must be the inner dim")
        return conjugate(inner, TauMap.from_json(data["tau"]))
    raise ValueError(f"unknown family kind {kind!r}")


def _check_fixed(value, expected: int, field: str) -> None:
    """Refuse a descriptor field that must be the int ``expected``; ``field`` names the rule."""
    if type(value) is not int or value != expected:
        raise ValueError(f"{field} {expected}, got {value!r}")
