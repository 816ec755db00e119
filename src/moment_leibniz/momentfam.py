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
T(fg) = T(f) g + f T(g) + 2 A(f) A(g).  A power-sign map M is the
order-0 family with T_0 = M (``make_power_sign``), so its
multiplicativity is the alpha = 0 instance, and ``check_multiplicative``
is ``verify_moment`` on that family.  Every family applies each operator
once per probe.

Nothing that builds a family takes a domain, and reading a descriptor
verifies nothing.  ``verify_moment`` maps every sample through the
family's composed point maps and refuses an image outside the unit box.

How an instance is decided is read off the expressions the operators
return, probe by probe, before anything is expanded; a family declares
nothing about it.  When no T_beta(f), T_beta(g) or T_alpha(fg) of a
probe has an f*ln|f| node (``funcmodel.is_polynomial``), they all expand
to polynomials (trivial, derivative, log-free second-order pairs, their
reparametrized conjugates, and any user rule with log-free trees), and
each (probe, alpha) instance is one comparison in Q[x]: T_alpha(fg)
against ``polycalc.convolution_sum`` over ``convolution_terms(alpha)``.
Equal polynomials agree at every point, and so at every image under the
conjugating maps, so the instance passes with residual 0.0 and nothing
is evaluated.  Only unequal ones are evaluated at the mapped sample
points, where they must agree exactly; Fractions are canonical, so these
values are the pointwise convolution sums, and the witnesses are the
ones a pointwise loop finds.  A difference that vanishes on every sample
therefore passes.

When some expression has an f*ln|f| node, nothing of the probe is
expanded and its instances are sampled: the same expressions are
tabulated in floats with ``funcmodel.eval_expr``, one pass per
expression over all the sample points, and each point's convolution
products are added with the builtin ``sum`` in split order, against the
domain tolerance.  One leaf table serves the whole call, so each
polynomial leaf (a coefficient, a probe, a product of probes) is turned
into floats once, however many alphas and probes use it.
``funcmodel.judge`` turns each evaluated instance into a residual and a
verdict.

The collapse lemma needs no verifier of its own.  For a family with
T_0 = 1, the alpha instance at the probe pair (0, f) reads
T_alpha(0) = T_alpha(f) + T_alpha(0) + sum_{0<beta<alpha} C(alpha, beta)
T_beta(0) T_{alpha-beta}(f), so at the lowest alpha whose member is
nonzero on f it demands T_alpha(f) = 0.  ``verify_moment`` on (0, f)
pairs, which ``default_probe_pairs`` starts with, rejects such a family,
as a proof in Q[x] whenever its operators expand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .multiindex import MultiIndex, check_count, convolution_terms, enumerate_height_at_most
from .polycalc import (
    Polynomial,
    RationalPoint,
    compose,
    convolution_sum,
    dalpha,
    eval_poly,
    random_polynomial,
)
from .funcmodel import (
    Domain,
    FuncExpr,
    Leaves,
    PolyLeaf,
    PowerSignMap,
    Product,
    SignedPower,
    Sum,
    TauMap,
    XLogAbs,
    as_polynomial,
    eval_expr,
    expr_from_json,
    grad_dot,
    hess_quad,
    is_polynomial,
    judge,
    witness_float,
    worse,
)
from .coeffsolve import CoeffFamily

Rule = Callable[[MultiIndex, Polynomial], FuncExpr]


@dataclass
class OperatorFamily:
    """Operators T_alpha for |alpha| <= order, applied to polynomials.

    ``rule`` is any alpha-indexed rule.  Its indices have rank ``rank``;
    the functions it acts on have ``dim`` variables, which defaults to
    ``rank``.  Whether an instance is proved or sampled is decided by the
    verifier from the expressions the rule returns.  ``point_maps``
    reparametrize the evaluation point: T(f)(x) is the rule's expression
    evaluated at the composed image of x, which is how conjugation acts.
    ``descriptor`` is the family's JSON form; the constructors below pass
    their own, and any other rule is described as
    ``{"kind": "custom", "r": dim, "N": order}``.  ``coeff_family`` holds
    an identity-generated family's coefficients, their constraint unchecked.
    """

    rank: int
    order: int
    rule: Rule
    point_maps: tuple[TauMap, ...] = ()
    descriptor: Optional[dict] = None
    dim: Optional[int] = None
    coeff_family: Optional[CoeffFamily] = None

    def __post_init__(self) -> None:
        if self.dim is None:
            self.dim = self.rank
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
        for tau in self.point_maps:
            x = tau(x)
        return x


# ---- constructors ----


def make_trivial(rank: int, order: int) -> OperatorFamily:
    """T_0(f) = 1 and T_alpha(f) = 0 for alpha != 0."""

    def rule(alpha: MultiIndex, _f: Polynomial) -> FuncExpr:
        if alpha.is_zero():
            return PolyLeaf(Polynomial.constant(rank, 1))
        return PolyLeaf(Polynomial.zero(rank))

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
    descriptor = {"kind": "first_order_leibniz", "r": rank, "c": c.to_json()}
    return replace(make_identity_generated(cf), descriptor=descriptor)


def conjugate(family: OperatorFamily, tau: TauMap) -> OperatorFamily:
    """The family x -> T_alpha(f)(tau(x)).

    Keeps the inner family's expressions and ``coeff_family``, and
    prepends tau to the evaluation-point chain, so conjugates of proved
    families are proved.
    ``verify_moment`` refuses the family if the composed chain sends a
    sample outside the box.
    """
    if tau.rank != family.dim:
        raise ValueError(f"map rank {tau.rank}, family dim {family.dim}")
    return OperatorFamily(
        family.rank,
        family.order,
        family.rule,
        point_maps=(tau,) + family.point_maps,
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


def make_power_sign(m: PowerSignMap) -> OperatorFamily:
    """The order-0 family T_0 = M: f is composed with tau exactly, so p is read at x."""

    def rule(_alpha: MultiIndex, f: Polynomial) -> FuncExpr:
        return SignedPower(PolyLeaf(compose(f, m.tau.components)), m.exponent)

    return OperatorFamily(m.tau.rank, 0, rule)


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
    """Outcome of ``verify_moment`` over one family.

    ``exact`` says that no instance was sampled: every probe's operators
    expanded to polynomials, so every verdict is a proof in Q[x].
    """

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
    return ",".join(map(str, alpha))


def verify_moment(
    family: OperatorFamily,
    probes: Sequence[Tuple[Polynomial, Polynomial]],
    domain: Domain,
    seed: Optional[int] = None,
) -> MomentReport:
    """Check the binomial moment identity on every probe pair and sample.

    The family is evaluated at the samples' images under its point maps,
    and an image outside the box raises ValueError.  Each probe's
    operators are applied once.  If their trees are all log-free, they
    are expanded and each alpha compares the polynomial T_alpha(fg) with the
    convolution sum; equal polynomials are equal at every point, so the
    instance passes with residual 0.0 unevaluated.  Unequal ones are
    evaluated at the samples and must agree exactly there.  Otherwise the
    same expressions are tabulated in floats and each instance is judged
    by the relative residual |lhs - rhs| / (1 + |lhs|) against the domain
    tolerance.  Failures carry the witnessing alpha, probe and point.
    """
    tol = domain.float_tolerance
    if domain.rank != family.dim:
        raise ValueError(f"domain rank {domain.rank}, family dim {family.dim}")
    alphas = enumerate_height_at_most(family.rank, family.order)
    terms = {alpha: convolution_terms(alpha) for alpha in alphas}
    points = tuple(family.eval_point(x) for x in domain.sample_points)
    for x, y in zip(domain.sample_points, points):
        if not domain.contains(y):
            raise ValueError(f"sample {x.to_json()} maps to {y.to_json()}, outside the box")
    per_alpha = {_alpha_key(a): 0.0 for a in alphas}
    failures: List[dict] = []
    max_residual = 0.0
    leaves: Leaves = {}
    sampled = False
    for k, (f, g) in enumerate(probes):
        rows = [{b: family.apply(b, h) for b in alphas} for h in (f, g, f * g)]
        exact = all(is_polynomial(e) for row in rows for e in row.values())
        if exact:
            tf, tg, tfg = [{b: as_polynomial(e) for b, e in row.items()} for row in rows]
        else:
            vf, vg, vfg = [
                {b: eval_expr(e, points, leaves) for b, e in row.items()}
                for row in rows
            ]
            sampled = True
        for alpha, splits in terms.items():
            if exact:
                lhs_poly = tfg[alpha]
                rhs_poly = convolution_sum(tf, tg, splits)
                if lhs_poly == rhs_poly:
                    continue
                # only a witness needs values: Fractions are canonical, so
                # these equal the pointwise convolution sums
                lhs_vals = [eval_poly(lhs_poly, y) for y in points]
                rhs_vals = [eval_poly(rhs_poly, y) for y in points]
            else:
                lhs_vals = vfg[alpha]
                products = [
                    [w * a * b for a, b in zip(vf[beta], vg[gamma])] for w, beta, gamma in splits
                ]
                rhs_vals = list(map(sum, zip(*products)))
            key = _alpha_key(alpha)
            for x, lhs, rhs in zip(domain.sample_points, lhs_vals, rhs_vals):
                residual, ok = judge(lhs, rhs, exact, tol)
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
        exact=not sampled,
        seed=seed,
    )


def check_multiplicative(
    m: PowerSignMap,
    probes: Sequence[Tuple[Polynomial, Polynomial]],
    domain: Domain,
) -> MomentReport:
    """M(f*g) = M(f) * M(g), sampled: ``m.validate``, then ``verify_moment`` on M's family."""
    m.validate(domain)
    return verify_moment(make_power_sign(m), probes, domain)


# ---- second-order pairs ----


def _expansions(exprs: Sequence[FuncExpr]) -> Optional[List[Polynomial]]:
    """Every expression expanded, or None when one of them is not polynomial."""
    if all(map(is_polynomial, exprs)):
        return [as_polynomial(e) for e in exprs]
    return None


def _vanishes(polys: Optional[List[Polynomial]]) -> bool:
    """Whether there are expansions and every one is zero."""
    return polys is not None and all(p.is_zero() for p in polys)


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
    a_zero, b_zero, c_zero = _vanishes(a_polys), _vanishes(b_polys), _vanishes(c_polys)
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
    # which parts T(f) has, decided once per family
    parts: List[Callable[[Polynomial], FuncExpr]] = []
    if not c_zero:
        parts.append(lambda f: hess_quad(f, c))
    if not b_zero:
        parts.append(lambda f: grad_dot(f, b))
    if not a_zero:
        parts.append(lambda f: Product((a, XLogAbs(PolyLeaf(f)))))
    zero = PolyLeaf(Polynomial.zero(dim))

    def rule(alpha: MultiIndex, f: Polynomial) -> FuncExpr:
        if alpha.height == 0:
            return PolyLeaf(f)
        if alpha.height == 1:
            return grad_dot(f, c)
        if not parts:
            return zero
        terms = tuple(part(f) for part in parts)
        return Sum(terms) if len(terms) > 1 else terms[0]

    return OperatorFamily(1, 2, rule, descriptor=descriptor, dim=dim)


# ---- descriptors ----


def family_from_json(data: dict) -> OperatorFamily:
    """Rebuild a family from the whole of its JSON descriptor, verifying nothing.

    An ``identity_generated`` descriptor, nested or not, gives a family
    whose ``coeff_family`` the caller checks with ``check_constraint``.
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
        order = data.get("N", 1)
        if type(order) is not int or order != 1:
            raise ValueError(f"first_order_leibniz N must be 1, got {order!r}")
        return make_first_order_leibniz(expr_from_json(data["c"]), data["r"])
    if kind == "second_order":
        order = data.get("N", 2)
        if type(order) is not int or order != 2:
            raise ValueError(f"second_order N must be 2, got {order!r}")
        return make_second_order_leibniz(
            expr_from_json(data["a"]),
            [expr_from_json(e) for e in data["b"]],
            [expr_from_json(e) for e in data["c"]],
            data["smoothness"],
            data["r"],
        )
    if kind == "conjugated":
        inner = family_from_json(data["inner"])
        order = data["N"]
        if type(order) is not int or order != inner.order:
            raise ValueError(
                f"conjugated N must be the inner order {inner.order}, got {order!r}"
            )
        return conjugate(inner, TauMap.from_json(data["tau"]))
    raise ValueError(f"unknown family kind {kind!r}")
