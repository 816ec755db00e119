"""Operator families T_alpha and the pointwise moment-identity verifier.

The identity under test is the binomial convolution

    T_alpha(f*g) = sum_{beta <= alpha} C(alpha, beta) T_beta(f) T_{alpha-beta}(g)

for all |alpha| <= N at every sample point; its alpha = 0 instance is
plain multiplicativity of T_0.  Every family is an ``OperatorFamily``
over an ``operators`` map, one ``funcmodel`` tree per alpha, built once,
in which ``Jet(beta)`` stands for D^beta of the probe: the ``make_*``
constructors and ``conjugate`` build the described kinds, and any other
map goes straight to ``OperatorFamily(rank, order, operators)``.
``apply(f)`` takes one ``polycalc.derivative_table`` of f and returns
a read-only map of the trees (``Applied``), which substitutes that table
into every tree on the first read of one.  The index rank and the
number of variables are separate: second-order pairs are order-2
families indexed by rank 1 on functions of r variables, with T_(1) = A
and T_(2) = T, whose alpha = (2) instance is
T(fg) = T(f) g + f T(g) + 2 A(f) A(g).  A power-sign map M, from an
exponent p and a map tau, is the order-0 family T_0 = M with probe map
tau (``make_power_sign``); ``check_multiplicative(p, tau, ...)`` checks
tau's rank, p > 0 at the samples and tau's images, then runs
``verify_moment`` on that family.

Nothing that builds a family takes a domain, and reading a descriptor
verifies nothing.  A family holds at most one point map: ``conjugate``
composes the inner map with tau exactly.  ``verify_moment``, and
``coeffsolve.check_constraint`` on a conjugate's ``coeff_family`` (the
inner one, unchanged), both evaluate at ``Domain.images(point_map)``,
which refuses an image outside the unit box before anything is checked.

How the instances are decided is read off the trees, once per call.
When no tree has an f*ln|f| or signed-power node
(``funcmodel.is_polynomial``), ``funcmodel.jet_form`` writes each tree
over the jets once per call, and ``polycalc.form_failures`` decides
every alpha for all f and g at once, as an identity in their jets over
Q[x].  A formal pass proves (*) and is reported as a pass on every
probe, each residual 0.0, with no probe read, so none is applied or
evaluated, and a ``ProbePairs`` (the CLI's probes) draws none.  Only the
alphas that fail formally are probed, on every probe: ``apply`` runs on
f, g and fg, and each such instance is expanded and summed in Fractions
(``polycalc.convolution_sum``).  Equal sides show nothing on that probe;
unequal ones are evaluated at the mapped samples, where they must agree
exactly.  If they agree at every sample, the difference composed with
the point map decides: a nonzero one fails once, at its
``polycalc.nonzero_grid_point``, and a zero one (a map that is not
injective) passes.  So a formal failure that no probe shows is still
reported as a pass.  An exact residual is |lhs - rhs|, or inf when that
is too large for a float.  Otherwise every probe is sampled, even one on
which each log term drops out: ``apply`` takes the derivative tables of
f and g of every probe.  Every tree is evaluated in floats once, with
``funcmodel.eval_expr`` over one ``polycalc.JetColumns`` that binds
them, and fg's as their ``polycalc.ProductTable``, to the images, and
``funcmodel.judge_column`` judges each alpha's column of
``funcmodel.convolution_column`` sums, over all the probes, against the
domain tolerance; failures are reported in (probe, alpha, point) order.
Each value is the one the tree substituted for that probe function
takes alone, but the first non-finite node, which the error names, is
found alpha by alpha over all the probe functions, not probe by probe.

The collapse lemma needs no verifier of its own.  For a family with
T_0 = 1, the alpha instance at the probe pair (0, f) reads
T_alpha(0) = T_alpha(f) + T_alpha(0) + sum_{0<beta<alpha} C(alpha, beta)
T_beta(0) T_{alpha-beta}(f), so at the lowest alpha whose member is
nonzero on f it demands T_alpha(f) = 0.  ``verify_moment`` on (0, f)
pairs, which ``default_probe_pairs`` starts with, rejects such a family,
with an exact witness whenever its operators expand.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .multiindex import DimensionMismatch, MultiIndex, check_count, enumerate_height_at_most
from .polycalc import (
    JetColumns,
    Polynomial,
    ProductTable,
    RationalPoint,
    compose,
    convolution_sum,
    convolution_table,
    derivative_table,
    eval_poly,
    eval_poly_values,
    form_failures,
    nonzero_grid_point,
    random_polynomial,
)
from .funcmodel import (
    Domain,
    FuncExpr,
    Jet,
    PolyLeaf,
    Product,
    SignedPower,
    Sum,
    TauMap,
    XLogAbs,
    as_polynomial,
    contraction,
    convolution_column,
    eval_expr,
    expr_from_json,
    is_polynomial,
    jet_form,
    jet_height,
    judge_column,
    substitute_jets,
    witness_float,
    worse,
)
from .coeffsolve import CoeffFamily


class OperatorFamily:
    """Operators T_alpha for |alpha| <= order, each a tree over the probe's jets.

    ``operators`` holds the tree of T_alpha at every alpha of rank ``rank``
    with |alpha| <= order, each of dim ``dim`` (``rank`` by default); both
    are checked here.  ``probe_map`` is composed with each probe before its
    jets are taken, and T(f)(x) is the tree read at ``point_map``(x), which
    is how conjugation acts.  ``descriptor`` is the JSON form, by default
    ``{"kind": "custom", "r": dim, "N": order}``; ``coeff_family`` holds an
    identity-generated family's coefficients, their constraint unchecked.
    """

    def __init__(
        self, rank: int, order: int, operators: Mapping[MultiIndex, FuncExpr],
        point_map: Optional[TauMap] = None, descriptor: Optional[dict] = None,
        dim: Optional[int] = None, coeff_family: Optional[CoeffFamily] = None,
        probe_map: Optional[TauMap] = None,
    ) -> None:
        self.rank = rank
        self.order = order
        self.point_map = point_map
        self.descriptor = descriptor
        self.dim = rank if dim is None else dim
        self.coeff_family = coeff_family
        self.probe_map = probe_map
        check_count("rank", self.rank, 1)
        check_count("order", self.order, 0)
        check_count("dim", self.dim, 1)
        alphas = enumerate_height_at_most(self.rank, self.order)
        if operators.keys() != set(alphas):
            raise ValueError(f"operators need a tree at each alpha of rank {rank} up to {order}")
        self.operators = {alpha: operators[alpha] for alpha in alphas}
        for alpha, tree in self.operators.items():
            if tree.dim != self.dim:
                raise ValueError(f"operator {alpha.to_json()} dim {tree.dim}, family dim {self.dim}")
        height = max(map(jet_height, self.operators.values()))
        # the indices of each probe's derivative table; none when no tree reads a jet
        self._jets = enumerate_height_at_most(self.dim, height) if height >= 0 else []
        if self.descriptor is None:
            self.descriptor = {"kind": "custom", "r": self.dim, "N": self.order}

    def check_probe(self, f: Polynomial) -> None:
        """Refuse a probe f unless it has the family's dim."""
        if f.dim != self.dim:
            raise ValueError(f"probe dim {f.dim}, family dim {self.dim}")

    def probe(self, f: Polynomial) -> Polynomial:
        """The probe f of the family's dim, composed with ``probe_map``."""
        self.check_probe(f)
        return f if self.probe_map is None else compose(f, self.probe_map.components)

    def apply(self, f: Polynomial) -> "Applied":
        """Every T_alpha(f): one derivative table of ``probe(f)``, put in every tree when one
        is first read."""
        table = derivative_table(self.probe(f), self._jets) if self._jets else {}
        return Applied(self.operators, table)

    def eval_point(self, x: RationalPoint) -> RationalPoint:
        return x if self.point_map is None else self.point_map(x)


class Applied(Mapping[MultiIndex, FuncExpr]):
    """The read-only map alpha -> T_alpha(f) that ``OperatorFamily.apply`` returns.

    It holds f's derivative table (``table``) and the family's trees, and
    substitutes the table into every tree (``funcmodel.substitute_jets``)
    on the first read of one; ``verify_moment``'s sampled branch reads the
    table alone.
    """

    def __init__(
        self, operators: Mapping[MultiIndex, FuncExpr], table: Dict[MultiIndex, Polynomial]
    ) -> None:
        self.table = table
        self._operators = operators
        self._trees: Optional[Dict[MultiIndex, FuncExpr]] = None

    def __getitem__(self, alpha: MultiIndex) -> FuncExpr:
        if self._trees is None:
            trees = substitute_jets(self._operators.values(), self.table)
            self._trees = dict(zip(self._operators, trees))
        return self._trees[alpha]

    def __iter__(self):
        return iter(self._operators)

    def __len__(self) -> int:
        return len(self._operators)


# ---- constructors ----


def make_trivial(rank: int, order: int) -> OperatorFamily:
    """T_0(f) = 1 and T_alpha(f) = 0 for alpha != 0."""
    check_count("rank", rank, 1)
    check_count("order", order, 0)
    one, zero = PolyLeaf(Polynomial.constant(rank, 1)), PolyLeaf(Polynomial.zero(rank))
    operators = {a: zero if a.height else one for a in enumerate_height_at_most(rank, order)}
    descriptor = {"kind": "trivial", "r": rank, "N": order}
    return OperatorFamily(rank, order, operators, descriptor=descriptor)


def make_derivative(rank: int, order: int) -> OperatorFamily:
    """T_alpha(f) = D^alpha(f), with T_0 the identity map."""
    check_count("order", order, 1)
    operators = {alpha: Jet(alpha) for alpha in enumerate_height_at_most(rank, order)}
    descriptor = {"kind": "derivative", "r": rank, "N": order}
    return OperatorFamily(rank, order, operators, descriptor=descriptor)


def make_identity_generated(cf: CoeffFamily) -> OperatorFamily:
    """T_0(f) = f and T_alpha(f) = c_alpha * f * ln|f| for alpha != 0.

    The coefficient constraint is not checked here: ``coeff_family`` keeps
    ``cf`` for ``check_constraint``, and ``verify_moment`` fails a family
    that breaks it.
    """
    f, zero = Jet(MultiIndex.zero(cf.rank)), PolyLeaf(Polynomial.zero(cf.rank))
    operators = {alpha: zero for alpha in enumerate_height_at_most(cf.rank, cf.order)}
    f_log_f = XLogAbs(f)  # one node, so a sampled check evaluates it once
    operators.update((alpha, Product((c, f_log_f))) for alpha, c in cf.coefficients.items())
    operators[MultiIndex.zero(cf.rank)] = f
    return OperatorFamily(cf.rank, cf.order, operators, descriptor=cf.to_json(), coeff_family=cf)


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

    Keeps the inner family's trees, probe map and ``coeff_family``, and
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
    descriptor = {"kind": "conjugated", "r": family.dim, "N": family.order, "tau": tau.to_json(),
                  "inner": family.descriptor}
    return OperatorFamily(family.rank, family.order, family.operators, point_map=point_map,
                          descriptor=descriptor, dim=family.dim, coeff_family=family.coeff_family,
                          probe_map=family.probe_map)


def make_power_sign(exponent: FuncExpr, tau: TauMap) -> OperatorFamily:
    """T_0(f)(x) = |f(tau(x))|^p(x) sgn(f(tau(x))), p the exponent, tau the (exact) probe map."""
    zero = MultiIndex.zero(tau.rank)
    return OperatorFamily(tau.rank, 0, {zero: SignedPower(Jet(zero), exponent)}, probe_map=tau)


# ---- probes ----


def default_probe_pairs(
    domain: Domain,
    count: int,
    rng,
) -> List[Tuple[Polynomial, Polynomial]]:
    """Seeded probe pairs of dim ``domain.rank``, as a list; always has the structured cases.

    The fixed prefix covers the zero function, constants, coordinate
    monomials, and a factor vanishing at the first sample point, then
    random sparse polynomials fill up to ``count`` pairs.  ``ProbePairs``
    draws the same pairs only when one is read.
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


class ProbePairs(Sequence[Tuple[Polynomial, Polynomial]]):
    """``default_probe_pairs(domain, count, rng)``, drawn in full on the first item read.

    Its length is ``count`` without a draw, and its items are that list's,
    the same draws from ``rng`` in the same order, drawn once.  Every pair
    has dim ``dim``, the domain's rank, so ``verify_moment`` checks the
    probes' dim with one comparison, and a formal pass draws nothing.
    """

    def __init__(self, domain: Domain, count: int, rng) -> None:
        self.dim = domain.rank
        self._domain, self._count, self._rng = domain, count, rng
        self._pairs: Optional[List[Tuple[Polynomial, Polynomial]]] = None

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, k):
        return self._drawn()[k]

    def __iter__(self):
        return iter(self._drawn())

    def _drawn(self) -> List[Tuple[Polynomial, Polynomial]]:
        if self._pairs is None:
            self._pairs = default_probe_pairs(self._domain, self._count, self._rng)
        return self._pairs


# ---- the verifier ----


class MomentReport:
    """Outcome of ``verify_moment`` over one family.

    ``exact`` says that the family's trees are log-free, so no instance
    was sampled: a pass then proves the identity for all f and g, and a
    failure carries exact witnesses on a probe.  A family with a log node
    is sampled at every probe, even where each log term drops out.
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
    raises ValueError at an image outside the box.  If every tree of the
    family is log-free, each alpha is decided for all f and g in Q[x],
    and only an alpha that fails there is probed, with exact witnesses;
    the probes' dim is checked first (with one comparison for a
    ``ProbePairs``), and a formal pass reads no probe, so it draws none.
    Otherwise every probe runs ``apply`` on f and g, each tree is evaluated
    once over f, g and fg of every probe, and each instance is
    judged by the relative residual |lhs - rhs| / (1 + |lhs|) against the
    domain tolerance (see the module docstring); a value that does not
    evaluate raises ``NonFiniteValue`` at the first such node, alpha by
    alpha over all the probe functions.  Failures carry the witnessing
    alpha, probe and point, in (probe, alpha, point) order.
    """
    tol = domain.float_tolerance
    if domain.rank != family.dim:
        raise ValueError(f"domain rank {domain.rank}, family dim {family.dim}")
    terms = convolution_table(family.rank, family.order)
    points = domain.images(family.point_map)
    per_alpha = {_alpha_key(a): 0.0 for a in terms}
    failures: List[dict] = []
    max_residual = 0.0
    exact = all(map(is_polynomial, family.operators.values()))
    instances = _exact_instances if exact else _sampled_instances
    for alpha, worst, found in instances(family, probes, domain, points, terms):
        key = _alpha_key(alpha)
        per_alpha[key] = worse(per_alpha[key], worst)
        max_residual = worse(max_residual, worst)
        failures += found
    failures.sort(key=operator.itemgetter("probe"))  # stable: (probe, alpha, point) order
    return MomentReport(family=family.descriptor, probe_count=len(probes), max_residual=max_residual,
                        per_alpha_max_residual=per_alpha, passed=not failures, failures=failures,
                        tolerance=tol, exact=exact, seed=seed)


def _failure(alpha: MultiIndex, k: int, x: RationalPoint, lhs, rhs, residual: float) -> dict:
    return {"alpha": alpha.to_json(), "probe": k, "point": x.to_json(),
            "lhs": witness_float(lhs), "rhs": witness_float(rhs), "residual": residual}


def _exact_instances(family: OperatorFamily, probes, domain: Domain, points, terms):
    """(alpha, worst residual, failures) of each probe's alphas that fail formally, in
    (probe, alpha) order: the sides are expanded and summed in Fractions, and only
    unequal ones are evaluated, at the samples and, when they agree there, at a grid point."""
    if isinstance(probes, ProbePairs):  # every pair it draws has its dim
        if probes.dim != family.dim:
            raise ValueError(f"probe dim {probes.dim}, family dim {family.dim}")
    else:
        for h in itertools.chain.from_iterable(probes):
            family.check_probe(h)
    forms = {alpha: jet_form(tree) for alpha, tree in family.operators.items()}
    judged = form_failures(forms, family._jets, terms)
    # a formal pass reads no probe, so a ProbePairs draws none
    for k, (f, g) in enumerate(probes if judged else []):
        tf, tg, tfg = [
            {b: as_polynomial(e) for b, e in family.apply(h).items()} for h in (f, g, f * g)
        ]
        for alpha in judged:
            lhs_poly, rhs_poly = tfg[alpha], convolution_sum(tf, tg, terms[alpha])
            if lhs_poly == rhs_poly:  # this probe shows no failure
                continue
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
            found = [_failure(alpha, k, xs[i], lhs, rhs, residuals[i])
                     for i, (lhs, rhs) in enumerate(pairs) if lhs != rhs]
            yield alpha, max(residuals), found


def _sampled_instances(family: OperatorFamily, probes, domain: Domain, points, terms):
    """(alpha, worst residual, failures) of every alpha over all the probes, in alpha order.

    f and g of each probe go through one ``apply`` each, in probe order, and every
    tree is evaluated once over a ``polycalc.JetColumns`` of their tables: every f,
    every g, then every fg as a ``ProductTable``.  Each alpha's column of
    ``convolution_column`` sums is then judged at once, row k * len(points) + i
    being probe k at sample i.
    """
    tables = [family.apply(h).table for f, g in probes for h in (f, g)]
    if not tables:
        return
    fs, gs = tables[0::2], tables[1::2]
    columns = JetColumns(points, fs + gs + list(map(ProductTable, fs, gs)))
    values = {alpha: eval_expr(tree, columns) for alpha, tree in family.operators.items()}
    m, n = len(columns) // 3, len(points)
    tf, tg, tfg = ({b: v[j * m:(j + 1) * m] for b, v in values.items()} for j in range(3))
    xs = domain.sample_points
    for alpha, splits in terms.items():
        lhs_vals, rhs_vals = tfg[alpha], convolution_column(tf, tg, splits)
        residuals, worst, failing = judge_column(lhs_vals, rhs_vals, domain.float_tolerance)
        yield alpha, worst, [_failure(alpha, i // n, xs[i % n], lhs_vals[i], rhs_vals[i],
                                      residuals[i]) for i in failing]


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
        # an exact pair's jet forms then multiply leaves, not the fields' trees;
        # a log pair keeps its trees, whose float values its probes are judged by
        b = tuple(map(PolyLeaf, b_polys))
        c = tuple(map(PolyLeaf, c_polys))
    f = Jet(MultiIndex.zero(dim))
    terms = [contraction(c, 2, dim)] if not c_zero else []
    terms += [contraction(b, 1, dim)] if not b_zero else []
    terms += [Product((a, XLogAbs(f)))] if not a_zero else []
    terms = terms or [PolyLeaf(Polynomial.zero(dim))]
    t2 = Sum(tuple(terms)) if len(terms) > 1 else terms[0]
    operators = {MultiIndex((0,)): f, MultiIndex((1,)): contraction(c, 1, dim), MultiIndex((2,)): t2}
    return OperatorFamily(1, 2, operators, descriptor=descriptor, dim=dim)


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
