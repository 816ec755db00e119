"""Power-sign maps M(f)(x) = |f(tau(x))|^p(x) * sgn(f(tau(x))).

These maps are multiplicative, M(f*g) = M(f)*M(g), for any positive
exponent function p and any change of variables tau that stays in the
domain.  M is the T_0 of an order-0 family (``make_power_sign``), and
multiplicativity is that family's alpha = 0 moment instance, which
``check_multiplicative`` verifies.  The sign factor matters, yet no
product check sees it: the sign-stripped map |f|^p = sgn(f^2) |f^2|^(p/2)
is still multiplicative.  Only its value on a negative constant tells
the two apart, so the demo reads T_0(-1) at the samples.
"""

import random

from moment_leibniz import (
    Domain,
    Jet,
    MultiIndex,
    OperatorFamily,
    PolyLeaf,
    Polynomial,
    Product,
    SignedPower,
    TauMap,
    check_multiplicative,
    const_expr,
    eval_expr,
    make_power_sign,
    verify_moment,
)
from fractions import Fraction


def signs_preserved(family: OperatorFamily, domain: Domain) -> bool:
    """Whether T_0(-1) is -1 at every sample."""
    minus_one = family.apply(Polynomial.constant(1, -1))[MultiIndex.zero(1)]
    return set(eval_expr(minus_one, domain.sample_points)) == {-1.0}


def main() -> None:
    domain = Domain.unit(1, n_samples=8, seed=4)
    rng = random.Random(4)
    probes = [
        (
            Polynomial.variable(1, 0) * 2 - Polynomial.constant(1, Fraction(1, 2)),
            Polynomial.variable(1, 0) + Polynomial.constant(1, Fraction(1, 3)),
        )
    ] + [
        (
            Polynomial.monomial((k,), Fraction(rng.randint(-3, 3) or 1)),
            Polynomial.monomial((j,), Fraction(rng.randint(-3, 3) or 1)),
        )
        for k in (1, 2)
        for j in (1, 3)
    ]

    half_plus_x = Polynomial.variable(1, 0) + Polynomial.constant(1, Fraction(1, 2))
    cases = [
        ("p = 1,     tau = id   ", const_expr(1, 1), TauMap.identity(1)),
        ("p = 2,     tau = id   ", const_expr(1, 2), TauMap.identity(1)),
        ("p = 1/2+x, tau = 1 - x", PolyLeaf(half_plus_x), TauMap.affine([[-1]], [1])),
    ]
    for label, exponent, tau in cases:
        report = check_multiplicative(exponent, tau, probes, domain)
        print(
            f"{label}: pass {report.passed}, "
            f"max residual {report.max_residual:.3e}, "
            f"signs preserved {signs_preserved(make_power_sign(exponent, tau), domain)}"
        )

    # the map with the sign factor stripped, p = 1: still multiplicative,
    # but it sends -1 to +1.  Jet(0) stands for the probe itself.
    f = Jet(MultiIndex.zero(1))
    absolute_only = SignedPower(Product((f, f)), const_expr(1, Fraction(1, 2)))
    stripped = OperatorFamily(1, 0, {MultiIndex.zero(1): absolute_only})
    report = verify_moment(stripped, probes, domain)
    print(
        f"\n|f|^p without the sign: pass {report.passed}, "
        f"signs preserved {signs_preserved(stripped, domain)}"
    )


if __name__ == "__main__":
    main()
