"""Power-sign maps M(f)(x) = |f(tau(x))|^p(x) * sgn(f(tau(x))).

These maps are multiplicative, M(f*g) = M(f)*M(g), for any positive
exponent function p and any change of variables tau that stays in the
domain.  The sign factor matters: dropping it leaves a map that is
still multiplicative, so the checker also probes a negative constant
to confirm signs survive.
"""

import random

from moment_leibniz import (
    Domain,
    PolyLeaf,
    Polynomial,
    PowerSignMap,
    TauMap,
    check_multiplicative,
    const_expr,
    power_sign_apply,
)
from fractions import Fraction


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
        mapping = PowerSignMap(exponent, tau)
        report = check_multiplicative(mapping, probes, domain)
        print(
            f"{label}: pass {report.passed}, "
            f"max residual {report.max_residual:.3e}, "
            f"signs preserved {report.details['sign_preserved']}"
        )

    # the same check rejects the map with the sign factor stripped
    def absolute_only(mapping, f, x):
        return abs(power_sign_apply(mapping, f, x))

    mapping = PowerSignMap(const_expr(1, 1), TauMap.identity(1))
    report = check_multiplicative(mapping, probes, domain, apply_fn=absolute_only)
    print(
        f"\n|f|^p without the sign: pass {report.passed}, "
        f"signs preserved {report.details['sign_preserved']}"
    )


if __name__ == "__main__":
    main()
