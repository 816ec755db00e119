"""Exact product-derivative identity on rational polynomials.

Builds two polynomials with fractional coefficients, checks
D^alpha(f*g) = sum_{beta <= alpha} C(alpha, beta) D^beta(f) D^(alpha-beta)(g)
for every order up to |alpha| <= 4 in exact arithmetic, prints the
summand table for one order, and shows that a deliberately wrong
binomial weight breaks the identity.
"""

from fractions import Fraction

from moment_leibniz import (
    MultiIndex,
    Polynomial,
    binom,
    check_leibniz,
    check_leibniz_all,
    dalpha,
    enumerate_below,
    leibniz_rhs,
)


def main() -> None:
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    f = x * x * y + x * Fraction(1, 2)
    g = y * y - x * Fraction(3, 4)
    print(f"f = {f}")
    print(f"g = {g}")

    failures = check_leibniz_all(f, g, 4)
    print(f"\nall orders |alpha| <= 4: {'exact match' if not failures else failures}")

    alpha = MultiIndex((2, 1))
    print(f"\nsummands for alpha = {tuple(alpha)}:")
    for beta in enumerate_below(alpha):
        gamma = alpha - beta
        term = binom(alpha, beta) * dalpha(f, beta) * dalpha(g, gamma)
        print(
            f"  C{tuple(alpha)},{tuple(beta)} * D^{tuple(beta)}(f)"
            f" * D^{tuple(gamma)}(g) = {term}"
        )
    print(f"  total: {leibniz_rhs(f, g, alpha)}")
    print(f"  direct: {dalpha(f * g, alpha)}")
    print(f"  equal: {check_leibniz(f, g, alpha)}")

    # mutate one weight: lower C(alpha, beta) by 1 on a nonzero summand
    wrong = leibniz_rhs(f, g, alpha) - dalpha(f, MultiIndex((2, 0))) * dalpha(
        g, MultiIndex((0, 1))
    )
    print(f"\nwith the beta = (2, 0) weight lowered by 1: {wrong}")
    print(f"mutation detected: {wrong != dalpha(f * g, alpha)}")


if __name__ == "__main__":
    main()
