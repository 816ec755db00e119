"""Operator families under the binomial convolution identity.

Verifies the partial-derivative family T_alpha = D^alpha against
T_alpha(f*g) = sum C(alpha, beta) T_beta(f) T_(alpha-beta)(g)
in exact arithmetic, then shows the collapse result: any family that
keeps T_0 = 1 but gives some other member a nonzero value violates one
of two instances of the identity, and the checker names the instance.
"""

import random

from moment_leibniz import (
    Domain,
    OperatorFamily,
    PolyLeaf,
    Polynomial,
    assert_trivial_collapse,
    default_probe_pairs,
    make_derivative,
    make_trivial,
    verify_moment,
)


def main() -> None:
    domain = Domain.unit(2, n_samples=8, seed=1)

    family = make_derivative(2, 3)
    probes = default_probe_pairs(domain, 20, random.Random(1))
    report = verify_moment(family, probes, domain)
    print("derivative family, rank 2, order 3:")
    print(f"  probes: {report.probe_count}, exact: {report.exact}")
    print(f"  pass: {report.passed}, max residual: {report.max_residual}")

    trivial = make_trivial(2, 3)
    report = verify_moment(trivial, probes, domain)
    print("\ntrivial family (T_0 = 1, all other T_alpha = 0):")
    print(f"  pass: {report.passed}, max residual: {report.max_residual}")

    # a family with T_0 = 1 cannot carry any other nonzero member
    def rule(alpha, f):
        if alpha.is_zero():
            return PolyLeaf(Polynomial.constant(2, 1))
        return PolyLeaf(f)  # nonzero tail: T_alpha(f) = f

    candidate = OperatorFamily(2, 2, rule)
    x = Polynomial.variable(2, 0)
    collapse_probes = [Polynomial.constant(2, 2), x + Polynomial.constant(2, 1)]
    verdict = assert_trivial_collapse(candidate, collapse_probes, domain)
    print("\ncandidate with T_0 = 1 and T_alpha(f) = f for alpha != 0:")
    print(f"  pass: {verdict.passed}")
    first = verdict.failures[0]
    print(f"  violated instance: {first['instance']}")
    print(f"  at alpha = {first['alpha']}, residual {first['residual']:.3f}")


if __name__ == "__main__":
    main()
