"""Operator families under the binomial convolution identity.

Verifies the partial-derivative family T_alpha = D^alpha against
T_alpha(f*g) = sum C(alpha, beta) T_beta(f) T_(alpha-beta)(g)
in exact arithmetic, then shows the collapse result with the same
verifier: any family that keeps T_0 = 1 but gives some other member a
nonzero value fails the identity on the probe pairs (0, f), and when its
operators expand the failure is proved, with a witness.
"""

import random

from moment_leibniz import (
    Domain,
    Jet,
    MultiIndex,
    OperatorFamily,
    PolyLeaf,
    Polynomial,
    default_probe_pairs,
    enumerate_height_at_most,
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

    # a family with T_0 = 1 cannot carry any other nonzero member; each
    # operator is a tree, in which Jet(beta) stands for D^beta of the probe
    f = Jet(MultiIndex.zero(2))
    one = PolyLeaf(Polynomial.constant(2, 1))
    # nonzero tail: T_alpha(f) = f
    operators = {alpha: f if alpha.height else one for alpha in enumerate_height_at_most(2, 2)}
    candidate = OperatorFamily(2, 2, operators)
    x = Polynomial.variable(2, 0)
    zero = Polynomial.zero(2)
    collapse_pairs = [
        (zero, Polynomial.constant(2, 2)),
        (zero, x + Polynomial.constant(2, 1)),
    ]
    verdict = verify_moment(candidate, collapse_pairs, domain)
    print("\ncandidate with T_0 = 1 and T_alpha(f) = f for alpha != 0, on pairs (0, f):")
    print(f"  pass: {verdict.passed}, exact: {verdict.exact}")
    failing = sorted({tuple(w["alpha"]) for w in verdict.failures})
    print(f"  failing alphas: {failing}")
    first = verdict.failures[0]
    print(
        f"  first witness: alpha {first['alpha']}, probe {first['probe']}, "
        f"lhs {first['lhs']}, rhs {first['rhs']}"
    )


if __name__ == "__main__":
    main()
