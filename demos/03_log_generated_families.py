"""Families generated by T_alpha(f) = c_alpha * f * ln|f|.

Such a family satisfies the convolution identity exactly when the
coefficient functions satisfy a bilinear constraint: for every order
2 <= |alpha| <= N the sum of C(alpha, beta) c_beta c_(alpha-beta) over
the interior splittings must vanish.  This script shows a violating
choice being rejected with a witness, enumerates the admissible
supports at small rank/order, and verifies a randomly generated
admissible family.
"""

import random

from moment_leibniz import (
    CoeffFamily,
    Domain,
    MultiIndex,
    check_constraint,
    default_probe_pairs,
    enumerate_valid_constant_supports,
    forced_zero_analysis,
    make_identity_generated,
    random_valid_family,
    verify_moment,
)


def main() -> None:
    domain = Domain.unit(1, n_samples=8, seed=2)

    # constant coefficient 1 on every index violates the constraint
    bad = CoeffFamily.from_constants(1, 2, {MultiIndex((1,)): 1, MultiIndex((2,)): 1})
    print("c_alpha = 1 for all alpha:")
    check = check_constraint(bad, domain)
    if not check.passed:
        witness = check.failures[0]
        print(f"  rejected, witness: alpha = {witness['alpha']}, sum = {witness['value']}")

    # the constraint forces some coefficients to vanish outright
    full = frozenset(MultiIndex((k,)) for k in (1, 2))
    forced = forced_zero_analysis(4, full)
    print(f"\nindices forced to zero on support {{1, 2}} at order 4: "
          f"{sorted(tuple(a) for a in forced)}")

    # admissible supports: the subsets of the band N/2 < |alpha| <= N
    for rank, order in ((1, 2), (2, 2), (2, 3)):
        supports = enumerate_valid_constant_supports(rank, order)
        print(f"\nadmissible supports at rank {rank}, order {order}: {len(supports)}")
        for support in supports[:4]:
            print(f"  {sorted(tuple(a) for a in support)}")
        if len(supports) > 4:
            print(f"  ... and {len(supports) - 4} more")

    # generate a family on one admissible support and verify it
    support = enumerate_valid_constant_supports(2, 3)[-1]
    coeffs, _ = random_valid_family(2, 3, support, seed=5)
    domain2 = Domain.unit(2, n_samples=8, seed=5)
    family = make_identity_generated(coeffs)
    probes = default_probe_pairs(domain2, 10, random.Random(5))
    report = verify_moment(family, probes, domain2)
    print(f"\nrandom family on support {sorted(tuple(a) for a in support)}:")
    print(f"  pass: {report.passed}, max residual: {report.max_residual:.3e}")


if __name__ == "__main__":
    main()
