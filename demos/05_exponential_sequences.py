"""Moment sequences on the additive reals.

f_alpha(x) = exp(rate * x) * prod_i (scale_i * x)^(alpha_i) satisfies
f_alpha(x + y) = sum C(alpha, beta) f_beta(x) f_(alpha-beta)(y)
because the binomial theorem expands each coordinate factor and the
exponential part is multiplicative.  The script verifies the identity
across rates, shows the rank-1 case reducing to the scalar binomial
recurrence, and demonstrates that a single tampered member is caught.
"""

import random

from moment_leibniz import (
    MultiIndex,
    convolution_terms,
    make_exponential_moment_seq,
    random_probe_pairs,
    tampered,
    verify_moment_seq,
)


def main() -> None:
    rng = random.Random(9)

    for rate in (0.0, 1.0, -1.0):
        seq = make_exponential_moment_seq(2, 4, rate, [1.5, 0.75])
        probes = random_probe_pairs(50, rng)
        report = verify_moment_seq(seq, probes, tol=1e-10)
        print(
            f"rank 2, order 4, rate {rate:+.0f}: pass {report.passed}, "
            f"max residual {report.max_residual:.3e}"
        )

    print("\nrank-1 convolution terms (the scalar binomial recurrence):")
    for k in (2, 3):
        terms = convolution_terms(MultiIndex((k,)))
        rendered = " + ".join(
            f"{w}*f_{b[0]}(x)*f_{g[0]}(y)" for w, b, g in terms
        )
        print(f"  f_{k}(x+y) = {rendered}")

    # scaling one member by 1.01 breaks the identity at that index
    seq = make_exponential_moment_seq(1, 3, 1.0, [1.25])
    broken = tampered(seq, MultiIndex((2,)), 1.01)
    report = verify_moment_seq(broken, random_probe_pairs(50, rng))
    failing = sorted({tuple(f["alpha"]) for f in report.failures})
    print(f"\ntampered f_2: pass {report.passed}, failing indices {failing}")


if __name__ == "__main__":
    main()
