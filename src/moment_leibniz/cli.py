"""Command-line front end over the verification toolkit.

Subcommands
-----------
verify-leibniz    Exact randomized check of the product-derivative identity.
verify-family     Verify a JSON family descriptor against the moment identity.
search-supports   Enumerate support patterns usable with constant coefficients.
verify-semigroup  Verify exponential moment sequences on (R, +).
gen-family        Draw a random coefficient family on a valid support.

All randomness flows from --seed; the MOMENT_LEIBNIZ_SEED environment
variable overrides the flag.  Identical configuration and seed produce a
byte-identical JSON report.  Exit codes: 0 all checks pass, 1 a
mathematical check failed (the report carries a witness), 2 invalid
input, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
from typing import List, Optional

from .multiindex import MultiIndex, enumerate_height_at_most
from .polycalc import check_leibniz_all, random_polynomial
from .funcmodel import Domain, worse
from .coeffsolve import (
    BudgetExceeded,
    ConstraintViolation,
    SupportPattern,
    enumerate_valid_constant_supports,
    is_structure_valid,
    random_valid_family,
)
from .momentfam import default_probe_pairs, family_from_json, verify_moment
from .semigroup import (
    make_exponential_moment_seq,
    random_probe_pairs,
    tampered,
    verify_moment_seq,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

SEED_ENV_VAR = "MOMENT_LEIBNIZ_SEED"

SEMIGROUP_RATES = (0.0, 1.0, -1.0)


class InputError(ValueError):
    """Bad configuration or malformed descriptor input."""


def _positive_int(name: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise InputError(f"--{name} must be >= {minimum}, got {value}")


def _validate_common(args: argparse.Namespace) -> None:
    _positive_int("rank", args.rank, 1)
    _positive_int("order", args.order, 0)
    _positive_int("samples", args.samples, 8)
    _positive_int("budget", args.budget, 1)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"--tol must be finite and > 0, got {args.tol}")


def _config_dict(args: argparse.Namespace, command: str) -> dict:
    skip = {"func", "out"}
    return {
        "command": command,
        **{k: v for k, v in sorted(vars(args).items()) if k not in skip},
    }


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---- subcommand handlers ----
#
# Each handler returns its report body: ``failures``, ``max_residual`` and
# ``pass``, plus its own fields.  ``main`` merges the body into the envelope.


def run_verify_leibniz(args: argparse.Namespace) -> dict:
    _positive_int("pairs", args.pairs, 1)
    _positive_int("degree", args.degree, 0)
    rng = random.Random(args.seed)
    failures: List[dict] = []
    for k in range(args.pairs):
        f = random_polynomial(rng, args.rank, max_degree=args.degree)
        g = random_polynomial(rng, args.rank, max_degree=args.degree)
        for alpha in check_leibniz_all(f, g, args.order):
            failures.append(
                {
                    "pair": k,
                    "alpha": alpha.to_json(),
                    "f": f.to_json(),
                    "g": g.to_json(),
                }
            )
    return {
        "pairs": args.pairs,
        "max_height": args.order,
        "exact": True,
        "failures": failures,
        "max_residual": 0.0,
        "pass": not failures,
    }


def run_verify_family(args: argparse.Namespace) -> dict:
    if args.descriptor == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.descriptor, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read descriptor: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"descriptor is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "r" not in data:
        raise InputError("descriptor must be a JSON object with an 'r' field")
    rank = data["r"]
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise InputError(f"descriptor 'r' must be an integer >= 1, got {rank!r}")
    _positive_int("probes", args.probes, 1)
    domain = Domain.unit(
        rank, n_samples=args.samples, seed=args.seed, float_tolerance=args.tol
    )
    try:
        family = family_from_json(data, domain)
    except ConstraintViolation as exc:
        report = exc.report
        return {
            "family": data,
            "constraint_report": report.to_json(),
            "failures": report.failures,
            "max_residual": report.max_residual,
            "pass": False,
        }
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"bad family descriptor: {exc}") from exc
    rng = random.Random(args.seed)
    probes = default_probe_pairs(domain, args.probes, rng)
    try:
        report = verify_moment(family, probes, domain, seed=args.seed)
    except ArithmeticError as exc:
        # only the descriptor's values can overflow: the probes are small
        # polynomials on the unit box
        raise InputError(f"descriptor values do not evaluate: {exc}") from exc
    return {
        "report": report.to_json(),
        "failures": report.failures,
        "max_residual": report.max_residual,
        "pass": report.passed,
    }


def run_search_supports(args: argparse.Namespace) -> dict:
    if args.max_support_size is not None:
        _positive_int("max-support-size", args.max_support_size, 0)
    patterns = enumerate_valid_constant_supports(
        args.rank, args.order, args.max_support_size, args.budget
    )
    return {
        "patterns": [p.to_json() for p in patterns],
        "count": len(patterns),
        "index_set_size": len(
            [a for a in enumerate_height_at_most(args.rank, args.order) if a.height >= 1]
        ),
        "failures": [],
        "max_residual": 0.0,
        "pass": True,
    }


def run_verify_semigroup(args: argparse.Namespace) -> dict:
    _positive_int("probes", args.probes, 1)
    if args.tamper and args.order < 1:
        raise InputError("--tamper needs --order >= 1")
    rng = random.Random(args.seed)
    failures: List[dict] = []
    max_residual = 0.0
    sweeps = []
    for rate in SEMIGROUP_RATES:
        scales = [rng.uniform(0.5, 2.0) for _ in range(args.rank)]
        seq = make_exponential_moment_seq(args.rank, args.order, rate, scales)
        tampered_index: Optional[List[int]] = None
        if args.tamper:
            h = min(2, args.order)
            alpha = next(
                a
                for a in enumerate_height_at_most(args.rank, args.order)
                if a.height == h
            )
            seq = tampered(seq, alpha, 1.01)
            tampered_index = alpha.to_json()
        probes = random_probe_pairs(seq.monoid, args.probes, rng)
        report = verify_moment_seq(seq, probes, tol=args.tol, seed=args.seed)
        for failure in report.failures:
            failures.append({"rate": rate, **failure})
        max_residual = worse(max_residual, report.max_residual)
        sweeps.append(
            {
                "rate": rate,
                "scales": scales,
                "tampered_index": tampered_index,
                "max_residual": report.max_residual,
                "pass": report.passed,
            }
        )
    return {
        "sweeps": sweeps,
        "failures": failures,
        "max_residual": max_residual,
        "pass": not failures,
    }


def run_gen_family(args: argparse.Namespace) -> dict:
    if args.support is not None:
        try:
            indices = json.loads(args.support)
            support = frozenset(MultiIndex.from_json(a) for a in indices)
            pattern = SupportPattern(args.rank, args.order, support)
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise InputError(f"bad --support: {exc}") from exc
        if not is_structure_valid(pattern):
            raise InputError(
                f"support leaves the band {args.order}/2 < |alpha| <= {args.order}, "
                "where the constraint forces coefficients to zero"
            )
    else:
        support = frozenset(
            a
            for a in enumerate_height_at_most(args.rank, args.order)
            if 2 * a.height > args.order and a.height >= 1
        )
        pattern = SupportPattern(args.rank, args.order, support)
    cf = random_valid_family(pattern, args.seed)
    descriptor = {
        "kind": "identity_generated",
        "r": args.rank,
        "N": args.order,
        "coefficients": cf.to_json()["coefficients"],
    }
    return {
        "family": descriptor,
        "pattern": pattern.to_json(),
        "failures": [],
        "max_residual": 0.0,
        "pass": True,
    }


# ---- wiring ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moment-leibniz",
        description="Verify product-derivative and moment-type operator identities.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank", type=int, default=1, help="ambient rank r")
    common.add_argument("--order", type=int, default=2, help="max index height N")
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument("--samples", type=int, default=12, help="sample points (>= 8)")
    common.add_argument("--tol", type=float, default=1e-9, help="float tolerance")
    common.add_argument("--budget", type=int, default=20, help="enumeration budget")
    common.add_argument("--out", default=None, help="write the JSON report here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-leibniz",
        parents=[common],
        help="exact randomized product-derivative identity check",
    )
    p.add_argument("--pairs", type=int, default=25, help="random probe pairs")
    p.add_argument("--degree", type=int, default=6, help="max probe degree")
    p.set_defaults(func=run_verify_leibniz)

    p = sub.add_parser(
        "verify-family",
        parents=[common],
        help="verify a JSON family descriptor against the moment identity",
    )
    p.add_argument("descriptor", help="descriptor path, or - for stdin")
    p.add_argument("--probes", type=int, default=8, help="probe pairs")
    p.set_defaults(func=run_verify_family)

    p = sub.add_parser(
        "search-supports",
        parents=[common],
        help="enumerate constant-coefficient support patterns",
    )
    p.add_argument(
        "--max-support-size",
        type=int,
        default=None,
        help="largest support size to consider (default: the whole index set)",
    )
    p.set_defaults(func=run_search_supports)

    p = sub.add_parser(
        "verify-semigroup",
        parents=[common],
        help="verify exponential moment sequences on (R, +)",
    )
    p.add_argument("--probes", type=int, default=100, help="carrier probe pairs")
    p.add_argument(
        "--tamper",
        action="store_true",
        help="scale one f_alpha by 1.01 to confirm the verifier rejects it",
    )
    p.set_defaults(func=run_verify_semigroup)

    p = sub.add_parser(
        "gen-family",
        parents=[common],
        help="draw a random coefficient family on a valid support",
    )
    p.add_argument(
        "--support",
        default=None,
        help='JSON list of indices, e.g. "[[2],[3]]" (default: all N/2 < |alpha| <= N)',
    )
    p.set_defaults(func=run_gen_family)
    return parser


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(
                f"error: {SEED_ENV_VAR} must be an integer, got {env_seed!r}",
                file=sys.stderr,
            )
            return EXIT_INPUT
    try:
        _validate_common(args)
        body = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    config = _config_dict(args, args.command)
    report = {
        "command": args.command,
        "config": config,
        "config_hash": _config_hash(config),
        "seed": args.seed,
        **body,
    }
    _emit(report, args.out)
    return EXIT_PASS if body["pass"] else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
