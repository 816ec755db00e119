"""Command-line front end over the verification toolkit.

Subcommands
-----------
verify-leibniz    Exact randomized check of the product-derivative identity.
verify-family     Verify a JSON family descriptor against the moment identity.
search-supports   Enumerate support patterns usable with constant coefficients.
verify-semigroup  Verify exponential moment sequences on (R, +).
gen-family        Draw a random coefficient family on a valid support.

All randomness flows from --seed.  Identical configuration and seed
produce a byte-identical JSON report.  Exit codes: 0 all checks pass, 1 a
mathematical check failed (the report carries a witness), 2 invalid
input, 3 enumeration budget exceeded.

``main`` may be called repeatedly in one process; it parses with a parser
built once, at import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from typing import List, Optional

from .multiindex import MultiIndex, enumerate_height_at_most
from .polycalc import check_leibniz_all, random_polynomial
from .funcmodel import Domain, worse
from .coeffsolve import (
    BudgetExceeded,
    ConstraintViolation,
    InvalidSupport,
    band,
    enumerate_valid_constant_supports,
    index_set_size,
    random_valid_family,
    support_json,
)
from .momentfam import (
    default_probe_pairs,
    family_from_json,
    verify_moment,
)
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
    try:
        if args.descriptor == "-":
            raw = sys.stdin.read()
        else:
            with open(args.descriptor, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read descriptor: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"descriptor is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("descriptor nests too deeply") from exc
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
    except (KeyError, TypeError, ValueError, ArithmeticError, RecursionError) as exc:
        raise InputError(f"bad family descriptor: {exc}") from exc
    rng = random.Random(args.seed)
    probes = default_probe_pairs(domain, args.probes, rng)
    try:
        report = verify_moment(family, probes, domain, seed=args.seed)
    except (ArithmeticError, RecursionError) as exc:
        # only the descriptor can overflow or nest too deeply: the probes
        # are small polynomials on the unit box
        raise InputError(f"descriptor values do not evaluate: {exc}") from exc
    except ValueError as exc:
        # a sample's image leaves the box, or r is not the family's dim
        raise InputError(f"bad family descriptor: {exc}") from exc
    return {
        "report": report.to_json(),
        "failures": report.failures,
        "max_residual": report.max_residual,
        "pass": report.passed,
    }


def run_search_supports(args: argparse.Namespace) -> dict:
    if args.max_support_size is not None:
        _positive_int("max-support-size", args.max_support_size, 0)
    supports = enumerate_valid_constant_supports(
        args.rank, args.order, args.max_support_size, args.budget
    )
    return {
        "patterns": [support_json(args.rank, args.order, s) for s in supports],
        "count": len(supports),
        "index_set_size": index_set_size(args.rank, args.order),
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
        probes = random_probe_pairs(args.probes, rng)
        try:
            report = verify_moment_seq(seq, probes, tol=args.tol, seed=args.seed)
        except ArithmeticError as exc:  # a power or a sum overflows at a large --order
            raise InputError(f"sequence values do not evaluate: {exc}") from exc
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
    if args.support is None:
        support = band(args.rank, args.order)
    else:
        try:
            support = [MultiIndex(a) for a in json.loads(args.support)]
        except (json.JSONDecodeError, TypeError, ValueError, RecursionError) as exc:
            raise InputError(f"bad --support: {exc}") from exc
    try:
        cf, support = random_valid_family(args.rank, args.order, support, args.seed)
    except InvalidSupport as exc:
        raise InputError(
            f"{exc}, where the constraint forces coefficients to zero"
        ) from exc
    except ValueError as exc:  # an index of the wrong rank or outside 0 < |alpha| <= --order
        raise InputError(f"bad --support: {exc}") from exc
    return {
        "family": cf.to_json(),
        "pattern": support_json(args.rank, args.order, support),
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


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_BRACKETS = {list: "[]", tuple: "[]", dict: "{}"}
# json's text of a scalar by its exact type; _json_type maps a subclass to its base
_SCALAR_TEXT = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: lambda value: _NON_FINITE.get(text := float.__repr__(value), text),
    bool: lambda value: "true" if value else "false",
    type(None): lambda _: "null",
}


def _json_type(value: object) -> type:
    """The type that json writes ``value`` as: the first JSON type in its MRO."""
    for kind in type(value).__mro__:
        if kind in _SCALAR_TEXT or kind in _BRACKETS:
            return kind
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key_text(key: object) -> str:  # a key that is not a str, converted as json does
    if key is not None and not isinstance(key, (int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return f'"{_SCALAR_TEXT[_json_type(key)](key)}"'


def _write(value: object, newline: str, out: List[str]) -> None:
    """Append the text of ``value`` to ``out``; ``newline`` is a newline and the indent."""
    kind = _json_type(value)
    if kind in _SCALAR_TEXT:
        out.append(_SCALAR_TEXT[kind](value))
        return
    inner = newline + "  "
    lead = _BRACKETS[kind][0] + inner
    for item in sorted(value.items()) if kind is dict else value:
        if kind is dict:
            key, item = item
            lead += (_SCALAR_TEXT[str](key) if isinstance(key, str) else _key_text(key)) + ": "
        text = _SCALAR_TEXT.get(type(item))
        if text:
            out.append(lead + text(item))
        else:  # a container, or a subclass of a scalar type
            out.append(lead)
            _write(item, inner, out)
        lead = "," + inner
    out.append(newline + _BRACKETS[kind][1] if value else _BRACKETS[kind])


def _emit(report: dict, out_path: Optional[str]) -> None:
    """Write the report as ``json.dumps(report, sort_keys=True, indent=2)`` does, byte for byte."""
    out: List[str] = []
    _write(report, "\n", out)
    text = "".join(out) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
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
    try:
        _emit(report, args.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_PASS if body["pass"] else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
