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
built once, at import.  A command-line call starts a fresh interpreter
and pays for every module it imports, so this module imports only
``multiindex`` and ``polycalc``, all that ``verify-leibniz`` runs; each
other handler imports the modules it runs when it is called.

Reports are written by columns.  The values at one place in many records
(every ``lhs`` of a failure list, say) form one column, and a column of
same-typed values is written with one text call.  A report holds dicts
with ``str`` keys, lists, and scalars whose exact type is ``str``,
``int``, ``float``, ``bool`` or ``None``; the writer raises ``TypeError``
for anything else, a tuple or an ``int`` subclass included.  The output
equals ``json.dumps(report, sort_keys=True, indent=2)`` and a newline,
byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import random
import sys
from itertools import chain, repeat
from typing import List, Optional

from .multiindex import MultiIndex, check_count, check_tolerance
from .polycalc import check_leibniz_pairs, random_polynomial

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

SEMIGROUP_RATES = (0.0, 1.0, -1.0)


class InputError(ValueError):
    """Bad configuration or malformed descriptor input."""


class BudgetError(RuntimeError):
    """An enumeration larger than --budget."""


# the least value of each integer flag; a subcommand checks the ones it has
_LEAST = dict(rank=1, order=0, samples=8, budget=1, pairs=1, degree=0, probes=1, max_support_size=0)


def _validate_common(args: argparse.Namespace) -> None:
    """Check the flags by the package's own rules, before the subcommand reads anything."""
    try:
        for flag, least in _LEAST.items():
            value = getattr(args, flag, None)
            if value is not None:  # an absent flag, or --max-support-size left out
                check_count("--" + flag.replace("_", "-"), value, least)
        check_tolerance("--tol", args.tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


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
    rng = random.Random(args.seed)
    pairs = [
        (
            random_polynomial(rng, args.rank, max_degree=args.degree),
            random_polynomial(rng, args.rank, max_degree=args.degree),
        )
        for _ in range(args.pairs)
    ]
    failures: List[dict] = []
    for k, ((f, g), failing) in enumerate(zip(pairs, check_leibniz_pairs(pairs, args.order))):
        for alpha in failing:
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


@contextlib.contextmanager
def _evaluating_descriptor():
    """Turn an error in evaluating a descriptor that was read into an InputError."""
    try:
        yield
    except (ArithmeticError, RecursionError) as exc:
        # only the descriptor can overflow or nest too deeply: the probes
        # are small polynomials on the unit box
        raise InputError(f"descriptor values do not evaluate: {exc}") from exc
    except ValueError as exc:
        # a sample's image leaves the box, or r is not the family's dim
        raise InputError(f"bad family descriptor: {exc}") from exc


def run_verify_family(args: argparse.Namespace) -> dict:
    from .coeffsolve import check_constraint
    from .funcmodel import Domain
    from .momentfam import ProbePairs, family_from_json, verify_moment

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
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to read
        raise InputError(f"descriptor is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("descriptor nests too deeply") from exc
    if not isinstance(data, dict) or "r" not in data:
        raise InputError("descriptor must be a JSON object with an 'r' field")
    rank = data["r"]
    try:
        check_count("descriptor 'r'", rank, 1)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    try:
        family = family_from_json(data)
    except (KeyError, TypeError, ValueError, ArithmeticError, RecursionError) as exc:
        raise InputError(f"bad family descriptor: {exc}") from exc
    domain = Domain.unit(
        rank, n_samples=args.samples, seed=args.seed, float_tolerance=args.tol
    )
    if family.coeff_family is not None:
        with _evaluating_descriptor():
            constraint = check_constraint(family.coeff_family, domain, family.point_map)
        if not constraint.passed:
            return {
                "family": data,
                "constraint_report": constraint.to_json(),
                "failures": constraint.failures,
                "max_residual": constraint.max_residual,
                "pass": False,
            }
    # drawn only if a probe is applied: a formal pass of an exact family draws none
    probes = ProbePairs(domain, args.probes, random.Random(args.seed))
    with _evaluating_descriptor():
        report = verify_moment(family, probes, domain, seed=args.seed)
    return {
        "report": report.to_json(),
        "failures": report.failures,
        "max_residual": report.max_residual,
        "pass": report.passed,
    }


def run_search_supports(args: argparse.Namespace) -> dict:
    from .coeffsolve import (
        BudgetExceeded,
        enumerate_valid_constant_supports,
        index_set_size,
        support_json,
    )

    try:
        supports = enumerate_valid_constant_supports(
            args.rank, args.order, args.max_support_size, args.budget
        )
    except BudgetExceeded as exc:
        raise BudgetError(str(exc)) from exc
    return {
        "patterns": [support_json(args.rank, args.order, s) for s in supports],
        "count": len(supports),
        "index_set_size": index_set_size(args.rank, args.order),
        "failures": [],
        "max_residual": 0.0,
        "pass": True,
    }


def run_verify_semigroup(args: argparse.Namespace) -> dict:
    from .funcmodel import worse
    from .semigroup import (
        make_exponential_moment_seq,
        random_probe_pairs,
        tampered,
        verify_moment_seq,
    )

    # the alpha = e instances are linear in a height-1 f_e, so scaling one
    # changes no verdict: the tampered member has height 2
    if args.tamper and args.order < 2:
        raise InputError("--tamper needs --order >= 2")
    rng = random.Random(args.seed)
    failures: List[dict] = []
    max_residual = 0.0
    sweeps = []
    for rate in SEMIGROUP_RATES:
        scales = [rng.uniform(0.5, 2.0) for _ in range(args.rank)]
        seq = make_exponential_moment_seq(args.rank, args.order, rate, scales)
        tampered_index: Optional[List[int]] = None
        if args.tamper:
            # the first height-2 index in enumerate_height_at_most order
            alpha = MultiIndex((0,) * (args.rank - 1) + (2,))
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
    from .coeffsolve import InvalidSupport, band, random_valid_family, support_json

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
        help="scale f_(0,...,0,2) by 1.01 to confirm the verifier rejects it "
        "(needs --order >= 2)",
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
# json's text of a scalar by its exact type: a report holds no subclass
_SCALAR_TEXT = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,  # a non-finite float is renamed by _NON_FINITE
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _scalar_texts(column: list, kind: type) -> List[str]:
    """The texts of a column of values of the one scalar type ``kind``."""
    texts = list(map(_SCALAR_TEXT[kind], column))
    if kind is float and not all(map(math.isfinite, column)):
        texts = [_NON_FINITE.get(text, text) for text in texts]
    return texts


def _texts(values: list, newline: str) -> List[str]:
    """json's text of each of ``values``, where ``newline`` is a newline and their indent.

    A value is a dict with ``str`` keys, a list, or a scalar whose exact
    type is ``str``, ``int``, ``float``, ``bool`` or ``None``: what
    ``to_json`` and ``json.loads`` build.  Anything else, a tuple or an
    ``int`` subclass say, raises ``TypeError``.

    A column of one scalar type is one ``map`` of its text function.  The
    dicts of a column that share one key tuple are written as one child
    column per key (a single dict as one column of its values), and the
    lists of a column as one child column of all their items.  A mixed
    column writes its scalars one by one and each container as a column of
    one.  Every child column is one call one level deeper, so the writer
    spends one frame per level of nesting.
    """
    kind = type(values[0])
    uniform = len(set(map(type, values))) == 1
    if uniform and kind in _SCALAR_TEXT:
        return _scalar_texts(values, kind)
    if uniform and (kind is list or kind is dict and len(set(map(tuple, values))) == 1):
        out, runs = None, [(0, values)]
    else:
        out, runs = [""] * len(values), []
        for i, value in enumerate(values):
            scalar = _SCALAR_TEXT.get(type(value))
            if scalar:
                text = scalar(value)
                out[i] = _NON_FINITE.get(text, text)
            else:
                runs.append((i, [value]))
    inner = newline + "  "
    for i, run in runs:
        kind = type(run[0])
        if kind is dict and not run[0]:
            texts = ["{}"] * len(run)
        elif kind is dict:
            keys = sorted(run[0])
            names = map(str.replace, map(_SCALAR_TEXT[str], keys), repeat("%"), repeat("%%"))
            row = "{" + inner + (": %s," + inner).join(names) + ": %s" + newline + "}"
            if len(run) == 1:
                texts = [row % tuple(_texts([run[0][key] for key in keys], inner))]
            else:  # a loop, not a comprehension, so that no frame sits between levels
                columns = []
                for key in keys:
                    columns.append(_texts([record[key] for record in run], inner))
                texts = list(map(row.__mod__, zip(*columns)))
        elif kind is list:
            items = list(chain.from_iterable(run))
            items = _texts(items, inner) if items else []
            sizes = list(map(len, run))
            if not items:
                texts = ["[]"] * len(run)
            elif len(set(sizes)) == 1:  # one template for every list
                row = "[" + inner + ("," + inner).join(["%s"] * sizes[0]) + newline + "]"
                texts = list(map(row.__mod__, zip(*[iter(items)] * sizes[0])))
            else:
                comma, start, texts = "," + inner, 0, []
                for size in sizes:
                    body = comma.join(items[start : start + size])
                    texts.append("[" + inner + body + newline + "]" if size else "[]")
                    start += size
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        if out is None:
            return texts
        out[i] = texts[0]
    return out


def _emit(report: dict, out_path: Optional[str]) -> None:
    """Write the report as ``json.dumps(report, sort_keys=True, indent=2)`` does, byte for byte."""
    text = _texts([report], "\n")[0] + "\n"
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
    except BudgetError as exc:
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
