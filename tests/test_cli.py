"""CLI subcommands: reports, exit codes, determinism and seeding."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moment_leibniz
from moment_leibniz.multiindex import enumerate_height_at_most
from moment_leibniz.polycalc import Polynomial
from moment_leibniz.funcmodel import Domain, PolyLeaf
from moment_leibniz.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_PASS,
    _emit,
    main,
)

REPORT_KEYS = {"command", "config", "config_hash", "seed", "failures", "max_residual", "pass"}


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# ---- verify-leibniz ----


def test_verify_leibniz_passes(capsys):
    code, report = _run(
        capsys, ["verify-leibniz", "--rank", "2", "--order", "3", "--seed", "7", "--pairs", "5"]
    )
    assert code == EXIT_PASS
    assert REPORT_KEYS <= set(report)
    assert report["pass"] is True
    assert report["failures"] == []
    assert report["max_residual"] == 0.0
    assert report["seed"] == 7


def test_verify_leibniz_order_zero_is_plain_product(capsys):
    code, report = _run(capsys, ["verify-leibniz", "--order", "0", "--pairs", "3"])
    assert code == EXIT_PASS and report["pass"]


def test_bad_rank_is_input_error(capsys):
    code = main(["verify-leibniz", "--rank", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert "rank" in captured.err
    assert captured.err == "error: --rank must be >= 1, got 0\n"


def test_negative_degree_is_input_error(capsys):
    code = main(["verify-leibniz", "--degree", "-1"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert "degree" in captured.err
    assert captured.err == "error: --degree must be >= 0, got -1\n"


def test_bad_samples_is_input_error(capsys):
    code, _ = _run(capsys, ["verify-leibniz", "--samples", "4"])
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-semigroup", "--rank", "1", "--order", "2", "--tol", "nan"],
        ["verify-semigroup", "--rank", "1", "--order", "2", "--tol", "inf", "--tamper"],
        ["verify-leibniz", "--tol", "inf"],
        ["verify-leibniz", "--tol=-inf"],
    ],
    ids=["nan", "inf-tamper", "inf", "minus-inf"],
)
def test_non_finite_tol_is_input_error(capsys, argv):
    # nan would fail every instance and inf would pass a tampered sequence
    code, report = _run(capsys, argv)
    assert code == EXIT_INPUT
    assert report is None


# ---- verify-family ----


def _family_file(tmp_path, descriptor) -> str:
    path = tmp_path / "family.json"
    path.write_text(json.dumps(descriptor))
    return str(path)


def _const(dim, coeff):
    return {"kind": "poly", "dim": dim, "terms": [{"exponent": [0] * dim, "coeff": coeff}]}


_X = {"kind": "poly", "dim": 1, "terms": [{"exponent": [1], "coeff": "1"}]}


def _second_order(**fields):
    """The exact pair T(f) = f'' + x f', A(f) = f' on one variable, ``fields`` replaced."""
    data = {
        "kind": "second_order",
        "r": 1,
        "smoothness": 2,
        "a": _const(1, "0"),
        "b": [_X],
        "c": [_const(1, "1")],
    }
    data.update(fields)
    return data


# tau(x) = 1 - x on one variable
_TAU_REFLECT = {
    "rank": 1,
    "components": [[{"exponent": [0], "coeff": "1"}, {"exponent": [1], "coeff": "-1"}]],
}


# tau(x) = x + 1/64: it keeps every seed-0 sample in the box, twice it does not
_TAU_SHIFT = {
    "rank": 1,
    "components": [[{"exponent": [1], "coeff": "1"}, {"exponent": [0], "coeff": "1/64"}]],
}


def _conjugated(inner):
    return {"kind": "conjugated", "r": 1, "N": inner.get("N", 1), "tau": _TAU_SHIFT, "inner": inner}


def _xlogabs(coeff):
    return {"kind": "xlogabs", "child": _const(1, coeff)}


def test_verify_family_each_kind(capsys, tmp_path):
    # each descriptor with whether its report is exact (no instance sampled)
    descriptors = [
        ({"kind": "trivial", "r": 1, "N": 2}, True),
        ({"kind": "derivative", "r": 2, "N": 2}, True),
        (
            {
                "kind": "conjugated",
                "r": 1,
                "N": 2,
                "tau": _TAU_REFLECT,
                "inner": {"kind": "derivative", "r": 1, "N": 2},
            },
            True,
        ),
        (
            {
                "kind": "first_order_leibniz",
                "r": 1,
                "c": {"kind": "poly", "dim": 1, "terms": [{"exponent": [1], "coeff": "1"}]},
            },
            False,
        ),
        (_second_order(), True),
        # T(f) = x f' + 3 f ln|f| on C^1, with N given
        (_second_order(smoothness=1, N=2, a=_const(1, "3"), c=[_const(1, "0")]), False),
        (
            {"kind": "conjugated", "r": 1, "N": 2, "tau": _TAU_REFLECT, "inner": _second_order()},
            True,
        ),
    ]
    for descriptor, exact in descriptors:
        code, report = _run(
            capsys, ["verify-family", _family_file(tmp_path, descriptor), "--seed", "3"]
        )
        assert code == EXIT_PASS, descriptor["kind"]
        assert report["pass"] is True
        assert report["report"]["family"]["kind"] == descriptor["kind"]
        assert report["report"]["exact"] is exact, descriptor


def test_verify_family_exact_kinds_have_zero_residual(capsys, tmp_path):
    code, report = _run(
        capsys, ["verify-family", _family_file(tmp_path, {"kind": "derivative", "r": 1, "N": 3})]
    )
    assert code == EXIT_PASS
    assert report["max_residual"] == 0.0
    assert report["report"]["exact"] is True


# c_[1] = 1 leaves the alpha = [2] constraint sum at 2 * c_[1]^2 = 2
VIOLATING = {
    "kind": "identity_generated",
    "r": 1,
    "N": 2,
    "coefficients": [
        {
            "index": [1],
            "expr": {"kind": "poly", "dim": 1, "terms": [{"exponent": [0], "coeff": "1"}]},
        }
    ],
}
_COEFF_ONE = VIOLATING["coefficients"][0]


def test_verify_family_constraint_violation_fails_with_witness(capsys, tmp_path):
    code, report = _run(capsys, ["verify-family", _family_file(tmp_path, VIOLATING)])
    assert code == EXIT_FAIL
    assert report["pass"] is False
    assert report["failures"][0]["alpha"] == [2]


def test_verify_family_malformed_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = _run(capsys, ["verify-family", str(path)])
    assert code == EXIT_INPUT
    code2, _ = _run(capsys, ["verify-family", str(tmp_path / "missing.json")])
    assert code2 == EXIT_INPUT
    bad_kind = _family_file(tmp_path, {"kind": "nope", "r": 1})
    code3, _ = _run(capsys, ["verify-family", bad_kind])
    assert code3 == EXIT_INPUT


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_descriptor_is_input_error(capsys, monkeypatch, tmp_path, source):
    if source == "file":
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe{")
        descriptor = str(tmp_path / "bad.json")
    else:
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        descriptor = "-"
    code = main(["verify-family", descriptor])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read descriptor: ")


_TAU_ID = '"tau": {"rank": 1, "components": [[{"exponent": [1], "coeff": "1"}]]}'
_LEAF = '{"kind": "poly", "dim": 1, "terms": [{"exponent": [1], "coeff": "1"}]}'


def _nested_sum(depth: int) -> str:
    """A first-order family whose coefficient x sits under ``depth`` one-child sums."""
    return (
        '{"kind": "first_order_leibniz", "r": 1, "c": '
        + '{"kind": "sum", "children": [' * depth
        + _LEAF
        + "]}" * depth
        + "}"
    )


@pytest.mark.parametrize(
    "text",
    [
        # too deep for the JSON decoder
        ('{"kind": "conjugated", "r": 1, "N": 1, ' + _TAU_ID + ', "inner": ') * 3000
        + '{"kind": "derivative", "r": 1, "N": 1}'
        + "}" * 3000,
        _nested_sum(600),
    ],
    ids=["conjugated-3000", "sum-600"],
)
def test_deeply_nested_descriptor_is_input_error(capsys, tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code = main(["verify-family", str(path), "--probes", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_nested_sum_descriptor_is_verified(capsys, tmp_path):
    # 450 nested sums decode, build, and evaluate in one walk over the samples
    path = tmp_path / "deep.json"
    path.write_text(_nested_sum(450))
    code = main(["verify-family", str(path), "--probes", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    assert captured.err == ""
    assert json.loads(captured.out)["pass"] is True


@pytest.mark.parametrize(
    "descriptor",
    [
        {"kind": "derivative", "r": "x", "N": 2},
        {"kind": "derivative", "r": 0, "N": 2},
        {"kind": "derivative", "r": -1, "N": 2},
        {"kind": "derivative", "r": True, "N": 2},
        {
            "kind": "conjugated",
            "r": 1,
            "N": 2,
            "tau": {"rank": 1, "components": [[{"exponent": [0], "coeff": "1/0"}]]},
            "inner": {"kind": "derivative", "r": 1, "N": 2},
        },
        {
            "kind": "first_order_leibniz",
            "r": 1,
            "c": {"kind": "poly", "dim": 1, "terms": [{"exponent": [1], "coeff": "1e400"}]},
        },
        {"kind": "derivative", "r": 1, "N": 2.5},
        {"kind": "derivative", "r": 1, "N": 1e9},
        {"kind": "trivial", "r": 1, "N": True},
        {
            "kind": "conjugated",
            "r": 1,
            "N": 2,
            "tau": {"rank": 1, "components": [[{"exponent": [1], "coeff": "1/2"}]]},
            "inner": {"kind": "derivative", "r": 1, "N": 2.5},
        },
        {
            "kind": "conjugated",
            "r": 1,
            "N": 2.5,
            "tau": {"rank": 1, "components": [[{"exponent": [1], "coeff": "1/2"}]]},
            "inner": {"kind": "derivative", "r": 1, "N": 2},
        },
        {
            "kind": "conjugated",
            "r": 1,
            "N": 3,
            "tau": {"rank": 1, "components": [[{"exponent": [1], "coeff": "1/2"}]]},
            "inner": {"kind": "derivative", "r": 1, "N": 2},
        },
        {
            "kind": "first_order_leibniz",
            "r": 1,
            "N": 5,
            "c": {"kind": "poly", "dim": 1, "terms": [{"exponent": [1], "coeff": "1"}]},
        },
        {
            "kind": "first_order_leibniz",
            "r": 1,
            "N": 1.0,
            "c": {"kind": "poly", "dim": 1, "terms": [{"exponent": [1], "coeff": "1"}]},
        },
        {
            "kind": "identity_generated",
            "r": 1,
            "N": 3,
            "coefficients": [
                {
                    "index": [2.7],
                    "expr": {"kind": "poly", "dim": 1, "terms": [{"exponent": [0], "coeff": "1"}]},
                }
            ],
        },
        {
            "kind": "first_order_leibniz",
            "r": 1,
            "c": {"kind": "poly", "dim": 1, "terms": [{"exponent": [1.9], "coeff": "1"}]},
        },
        {
            "kind": "first_order_leibniz",
            "r": 1,
            "c": {"kind": "poly", "dim": True, "terms": [{"exponent": [1], "coeff": "1"}]},
        },
        {
            "kind": "first_order_leibniz",
            "r": 1,
            "c": {"kind": "poly", "dim": 1.0, "terms": [{"exponent": [1], "coeff": "1"}]},
        },
        {
            "kind": "conjugated",
            "r": 1,
            "N": 2,
            "tau": {"rank": True, "components": [[{"exponent": [1], "coeff": "1/2"}]]},
            "inner": {"kind": "derivative", "r": 1, "N": 2},
        },
        {
            "kind": "identity_generated",
            "r": 1,
            "N": 3,
            "coefficients": [
                {"index": [2], "expr": {"kind": "poly", "dim": 1, "terms": [{"exponent": [0], "coeff": "1"}]}},
                {"index": [2], "expr": {"kind": "poly", "dim": 1, "terms": [{"exponent": [0], "coeff": "5"}]}},
            ],
        },
        _second_order(smoothness=True),
        _second_order(smoothness=1.5),
        _second_order(smoothness=3),
        _second_order(N=3),
        _second_order(b=[_X, _X]),
        _second_order(smoothness=1),
        _second_order(a=_const(2, "0")),
        # the outer r must be the inner pair's dim
        {"kind": "conjugated", "r": 2, "N": 2, "tau": _TAU_REFLECT, "inner": _second_order()},
        # a two-variable gradient and Hessian form over one-variable components
        {
            "kind": "identity_generated",
            "r": 2,
            "N": 2,
            "coefficients": [
                {
                    "index": [2, 0],
                    "expr": {
                        "kind": "graddot",
                        "dim": 2,
                        "poly": [{"exponent": [1, 1], "coeff": "1"}],
                        "field": [_X, _X],
                    },
                }
            ],
        },
        {
            "kind": "first_order_leibniz",
            "r": 2,
            "c": {
                "kind": "hessquad",
                "dim": 2,
                "poly": [{"exponent": [1, 1], "coeff": "1"}],
                "field": [_X, _X],
            },
        },
        _conjugated(_conjugated({"kind": "first_order_leibniz", "r": 1, "c": _const(1, "1")})),
        {
            "kind": "first_order_leibniz",
            "r": 1,
            "c": {"kind": "sum", "children": [_xlogabs(str(10**307)), _xlogabs(str(-(10**307)))]},
        },
        # JSON true and false are not numbers, though Fraction(True) is 1
        {"kind": "first_order_leibniz", "r": 1, "c": _const(1, True)},
        {
            "kind": "conjugated",
            "r": 1,
            "N": 2,
            "tau": {"rank": 1, "components": [[{"exponent": [1], "coeff": True}]]},
            "inner": {"kind": "derivative", "r": 1, "N": 2},
        },
        {
            "kind": "first_order_leibniz",
            "r": 1,
            "c": {"kind": "scale", "factor": False, "child": _X},
        },
        {"kind": "derivative", "r": 1, "N": "x"},
        {"kind": "trivial", "r": 1, "N": "x"},
        {"kind": "identity_generated", "r": 1, "N": "x", "coefficients": [_COEFF_ONE]},
        {"kind": "identity_generated", "r": 1, "N": -1, "coefficients": [_COEFF_ONE]},
        {"kind": "identity_generated", "r": 1, "N": 2.5, "coefficients": []},
        {"kind": "first_order_leibniz", "r": 1, "N": "x", "c": _X},
        _second_order(N="x"),
        {
            "kind": "conjugated",
            "r": 1,
            "N": "x",
            "tau": _TAU_REFLECT,
            "inner": {"kind": "derivative", "r": 1, "N": 2},
        },
        {
            "kind": "conjugated",
            "r": 5,
            "N": 2,
            "tau": _TAU_REFLECT,
            "inner": {"kind": "derivative", "r": 1, "N": 2},
        },
    ],
    ids=[
        "r-str",
        "r-zero",
        "r-negative",
        "r-bool",
        "tau-div-zero",
        "coeff-overflow",
        "N-float",
        "N-float-large",
        "N-bool",
        "N-float-conjugated",
        "N-float-conjugated-outer",
        "N-mismatch-conjugated",
        "N-first-order-5",
        "N-first-order-float",
        "index-float",
        "exponent-float",
        "dim-bool",
        "dim-float",
        "tau-rank-bool",
        "index-repeated",
        "second-order-smoothness-bool",
        "second-order-smoothness-float",
        "second-order-smoothness-3",
        "second-order-N-3",
        "second-order-b-length",
        "second-order-c-at-smoothness-1",
        "second-order-a-dim",
        "second-order-conjugated-r-2",
        "graddot-field-dim",
        "hessquad-field-dim",
        "conjugated-twice-leaves-box",
        "xlogabs-overflow",
        "coeff-bool",
        "tau-coeff-bool",
        "scale-factor-bool",
        "N-str-derivative",
        "N-str-trivial",
        "N-str-identity",
        "N-negative-identity",
        "N-float-identity-empty",
        "N-str-first-order",
        "N-str-second-order",
        "N-str-conjugated",
        "r-mismatch-conjugated",
    ],
)
def test_verify_family_bad_values_are_input_errors(capsys, tmp_path, request, descriptor):
    # a descriptor the verifier cannot evaluate is invalid input (exit 2),
    # never a failed identity (exit 1) nor a pass
    code = main(["verify-family", _family_file(tmp_path, descriptor)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    message = _BAD_VALUE_MESSAGES.get(request.node.callspec.id)
    if message is not None:
        assert captured.err == f"error: bad family descriptor: {message}\n"
    message = _BAD_R_MESSAGES.get(request.node.callspec.id)
    if message is not None:
        assert captured.err == f"error: {message}\n"


# the error line of the cases above that name a malformed N or conjugated r:
# every kind names it, and none compares it with an int first
_BAD_VALUE_MESSAGES = {
    "N-str-derivative": "order must be an integer, got 'x'",
    "N-str-trivial": "order must be an integer, got 'x'",
    "N-str-identity": "order must be an integer, got 'x'",
    "N-negative-identity": "order must be >= 0, got -1",
    "N-float-identity-empty": "order must be an integer, got 2.5",
    "N-str-first-order": "first_order_leibniz N must be 1, got 'x'",
    "N-str-second-order": "second_order N must be 2, got 'x'",
    "N-str-conjugated": "conjugated N must be the inner order 2, got 'x'",
    "r-mismatch-conjugated": "conjugated r must be the inner dim 1, got 5",
}

# the error line of the cases above whose 'r' is not a count: it is checked
# before the family is built
_BAD_R_MESSAGES = {
    "r-str": "descriptor 'r' must be an integer, got 'x'",
    "r-zero": "descriptor 'r' must be >= 1, got 0",
    "r-negative": "descriptor 'r' must be >= 1, got -1",
    "r-bool": "descriptor 'r' must be an integer, got True",
}


_DERIVATIVE_1 = {"kind": "derivative", "r": 1, "N": 1}


@pytest.mark.parametrize(
    "argv, descriptor, message",
    [
        (
            ["verify-family"],
            {"kind": "conjugated", "r": 1, "N": 1, "tau": {"rank": 0, "components": []}, "inner": _DERIVATIVE_1},
            "bad family descriptor: map needs rank >= 1",
        ),
        (
            ["verify-family"],
            {"kind": "identity_generated", "r": 1, "N": 2, "coefficients": [{"index": [1, 0], "expr": _X}]},
            "bad family descriptor: coefficient index (1, 0) has rank 2, expected 1",
        ),
        (
            ["verify-family"],
            {"kind": "first_order_leibniz", "r": 1, "c": _const(2, "1")},
            "bad family descriptor: coefficient dim 2, rank 1",
        ),
        (
            ["verify-family"],
            {"kind": "identity_generated", "r": 1, "N": 2, "coefficients": [{"index": [2], "expr": _const(2, "1")}]},
            "bad family descriptor: coefficient at (2,) has dim 2, expected 1",
        ),
        (
            ["verify-family"],
            {
                "kind": "conjugated",
                "r": 1,
                "N": 1,
                "tau": {
                    "rank": 2,
                    "components": [[{"exponent": [1, 0], "coeff": "1"}], [{"exponent": [0, 1], "coeff": "1"}]],
                },
                "inner": _DERIVATIVE_1,
            },
            "bad family descriptor: map rank 2, family dim 1",
        ),
        (
            ["verify-family"],
            {"kind": "first_order_leibniz", "r": 1, "c": {"kind": "sum", "children": []}},
            "bad family descriptor: Sum needs at least one child",
        ),
        (["verify-family"], [], "descriptor must be a JSON object with an 'r' field"),
        (
            ["gen-family", "--rank", "1", "--order", "2", "--support", "[[1,0]]"],
            None,
            "bad --support: coefficient index (1, 0) has rank 2, expected 1",
        ),
    ],
    ids=[
        "tau-rank-0",
        "index-rank",
        "coeff-dim",
        "coeff-expr-dim",
        "tau-rank-2",
        "empty-sum",
        "not-an-object",
        "support-rank",
    ],
)
def test_malformed_input_error_lines(capsys, tmp_path, argv, descriptor, message):
    if descriptor is not None:
        argv = argv + [_family_file(tmp_path, descriptor)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_over_long_integer_in_descriptor_is_input_error(capsys, tmp_path):
    # json.loads refuses an integer literal past the int-to-str digit limit
    # with a ValueError that is not a JSONDecodeError
    path = tmp_path / "long.json"
    path.write_text('{"kind": "derivative", "r": 1, "N": ' + "1" * 5000 + "}")
    code = main(["verify-family", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: descriptor is not valid JSON: ")


@pytest.mark.parametrize(
    "descriptor",
    [
        {"kind": "nope", "r": 10**6},
        {"kind": "trivial", "r": 1, "N": "x"},
        {"kind": "derivative", "r": 1, "N": "x"},
        {"kind": "identity_generated", "r": 1, "N": "x", "coefficients": [_COEFF_ONE]},
        {"kind": "first_order_leibniz", "r": 1, "N": "x", "c": _X},
        _second_order(N="x"),
        {"kind": "conjugated", "r": 1, "N": "x", "tau": _TAU_REFLECT, "inner": _second_order()},
        # the inner family violates the constraint; the outer N is read first
        {"kind": "conjugated", "r": 1, "N": "x", "tau": _TAU_REFLECT, "inner": VIOLATING},
        {
            "kind": "conjugated",
            "r": 1,
            "N": 2,
            "tau": {"rank": 1, "components": [[{"exponent": [0], "coeff": "1/0"}]]},
            "inner": {"kind": "derivative", "r": 1, "N": 2},
        },
        {
            "kind": "identity_generated",
            "r": 1,
            "N": 2,
            "coefficients": [{"index": [2.7], "expr": _const(1, "1")}],
        },
        {"kind": "first_order_leibniz", "r": 1, "c": {"kind": "nope"}},
        {"kind": "identity_generated", "r": 1, "N": 2, "coefficients": [_COEFF_ONE, _COEFF_ONE]},
    ],
    ids=[
        "unknown-kind-huge-r",
        "N-trivial",
        "N-derivative",
        "N-identity",
        "N-first-order",
        "N-second-order",
        "N-conjugated",
        "N-conjugated-over-violation",
        "tau",
        "coefficient-index",
        "expression-kind",
        "coefficient-index-repeated",
    ],
)
def test_unreadable_descriptor_draws_no_sample(capsys, monkeypatch, tmp_path, descriptor):
    # the whole descriptor is read before the samples are drawn
    def unit(cls, *args, **kwargs):
        pytest.fail("Domain.unit was called for a descriptor that cannot be read")

    monkeypatch.setattr(Domain, "unit", classmethod(unit))
    code = main(["verify-family", _family_file(tmp_path, descriptor)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: bad family descriptor: ")


@pytest.mark.parametrize(
    "descriptor,code",
    [
        ({"kind": "derivative", "r": 2, "N": 2}, EXIT_PASS),
        (VIOLATING, EXIT_FAIL),
        (_conjugated(VIOLATING), EXIT_FAIL),
        (_conjugated({"kind": "first_order_leibniz", "r": 1, "c": _X}), EXIT_PASS),
    ],
    ids=["derivative", "violating", "violating-conjugated", "first-order-conjugated"],
)
def test_readable_descriptor_draws_samples_once(capsys, monkeypatch, tmp_path, descriptor, code):
    calls = []
    unit = Domain.unit

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return unit(*args, **kwargs)

    monkeypatch.setattr(Domain, "unit", classmethod(counted))
    assert main(["verify-family", _family_file(tmp_path, descriptor)]) == code
    capsys.readouterr()
    assert calls == [(descriptor["r"],)]


def test_constraint_overflow_reads_as_an_evaluation_error(capsys, tmp_path):
    # c_(1) = 2^1100 overflows in the alpha = (2) constraint sum, before the
    # moment identity is checked; the error reads as one met there would
    descriptor = {
        "kind": "identity_generated",
        "r": 1,
        "N": 2,
        "coefficients": [{"index": [1], "expr": _const(1, str(2**1100))}],
    }
    code = main(["verify-family", _family_file(tmp_path, descriptor)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == (
        "error: descriptor values do not evaluate: overflow converting exact value at root\n"
    )


def _vanishing_on_seed_zero_samples(scale: int = 10**8) -> dict:
    """c_(1) = scale * prod_k (x - s_k) over the 12 seed-0 samples s_k of Domain.unit(1)."""
    c = Polynomial.constant(1, scale)
    for (s,) in Domain.unit(1).sample_points:
        c = c * (Polynomial.variable(1, 0) - Polynomial.constant(1, s))
    return {
        "kind": "identity_generated",
        "r": 1,
        "N": 2,
        "coefficients": [{"index": [1], "expr": PolyLeaf(c).to_json()}],
    }


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_coefficient_vanishing_on_the_samples_fails(capsys, tmp_path, seed):
    # c_(1) must be the zero polynomial at N = 2; at seed 0 it vanishes at
    # every sample, so the failure is the grid witness alpha (2) at 1/14
    path = _family_file(tmp_path, _vanishing_on_seed_zero_samples())
    code, report = _run(capsys, ["verify-family", path, "--seed", str(seed)])
    assert code == EXIT_FAIL
    failures = report["constraint_report"]["failures"]
    assert failures
    if seed == 0:
        assert [(f["alpha"], f["point"]) for f in failures] == [([2], ["1/14"])]


def test_coefficient_too_large_for_a_float_still_fails(capsys, tmp_path):
    # at 10^400 the witness sum's values do not fit a float, but the
    # failure is certain: the exact sum C(2, 1) c_(1)(1/14)^2 reads as inf
    path = _family_file(tmp_path, _vanishing_on_seed_zero_samples(10**400))
    code, report = _run(capsys, ["verify-family", path, "--seed", "0"])
    assert code == EXIT_FAIL
    constraint = report["constraint_report"]
    assert constraint["failures"] == [{"alpha": [2], "point": ["1/14"], "value": math.inf}]
    assert constraint["max_residual"] == math.inf


def _scaled_xlogx(coeff: str) -> dict:
    """The N = 2 family whose one coefficient is c_(1) = coeff * x ln x, nonzero on the box."""
    expr = {"kind": "product", "children": [_const(1, coeff), {"kind": "xlogabs", "child": _X}]}
    return {
        "kind": "identity_generated",
        "r": 1,
        "N": 2,
        "coefficients": [{"index": [1], "expr": expr}],
    }


@pytest.mark.xfail(strict=True, reason="ROADMAP item 31 stage B")
def test_small_coefficient_below_the_band_fails(capsys, tmp_path):
    # S_(2) = 2 c_(1)^2 != 0, but every sampled sum and residual is under --tol
    path = _family_file(tmp_path, _scaled_xlogx("1/1000000"))
    code, report = _run(capsys, ["verify-family", path])
    assert code == EXIT_FAIL
    assert [2] in [f["alpha"] for f in report["failures"]]


def test_larger_coefficient_below_the_band_fails(capsys, tmp_path):
    # at 10^-3 the sampled constraint sums exceed --tol
    path = _family_file(tmp_path, _scaled_xlogx("1/1000"))
    code, report = _run(capsys, ["verify-family", path])
    assert code == EXIT_FAIL
    first = report["failures"][0]
    assert (first["alpha"], first["point"]) == ([2], ["55/64"])


def _poly_leaf(*terms):
    """A polynomial leaf from (exponent, coeff) pairs; the dim is the exponents' length."""
    return {
        "kind": "poly",
        "dim": len(terms[0][0]),
        "terms": [{"exponent": list(e), "coeff": c} for e, c in terms],
    }


# a conjugate reads its coefficients at tau(x) only: tau(x) = 1/2 with
# c_(1) = x - 1/2, and tau(x_1, x_2) = (x_1, 1/2) with c_(1,0) = x_2 - 1/2,
# c_(2,0) = 3 x_1; each c below the band is 0 wherever it is read
ZERO_WHERE_READ = [
    {
        "kind": "conjugated",
        "r": 1,
        "N": 2,
        "tau": {"rank": 1, "components": [_poly_leaf(((0,), "1/2"))["terms"]]},
        "inner": {
            "kind": "identity_generated",
            "r": 1,
            "N": 2,
            "coefficients": [{"index": [1], "expr": _poly_leaf(((1,), "1"), ((0,), "-1/2"))}],
        },
    },
    {
        "kind": "conjugated",
        "r": 2,
        "N": 2,
        "tau": {
            "rank": 2,
            "components": [
                _poly_leaf(((1, 0), "1"))["terms"],
                _poly_leaf(((0, 0), "1/2"))["terms"],
            ],
        },
        "inner": {
            "kind": "identity_generated",
            "r": 2,
            "N": 2,
            "coefficients": [
                {"index": [1, 0], "expr": _poly_leaf(((0, 1), "1"), ((0, 0), "-1/2"))},
                {"index": [2, 0], "expr": _poly_leaf(((1, 0), "3"))},
            ],
        },
    },
]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("descriptor", ZERO_WHERE_READ, ids=["constant-tau", "projection-tau"])
def test_conjugate_checks_its_coefficients_where_it_reads_them(capsys, tmp_path, descriptor, seed):
    path = _family_file(tmp_path, descriptor)
    code, report = _run(capsys, ["verify-family", path, "--seed", str(seed)])
    assert code == EXIT_PASS
    assert "constraint_report" not in report and report["report"]["pass"] is True


@pytest.mark.parametrize("tau", [_TAU_SHIFT, _TAU_REFLECT], ids=["shift", "reflect"])
def test_conjugated_constraint_violation_fails_with_witness(capsys, tmp_path, tau):
    descriptor = {"kind": "conjugated", "r": 1, "N": 2, "tau": tau, "inner": VIOLATING}
    code, report = _run(capsys, ["verify-family", _family_file(tmp_path, descriptor)])
    assert code == EXIT_FAIL
    assert report["failures"][0]["alpha"] == [2]


def _doubled(index):
    """c_index = 1 at r 1, N 2, conjugated by tau(x) = 2x: it sends the seed-0 sample 55/64 out."""
    inner = {
        "kind": "identity_generated",
        "r": 1,
        "N": 2,
        "coefficients": [{"index": index, "expr": _const(1, "1")}],
    }
    tau = {"rank": 1, "components": [[{"exponent": [1], "coeff": "2"}]]}
    return {"kind": "conjugated", "r": 1, "N": 2, "tau": tau, "inner": inner}


@pytest.mark.parametrize("index", [[1], [2]], ids=["violating", "admissible"])
def test_map_leaving_the_box_is_input_error_whatever_the_coefficients(capsys, tmp_path, index):
    # the map is refused before the constraint is checked, so a violating
    # support exits 2 like an admissible one, with the same line each time
    path = _family_file(tmp_path, _doubled(index))
    errors = []
    for _ in range(2):
        assert main(["verify-family", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == [
        "error: bad family descriptor: sample ['55/64'] maps to ['55/32'], outside the box\n"
    ] * 2


def test_overflow_names_the_first_node_evaluated(capsys, tmp_path):
    # c_(0,2) = 2^1030 x_1^20 overflows only where x_1 > 0.81: not at the
    # first seed-0 sample (x_1 = 25/64), but at the second (57/64).  c_(2,0)
    # overflows everywhere, under a scale node.  Values are computed alpha by
    # alpha, all samples each, so the first overflow is c_(0,2)'s; a fill
    # that went sample by sample would name the scale node instead.
    def poly(exponent, coeff):
        return {"kind": "poly", "dim": 2, "terms": [{"exponent": exponent, "coeff": coeff}]}

    descriptor = {
        "kind": "identity_generated",
        "r": 2,
        "N": 2,
        "coefficients": [
            {"index": [0, 2], "expr": poly([0, 20], str(2**1030))},
            {
                "index": [2, 0],
                "expr": {"kind": "scale", "factor": "1", "child": poly([0, 0], str(2**1100))},
            },
        ],
    }
    code = main(["verify-family", _family_file(tmp_path, descriptor), "--seed", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == (
        "error: descriptor values do not evaluate: "
        "overflow converting exact value at root.product[0]\n"
    )


def test_sum_overflow_names_the_sum_node(capsys, tmp_path):
    # 10^308 + 10^308 leaves the float range inside fsum; the error names
    # the sum node, as a product or u ln|u| that overflows names its own
    big = _const(1, str(10**308))
    descriptor = {"kind": "first_order_leibniz", "r": 1, "c": {"kind": "sum", "children": [big, big]}}
    code = main(["verify-family", _family_file(tmp_path, descriptor)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == (
        "error: descriptor values do not evaluate: non-finite value at root.product[0].sum\n"
    )


# ---- search-supports ----


def test_search_supports_rank1_order2(capsys):
    code, report = _run(capsys, ["search-supports", "--rank", "1", "--order", "2"])
    assert code == EXIT_PASS
    supports = [p["support"] for p in report["patterns"]]
    assert supports == [[], [[2]]]


def test_search_supports_budget(capsys):
    code, _ = _run(capsys, ["search-supports", "--rank", "3", "--order", "6"])
    assert code == EXIT_BUDGET
    # C(20, 10) - 1 indices: counted in closed form, never listed, so the
    # budget exit is immediate instead of a walk over 11^10 tuples
    code, report = _run(capsys, ["search-supports", "--rank", "10", "--order", "10"])
    assert code == EXIT_BUDGET and report is None
    code2, report = _run(
        capsys, ["search-supports", "--rank", "2", "--order", "3", "--budget", "9"]
    )
    assert code2 == EXIT_PASS
    assert report["count"] == 128


def test_search_supports_negative_max_size_is_input_error(capsys):
    code = main(["search-supports", "--max-support-size", "-1"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert "max-support-size" in captured.err
    assert captured.err == "error: --max-support-size must be >= 0, got -1\n"


def test_a_bad_flag_is_reported_before_the_descriptor_is_read(capsys, tmp_path):
    # every integer flag is checked before a subcommand reads anything
    code = main(["verify-family", str(tmp_path / "missing.json"), "--probes", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == "error: --probes must be >= 1, got 0\n"


# ---- verify-semigroup ----


def test_verify_semigroup_passes(capsys):
    code, report = _run(
        capsys,
        ["verify-semigroup", "--rank", "2", "--order", "3", "--seed", "5", "--probes", "30"],
    )
    assert code == EXIT_PASS
    assert report["pass"] is True
    assert len(report["sweeps"]) == 3  # rates 0, 1, -1


def test_verify_semigroup_tamper_fails(capsys):
    code, report = _run(
        capsys,
        ["verify-semigroup", "--rank", "1", "--order", "2", "--probes", "10", "--tamper"],
    )
    assert code == EXIT_FAIL
    assert report["failures"]
    assert report["sweeps"][0]["tampered_index"] == [2]


@pytest.mark.parametrize("rank,order", [(1, 0), (1, 1), (2, 1)])
def test_verify_semigroup_tamper_needs_order_two(capsys, rank, order):
    # the alpha = e instances are linear in a height-1 f_e, so scaling one
    # builds a sequence that still satisfies the identity
    argv = ["verify-semigroup", "--rank", str(rank), "--order", str(order), "--tamper"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == "error: --tamper needs --order >= 2\n"


def test_verify_semigroup_overflow_is_input_error(capsys):
    # a power that overflows while the table is built raises as it is.
    # Where every power is finite, the split products of a large order
    # overflow to inf of both signs, so a convolution has no sum: no
    # verdict, and the error names the first alpha whose column fails and
    # the first failing probe in it
    cases = [
        (["--order", "400", "--probes", "100"], "(34, 'Numerical result out of range')"),
        (
            ["--order", "400", "--probes", "3", "--seed", "2"],
            "convolution of alpha (370,) at probe 0 does not sum: -inf + inf in fsum",
        ),
        (["--order", "600"], "(34, 'Numerical result out of range')"),
    ]
    for args, message in cases:
        code = main(["verify-semigroup", "--rank", "1", *args])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == f"error: sequence values do not evaluate: {message}\n"


# ---- gen-family ----


def test_gen_family_pipes_into_verify_family(capsys, tmp_path):
    code, report = _run(capsys, ["gen-family", "--rank", "1", "--order", "3", "--seed", "42"])
    assert code == EXIT_PASS
    descriptor = report["family"]
    assert descriptor["kind"] == "identity_generated"
    assert report["pattern"]["certificate"] is None
    path = tmp_path / "generated.json"
    path.write_text(json.dumps(descriptor))
    code2, report2 = _run(capsys, ["verify-family", str(path), "--seed", "3"])
    assert code2 == EXIT_PASS
    assert report2["pass"] is True


def test_gen_family_explicit_support(capsys):
    code, report = _run(
        capsys,
        ["gen-family", "--rank", "1", "--order", "2", "--support", "[[2]]", "--seed", "1"],
    )
    assert code == EXIT_PASS
    assert report["pattern"]["support"] == [[2]]


def test_gen_family_rejects_impossible_support(capsys):
    code, _ = _run(
        capsys, ["gen-family", "--rank", "1", "--order", "2", "--support", "[[1]]"]
    )
    assert code == EXIT_INPUT


@pytest.mark.parametrize("support", ["[[2.5]]", "[[2.0]]", "[[true, 1]]"])
def test_gen_family_non_integer_support_is_input_error(capsys, support):
    # int() used to truncate [2.5] to the admissible index [2]
    code = main(["gen-family", "--rank", "1", "--order", "3", "--support", support])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert "integer" in captured.err


def test_gen_family_deeply_nested_support_is_input_error(capsys):
    support = "[" * 5000 + "]" * 5000
    code = main(["gen-family", "--rank", "1", "--order", "2", "--support", support])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: bad --support")


# ---- determinism and seeding ----


def _poly2(*terms):
    """A two-variable polynomial leaf from (exponent, coeff) pairs."""
    return {
        "kind": "poly",
        "dim": 2,
        "terms": [{"exponent": list(e), "coeff": c} for e, c in terms],
    }


def _sum(*children):
    return {"kind": "sum", "children": list(children)}


def _prod(*children):
    return {"kind": "product", "children": list(children)}


def _sugar(kind, poly, field):
    return {"kind": kind, "dim": 2, "poly": [{"exponent": poly, "coeff": "1"}], "field": field}


_ONE, _X0, _X1 = _poly2(((0, 0), "1")), _poly2(((1, 0), "1")), _poly2(((0, 1), "1"))
_HALF = _poly2(((0, 0), "1/2"))
# b = (<grad(x0 x1), (1, x0)>, x1 / 3),
# c = (<Hess(x0^2 x1) (1, x0), (1, x0)>, <grad(x1^2), (1, 1)>)
_SUGAR_B = [_sugar("graddot", [1, 1], [_ONE, _X0]), {"kind": "scale", "factor": "1/3", "child": _X1}]
_SUGAR_C = [_sugar("hessquad", [2, 1], [_ONE, _X0]), _sugar("graddot", [0, 2], [_ONE, _ONE])]


def _pair(a, b, c):
    return {"kind": "second_order", "r": 2, "smoothness": 2, "a": a, "b": b, "c": c}


# (argv, descriptor, exit code, sha256 of stdout).  A descriptor is written
# to family.json in the working directory; a list stands for the gen-family
# argv whose family is written.  Each digest was recorded before the code
# behind its report was rewritten.
PINNED = [
    (
        ["search-supports", "--rank", "2", "--order", "4"],
        None,
        EXIT_PASS,
        "14d42ef7df652098703ab6ffdfad25425a87bfe6c8a68e337a8952ccfb696e15",
    ),
    (
        ["search-supports", "--rank", "1", "--order", "12", "--max-support-size", "3"],
        None,
        EXIT_PASS,
        "4a80f516e47cfa0d69291225a6653f70c6d802abb5c1c3476765b0d9670a6d61",
    ),
    (
        ["gen-family", "--rank", "2", "--order", "3", "--seed", "5"],
        None,
        EXIT_PASS,
        "0b6eb7fa96c4dc1830c21a1641d8a5d57d488560596c8b227e4a9ab0c104ea93",
    ),
    (
        ["verify-leibniz", "--rank", "2", "--order", "4", "--pairs", "3"],
        None,
        EXIT_PASS,
        "0e23ee3eea553e956d96027070f9f470a6446dd8dd8b5a7c034eb576c912a59d",
    ),
    (
        ["verify-family", "family.json"],
        {"kind": "derivative", "r": 2, "N": 3},
        EXIT_PASS,
        "6f7ffb3c83aae6707fec4abd4cf1ca6ec078d0a08db44cec151435b01f3b3c81",
    ),
    (
        ["verify-family", "family.json"],
        ["gen-family", "--rank", "2", "--order", "3", "--seed", "5"],
        EXIT_PASS,
        "6059a4326617e3b778e1018edd61c281f563d36e963ab4d6f4184c337011add8",
    ),
    (
        ["verify-family", "family.json"],
        VIOLATING,
        EXIT_FAIL,
        "3a323de21748edf9c4a9fcc64a05c1e4888510cfd45af4239260c792d70fc2e3",
    ),
    (
        ["verify-semigroup", "--rank", "2", "--order", "3", "--tamper"],
        None,
        EXIT_FAIL,
        "d3c0e61ee44bc609ec3d1d807c66c913948b2638e8ff5a51eb900755ca933819",
    ),
    (
        # a repeated index, and a band order unlike the lexicographic one:
        # the support is deduplicated and drawn in band order
        [
            "gen-family", "--rank", "2", "--order", "3",
            "--support", "[[3,0],[0,3],[2,0],[3,0]]", "--seed", "7",
        ],
        None,
        EXIT_PASS,
        "43ea2b1e9c193b581b967b7494e11448eae0eeaa9f6bb0e99ef318f106fec3c7",
    ),
    (
        # a sampled second-order pair on two variables: its bytes rest on the
        # samples and on the float values of sums, products and u ln|u|
        ["verify-family", "family.json", "--seed", "3"],
        _pair(_HALF, _SUGAR_B, _SUGAR_C),
        EXIT_PASS,
        "01d65175f2ab8b627121a4dec5e4491758a7c5b95bb3b046ae4cd383b0496544",
    ),
]


@pytest.mark.parametrize(
    "argv,descriptor,code,digest",
    PINNED,
    ids=[f"argv{i}-{case[-1]}" for i, case in enumerate(PINNED)],
)
def test_report_bytes_are_pinned(capsys, monkeypatch, tmp_path, argv, descriptor, code, digest):
    # the descriptor path is part of the reported config, so it stays relative
    monkeypatch.chdir(tmp_path)
    if isinstance(descriptor, list):
        assert main(descriptor) == EXIT_PASS
        descriptor = json.loads(capsys.readouterr().out)["family"]
    if descriptor is not None:
        (tmp_path / "family.json").write_text(json.dumps(descriptor))
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# _SUGAR_B and _SUGAR_C by hand: the nonzero derivatives times the field components
_EXPANDED_B = [
    _sum(_prod(_X1, _ONE), _prod(_X0, _X0)),
    _prod(_poly2(((0, 0), "1/3")), _X1),
]
_TWO_X0, _TWO_X1 = _poly2(((1, 0), "2")), _poly2(((0, 1), "2"))
_EXPANDED_C = [
    _sum(_prod(_TWO_X1, _ONE, _ONE), _prod(_TWO_X0, _ONE, _X0), _prod(_TWO_X0, _X0, _ONE)),
    _sum(_prod(_TWO_X1, _ONE)),
]


def _band_family(c20, c11, c02):
    coefficients = [
        {"index": [2, 0], "expr": c20},
        {"index": [1, 1], "expr": c11},
        {"index": [0, 2], "expr": c02},
    ]
    return {"kind": "identity_generated", "r": 2, "N": 2, "coefficients": coefficients}


# (descriptor written with scale/graddot/hessquad, the same by hand, sha256 of
# its seed-1 report without the family echo).  The digests were recorded
# while those kinds were node classes of their own.
SUGAR = [
    (
        _band_family(
            {"kind": "scale", "factor": "3/2", "child": _poly2(((1, 0), "1"), ((0, 0), "1"))},
            _sugar("graddot", [2, 1], [_ONE, _X1]),
            _sugar("hessquad", [2, 1], [_X0, _HALF]),
        ),
        _band_family(
            _prod(_poly2(((0, 0), "3/2")), _poly2(((1, 0), "1"), ((0, 0), "1"))),
            _sum(_prod(_poly2(((1, 1), "2")), _ONE), _prod(_poly2(((2, 0), "1")), _X1)),
            _sum(
                _prod(_TWO_X1, _X0, _X0),
                _prod(_TWO_X0, _X0, _HALF),
                _prod(_TWO_X0, _HALF, _X0),
            ),
        ),
        "4b8a2a334687b70f04f9b91d878cf349b05d98c077ee4b9bf5155b9cbecb5ebc",
    ),
    (
        _pair({"kind": "scale", "factor": "-2", "child": _ONE}, _SUGAR_B, _SUGAR_C),
        _pair(_prod(_poly2(((0, 0), "-2")), _ONE), _EXPANDED_B, _EXPANDED_C),
        "dcb82e4a37b82e2772d525fe1cc9f5da38b73ac4c856126044e1ec3539467822",
    ),
    (
        _pair({"kind": "scale", "factor": "0", "child": _X0}, _SUGAR_B, _SUGAR_C),
        _pair(_prod(_poly2(), _X0), _EXPANDED_B, _EXPANDED_C),
        "a95f1d94bdecb1093d46aba7203c14c0bc2356fbe0d48945360a905820f63ca0",
    ),
]


@pytest.mark.parametrize(
    "descriptor,expanded,digest", SUGAR, ids=["log-band", "log-pair", "exact-pair"]
)
def test_input_only_kinds_read_as_sums_and_products(
    capsys, monkeypatch, tmp_path, descriptor, expanded, digest
):
    monkeypatch.chdir(tmp_path)
    outs = []
    for data in (descriptor, expanded):
        (tmp_path / "family.json").write_text(json.dumps(data))
        assert main(["verify-family", "family.json", "--seed", "1"]) == EXIT_PASS
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    del report["report"]["family"]
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# (descriptor, seed, sha256 of stdout) of exact families that pass in their
# jets.  The digests were recorded while every probe pair was drawn before
# the family was checked.
FORMAL_PASSES = [
    (
        {"kind": "derivative", "r": 3, "N": 3},
        0,
        "ea2d9b8ef40fd2f7f27a52619b8b573ad5065ca1578ddb56c20f28597443b2f5",
    ),
    (
        {"kind": "trivial", "r": 2, "N": 4},
        2,
        "c6ddaf6df8203f7f0df4745bb494402e77e63e85314af0ef2cc3b0ea62150d18",
    ),
    (
        _conjugated({"kind": "derivative", "r": 1, "N": 2}),
        0,
        "e6cfe59620bb7808a8925e99c5ca814de4e886b1d7fc6c590f0d6ac23cf95d99",
    ),
    (
        SUGAR[2][0],  # the exact pair, a = 0 * x0
        1,
        "cf068ba2ab43fcc55d0e61c811defecd53d075d37c675b15f2fd35496b1dbe42",
    ),
]


@pytest.mark.parametrize(
    "descriptor,seed,digest",
    FORMAL_PASSES,
    ids=["derivative", "trivial", "conjugated-derivative", "exact-pair"],
)
def test_a_formal_pass_draws_no_probe(capsys, monkeypatch, tmp_path, descriptor, seed, digest):
    # no probe is applied, so none is drawn, and the report keeps its bytes
    def refuse(*args, **kwargs):
        pytest.fail("a probe pair was drawn on a formal pass")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "family.json").write_text(json.dumps(descriptor))
    monkeypatch.setattr(moment_leibniz.momentfam, "random_polynomial", refuse)
    assert main(["verify-family", "family.json", "--seed", str(seed)]) == EXIT_PASS
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reports_are_byte_identical_for_same_config(tmp_path):
    argv = ["verify-semigroup", "--rank", "2", "--order", "2", "--seed", "9", "--probes", "20"]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(argv + ["--out", str(out_a)]) == EXIT_PASS
    assert main(argv + ["--out", str(out_b)]) == EXIT_PASS
    assert out_a.read_bytes() == out_b.read_bytes()


def test_different_seed_changes_probes_not_verdict(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    main(["verify-leibniz", "--seed", "1", "--pairs", "3", "--out", str(out_a)])
    main(["verify-leibniz", "--seed", "2", "--pairs", "3", "--out", str(out_b)])
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["pass"] and b["pass"]
    assert a["config_hash"] != b["config_hash"]


def test_out_flag_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _ = _run(capsys, ["verify-leibniz", "--pairs", "2", "--out", str(out)])
    assert code == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["pass"] is True


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_path_is_input_error(capsys, tmp_path, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
    code = main(["verify-leibniz", "--pairs", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write report: ")


def test_module_entry_point():
    package_root = str(Path(moment_leibniz.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "moment_leibniz.cli", "verify-leibniz", "--pairs", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == EXIT_PASS
    assert json.loads(proc.stdout)["pass"] is True


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Each call starts a fresh interpreter, so every module the CLI imports is paid for."""
    package_root = str(Path(moment_leibniz.__file__).parents[1])
    code = "import sys, moment_leibniz.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],  # -S: no site hook imports anything first
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# the package modules a call of each subcommand leaves unimported
UNLOADED = [
    (["verify-leibniz", "--pairs", "1"], ["coeffsolve", "funcmodel", "momentfam", "semigroup"]),
    (["search-supports", "--order", "2"], ["momentfam", "semigroup"]),
    (["gen-family", "--order", "2"], ["momentfam", "semigroup"]),
    (["verify-family", "family.json", "--probes", "1"], ["semigroup"]),
    (["verify-semigroup", "--probes", "1"], ["coeffsolve", "momentfam"]),
]


@pytest.mark.parametrize("argv,unloaded", UNLOADED, ids=[argv[0] for argv, _ in UNLOADED])
def test_a_call_imports_only_the_modules_it_runs(tmp_path, argv, unloaded):
    (tmp_path / "family.json").write_text(json.dumps({"kind": "derivative", "r": 1, "N": 2}))
    package_root = str(Path(moment_leibniz.__file__).parents[1])
    code = (
        "import sys\n"
        "from moment_leibniz.cli import main\n"
        f"code = main({argv + ['--out', 'report.json']!r})\n"
        f"print(code, sorted(m for m in {unloaded!r} if 'moment_leibniz.' + m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],  # -S: no site hook imports anything first
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{EXIT_PASS} []\n"


def test_main_does_not_build_a_parser(capsys, monkeypatch):
    argv = ["search-supports", "--rank", "1", "--order", "2"]
    assert main(argv) == EXIT_PASS
    expected = capsys.readouterr().out

    def build_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr("moment_leibniz.cli.build_parser", build_parser)
    assert main(argv) == EXIT_PASS
    assert capsys.readouterr().out == expected


def test_repeated_calls_leak_no_state(capsys, tmp_path, monkeypatch):
    # one config per subcommand, each run in this process after the calls
    # before it, then compared with the same argv in a fresh interpreter
    monkeypatch.chdir(tmp_path)
    (tmp_path / "family.json").write_text(json.dumps({"kind": "derivative", "r": 2, "N": 2}))
    usage = io.StringIO()
    with contextlib.redirect_stderr(usage), pytest.raises(SystemExit) as rejected:
        main(["search-supports", "--rank", "x"])
    assert rejected.value.code == EXIT_INPUT
    assert usage.getvalue().startswith("usage: moment-leibniz search-supports")
    assert "invalid int value: 'x'" in usage.getvalue()
    semigroup = ["verify-semigroup", "--rank", "1", "--order", "2", "--probes", "5"]
    leibniz = ["verify-leibniz", "--pairs", "2"]
    calls = [
        (["search-supports", "--rank", "1", "--order", "2"], EXIT_PASS),
        (semigroup + ["--tamper"], EXIT_FAIL),
        (semigroup, EXIT_PASS),
        (leibniz + ["--out", "report.json"], EXIT_PASS),
        (leibniz, EXIT_PASS),
        (["gen-family", "--rank", "2", "--order", "3", "--seed", "5"], EXIT_PASS),
        (["verify-family", "family.json", "--probes", "2"], EXIT_PASS),
    ]
    reports = []
    for argv, code in calls:
        assert main(argv) == code
        out = capsys.readouterr().out
        reports.append(Path("report.json").read_text() if "--out" in argv else out)
        assert (out == "") == ("--out" in argv)
    assert reports[3] == reports[4]  # --out is not part of the report
    package_root = str(Path(moment_leibniz.__file__).parents[1])
    for (argv, code), report in zip(calls, reports):
        Path("report.json").unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "moment_leibniz", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": package_root},
        )
        assert proc.returncode == code
        fresh = Path("report.json").read_text() if "--out" in argv else proc.stdout
        assert fresh == report, argv


# ---- report emission ----


class _Int(int):
    pass


class _Float(float):
    pass


# what json.loads returns and to_json builds: exact scalar types, lists, str keys
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN, +-inf and -0.0 included
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.text(),  # non-ASCII, control and quote characters included
    st.text(alphabet='"\\\x00\x1f\x7f\u00e9\u2028\U0001f600'),
)


def _record_lists(children):
    """Lists of 0-6 records over one ``str`` key set or two, as reports hold them.

    Each key draws all its values from one strategy: any scalar, floats with
    their specials, integers, strings that need escapes, lists of unequal
    lengths, or anything at all.
    """
    columns = [
        _JSON_SCALARS,
        st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
        st.integers() | st.booleans() | st.none(),
        st.text(alphabet='"\\\x00\x1f\x7f\u00e9\u2028\U0001f600'),
        st.lists(st.integers(), max_size=3),
        st.lists(children, max_size=3),
        st.just({}) | children,
    ]

    def shape(key_sets):  # a record strategy over one drawn key set
        return key_sets.flatmap(
            lambda names: st.tuples(*[st.sampled_from(columns) for _ in names]).map(
                lambda picked: st.fixed_dictionaries(dict(zip(names, picked)))
            )
        )

    names = st.lists(st.text(), max_size=4, unique=True)
    return st.lists(shape(names), min_size=1, max_size=2).flatmap(
        lambda records: st.lists(st.one_of(records), max_size=6)
    )


_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
        _record_lists(children),
    ),
    max_leaves=25,
)


def _emitted(obj) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit(obj, None)
    return out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON_TREES)
def test_emit_writes_the_stdlib_indent_format(obj):
    assert _emitted(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        Fraction(1, 3),
        {"a": [Fraction(1, 3)]},
        {(1,): 2},
        # a bad value at the end of a long column of good ones
        [1.0] * 50 + [Fraction(1, 3)],
        [{"a": 1.0}] * 5 + [{"a": Fraction(1, 3)}],
        [[1], [set()]],
    ],
)
def test_emit_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _emitted(value)


@pytest.mark.parametrize(
    "value",
    [
        (1, 2),
        {"a": [1, (2,)]},
        {1: 2},
        {1.5: 2},
        {True: 2},
        {None: 2},
        _Int(1),
        [1, 2, _Int(3)],
        {"a": _Float(1.5)},
        [{"a": 1.0}, {"a": _Float(2.0)}],
    ],
    ids=[
        "tuple",
        "nested-tuple",
        "int-key",
        "float-key",
        "bool-key",
        "none-key",
        "int-subclass",
        "int-subclass-in-column",
        "float-subclass",
        "float-subclass-in-records",
    ],
)
def test_emit_rejects_what_no_report_holds(value):
    # json writes each of these; a report holds none of them
    json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _emitted(value)


@pytest.mark.parametrize(
    "depth, size, digest",
    [
        (980, 1932494, "eb4bbb9ba3fe3f7a9c05fb374490c8f828f097df271d8336ebcf1c249fa1fe42"),
        # the deepest list that verify-family reads; one more is "nests too deeply"
        (989, 1968008, "396cd11c669efc31405ac122a931120eed9a5cab55fa53db4ca2627e86c532ff"),
    ],
    ids=["980", "989"],
)
def test_deeply_nested_echo_keeps_its_bytes(tmp_path, depth, size, digest):
    # a violating descriptor is echoed whole, here with an ignored list
    # nested ``depth`` deep: about 1.9 MB of report.  The digests are the
    # stdlib encoder's output for these inputs; the CLI runs in a fresh
    # interpreter so that pytest's frames do not count against the
    # recursion limit.
    text = json.dumps(VIOLATING)[:-1] + ', "ignored": ' + "[" * depth + "]" * depth + "}"
    (tmp_path / "family.json").write_text(text)
    # the descriptor path is part of the reported config, so it stays relative
    package_root = str(Path(moment_leibniz.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "moment_leibniz", "verify-family", "family.json"],
        capture_output=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == EXIT_FAIL
    assert proc.stderr == b""
    assert len(proc.stdout) == size
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# ---- the exit-code contract under random descriptors ----

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)


@st.composite
def _poly(draw, dim):
    return [
        {
            "exponent": draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim)),
            "coeff": f"{draw(st.integers(-4, 4))}/{draw(st.integers(1, 3))}",
        }
        for _ in range(draw(st.integers(0, 2)))
    ]


_EXPR_KINDS = ["poly", "sum", "product", "scale", "xlogabs", "graddot", "hessquad"]


@st.composite
def _expr(draw, dim, depth=1):
    """An expression of any JSON kind; a field component may have the other dim."""
    kind = draw(st.sampled_from(_EXPR_KINDS)) if depth else "poly"
    if kind == "poly":
        return {"kind": kind, "dim": dim, "terms": draw(_poly(dim))}
    sub = _expr(dim, depth - 1)
    if kind in ("sum", "product"):
        return {"kind": kind, "children": draw(st.lists(sub, min_size=1, max_size=2))}
    if kind == "scale":
        factor = f"{draw(st.integers(-3, 3))}/{draw(st.integers(1, 2))}"
        return {"kind": kind, "factor": factor, "child": draw(sub)}
    if kind == "xlogabs":
        return {"kind": kind, "child": draw(sub)}
    component = st.one_of(sub, _expr(3 - dim, 0))
    field = [draw(component) for _ in range(dim)]
    return {"kind": kind, "dim": dim, "poly": draw(_poly(dim)), "field": field}


def _halved(dim, i):
    """The tau component x_i / 2, which keeps the unit box samples inside it."""
    return [{"exponent": [int(j == i) for j in range(dim)], "coeff": "1/2"}]


@st.composite
def _descriptor(draw, conjugated=True):
    """A small descriptor of any kind, up to two of its fields replaced by JSON scalars."""
    kinds = [
        "trivial",
        "derivative",
        "identity_generated",
        "first_order_leibniz",
        "second_order",
    ]
    kind = draw(st.sampled_from(kinds + ["conjugated"] if conjugated else kinds))
    r, n = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    if kind in ("trivial", "derivative"):
        data = {"kind": kind, "r": r, "N": n}
    elif kind == "identity_generated":
        indices = [tuple(a) for a in enumerate_height_at_most(r, n) if a.height >= 1]
        chosen = draw(st.lists(st.sampled_from(indices), max_size=3)) if indices else []
        coefficients = [{"index": list(i), "expr": draw(_expr(r))} for i in chosen]
        data = {"kind": kind, "r": r, "N": n, "coefficients": coefficients}
    elif kind == "first_order_leibniz":
        data = {"kind": kind, "r": r, "c": draw(_expr(r))}
    elif kind == "second_order":
        # the smoothness clauses hold: b = 0 at smoothness 0, c = 0 below 2
        smoothness = draw(st.integers(0, 2))

        def field(free):
            zero = {"kind": "poly", "dim": r, "terms": []}
            return [draw(_expr(r)) if free else zero for _ in range(r)]

        a = draw(_expr(r))
        b, c = field(smoothness > 0), field(smoothness > 1)
        data = {"kind": kind, "r": r, "N": 2, "smoothness": smoothness, "a": a, "b": b, "c": c}
    else:
        inner = draw(_descriptor(conjugated=False))
        r = inner["r"] if inner.get("r") in (1, 2) else r
        components = [draw(st.one_of(st.just(_halved(r, i)), _poly(r))) for i in range(r)]
        tau = {"rank": r, "components": components}
        data = {"kind": kind, "r": r, "N": inner.get("N", 1), "tau": tau, "inner": inner}
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=2, unique=True)):
        data[key] = draw(_SCALARS)
    return data


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    _descriptor(),
    st.integers(1, 2),
    st.integers(8, 9),
    st.integers(0, 3),
)
def test_verify_family_exit_code_contract(descriptor, probes, samples, seed):
    # no exception escapes; exit 1 carries witnesses, exit 0 a pass, exit 2
    # no report; a report re-dumps to its own bytes.  The descriptor goes in
    # on stdin because hypothesis does not reset function-scoped fixtures.
    argv = ["verify-family", "-", "--probes", str(probes)]
    argv += ["--samples", str(samples), "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(descriptor))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INPUT)
    if code == EXIT_INPUT:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        return
    text = out.getvalue()
    report = json.loads(text)
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == text
    if code == EXIT_FAIL:
        assert report["pass"] is False and report["failures"]
    else:
        assert report["pass"] is True


# the least exact value that float() refuses: it would round to 2^1024
_FLOAT_CEILING = 2**1024 - 2**970


@st.composite
def _overflowing_family(draw):
    """An ``identity_generated`` descriptor, its seed and sample count.

    Each coefficient is 2^k x_i^e, with k the least exponent from 1010 up
    (plus 0 to 2) at which it overflows at a drawn sample.  With e > 0 it
    overflows at some samples only.
    """
    r, order = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    samples, seed = draw(st.integers(8, 9)), draw(st.integers(0, 3))
    points = Domain.unit(r, samples, seed).sample_points
    indices = enumerate_height_at_most(r, order)[1:]
    coefficients = []
    for alpha in draw(st.lists(st.sampled_from(indices), min_size=1, max_size=3, unique=True)):
        i, e = draw(st.integers(0, r - 1)), draw(st.integers(0, 8))
        x = draw(st.sampled_from(points))[i]
        k = 1010
        while 2**k * x**e < _FLOAT_CEILING:
            k += 1
        exponent = tuple(e if j == i else 0 for j in range(r))
        leaf = PolyLeaf(Polynomial.monomial(exponent, 2 ** (k + draw(st.integers(0, 2)))))
        coefficients.append({"index": alpha.to_json(), "expr": leaf.to_json()})
    family = {"kind": "identity_generated", "r": r, "N": order, "coefficients": coefficients}
    return family, seed, samples


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_overflowing_family())
def test_verify_family_overflow_is_a_deterministic_input_error(case):
    # whether the constraint or the moment check meets the overflow first,
    # the exit is 2 with no report, and a second call writes the same error
    descriptor, seed, samples = case
    argv = ["verify-family", "-", "--probes", "1", "--samples", str(samples), "--seed", str(seed)]
    errors = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(json.dumps(descriptor))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            sys.stdin = stdin
        assert code == EXIT_INPUT
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: descriptor values do not evaluate: ")
        errors.append(err.getvalue())
    assert errors[0] == errors[1]


# ---- the exit-code contract under random flags ----

_TOLS = ["1e-12", "1e-9", "0.5"]
_BAD_TOLS = ["nan", "inf", "-inf", "0", "-1e-9"]
_MALFORMED = ["", "[[2]", "[[2],]", "not json", "{", "[[1, 2]] x"]
_NOT_INDICES = ["null", "5", '"x"', '{"a": 1}', "[[]]", "[[2.5]]", "[[true]]", "[2]", '[["1"]]']


@st.composite
def _support(draw):
    """A --support value: a list of small integer lists, or JSON that is not one."""
    lists = st.lists(st.lists(st.integers(-1, 4), min_size=1, max_size=3), max_size=3)
    return draw(
        st.one_of(
            lists.map(json.dumps),
            st.sampled_from(_NOT_INDICES),
            st.sampled_from(_MALFORMED),
        )
    )


@st.composite
def _argv(draw):
    """Small random flags for every subcommand except verify-family.

    Half the examples draw every flag from its valid range, so that they
    reach the subcommand; the rest may also draw values below it.  Flags
    are passed as ``--flag=value``, as a user passes a value such as
    ``-inf`` that argparse would otherwise read as an option.
    """
    command = draw(
        st.sampled_from(["verify-leibniz", "search-supports", "verify-semigroup", "gen-family"])
    )
    valid = draw(st.booleans())

    def value(lowest, top):
        return draw(st.integers(lowest if valid else -1, top))

    tols = _TOLS if valid else _TOLS + _BAD_TOLS
    flags = {
        "rank": value(1, 2),
        "order": value(0, 3),
        "seed": draw(st.integers(0, 3)),
        "tol": draw(st.sampled_from(tols)),
    }
    if draw(st.booleans()):
        flags["budget"] = value(1, 12)
    if command == "verify-leibniz":
        flags["pairs"] = value(1, 3)
        flags["degree"] = value(0, 4)
    elif command == "search-supports":
        if draw(st.booleans()):
            flags["max-support-size"] = value(0, 5)
    elif command == "verify-semigroup":
        flags["probes"] = value(1, 3)
    elif draw(st.booleans()):
        flags["support"] = draw(_support())
    argv = [command] + [f"--{name}={v}" for name, v in flags.items()]
    if command == "verify-semigroup" and draw(st.booleans()):
        argv.append("--tamper")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argv())
def test_other_subcommands_exit_code_contract(argv):
    # as for verify-family, plus exit 3 (over budget), which carries no report
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_BUDGET)
    if code in (EXIT_INPUT, EXIT_BUDGET):
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        return
    text = out.getvalue()
    report = json.loads(text)
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == text
    if code == EXIT_FAIL:
        assert report["pass"] is False and report["failures"]
    else:
        assert report["pass"] is True
