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


def test_negative_degree_is_input_error(capsys):
    code = main(["verify-leibniz", "--degree", "-1"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert "degree" in captured.err


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


# the error line of the cases above that name a malformed N: every kind names
# it, and none compares it with an int first
_BAD_VALUE_MESSAGES = {
    "N-str-derivative": "order must be an integer, got 'x'",
    "N-str-trivial": "order must be an integer, got 'x'",
    "N-str-identity": "order must be an integer, got 'x'",
    "N-negative-identity": "order must be >= 0, got -1",
    "N-float-identity-empty": "order must be an integer, got 2.5",
    "N-str-first-order": "first_order_leibniz N must be 1, got 'x'",
    "N-str-second-order": "second_order N must be 2, got 'x'",
    "N-str-conjugated": "conjugated N must be the inner order 2, got 'x'",
}


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


def _vanishing_on_seed_zero_samples() -> dict:
    """c_(1) = 10^8 prod_k (x - s_k) over the 12 seed-0 samples s_k of Domain.unit(1)."""
    c = Polynomial.constant(1, 10**8)
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
    # at order 400 the split products overflow to inf of both signs, so a
    # convolution has no sum: no verdict, and the error names the instance
    code = main(["verify-semigroup", "--rank", "1", "--order", "400", "--probes", "100"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: sequence values do not evaluate: convolution of alpha (")
    assert " at probe " in captured.err


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
    proc = subprocess.run(
        [sys.executable, "-m", "moment_leibniz.cli", "verify-leibniz", "--pairs", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_PASS
    assert json.loads(proc.stdout)["pass"] is True


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


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.builds(_Int, st.integers()),
    st.floats(),  # NaN, +-inf and -0.0 included
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.text(),  # non-ASCII, control and quote characters included
    st.text(alphabet='"\\\x00\x1f\x7f\u00e9\u2028\U0001f600'),
)
_JSON_KEYS = [st.text(), st.integers(), st.floats(), st.booleans(), st.none()]
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        # one key type per dict: mixed types do not sort, in json as here
        *[st.dictionaries(keys, children, max_size=4) for keys in _JSON_KEYS],
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


@pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 3), {"a": [Fraction(1, 3)]}, {(1,): 2}])
def test_emit_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _emitted(value)


def test_deeply_nested_echo_keeps_its_bytes(tmp_path):
    # a violating descriptor is echoed whole, here with an ignored list
    # nested 980 deep: 1.93 MB of report.  The digest is the stdlib
    # encoder's output for this input, taken before reports had their own
    # writer; the CLI runs in a fresh interpreter so that pytest's frames
    # do not count against the recursion limit.
    text = json.dumps(VIOLATING)[:-1] + ', "ignored": ' + "[" * 980 + "]" * 980 + "}"
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
    assert len(proc.stdout) == 1932494
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "eb4bbb9ba3fe3f7a9c05fb374490c8f828f097df271d8336ebcf1c249fa1fe42"
    )


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
