"""CLI subcommands: reports, exit codes, determinism and seeding."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_leibniz.multiindex import enumerate_height_at_most
from moment_leibniz.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_PASS,
    SEED_ENV_VAR,
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


def test_verify_family_each_kind(capsys, tmp_path):
    descriptors = [
        {"kind": "trivial", "r": 1, "N": 2},
        {"kind": "derivative", "r": 2, "N": 2},
        {
            "kind": "conjugated",
            "r": 1,
            "N": 2,
            "tau": {
                "rank": 1,
                "components": [
                    [
                        {"exponent": [0], "coeff": "1"},
                        {"exponent": [1], "coeff": "-1"},
                    ]
                ],
            },
            "inner": {"kind": "derivative", "r": 1, "N": 2},
        },
        {
            "kind": "first_order_leibniz",
            "r": 1,
            "c": {"kind": "poly", "dim": 1, "terms": [{"exponent": [1], "coeff": "1"}]},
        },
    ]
    for descriptor in descriptors:
        code, report = _run(
            capsys, ["verify-family", _family_file(tmp_path, descriptor), "--seed", "3"]
        )
        assert code == EXIT_PASS, descriptor["kind"]
        assert report["pass"] is True
        assert report["report"]["family"]["kind"] == descriptor["kind"]


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
    ],
)
def test_verify_family_bad_values_are_input_errors(capsys, tmp_path, descriptor):
    # a descriptor the verifier cannot evaluate is invalid input (exit 2),
    # never a failed identity (exit 1) nor a pass
    code = main(["verify-family", _family_file(tmp_path, descriptor)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# ---- search-supports ----


def test_search_supports_rank1_order2(capsys):
    code, report = _run(capsys, ["search-supports", "--rank", "1", "--order", "2"])
    assert code == EXIT_PASS
    supports = [p["support"] for p in report["patterns"]]
    assert supports == [[], [[2]]]


def test_search_supports_budget(capsys):
    code, _ = _run(capsys, ["search-supports", "--rank", "3", "--order", "6"])
    assert code == EXIT_BUDGET
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


# ---- determinism and seeding ----


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


def test_env_var_overrides_seed_flag(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "123")
    code, report = _run(capsys, ["verify-leibniz", "--seed", "7", "--pairs", "2"])
    assert code == EXIT_PASS
    assert report["seed"] == 123
    assert report["config"]["seed"] == 123
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    code2, _ = _run(capsys, ["verify-leibniz", "--pairs", "2"])
    assert code2 == EXIT_INPUT


def test_out_flag_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _ = _run(capsys, ["verify-leibniz", "--pairs", "2", "--out", str(out)])
    assert code == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["pass"] is True


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "moment_leibniz.cli", "verify-leibniz", "--pairs", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_PASS
    assert json.loads(proc.stdout)["pass"] is True


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


def _halved(dim, i):
    """The tau component x_i / 2, which keeps the unit box samples inside it."""
    return [{"exponent": [int(j == i) for j in range(dim)], "coeff": "1/2"}]


@st.composite
def _descriptor(draw, conjugated=True):
    """A small descriptor of any kind, up to two of its fields replaced by JSON scalars."""
    kinds = ["trivial", "derivative", "identity_generated", "first_order_leibniz"]
    kind = draw(st.sampled_from(kinds + ["conjugated"] if conjugated else kinds))
    r, n = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    if kind in ("trivial", "derivative"):
        data = {"kind": kind, "r": r, "N": n}
    elif kind == "identity_generated":
        indices = [a.entries for a in enumerate_height_at_most(r, n) if a.height >= 1]
        chosen = draw(st.lists(st.sampled_from(indices), max_size=3)) if indices else []
        coefficients = [
            {"index": list(i), "expr": {"kind": "poly", "dim": r, "terms": draw(_poly(r))}}
            for i in chosen
        ]
        data = {"kind": kind, "r": r, "N": n, "coefficients": coefficients}
    elif kind == "first_order_leibniz":
        data = {"kind": kind, "r": r, "c": {"kind": "poly", "dim": r, "terms": draw(_poly(r))}}
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
