"""The package namespace: lazy, with the names it had when it was eager.

``import moment_leibniz`` imports no submodule.  A public name, or a
submodule's own name, is imported from its submodule when it is first
read.  An eager import failed at once when a re-exported name was
renamed; a lazy one fails only when the name is read, so these tests read
every name, and run on its own a test that reads a submodule as a package
attribute before anything else has imported that submodule.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moment_leibniz

ROOT = Path(__file__).resolve().parent.parent

# what the package re-exported from each submodule when it imported them all
REEXPORTED = {
    "multiindex": [
        "DimensionMismatch", "MultiIndex", "binom", "convolution_terms", "enumerate_below",
        "enumerate_height_at_most",
    ],
    "polycalc": [
        "Polynomial", "RationalPoint", "check_leibniz", "check_leibniz_all", "compose",
        "convolution_sum", "dalpha", "eval_poly", "leibniz_rhs", "random_polynomial",
    ],
    "funcmodel": [
        "CheckReport", "Domain", "FuncExpr", "Jet", "NonFiniteValue", "NotPolynomial",
        "PolyLeaf", "Product", "SignedPower", "Sum", "TauMap", "XLogAbs", "as_polynomial",
        "const_expr", "eval_expr", "expr_from_json", "grad_dot", "hess_quad", "worse",
    ],
    "coeffsolve": [
        "BudgetExceeded", "CoeffFamily", "InvalidSupport", "band", "check_constraint",
        "constraint_indices", "enumerate_valid_constant_supports", "forced_zero_analysis",
        "index_set_size", "random_valid_family",
    ],
    "momentfam": [
        "MomentReport", "OperatorFamily", "ProbePairs", "check_multiplicative", "conjugate",
        "default_probe_pairs", "family_from_json", "make_derivative",
        "make_first_order_leibniz", "make_identity_generated", "make_power_sign",
        "make_second_order_leibniz", "make_trivial", "verify_moment",
    ],
    "semigroup": [
        "MomentSeq", "make_exponential_moment_seq", "random_probe_pairs", "tampered",
        "verify_moment_seq",
    ],
}
PUBLIC = sorted(name for module, names in REEXPORTED.items() for name in (module, *names))


def test_every_name_is_its_submodules_object():
    for module, names in REEXPORTED.items():
        submodule = importlib.import_module(f"moment_leibniz.{module}")
        assert getattr(moment_leibniz, module) is submodule
        for name in names:
            assert getattr(moment_leibniz, name) is getattr(submodule, name), name
    assert moment_leibniz.verify_moment is moment_leibniz.momentfam.verify_moment


def test_import_loads_no_submodule_and_lists_every_name():
    code = (
        "import sys, moment_leibniz\n"
        "listed = [n for n in dir(moment_leibniz) if not n.startswith('_')]\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('moment_leibniz.'))\n"
        "star = {}\n"
        "exec('from moment_leibniz import *', star)\n"
        "import json\n"
        "print(json.dumps([listed, loaded, sorted(n for n in star if not n.startswith('_'))]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],  # -S: no site hook imports anything first
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(moment_leibniz.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    listed, loaded, star = json.loads(proc.stdout)
    assert listed == PUBLIC
    assert loaded == []
    assert star == PUBLIC


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        moment_leibniz.no_such_name
    # a public name of a submodule that the package does not re-export
    assert not hasattr(moment_leibniz, "check_count")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        exec("from moment_leibniz import no_such_name", {})


def test_a_formal_pass_draws_no_probe_when_run_alone():
    # it reads moment_leibniz.momentfam before any import of momentfam
    test = "tests/test_cli.py::test_a_formal_pass_draws_no_probe"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert proc.stdout.splitlines()[-1].startswith("4 passed")
