"""Single-site mutation run over the package's exact and float kernels.

Run from the repository root:

    python tests/mutants.py WORKDIR                 # every mutant of TARGETS
    python tests/mutants.py WORKDIR --list          # number and label each mutant, run nothing
    python tests/mutants.py WORKDIR --only 3 17     # the mutants with these numbers

WORKDIR receives a copy of the repository; nothing under the repository
itself is written.  Each target module is first written back through
``ast.unparse`` as the baseline, and the baseline must pass the suite.
Each mutant then changes one site of one target function, the suite runs
with ``pytest -x``, and the baseline is restored.  A mutant whose suite
passes survives; the survivors that ``EQUIVALENT`` records are listed
apart, with the reason each one changes no result.  The suite is the
whole of ``tests/``.

The mutations, one per site: an arithmetic operator swapped by
``BINARY``, a comparison swapped by ``COMPARE``, ``and`` and ``or``
exchanged, a unary minus or a ``not`` dropped, and an integer constant
raised by one.  A mutant's label is its qualified function and its
``before -> after`` text, numbered ``#2``, ``#3`` ... when one function
has the same change twice, so a label outlives edits that move lines.

This file is not collected by pytest: its name does not start with
``test_``.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import copy
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "moment_leibniz"

# the kernels per module; "Class" takes every method of the class
TARGETS: Dict[str, List[str]] = {
    "polycalc": [
        "_convolve",
        "_shape_plan",
        "_pairs_plan",
        "form_failures",
        "check_leibniz_pairs",
        "JetColumns",
        "ProductTable",
        "_plan",
        "_partial",
        "_derivative_table",
        "derivative_table",
        "eval_poly_ratios",
        "_pack",
        "_unpack",
        "dalpha",
    ],
    "funcmodel": [
        "judge_column",
        "convolution_column",
        "convolution_products",
        "jet_form",
        "_collect",
        "contraction",
        "_drops",
        "_substitute",
    ],
    "momentfam": [
        "verify_moment",
        "_exact_instances",
        "_sampled_instances",
        "OperatorFamily.apply",
        "ProbePairs",
        "default_probe_pairs",
    ],
}

BINARY = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Add,
    ast.Pow: ast.Mult,
    ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult,
    ast.Mod: ast.FloorDiv,
}
COMPARE = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}

# the survivors of a full run that change no result, by label, with the reason
EQUIVALENT: Dict[str, str] = {
    "polycalc._shape_plan: maxsize=32 -> maxsize=33": "a larger memo keeps one more shape",
    "polycalc._pairs_plan: maxsize=32 -> maxsize=33": "a larger memo keeps one more shape",
    "polycalc.form_failures: tf[beta] and tg[gamma] -> tf[beta] or tg[gamma]":
        "a split with an empty side adds an empty product",
    "polycalc.check_leibniz_pairs: pairs[0][0] -> pairs[0][1]":
        "the first pair's g has its f's dim, which is checked too",
    "polycalc.check_leibniz_pairs: _top(f) + _top(g) + 1 -> _top(f) + _top(g) + 2":
        "a larger packing base still leaves no digit to carry",
    "polycalc.ProductTable: self.factors[0] -> self.factors[1]":
        "g's table has the same first key, the zero index",
    "polycalc._plan: -1 -> -2": "the zero index's step is never taken: any negative parent",
    "polycalc._plan: -1 -> -2 #2": "the zero index's step is never taken: its axis is unread",
    "polycalc._plan: -1 -> 1 #2": "the zero index's step is never taken: its axis is unread",
    "polycalc.derivative_table: _top(f) + 1 -> _top(f) + 2":
        "a larger packing base still leaves no digit to carry",
    "polycalc.eval_poly_ratios: (0, 1) -> (0, 2)": "0/2 is the same zero",
    "momentfam._sampled_instances: j + 1 -> j + 2":
        "the longer f and g column slices are cut back by zip",
    "momentfam.default_probe_pairs: -3 -> 3":
        "the constant probe pair (2, 3) in place of (2, -3): another probe, no other result",
}


def _variants(node: ast.AST) -> List[ast.AST]:
    """Every single change of ``node`` itself, each on a copy."""
    out = []
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY:
        mutated = copy.deepcopy(node)
        mutated.op = BINARY[type(node.op)]()
        out.append(mutated)
    elif isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            if type(op) in COMPARE:
                mutated = copy.deepcopy(node)
                mutated.ops[k] = COMPARE[type(op)]()
                out.append(mutated)
    elif isinstance(node, ast.BoolOp):
        mutated = copy.deepcopy(node)
        mutated.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        out.append(mutated)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
        out.append(copy.deepcopy(node.operand))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        out.append(ast.Constant(node.value + 1))
    return out


class _Mutator(ast.NodeTransformer):
    """Counts the sites of a function body in a fixed order and changes the one numbered
    ``target``; with ``target`` None it only counts and labels them."""

    def __init__(self, target: Optional[int]) -> None:
        self.target = target
        self.labels: List[str] = []
        self.parents: List[ast.AST] = []

    def visit(self, node: ast.AST) -> ast.AST:
        self.parents.append(node)
        node = self.generic_visit(node)
        self.parents.pop()
        for variant in _variants(node):
            k = len(self.labels)
            # a bare constant reads better inside the expression that holds it
            shown = self.parents[-1] if isinstance(node, ast.Constant) and self.parents else node
            # the deepcopy memo puts the variant where the holder has the node
            after = copy.deepcopy(shown, {id(node): variant})
            self.labels.append(f"{ast.unparse(shown)} -> {ast.unparse(after)}")
            if k == self.target:
                return ast.fix_missing_locations(ast.copy_location(variant, node))
        return node


def _functions(tree: ast.Module, name: str) -> List[ast.AST]:
    """The defs that ``name`` ("f", "Class" or "Class.method") names in a module tree."""
    head, _, method = name.partition(".")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == head:
            if not method:
                if isinstance(node, ast.ClassDef):
                    return [n for n in node.body if isinstance(n, ast.FunctionDef)]
                return [node]
            return [n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == method]
    raise SystemExit(f"no target {name}")


def mutants() -> List[Tuple[str, str, int, str]]:
    """(module, target, site number within the target, label) for every mutant of TARGETS."""
    out = []
    for module, names in TARGETS.items():
        tree = ast.parse((REPO / PACKAGE / f"{module}.py").read_text())
        for name in names:
            counter = _Mutator(None)
            for func in _functions(tree, name):
                counter.visit(func)
            seen: Dict[str, int] = {}
            for site, text in enumerate(counter.labels):
                seen[text] = seen.get(text, 0) + 1
                suffix = f" #{seen[text]}" if seen[text] > 1 else ""
                out.append((module, name, site, f"{module}.{name.split('.')[0]}: {text}{suffix}"))
    return out


def mutated_source(source: str, name: str, site: int) -> str:
    """``source`` with the site numbered ``site`` of the target ``name`` changed."""
    tree = ast.parse(source)
    mutator = _Mutator(site)
    for func in _functions(tree, name):
        mutator.visit(func)
    return ast.unparse(tree)


def _run(work: Path, timeout: Optional[float]) -> Tuple[bool, str]:
    """Whether the suite passes in ``work``, and its last line; a timeout is a failure."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    # no bytecode cache: a mutant as long as the source before it, written within the
    # same second, would otherwise load the other one's cached code
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(work / "src"), "HOME": str(work),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, "timeout"
    lines = done.stdout.strip().splitlines()
    return done.returncode == 0, lines[-1] if lines else ""


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("work", type=Path, help="directory for the copy (made fresh)")
    parser.add_argument("--list", action="store_true", help="label every mutant, run nothing")
    parser.add_argument("--only", type=int, nargs="*", help="run the mutants with these numbers")
    args = parser.parse_args(argv)
    listed = mutants()
    if args.list:
        for k, (_, _, _, label) in enumerate(listed):
            print(f"{k:4d}  {label}")
        return 0
    chosen = [listed[k] for k in args.only] if args.only else listed
    if args.work.resolve() == REPO or REPO in args.work.resolve().parents:
        raise SystemExit("WORKDIR must lie outside the repository")
    shutil.rmtree(args.work, ignore_errors=True)
    shutil.copytree(REPO, args.work, ignore=shutil.ignore_patterns(
        ".git", ".hypothesis", "__pycache__", ".pytest_cache"))
    baseline = {}
    for module in {m for m, _, _, _ in chosen}:
        path = args.work / PACKAGE / f"{module}.py"
        baseline[path] = ast.unparse(ast.parse(path.read_text()))
        path.write_text(baseline[path])
    start = time.monotonic()
    passed, last = _run(args.work, None)
    if not passed:
        raise SystemExit(f"the baseline fails: {last}")
    timeout = 3 * (time.monotonic() - start) + 30
    survivors = []
    for k, (module, name, site, label) in enumerate(chosen):
        path = args.work / PACKAGE / f"{module}.py"
        path.write_text(mutated_source(baseline[path], name, site))
        passed, last = _run(args.work, timeout)
        path.write_text(baseline[path])
        print(f"{'SURVIVED' if passed else 'killed  '}  {label}  ({last})", flush=True)
        if passed:
            survivors.append(label)
    known = [s for s in survivors if s in EQUIVALENT]
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed; "
          f"{len(known)} survivors recorded as equivalent")
    for label in survivors:
        print(f"  {label}: {EQUIVALENT.get(label, 'NOT RECORDED')}")
    return 0 if len(known) == len(survivors) else 1


if __name__ == "__main__":
    sys.exit(main())
