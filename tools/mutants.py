"""Seeded mutation census of one module under src/kdvb.

Every mutation site of the module is found with ast, skipping f-strings.
The kinds are:

- arithmetic: ``+`` <-> ``-`` and ``*`` <-> ``/``, and ``**`` -> ``*``;
- comparison: strict <-> non-strict (``<`` <-> ``<=``, ``>`` <-> ``>=``);
- a nonzero float constant times 1.001;
- control flow: ``not`` on an ``if`` test, ``and`` <-> ``or``, and a
  ``raise`` statement deleted (replaced by ``pass``).

``random.Random(seed)`` draws sites with replacement, and draws that give
the same source are run once.  The whole checkout is copied to a
temporary directory (tests read configs/, README.md and tools/, so a copy
of src/ and tests/ alone fails every mutant), the module is written back
with ``ast.unparse``, and the suite runs there with ``pytest -x``.  First
the unmutated, unparsed module must pass; then each mutant that makes the
suite fail, or run past the timeout, is killed.

Standard library only.  Not a CI step: 40 draws on cli.py take about 9
minutes on a 2-core machine (CI only checks that every mutant of every
module compiles).  Run from anywhere:

    python tools/mutants.py cli.py --seed 4 --draws 40

Prints one line per distinct mutant and a summary; exits 0 unless the
baseline run fails.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a mutant that makes the suite run this long counts as killed
TIMEOUT_S = 600
# left out of the copy: caches and benchmark output, none of which a test reads
IGNORED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "traces")

_SWAPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Div,
    ast.Div: ast.Mult,
    ast.Pow: ast.Mult,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.And: ast.Or,
    ast.Or: ast.And,
}


def _sites(tree: ast.Module) -> list[tuple[int, int]]:
    """(index of the node in ast.walk order, index of the operator within
    it) for every mutation site outside an f-string."""
    inside_fstrings = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        for sub in ast.walk(node)
    }
    sites = []
    for i, node in enumerate(ast.walk(tree)):
        if id(node) in inside_fstrings:
            continue
        if isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in _SWAPS:
            sites.append((i, 0))
        elif isinstance(node, ast.Compare):
            sites += [(i, j) for j, op in enumerate(node.ops) if type(op) in _SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            sites.append((i, 0))
        elif isinstance(node, (ast.If, ast.Raise)):
            sites.append((i, 0))
    return sites


def _mutate(source: str, site: tuple[int, int]) -> tuple[str, int, str]:
    """The module source with one site mutated, the site's line and a
    description of the change."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    node, j = nodes[site[0]], site[1]
    before = ast.unparse(node).splitlines()[0]
    if isinstance(node, (ast.BinOp, ast.BoolOp)):
        node.op = _SWAPS[type(node.op)]()
    elif isinstance(node, ast.Compare):
        node.ops[j] = _SWAPS[type(node.ops[j])]()
    elif isinstance(node, ast.Constant):
        node.value *= 1.001
    elif isinstance(node, ast.If):
        node.test = ast.UnaryOp(ast.Not(), node.test)
    else:  # a raise, replaced in the statement list that holds it
        for parent in nodes:
            for stmts in (getattr(parent, key, None) for key in ("body", "orelse", "finalbody")):
                if isinstance(stmts, list):
                    stmts[:] = [ast.Pass() if stmt is node else stmt for stmt in stmts]
    after = "pass" if isinstance(node, ast.Raise) else ast.unparse(node).splitlines()[0]
    return ast.unparse(tree) + "\n", node.lineno, f"{before} -> {after}"


def run_pytest(cwd: Path, src: Path, nodes=(), timeout: float = TIMEOUT_S) -> int:
    """pytest -x's exit code for nodes (the whole suite if none) run in cwd,
    or -1 past timeout seconds.  The kdvb package is taken from src, with
    pytest's own pythonpath setting cleared; no bytecode is cached, so a
    same-size edit within a second is seen."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    command += ["-o", "pythonpath=", *nodes]
    try:
        done = subprocess.run(
            command, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return -1
    return done.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="file name under src/kdvb, e.g. cli.py")
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--draws", type=int, default=40)
    args = parser.parse_args(argv)

    source = (ROOT / "src" / "kdvb" / args.module).read_text()
    sites = _sites(ast.parse(source))
    rng = random.Random(args.seed)
    mutants = {}
    for site in (rng.choice(sites) for _ in range(args.draws)):
        text, line, change = _mutate(source, site)
        mutants.setdefault(text, (line, change))
    print(f"{args.module}: {len(sites)} sites, {args.draws} draws, {len(mutants)} distinct")

    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(*IGNORED))
        path = checkout / "src" / "kdvb" / args.module
        path.write_text(ast.unparse(ast.parse(source)) + "\n")
        if run_pytest(checkout, checkout / "src"):
            print("the suite does not pass on the unparsed, unmutated module")
            return 1
        survivors = 0
        for text, (line, change) in sorted(mutants.items(), key=lambda item: item[1]):
            path.write_text(text)
            killed = run_pytest(checkout, checkout / "src") != 0
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {args.module}:{line}: {change}")
    killed = len(mutants) - survivors
    print(f"{killed} of {len(mutants)} distinct mutants killed, {survivors} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
