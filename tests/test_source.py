"""Guards on the package source itself."""

import ast
from pathlib import Path

import conhoch

PACKAGE = Path(conhoch.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so every invariant of the
    # library must raise a typed ConhochError instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []


def _import_time_imports(name):
    """(sibling module, line) for every package import that runs when
    conhoch.<name> is imported; function bodies and TYPE_CHECKING blocks
    run later or never, so they are skipped."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = []

    def visit(statements):
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                visit(node.orelse)
                continue
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = ([node.module.partition(".")[0]] if node.module
                           else [alias.name for alias in node.names])
                found.extend((t, node.lineno) for t in targets
                             if (PACKAGE / f"{t}.py").exists())
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, []))

    visit(tree.body)
    return found


def _import_closure(start):
    """Modules compiled by importing conhoch.<start>, each with the
    file:line of the import that first pulled it in."""
    reached = {start: None}
    pending = [start]
    while pending:
        name = pending.pop()
        for target, line in _import_time_imports(name):
            if target not in reached:
                reached[target] = f"{name}.py:{line}"
                pending.append(target)
    return reached


def test_cli_start_up_route_is_the_parser_and_model():
    # importing the CLI compiles only what every command needs: the JSON
    # codecs, the symbol calculus and the solvers load inside the handlers
    reached = _import_closure("cli")
    assert set(reached) == {"cli", "errors", "model", "poly"}, \
        f"module: the import that pulled it in: {reached}"


def test_star_products_do_not_load_the_solvers():
    # star-check decides associativity on symbols; the cohomology solvers
    # and the elimination kernel load only when an equivalence is solved
    reached = _import_closure("starprod")
    heavy = {m: where for m, where in reached.items()
             if m in {"cohomology", "linalg"}}
    assert heavy == {}, f"starprod imports the solvers at: {heavy}"


def test_slice_kernel_does_not_load_the_symbol_calculus():
    # verify-theorem computes slice dimensions from words alone: the
    # symbol containers, the decompositions, the JSON codecs and the
    # operator and star-product layers load only when a chain is built
    reached = _import_closure("cohomology")
    heavy = {m: where for m, where in reached.items()
             if m in {"symbols", "decompose", "serialize", "diffops", "starprod"}}
    assert heavy == {}, f"cohomology imports the symbol calculus at: {heavy}"
