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
    # importing the CLI compiles only what every command needs: the
    # polynomials, the JSON codecs, the symbol calculus and the solvers
    # load with the handlers that run them
    reached = _import_closure("cli")
    assert set(reached) == {"cli", "errors", "model"}, \
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
    # polynomials, the symbol containers, the decompositions, the JSON
    # codecs and the operator and star-product layers load only when a
    # chain is built
    reached = _import_closure("cohomology")
    heavy = {m: where for m, where in reached.items()
             if m in {"poly", "symbols", "decompose", "serialize", "diffops", "starprod"}}
    assert heavy == {}, f"cohomology imports the symbol calculus at: {heavy}"


def test_slice_count_does_not_load_the_symbol_calculus():
    # the slice count reads the windows of cohomology and ranks integer
    # columns; the representatives of --reps load the chains on use
    reached = _import_closure("slicecount")
    heavy = {m: where for m, where in reached.items()
             if m in {"poly", "symbols", "serialize", "decompose", "fields", "printer"}}
    assert heavy == {}, f"slicecount imports the symbol calculus at: {heavy}"


def test_vector_fields_are_a_leaf_over_the_polynomials():
    # classify-field decides membership on components, so it compiles no
    # slot word and no symbol chain
    reached = _import_closure("fields")
    assert set(reached) == {"fields", "errors", "model", "poly"}, \
        f"module: the import that pulled it in: {reached}"


def test_symbol_routes_do_not_load_the_vector_fields_or_the_printer():
    # the flat connection imports VectorField when it runs, and only
    # --format table and the reprs load the printer
    for start in ("symbols", "diffops", "starprod", "decompose"):
        reached = _import_closure(start)
        heavy = {m: where for m, where in reached.items() if m in {"fields", "printer"}}
        assert heavy == {}, f"{start} imports at: {heavy}"


def test_star_and_solver_routes_do_not_load_the_moved_calculus():
    # the multivectors, the operator-level checks and the dense reference
    # left the modules the star and solver routes compile; the names that
    # still resolve in symbols and linalg load them on first access only
    for start in ("symbols", "diffops", "starprod", "linalg"):
        reached = _import_closure(start)
        heavy = {m: where for m, where in reached.items()
                 if m in {"multivector", "hochschild", "dense"}}
        assert heavy == {}, f"{start} imports at: {heavy}"


def test_only_the_checked_base_defines_new():
    # a record states its invariants in _check and builds through
    # model._Checked, whose __new__ every construction path runs; a second
    # __new__ would build around it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.stem}.{node.name}" for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef)
                     for item in node.body
                     if isinstance(item, ast.FunctionDef) and item.name == "__new__")
    assert found == ["model._Checked"]


def test_only_the_model_defines_the_membership_rule():
    # the wobs/null decision of functions, vector fields, multivectors,
    # chains, operators and slice counts has one owner: model defines the
    # rule, and every reader imports it from there
    rule = {"_slot_profile", "_window", "_member", "_monomial_rule"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.stem}.{node.name}" for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name in rule)
        found.extend(f"{path.stem} imports {alias.name} from {node.module}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module != "model"
                     for alias in node.names if alias.name in rule)
    assert sorted(found) == sorted(f"model.{name}" for name in rule)
