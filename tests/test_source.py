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


def test_only_the_frozen_base_defines_equality_or_hash():
    # every value compares by its type and fields through poly._Frozen, and
    # no value is hashable; a second __eq__ or __hash__ would compare or
    # hash some other way
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            names = {item.name for item in cls.body if isinstance(item, ast.FunctionDef)}
            names |= {target.id for item in cls.body if isinstance(item, ast.Assign)
                      for target in item.targets if isinstance(target, ast.Name)}
            found.extend(f"{path.stem}.{cls.name}.{name}"
                         for name in sorted(names & {"__eq__", "__hash__"}))
    assert found == ["poly._Frozen.__eq__"]


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


def test_only_the_linear_base_defines_the_term_map_arithmetic():
    # polynomials, chains and multivectors add, subtract, negate, scale and
    # test zero through poly._Linear; a second definition anywhere, or a
    # reflected or in-place operator, would be a second arithmetic
    core = {"__add__", "__sub__", "__neg__", "__bool__", "scale", "is_zero"}
    names = core | {"__radd__", "__rsub__", "__iadd__", "__isub__"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef)):
                continue
            owner = path.stem + (f".{node.name}" if isinstance(node, ast.ClassDef) else "")
            defined = [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
            defined += [target.id for item in node.body if isinstance(item, ast.Assign)
                        for target in item.targets if isinstance(target, ast.Name)]
            found.extend(f"{owner}.{name}" for name in defined if name in names)
    assert sorted(found) == sorted(f"poly._Linear.{name}" for name in core)


def _called_names(module, qualname):
    """Names of the functions and methods called in the body of
    conhoch.<module>.<qualname> (a function, or Class.method)."""
    node = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for name in qualname.split("."):
        node = next(item for item in node.body
                    if isinstance(item, (ast.ClassDef, ast.FunctionDef)) and item.name == name)
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def test_operator_words_are_evaluated_by_the_monomial_kernel():
    # an operator on polynomials is the multilinear extension of
    # diffops.apply_to_monomials, and the Lie bracket is X(Y_j) - Y(X_j)
    # from VectorField.apply; neither differentiates a polynomial itself
    applied = _called_names("diffops", "MultiDiffOp.apply")
    assert "apply_to_monomials" in applied
    assert not applied & {"partial", "partial_word"}
    bracket = _called_names("fields", "bracket")
    assert "apply" in bracket and "partial" not in bracket
