"""Command line: exit codes, determinism, worker-pool invariance, and every
documented example."""

import ast
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import conhoch
from conhoch import cli, slicecount

README = Path(__file__).resolve().parent.parent / "README.md"

# The directory holding the conhoch package this test process imported:
# src/ in a checkout, site-packages when installed.
PACKAGE_ROOT = Path(conhoch.__file__).resolve().parent.parent


def _python(args, cwd, **env):
    """Run a child interpreter that imports the same conhoch as this process,
    from any cwd: PYTHONPATH starts with the absolute PACKAGE_ROOT, so a
    relative entry such as PYTHONPATH=src cannot go stale in the child.
    Keyword arguments set environment variables; None removes one."""
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]))
    for name, value in env.items():
        if value is None:
            child_env.pop(name, None)
        else:
            child_env[name] = value
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, cwd=cwd, env=child_env)


def _run(args, cwd, **env):
    return _python(["-m", "conhoch"] + args, cwd, **env)


def _assert_input_error(result):
    """Exit 1 with the CLI's one-line `error:` message; an interpreter that
    cannot import conhoch also exits 1, but not with this message."""
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr


def test_child_imports_package_under_test(tmp_path):
    result = _python(["-c", "import conhoch; print(conhoch.__file__)"],
                     cwd=tmp_path)
    assert result.returncode == 0, \
        f"CLI child cannot import conhoch from {PACKAGE_ROOT}: {result.stderr}"
    child = Path(result.stdout.strip()).resolve()
    assert child == Path(conhoch.__file__).resolve(), \
        f"CLI child imports {child}, tests import {conhoch.__file__}"


def test_cli_import_loads_only_the_parser_and_model(tmp_path):
    # start-up guard: the pool, dataclasses (and its inspect), fractions
    # (and its decimal) and every computing module of the package (the
    # polynomials, JSON codecs, words, symbols, vector fields, windows,
    # slice count, kernel, decompositions, operators, star products and
    # the printer) load only in the commands that run them
    code = ("import json, sys; before = set(sys.modules); import conhoch.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    result = _python(["-c", code], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert "conhoch.cli" in loaded
    heavy = {"multiprocessing", "dataclasses", "inspect", "fractions", "decimal",
             "conhoch.poly", "conhoch.serialize", "conhoch.symbols", "conhoch.words",
             "conhoch.fields", "conhoch.cohomology", "conhoch.slicecount",
             "conhoch.linalg", "conhoch.decompose", "conhoch.starprod",
             "conhoch.diffops", "conhoch.printer"}
    assert not heavy & loaded, sorted(heavy & loaded)


_START_UP = {"conhoch", "conhoch.cli", "conhoch.errors", "conhoch.model"}
_UNIT = {"terms": [{"coeff": [1, 1], "exp": [0, 0, 0]}]}
_ROUTE_INPUTS = {
    "poly.json": {"terms": [{"coeff": [1, 1], "exp": [1, 0, 0]}]},
    "field.json": {"components": [_UNIT, _UNIT, _UNIT]},
    "chain.json": {"arity": 1, "terms": [{"coeff_poly": _UNIT, "slots": [[1, 3]]}]},
    # D of the observable chain d2 v d2: closed, observable, exact
    "cocycle.json": {"arity": 2, "terms": [{"coeff_poly": {"terms": [
        {"coeff": [-2, 1], "exp": [0, 0, 0]}]}, "slots": [[2], [2]]}]},
    "bivector.json": {"degree": 2, "terms": [{"coeff_poly": _UNIT, "indices": [1, 2]}]},
    "star.json": {"order": 1, "cochains": [{"symbol": {"arity": 2, "terms": [
        {"coeff_poly": _UNIT, "slots": [[2], [3]]}]}}]},
}
_ROUTE_CODE = ("import json, sys; from conhoch import cli\n"
               "code = cli.main(sys.argv[1:] + ['--model', '3,2,1', '--out', 'report.json']) "
               "if len(sys.argv) > 1 else 0\n"
               "print(json.dumps([code, sorted(m for m in sys.modules "
               "if m.partition('.')[0] == 'conhoch' or m in ('fractions', 'decimal'))]))")
_FIND_POTENTIAL = ["find-potential", "--in", "cocycle.json"]
_DECOMPOSE_COCYCLE = ["decompose-cocycle", "--in", "cocycle.json"]
_VERIFY_THEOREM = ["verify-theorem", "--kmax", "2", "--cmax", "0"]
_SOLVER = {"serialize", "poly", "symbols", "words", "cohomology", "linalg"}
_SLICE_COUNT = {"slicecount", "cohomology", "linalg", "words"}


@pytest.fixture(scope="module")
def command_route(tmp_path_factory):
    """The modules a command line loads, from one child interpreter per
    command line, shared by the route pins and the compile-size bounds."""
    cwd = tmp_path_factory.mktemp("routes")
    for name, doc in _ROUTE_INPUTS.items():
        (cwd / name).write_text(json.dumps(doc))
    routes = {}

    def route(args):
        key = tuple(args)
        if key not in routes:
            result = _python(["-c", _ROUTE_CODE] + list(args), cwd=cwd)
            assert result.returncode == 0, result.stderr
            code, loaded = json.loads(result.stdout)
            assert code == 0
            routes[key] = set(loaded)
        return routes[key]

    return route


@pytest.mark.parametrize("args, extra", [
    ([], set()),
    (["classify-function", "--in", "poly.json"], {"serialize", "poly"}),
    (["classify-field", "--in", "field.json"], {"serialize", "poly", "fields"}),
    (["bigd", "--in", "chain.json"], {"serialize", "poly", "symbols", "words"}),
    (["star-check", "--in", "star.json"],
     {"serialize", "poly", "symbols", "words", "diffops", "starprod"}),
    (["reduce", "--in", "bivector.json"],
     {"serialize", "poly", "symbols", "words", "decompose"}),
    (_FIND_POTENTIAL, _SOLVER),
    (_DECOMPOSE_COCYCLE, _SOLVER | {"decompose"}),
    (_VERIFY_THEOREM, _SLICE_COUNT),
    (["hh-dim", "--degree", "0"], _SLICE_COUNT),
    (["classify-function", "--in", "poly.json", "--format", "table"],
     {"serialize", "poly", "printer"}),
    (_VERIFY_THEOREM + ["--format", "table"], _SLICE_COUNT | {"printer"}),
], ids=["import", "classify-function", "classify-field", "bigd", "star-check", "reduce",
        "find-potential", "decompose-cocycle", "verify-theorem", "hh-dim-degree-0",
        "classify-function-table", "verify-theorem-table"])
def test_command_loads_only_the_modules_it_runs(command_route, args, extra):
    # each command compiles the start-up modules plus what its handler
    # calls; the slice count builds no polynomial and no Fraction, and
    # only --format table loads the printer
    loaded = command_route(args)
    conhoch_loaded = {m for m in loaded if m.partition(".")[0] == "conhoch"}
    assert conhoch_loaded == _START_UP | {f"conhoch.{m}" for m in extra}
    if not {"poly", "printer"} & extra:
        assert not {"fractions", "decimal"} & loaded, loaded


def _compiled_nodes(modules):
    """AST nodes of the conhoch sources among these loaded modules: what a
    run without a bytecode cache compiles of the package."""
    total = 0
    for name in modules:
        top, _, sub = name.partition(".")
        if top == "conhoch":
            path = PACKAGE_ROOT / "conhoch" / f"{sub or '__init__'}.py"
            total += sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    return total


#: the slice count may not grow past the route it had before the slice
#: count left cohomology; the solver routes get 2 % over their size
#: after the handlers, the vector fields and the printer left them
@pytest.mark.parametrize("args, bound", [
    (_VERIFY_THEOREM, 7374),
    (_FIND_POTENTIAL, 11758 * 102 // 100),
    (_DECOMPOSE_COCYCLE, 13807 * 102 // 100),
], ids=["verify-theorem", "find-potential", "decompose-cocycle"])
def test_command_compiles_within_its_node_budget(command_route, args, bound):
    # the solver and slice-count routes compile what they call and little
    # else; a definition that lands on a route it does not serve shows here
    assert _compiled_nodes(command_route(args)) <= bound


def test_every_command_names_a_callable_handler_in_its_home():
    # a typo in a handler's home would otherwise fail only when that
    # command runs
    command = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert set(command.choices) == set(cli._HANDLERS)
    for name, (module, handler) in cli._HANDLERS.items():
        home = import_module(f"conhoch.{module}")
        fn = getattr(home, handler, None)
        assert callable(fn) and fn.__module__ == home.__name__, (name, module, handler)


def test_lazy_exports_resolve(tmp_path):
    # in a fresh interpreter, `import *` binds every public name, each the
    # object getattr returns, and unknown names still raise AttributeError
    code = ("import json; from conhoch import *; import conhoch; print(json.dumps(["
            "conhoch.__all__, [n for n in conhoch.__all__ "
            "if globals().get(n) is not getattr(conhoch, n)], "
            "hasattr(conhoch, 'no_such_name')]))")
    result = _python(["-c", code], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    names, unbound, bogus = json.loads(result.stdout)
    assert names == conhoch.__all__ and len(set(names)) == len(names) > 0
    assert unbound == [] and bogus is False
    assert all(getattr(conhoch, name) is not None for name in names)


@pytest.mark.parametrize("args, message", [
    (["no-such-command", "--model", "3,2,1"], "invalid choice: 'no-such-command'"),
    (["verify-theorem"], "the following arguments are required: --model"),
], ids=["unknown-command", "missing-model"])
def test_usage_error_exits_two(tmp_path, args, message):
    result = _run(args, cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("usage: conhoch") and message in result.stderr
    assert result.stdout == ""


def _readme_files_and_commands():
    text = README.read_text()
    files = {}
    pending_name = None
    commands = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        m = re.search(r"`([\w\-.]+\.json)`", line)
        if m and not line.startswith("$"):
            pending_name = m.group(1)
        if line.strip() == "```json" and pending_name:
            body = []
            i += 1
            while lines[i].strip() != "```":
                body.append(lines[i])
                i += 1
            files[pending_name] = "\n".join(body) + "\n"
            pending_name = None
        elif line.strip() == "```console":
            i += 1
            current = None
            while lines[i].strip() != "```":
                if lines[i].startswith("$ conhoch "):
                    current = {"args": lines[i][len("$ conhoch "):].split(),
                               "expected": []}
                    commands.append(current)
                elif current is not None:
                    current["expected"].append(lines[i])
                i += 1
        i += 1
    return files, commands


def test_readme_examples_run_verbatim(tmp_path):
    files, commands = _readme_files_and_commands()
    assert len(files) >= 5 and len(commands) >= 10
    for name, body in files.items():
        json.loads(body)  # documented inputs are valid JSON
        (tmp_path / name).write_text(body)
    for command in commands:
        result = _run(command["args"], cwd=tmp_path)
        assert result.returncode == 0, (command["args"], result.stderr)
        expected = "\n".join(command["expected"]).rstrip("\n")
        actual = result.stdout.rstrip("\n")
        assert actual == expected, (command["args"], actual, expected)


def test_exit_code_one_on_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = _run(["classify-function", "--model", "3,2,1", "--in", str(bad)],
                  cwd=tmp_path)
    _assert_input_error(result)

    missing = _run(["classify-function", "--model", "3,2,1", "--in", "nope.json"],
                   cwd=tmp_path)
    _assert_input_error(missing)

    bad_model = _run(["verify-theorem", "--model", "2,3,1"], cwd=tmp_path)
    _assert_input_error(bad_model)

    wrong_width = tmp_path / "wrong.json"
    wrong_width.write_text(json.dumps({"terms": [{"coeff": [1, 1], "exp": [1, 0]}]}))
    result = _run(["classify-function", "--model", "3,2,1", "--in", str(wrong_width)],
                  cwd=tmp_path)
    _assert_input_error(result)


def test_exit_code_two_on_verification_mismatch(monkeypatch, capsys):
    real = slicecount.hh2_slice_report

    def skewed(model, tag, K, c, with_representatives=False):
        report = real(model, tag, K, c, with_representatives=with_representatives)
        report["hh_dim"] += 1
        report["match"] = False
        return report

    monkeypatch.setattr(slicecount, "hh2_slice_report", skewed)
    rc = cli.main(["verify-theorem", "--model", "3,2,1", "--kmax", "2",
                   "--cmax", "0", "--jobs", "1"])
    assert rc == 2
    out = json.loads(capsys.readouterr().out)
    assert out["all_match"] is False


def test_output_deterministic_across_runs_and_pool_widths(tmp_path):
    base = ["verify-theorem", "--model", "3,2,1", "--kmax", "3", "--cmax", "1",
            "--reps"]
    first = _run(base + ["--jobs", "1"], cwd=tmp_path)
    second = _run(base + ["--jobs", "1"], cwd=tmp_path)
    pooled = _run(base + ["--jobs", "2"], cwd=tmp_path)
    assert first.returncode == second.returncode == pooled.returncode == 0
    assert first.stdout == second.stdout == pooled.stdout
    rows = json.loads(first.stdout)["rows"]
    assert rows and all("representatives" in r for r in rows)
    hh2 = ["hh-dim", "--model", "3,2,1", "--degree", "2", "--kmax", "3", "--cmax", "1"]
    serial = _run(hh2 + ["--jobs", "1"], cwd=tmp_path)
    pooled = _run(hh2 + ["--jobs", "2"], cwd=tmp_path)
    assert serial.returncode == pooled.returncode == 0
    assert serial.stdout == pooled.stdout
    assert len(json.loads(serial.stdout)["rows"]) == 4


def test_out_flag_writes_file(tmp_path):
    symbol = {"arity": 1, "terms": [
        {"coeff_poly": {"terms": [{"coeff": [1, 1], "exp": [0, 0, 0]}]},
         "slots": [[1, 3]]}]}
    (tmp_path / "sym.json").write_text(json.dumps(symbol))
    result = _run(["bigd", "--model", "3,2,1", "--in", "sym.json",
                   "--out", "image.json"], cwd=tmp_path)
    assert result.returncode == 0 and result.stdout == ""
    data = json.loads((tmp_path / "image.json").read_text())
    assert data["arity"] == 2 and len(data["terms"]) == 2


def test_unwritable_out_path_is_an_input_error(tmp_path):
    symbol = {"arity": 1, "terms": [
        {"coeff_poly": {"terms": [{"coeff": [1, 1], "exp": [0, 0, 0]}]},
         "slots": [[1, 3]]}]}
    (tmp_path / "sym.json").write_text(json.dumps(symbol))
    result = _run(["bigd", "--model", "3,2,1", "--in", "sym.json",
                   "--out", str(tmp_path / "missing" / "image.json")], cwd=tmp_path)
    _assert_input_error(result)
    assert result.stdout == ""


def test_delta_command_reproduces_counterexample(tmp_path):
    op = {"symbol": {"arity": 1, "terms": [
        {"coeff_poly": {"terms": [{"coeff": [1, 1], "exp": [0, 0, 0]}]},
         "slots": [[1, 3]]}]}}
    (tmp_path / "op.json").write_text(json.dumps(op))
    result = _run(["delta", "--model", "3,2,1", "--in", "op.json"], cwd=tmp_path)
    assert result.returncode == 0
    data = json.loads(result.stdout)["symbol"]
    assert data["arity"] == 2
    assert {tuple(map(tuple, t["slots"])) for t in data["terms"]} == \
        {((1,), (3,)), ((3,), (1,))}
    assert all(t["coeff_poly"]["terms"][0]["coeff"] == [-1, 1] for t in data["terms"])


def test_star_check_reports_high_order_violation(tmp_path):
    # C1 = D(d1 v d1 v d1), C2 = 0 on (1,1,0): associative at order one,
    # not at order two, where the associator has total order 6
    one = {"terms": [{"coeff": [1, 1], "exp": [0]}]}
    minus_three = {"terms": [{"coeff": [-3, 1], "exp": [0]}]}
    star = {"order": 2, "cochains": [
        {"symbol": {"arity": 2, "terms": [
            {"coeff_poly": minus_three, "slots": [[1], [1, 1]]},
            {"coeff_poly": minus_three, "slots": [[1, 1], [1]]}]}},
        {"symbol": {"arity": 2, "terms": []}}]}
    (tmp_path / "star.json").write_text(json.dumps(star))
    result = _run(["star-check", "--model", "1,1,0", "--in", "star.json"],
                  cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)
    assert data["associative"] is False
    assert data["violation"]["order"] == 2
    assert data["violation"]["defect"]["terms"] != []
    assert '"associative": false' in result.stdout


def test_classify_field_command(tmp_path):
    zero = {"terms": []}
    field = {"components": [zero,
                            {"terms": [{"coeff": [1, 1], "exp": [1, 0, 0]}]},
                            zero]}
    (tmp_path / "field.json").write_text(json.dumps(field))
    result = _run(["classify-field", "--model", "3,2,1", "--in", "field.json"],
                  cwd=tmp_path)
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"wobs": False, "null": False}


def test_hkr_command(tmp_path):
    biv = {"degree": 2, "terms": [
        {"coeff_poly": {"terms": [{"coeff": [1, 1], "exp": [0, 0, 0]}]},
         "indices": [1, 3]}]}
    (tmp_path / "biv.json").write_text(json.dumps(biv))
    result = _run(["hkr", "--model", "3,2,1", "--in", "biv.json"], cwd=tmp_path)
    assert result.returncode == 0
    data = json.loads(result.stdout)
    coeffs = {tuple(map(tuple, t["slots"])): t["coeff_poly"]["terms"][0]["coeff"]
              for t in data["terms"]}
    assert coeffs == {((1,), (3,)): [1, 2], ((3,), (1,)): [-1, 2]}


def test_reduce_multivector_command(tmp_path):
    biv = {"degree": 2, "terms": [
        {"coeff_poly": {"terms": [{"coeff": [1, 1], "exp": [0, 0, 0, 0]}]},
         "indices": [2, 3]}]}
    (tmp_path / "biv.json").write_text(json.dumps(biv))
    result = _run(["reduce", "--model", "4,3,1", "--in", "biv.json"], cwd=tmp_path)
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["kind"] == "multivector"
    assert data["reduced_model"] == {"n_total": 2, "n_wobs": 2, "n_null": 0}
    assert data["result"]["terms"][0]["indices"] == [1, 2]
    table = _run(["reduce", "--model", "4,3,1", "--in", "biv.json", "--format", "table"],
                 cwd=tmp_path)
    assert table.returncode == 0
    assert table.stdout == ('kind: multivector\n'
                            'reduced_model: {"n_null": 0, "n_total": 2, "n_wobs": 2}\n'
                            'result: (1) d1^d2\n')


def test_jobs_default_from_environment(tmp_path):
    args = ["verify-theorem", "--model", "3,2,1", "--kmax", "2", "--cmax", "0"]
    plain = _run(args, cwd=tmp_path, CONHOCH_JOBS=None)
    result = _run(args, cwd=tmp_path, CONHOCH_JOBS="2")
    assert plain.returncode == 0
    assert result.returncode == 0
    assert result.stdout == plain.stdout


def test_bad_worker_count_is_an_input_error(tmp_path):
    args = ["verify-theorem", "--model", "3,2,1", "--kmax", "2", "--cmax", "0"]
    _assert_input_error(_run(args, cwd=tmp_path, CONHOCH_JOBS="abc"))
    _assert_input_error(_run(args, cwd=tmp_path, CONHOCH_JOBS="0"))
    _assert_input_error(_run(args + ["--jobs", "0"], cwd=tmp_path, CONHOCH_JOBS=None))


_ONE = {"terms": [{"coeff": [1, 1], "exp": [0, 0, 0]}]}


@pytest.mark.parametrize("command, document", [
    ("classify-function", {"terms": [{"coeff": [1, 0], "exp": [0, 0, 0]}]}),
    ("classify-function", {"terms": 5}),
    ("classify-symbol", {"arity": 1, "terms": [{"coeff_poly": _ONE, "slots": [[9]]}]}),
    ("bigd", {"arity": None, "terms": []}),
    ("bigd", {"arity": [1], "terms": []}),
    ("bigd", {"arity": 1, "terms": [{"coeff_poly": _ONE, "slots": [[1.5]]}]}),
    ("hkr", {"degree": None, "terms": []}),
    ("star-check", {"order": [1], "cochains": []}),
    ("classify-function", '{"terms": [{"coeff": [1e400, 1], "exp": [0, 0, 0]}]}'),
    ("classify-function", '{"terms": [{"coeff": [1, 1], "exp": [1e400, 0, 0]}]}'),
    ("reduce", 5),
    ("reduce", {"arity": 1, "terms": []}),
    ("reduce", {"arity": 1, "terms": [{"coeff_poly": _ONE, "slots": [[1]]}]}),
    ("star-equiv", {"star": {"order": 0, "cochains": []},
                    "star_prime": {"order": 0, "cochains": []}, "agree_to": None}),
    ("classify-function", "[" * 100000 + "]" * 100000),
], ids=["zero-denominator", "terms-not-an-array", "letter-out-of-range",
        "arity-null", "arity-array", "fractional-letter", "degree-null",
        "order-array", "coefficient-1e400", "exponent-1e400",
        "document-not-an-object", "reduce-empty-chain", "reduce-chain", "agree-to-null",
        "nested-too-deeply"])
def test_malformed_document_is_an_input_error(tmp_path, command, document):
    # a str is the document's raw text, for numbers json.dumps cannot write
    text = document if isinstance(document, str) else json.dumps(document)
    (tmp_path / "doc.json").write_text(text)
    result = _run([command, "--model", "3,2,1", "--in", "doc.json"], cwd=tmp_path)
    _assert_input_error(result)


def test_empty_row_set_is_valid(tmp_path):
    # a window below the first interesting degree produces an empty row set
    result = _run(["verify-theorem", "--model", "3,2,1", "--kmax", "1",
                   "--cmax", "0"], cwd=tmp_path)
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"all_match": True, "rows": []}


def test_hh_dim_degree_zero(tmp_path):
    result = _run(["hh-dim", "--model", "3,2,1", "--tag", "wobs",
                   "--degree", "0", "--cmax", "2"], cwd=tmp_path)
    assert result.returncode == 0
    rows = json.loads(result.stdout)["rows"]
    # observable monomials: {1}, {x2, x3}, {x1*x3, x2^2, x2*x3, x3^2}
    assert [r["hh_dim"] for r in rows] == [1, 2, 4]


@pytest.mark.parametrize("args", [
    ["verify-theorem", "--kmax", "1", "--cmax", "0"],
    ["verify-theorem", "--kmax", "2", "--cmax", "0"],
    ["hh-dim", "--degree", "2", "--kmax", "1"],
    ["hh-dim", "--degree", "1", "--kmax", "0"],
    ["hh-dim", "--degree", "0"],
], ids=["verify-empty", "verify", "hh2-empty", "hh1-empty", "hh0"])
def test_slice_commands_reject_other_tags(tmp_path, args):
    # the tag is checked before any slice is built: an empty window once
    # let verify-theorem print {"all_match": true, "rows": []} and exit 0
    result = _run(args + ["--model", "3,2,1", "--tag", "total_not_wobs"], cwd=tmp_path)
    _assert_input_error(result)
    assert result.stderr == "error: cohomology slices carry wobs/null tags\n"


def test_unsupported_tag_is_an_input_error(tmp_path):
    chain3 = {"arity": 3, "terms": [
        {"coeff_poly": {"terms": [{"coeff": [1, 1], "exp": [0, 0, 0]}]},
         "slots": [[1], [2], [3]]}]}
    (tmp_path / "c3.json").write_text(json.dumps(chain3))
    result = _run(["classify-symbol", "--model", "3,2,1", "--in", "c3.json",
                   "--tag", "total_not_wobs"], cwd=tmp_path)
    _assert_input_error(result)


@pytest.mark.parametrize("args", [
    ["verify-theorem", "--kmax", "-1", "--cmax", "0"],
    ["verify-theorem", "--kmax", "2", "--cmax", "-1"],
    ["hh-dim", "--cmax", "-3"],
    ["hh-dim", "--degree", "1", "--kmax", "-2"],
], ids=["verify-kmax", "verify-cmax", "hh-dim-cmax", "hh-dim-kmax"])
def test_negative_window_bound_is_an_input_error(tmp_path, args):
    # a negative --kmax or --cmax once gave an empty row set and exit 0
    result = _run(args + ["--model", "3,2,1"], cwd=tmp_path)
    _assert_input_error(result)
    assert result.stdout == ""


def _c(num, den=1, nvars=3):
    return {"terms": [{"coeff": [num, den], "exp": [0] * nvars}]}


_PAIR = [({"coeff_poly": _c(1, 2), "slots": [[1], [3]]},
          {"coeff_poly": _c(-1, 2), "slots": [[3], [1]]}),
         ({"coeff_poly": _c(-1, 2), "slots": [[1], [3]]},
          {"coeff_poly": _c(-3, 2), "slots": [[3], [1]]})]
_TABLE_INPUTS = {
    "function.json": {"terms": [{"coeff": [3, 2], "exp": [0, 2, 0]},
                                {"coeff": [-1, 1], "exp": [0, 1, 0]},
                                {"coeff": [1, 1], "exp": [1, 0, 1]},
                                {"coeff": [-1, 2], "exp": [0, 0, 0]}]},
    "op.json": {"symbol": {"arity": 1, "terms": [{"coeff_poly": _ONE, "slots": [[1, 3]]}]}},
    "letter.json": {"arity": 1, "terms": [{"coeff_poly": _ONE, "slots": [[1]]}]},
    "dphi.json": {"arity": 2, "terms": [{"coeff_poly": _c(-1), "slots": [[1], [3]]},
                                        {"coeff_poly": _c(-1), "slots": [[3], [1]]}]},
    "star.json": {"order": 1, "cochains": [{"symbol": {"arity": 2, "terms": list(_PAIR[0])}}]},
    "star_pair.json": {"agree_to": 0,
                       "star": {"order": 1, "cochains": [
                           {"symbol": {"arity": 2, "terms": list(_PAIR[0])}}]},
                       "star_prime": {"order": 1, "cochains": [
                           {"symbol": {"arity": 2, "terms": list(_PAIR[1])}}]}},
    "bad_star.json": {"order": 2, "cochains": [
        {"symbol": {"arity": 2, "terms": [
            {"coeff_poly": _c(-3, nvars=1), "slots": [[1], [1, 1]]},
            {"coeff_poly": _c(-3, nvars=1), "slots": [[1, 1], [1]]}]}},
        {"symbol": {"arity": 2, "terms": []}}]},
}
_ROW_321 = '{"n_null": 1, "n_total": 3, "n_wobs": 2}'
_ROW_211 = '{"n_null": 1, "n_total": 2, "n_wobs": 1}'


@pytest.mark.parametrize("args, expected", [
    (["reduce", "--model", "3,2,1", "--in", "function.json"],
     'kind: function\nreduced_model: {"n_null": 0, "n_total": 1, "n_wobs": 1}\n'
     'result: 3/2*x1^2 - x1 - 1/2\n'),
    (["delta", "--model", "3,2,1", "--in", "op.json"],
     "(-1) d1(x)d3  +  (-1) d3(x)d1\n"),
    (["star-equiv", "--model", "3,2,1", "--in", "star_pair.json"],
     "S: (-1) d1vd3\nconstraint_equivalent: no\norder: 1\nplain_equivalent: yes\n"),
    (["bigd", "--model", "3,2,1", "--in", "letter.json"], "0\n"),
    (["find-potential", "--model", "3,2,1", "--in", "dphi.json"],
     "has_constraint_potential: no\npotential: None\n"),
    (["classify-star", "--model", "3,2,1", "--in", "star.json"],
     "X: (1) d1^d3\npsi: 0\n"),
    (["decompose-cocycle", "--model", "3,2,1", "--in", "dphi.json"],
     'ambient_bivector: 0\nclass: {"X": {"degree": 2, "terms": []}, "psi": {"arity": 1, '
     '"terms": [{"coeff_poly": {"terms": [{"coeff": [1, 1], "exp": [0, 0, 0]}]}, '
     '"slots": [[1, 3]]}]}}\npotential: 0\nreduced_bivector: 0\n'),
    (["star-check", "--model", "1,1,0", "--in", "bad_star.json"],
     'associative: no\nconstraint: yes\nviolation: {"arguments": [{"terms": [{"coeff": '
     '[1, 1], "exp": [1]}]}, {"terms": [{"coeff": [1, 1], "exp": [1]}]}, {"terms": '
     '[{"coeff": [1, 1], "exp": [4]}]}], "defect": {"terms": [{"coeff": [-216, 1], '
     '"exp": [0]}]}, "order": 2}\n'),
    (["hh-dim", "--model", "3,2,1", "--degree", "0", "--cmax", "1"],
     "model                                     tag   degree  c  hh_dim\n"
     "----------------------------------------  ----  ------  -  ------\n"
     f"{_ROW_321}  wobs  0       0  1     \n"
     f"{_ROW_321}  wobs  0       1  2     \n"),
    (["verify-theorem", "--model", "2,1,1", "--kmax", "2", "--cmax", "0", "--reps"],
     "model                                     tag   degree  K  c  hh_dim  rhs_dim  match\n"
     "----------------------------------------  ----  ------  -  -  ------  -------  -----\n"
     f"{_ROW_211}  wobs  2       2  0  2       2        yes  \n"
     f"{_ROW_211}  null  2       2  0  2       2        yes  \n"
     "\nall_match: yes\n"),
], ids=["polynomial", "operator", "nested-operator", "zero-chain", "none",
        "multivector-and-zero", "nested-dicts", "violation", "hh-rows", "hh-rows-with-reps"])
def test_table_text_of_each_value_shape(tmp_path, args, expected):
    # --format table text of every report value shape, pinned byte for byte
    for name, doc in _TABLE_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    result = _run(args + ["--format", "table"], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected
