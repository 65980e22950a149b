import ast
import functools
import importlib.util
import io
import re
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from kummerlcp import codes, ffield, gf_rank, make_curve, nonspecial
from kummerlcp.cli import main
from kummerlcp.codes import fiber_values
from kummerlcp.ffield import Poly

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kummerlcp"
ROOT = PACKAGE.parent.parent


def _package_nodes(match):
    """'module:line' of every ast node in the package that match accepts."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if match(node)]
    return found


def test_no_assert_statements_in_package():
    # invariants must raise a KummerError; asserts vanish under python -O
    found = _package_nodes(lambda node: isinstance(node, ast.Assert))
    assert not found, f"assert statements in the package: {found}"


def test_package_imports_are_read():
    # a name a module imports and never reads is dead code; __init__.py
    # imports to re-export, so it is exempt
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unread += [f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                           for alias in node.names
                           if (name := alias.asname or alias.name.split(".")[0])
                           not in read]
    assert not unread, f"imported names never read: {unread}"


def _raises_builtin(node, banned=("ValueError", "AssertionError")):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id in banned


def test_no_builtin_value_or_assertion_errors_raised_in_package():
    # bad input must end in a KummerError, which the CLI maps to an exit code
    found = _package_nodes(_raises_builtin)
    assert not found, f"ValueError/AssertionError raised in the package: {found}"


def _bench_modules():
    """The benchmark's stagetrace and workloads modules."""
    bench = ROOT / "bench"
    sys.path.insert(0, str(bench))
    try:
        import stagetrace
        import workloads
    finally:
        sys.path.remove(str(bench))
    return stagetrace, workloads


def test_bench_tracer_covers_every_layer():
    # a refactor that drops or renames a traced function must fail here,
    # not only in the benchmark's traced run
    stagetrace, workloads = _bench_modules()
    # the sweep op runs on ex37 alone: its 24 non-special tuples make it
    # call criterion_check, which a curve with none would skip
    ex37 = [make_curve(None, 6, [1, 1, 1, 3, 5])]
    for name in ("catalog", "dickson103_n400", "nonspecial_sweep"):
        wl = workloads.WORKLOADS[name]
        with stagetrace.Tracer() as tracer:
            inputs = ex37 if name == "nonspecial_sweep" else wl.setup(1)
            wl.prepare(inputs)
            out = wl.op(inputs, 0)
            snap = tracer.snapshot()
        assert wl.check(inputs, 0, out) is None
        assert stagetrace.coverage_gaps(snap, name) == [], name
        assert stagetrace.installed_wrappers() == []


@pytest.mark.parametrize("name, counts", [
    # three pair builds over 61 split values, one over 50
    ("catalog", (3, 61, 3)),
    ("dickson103_n400", (1, 50, 1)),
])
def test_bench_op_checks_fibers_once(name, counts, monkeypatch):
    # each pair build checks its fibers once, splits each x-value once and
    # takes div(h) from the fibers: a re-check or a re-split fails a count
    stagetrace, workloads = _bench_modules()
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(1)
    checked = []

    def spy(curve, places):
        checked.append(len(places))
        return fiber_values(curve, places)

    monkeypatch.setattr(codes, "fiber_values", spy)
    with stagetrace.Tracer() as tracer:
        out = wl.op(inputs, 0)
        snap = tracer.snapshot()
    assert wl.check(inputs, 0, out) is None
    assert (len(checked), snap["curve.splitting_type.calls"],
            snap["curve.principal_divisor.calls"]) == counts


def test_bench_sweep_op_sums_counts_once():
    # one enumeration makes one bulk call over the whole e_inf * prod(e_i)
    # box of ex37 (6 * 6 * 6 * 6 * 2 * 6 tuples), not one call per n0
    stagetrace, workloads = _bench_modules()
    wl = workloads.WORKLOADS["nonspecial_sweep"]
    inputs = [make_curve(None, 6, [1, 1, 1, 3, 5])]
    wl.prepare(inputs)
    with stagetrace.Tracer() as tracer:
        out = wl.op(inputs, 0)
        snap = tracer.snapshot()
    assert wl.check(inputs, 0, out) is None
    assert (snap["nonspecial.bulk_verdicts.calls"],
            snap["nonspecial.bulk_verdicts.cells"]) == (1, 15552)


def _traced_op(name, monkeypatch):
    """The trace of the seed-1 set-up and one op of a code workload, and the
    number of nonzero entries in the matrices codes.gf_rank sees."""
    stagetrace, workloads = _bench_modules()
    wl = workloads.WORKLOADS[name]
    nonzeros = []

    def spy(field, matrix):
        nonzeros.append(int(np.count_nonzero(matrix)))
        return gf_rank(field, matrix)

    monkeypatch.setattr(codes, "gf_rank", spy)
    with stagetrace.Tracer() as tracer:
        inputs = wl.setup(1)  # builds no code
        out = wl.op(inputs, 0)
        snap = tracer.snapshot()
    assert wl.check(inputs, 0, out) is None
    assert stagetrace.coverage_gaps(snap, name) == []
    return snap, sum(nonzeros)


def test_bench_catalog_op_ranks_by_residue(monkeypatch):
    # the delta = 1 pairs of f169 and f49 rank their coupled weights by
    # residue: lcp_verify evaluates nothing (one eval_matrix call per code,
    # 6, where an evaluated weight would add one) and gf_rank sees 162
    # nonzeros in one residue matrix per rank pass plus a saturation check
    # per stacked f169 or f49 pair, not the 56 x 56 and 24 x 24 evaluated
    # blocks of the joined weights
    snap, nonzeros = _traced_op("catalog", monkeypatch)
    assert snap["codes.eval_matrix.calls"] == 6
    assert (snap["codes.gf_rank.calls"], nonzeros) == (9, 162)


def test_bench_dickson103_op_ranks_by_residue(monkeypatch):
    # one eval_matrix call per build_code, and one gf_rank call for the
    # pair: the stack's eight 3 x 3 diagonal remainders (the codes' own
    # weights saturate), so a slide back to evaluated rank shows as a count
    snap, nonzeros = _traced_op("dickson103_n400", monkeypatch)
    assert snap["codes.eval_matrix.calls"] == 2
    assert (snap["codes.gf_rank.calls"], nonzeros) == (1, 24)


@pytest.mark.parametrize("name, ranks, divided", [
    ("catalog", 9, 2),
    ("dickson103_n400", 3, 0),
])
def test_bench_op_ranks_without_poly_division(name, ranks, divided, monkeypatch):
    # x_part_rank (both codes and their stack, per pair) sets its residue
    # blocks by index: only two catalog rows, over a factor set that is
    # neither side 1's nor L, are divided as a Poly
    stagetrace, workloads = _bench_modules()
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(1)
    inside, calls = [], {"x_part_rank": 0, "divmod": 0}

    def counted(name, function):
        def call(*args):
            calls[name] += name == "x_part_rank" or bool(inside)
            inside.append(name)
            try:
                return function(*args)
            finally:
                inside.pop()
        return call

    monkeypatch.setattr(codes, "x_part_rank", counted("x_part_rank", codes.x_part_rank))
    monkeypatch.setattr(Poly, "__divmod__", counted("divmod", Poly.__divmod__))
    out = wl.op(inputs, 0)
    assert wl.check(inputs, 0, out) is None
    assert calls == {"x_part_rank": ranks, "divmod": divided}


def test_mutant_texts_occur_once():
    # tools/mutants.py applies each mutant by replacing its old text in a
    # copy of src/: a change that moves, edits or repeats one of those
    # texts must update the list, or the mutant would not apply
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert {m.name: mutants.occurrences(m) for m in mutants.MUTANTS
            if mutants.occurrences(m) != 1} == {}
    assert all(m.old != m.new for m in mutants.MUTANTS)


def _declared_requirements():
    """Import names of the dependencies and the test extra in pyproject."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+; 3.10 has no TOML reader
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    reqs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", r)[0].lower().replace("-", "_")
            for r in reqs}


def test_third_party_imports_are_declared():
    # every module the tests or the benchmark import must come with Python,
    # the package, a sibling file or a requirement in pyproject.toml
    dirs = [ROOT / "tests", ROOT / "bench"]
    local = {path.stem for d in dirs for path in d.glob("*.py")}
    known = (set(sys.stdlib_module_names) | local | _declared_requirements()
             | {"kummerlcp"})
    undeclared = []
    for path in sorted(p for d in dirs for p in d.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                           for name in names
                           if name.split(".")[0] not in known]
    assert not undeclared, f"imports missing from pyproject.toml: {undeclared}"


def _readme_block(heading, lang):
    """The first fenced block of the given language under a README heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(heading + "\n")[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S)[1].splitlines()


def test_readme_commands_and_example_run():
    commands = [shlex.split(line)[1:] for line in _readme_block("## CLI", "sh")
                if line.startswith("kummerlcp ")]
    assert commands
    for argv in commands:
        for flags in ([], ["--json"]):
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(flags + argv)
            assert code == 0 and out.getvalue(), flags + argv
    # the example prints what its comments say
    example = _readme_block("## Example", "python")
    stated = [line.split("#")[-1].strip() for line in example
              if line.startswith("print(")]
    assert stated == ["24", "224 160 64 True"]
    out = io.StringIO()
    with redirect_stdout(out):
        exec("\n".join(example), {})
    assert out.getvalue().splitlines() == stated


#: the src/ functions and methods that no README CLI command and no
#: reproduce id reaches, each kept as a test oracle or as public API
UNREACHED = {
    "codes.Basis.__getitem__": "api: a Basis reads as a sequence of rows",
    "codes.Basis.__iter__": "api: a Basis reads as a sequence of rows",
    "codes.LinearCode.gen": "api: the generator matrix on demand, the dense rank oracle's input",
    "codes.LinearCode.to_json": "api: a code with its generator rows",
    "codes.Run.row": "api: one row of a run, for Basis indexing and iteration",
    "codes.min_distance_exact": "oracle: exhaustive minimum distance against the designed one",
    "curve.Divisor.__ge__": "api: divisor order",
    "curve.Divisor.__hash__": "api: divisors as set members and keys",
    "curve.Divisor.__repr__": "api: divisors in messages and test reports",
    "curve.Divisor.from_json": "api: the JSON reader of Divisor.to_json",
    "curve.Divisor.is_effective": "api: D >= 0",
    "curve.Divisor.items": "api: the sorted places and coefficients",
    "curve.Divisor.to_json": "api: the JSON form of a divisor",
    "curve.InvariantTuple.is_effective": "api: the tuple check of ell_invariant",
    "curve.KummerCurve.__repr__": "api: curves in messages and test reports",
    "curve.KummerCurve.f_poly": "oracle: f as a Poly, for brute-force point counts",
    "curve.KummerCurve.from_json": "api: the curve reader of the CLI's --spec",
    "curve.Place.from_json": "api: the JSON reader of Place.to_json",
    "curve.Place.to_json": "api: the JSON form of a place",
    "curve._items": "api: the list check of the from_json readers",
    "curve._keys": "api: the key check of the from_json readers",
    "curve.ell_invariant": "oracle: dim L(A) by restriction, against the criterion",
    "curve.ell_invariant_bulk": "oracle: dim L(A) over a box, against bulk_verdicts",
    "curve.rational_degree": "oracle: degrees in the rational subfield",
    "curve.rational_ell": "oracle: dimensions in the rational subfield",
    "curve.restrict": "api: a divisor restricted to the rational subfield",
    "ffield.FieldSpec.__hash__": "api: fields as set members and keys",
    "ffield.FieldSpec.__repr__": "api: fields in messages and test reports",
    "ffield.FieldSpec.to_json": "api: the JSON form of a field",
    "ffield.Poly.__eq__": "api: polynomial equality",
    "ffield.Poly.__hash__": "api: polynomials as set members and keys",
    "ffield.Poly.__pow__": "api: polynomial powers",
    "ffield.Poly.__repr__": "api: polynomials in messages and test reports",
    "ffield.Poly.one": "api: the polynomial 1",
    "instances.dickson_curve_double": "api: the curves of the half_double regimes",
    "nonspecial._row": "api: the j check of bound_B and overflow_set",
    "nonspecial.bound_B": "api: B(n0, j) for one j; criterion_check reads every j at once",
    "nonspecial.coeffs_all_ones": "api: the closed-form tuple for lambda = (1, ..., 1)",
    "nonspecial.coeffs_half_double": "api: the closed-form tuple of the half_double regimes",
    "nonspecial.overflow_set": "api: C(n0, j) for one j; criterion_check counts every j at once",
}


def _package_functions():
    """(file, first line) -> 'module.qualname' of each function and method
    defined at the top level of a package module or of its classes; the
    first line is the first decorator's, as in a code object."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            for fn, prefix in ([(node, "")] if isinstance(node, ast.FunctionDef) else
                               [(sub, node.name + ".") for sub in node.body
                                if isinstance(sub, ast.FunctionDef)]
                               if isinstance(node, ast.ClassDef) else []):
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                found[(str(path), first)] = f"{path.stem}.{prefix}{fn.name}"
    return found


def test_unreached_functions_are_in_the_ledger(monkeypatch):
    # the README CLI commands (plain, --json, and --csv where they have
    # CSV) and the four reproduce ids run in process under sys.setprofile;
    # a function they do not reach must be listed in UNREACHED as a test
    # oracle or as public API, and a listed one must stay unreached.  The
    # package's two caches start empty, so what earlier tests built is
    # rebuilt here and counts as reached
    for module, cache in ((ffield, "_fields"), (nonspecial, "_residues")):
        fresh = functools.lru_cache(maxsize=None)(getattr(module, cache).__wrapped__)
        monkeypatch.setattr(module, cache, fresh)
    argvs = []
    for argv in (shlex.split(line)[1:] for line in _readme_block("## CLI", "sh")
                 if line.startswith("kummerlcp ")):
        argvs += [argv, ["--json"] + argv] + ([["--csv"] + argv]
                                              if argv[0] == "nonspecial" else [])
    argvs += [["reproduce", cid] for cid in ("ex37", "f49", "f169", "dickson_half_m8")]
    reached, package = set(), str(PACKAGE)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        for argv in argvs:
            with redirect_stdout(io.StringIO()):
                main(argv)
    finally:
        sys.setprofile(None)
    unreached = {name for key, name in _package_functions().items() if key not in reached}
    assert sorted(unreached - UNREACHED.keys()) == [], "unreached and not in the ledger"
    assert sorted(UNREACHED.keys() - unreached) == [], "in the ledger but reached"
    assert all(re.match(r"(oracle|api): \S", why) for why in UNREACHED.values())
