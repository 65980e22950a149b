import ast
import io
import re
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from kummerlcp import codes, gf_rank, make_curve
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
