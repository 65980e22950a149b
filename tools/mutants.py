#!/usr/bin/env python3
"""One-line mutants of the exact kernels, each run against the tests that
should catch it.

Each entry of MUTANTS names a file under src/kummerlcp, a text that occurs
exactly once in it, the text that replaces it, and the pytest arguments
that select the tests meant to fail.  For each mutant the script copies
src/ to a temporary directory, applies the mutant there and runs the
selected tests with PYTHONPATH on the copy; it never writes to src/.  A
mutant is killed when the tests fail.  A mutant that no test can kill
carries the reason it is equivalent, and is still run: if its tests fail,
the reason is wrong.

    python tools/mutants.py           # every mutant
    python tools/mutants.py 4 7       # mutants 4 and 7
    python tools/mutants.py --list    # the list, without running

Exit status 0 when every mutant is killed or survives as marked, 1
otherwise, and also when an old text does not occur exactly once.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str                         # under src/kummerlcp
    old: str                          # occurs exactly once in the file
    new: str
    tests: tuple                      # pytest arguments, from the repo root
    equivalent: Optional[str] = None  # why no test can tell it apart


#: the tests of x_part_rank, gf_rank and the pair builds
RANK = ("tests/test_codes.py", "-k", "rank or branches or side_one or pairs or stacks")
CRITERION = ("tests/test_nonspecial.py",)

MUTANTS = [
    Mutant("rule 1: quotient degree j one column right", "codes.py",
           "R[i + j - j0, j - d1 - 1 + e1] = c", "R[i + j - j0, j - d1 + e1] = c", RANK),
    Mutant("rule 1: start at j = d_1, inside side 1's span", "codes.py",
           "range(max(j0, d1 + 1) if ratio[f] == c1", "range(max(j0, d1) if ratio[f] == c1",
           RANK),
    Mutant("rule 2: the power j = deg c_1 taken as its own remainder", "codes.py",
           "elif not ratio[f] and j < e1:", "elif not ratio[f] and j <= e1:", RANK),
    Mutant("rule 3: the quotient from degree d_1 up", "codes.py",
           "high = quot.coeffs[d1 + 1:]", "high = quot.coeffs[d1:]", RANK),
    Mutant("cols(): side 1's degree n_1 dropped", "codes.py",
           "return max(e1, hit[-1] + 1) if hit.size else e1",
           "return hit[-1] + 1 if hit.size else e1",
           ("tests/test_codes.py", "-k", "differential or side_one")),
    Mutant("local: joined rows counted towards saturation", "codes.py",
           "local = R[[k not in joined for k in ids]]", "local = R", RANK),
    Mutant("local: a column at degree T let through", "codes.py",
           "if d1 + local.shape[1] < T and local.size", "if d1 + local.shape[1] <= T and local.size",
           RANK),
    Mutant("local: rank past T", "codes.py",
           "d1 + 1 + gf_rank(field, local) == T:", "d1 + 1 + gf_rank(field, local) >= T:", RANK,
           equivalent="local has fewer than T - d_1 columns, so d_1 + 1 + its rank is at most T"),
    Mutant("fallback: degree T ranked by residue", "codes.py",
           "if d1 + cols(R) >= T:", "if d1 + cols(R) > T:", RANK),
    Mutant("fallback: a numerator (x - a)^1 ranked by residue", "codes.py",
           "any(r < 0 for e in sets.values()", "any(r < -1 for e in sets.values()", RANK),
    Mutant("factor set: the last power of a repeated alpha wins", "codes.py",
           "sets[f][alpha] = sets[f].get(alpha, 0) + r", "sets[f][alpha] = r", RANK),
    Mutant("saturation: side 1 of T rows not counted as T", "codes.py",
           "if d1 + 1 >= T or not ids:", "if d1 >= T or not ids:", RANK),
    Mutant("gf_rank peel: a row with two unit columns peeled twice", "codes.py",
           "peeled = np.unique(np.nonzero(M[:, single])[0])",
           "peeled = np.nonzero(M[:, single])[0]", ("tests/test_codes.py", "-k", "gf_rank")),
    Mutant("gf_rank peel: peeled rows left in the elimination", "codes.py",
           "M = np.delete(M, peeled, axis=0)[:, ~single]", "M = M[:, ~single]",
           ("tests/test_codes.py", "-k", "gf_rank")),
    Mutant("bulk_verdicts: guard bit one place low", "nonspecial.py",
           "sum(1 << (t + w - 1) for t in range(0, shifts.step, w))",
           "sum(1 << (t + w - 2) for t in range(0, shifts.step, w))", CRITERION),
    Mutant("bulk_verdicts: fill digits 2^(w-1) in place of 2^(w-1) - 1", "nonspecial.py",
           "fill = sum(((1 << (w - 1)) - 1) << t for t in digits)",
           "fill = sum((1 << (w - 1)) << t for t in digits)", CRITERION),
    Mutant("bulk_verdicts: digits one bit narrow, no room for the guard", "nonspecial.py",
           "w = r.bit_length() + 1\n    dtype, shifts", "w = r.bit_length()\n    dtype, shifts",
           CRITERION),
    Mutant("_word_layout: digits up to the sign bit", "nonspecial.py",
           "if (m - 1) * w < 8 * dtype.itemsize:", "if (m - 1) * w <= 8 * dtype.itemsize:",
           CRITERION),
    Mutant("_reach: clip at m, where a zero residue reads m", "nonspecial.py",
           "min(ni * di, curve.m - 1)", "min(ni * di, curve.m)", CRITERION),
    Mutant("_reach: n_i = 0 reaches residue 1", "nonspecial.py",
           "min(ni * di, curve.m - 1)", "min(max(ni * di, 1), curve.m - 1)", CRITERION),
    Mutant("_residues: a zero residue read as 0, not m", "nonspecial.py",
           "table = (np.outer(lambdas, np.arange(1, m)) - 1) % m + 1",
           "table = np.outer(lambdas, np.arange(1, m)) % m", CRITERION),
    Mutant("split_fiber: a branch value let through", "curve.py",
           'if info.kind != "split":', 'if info.kind == "inert-or-partial":',
           ("tests/test_codes.py", "-k", "split_place_list")),
    Mutant("_restricted_summand: the floor r_i rounded up at a multiple of m", "curve.py",
           "r = [(ni * di + t * lam) // curve.m", "r = [(ni * di + t * lam + 1) // curve.m",
           ("tests/test_curve.py", "-k", "ell")),
    Mutant("_restricted_summand: the degree floor one higher", "curve.py",
           "return (n0 * ram.d_inf - t * ram.lam_sum) // curve.m + sum(r), r",
           "return (n0 * ram.d_inf - t * ram.lam_sum + 1) // curve.m + sum(r), r",
           ("tests/test_curve.py", "-k", "ell")),
    Mutant("infinity_functional: omega to the power t mod e_inf", "codes.py",
           "power = F.pow(labels[0], bf.t // curve.ram.e_inf)",
           "power = F.pow(labels[0], bf.t % curve.ram.e_inf)",
           ("tests/test_codes.py", "-k", "functional or rr_basis")),
    Mutant("ffield: the zero sentinel one period short", "ffield.py",
           "log[0] = 2 * (q - 1)", "log[0] = q - 1", ("tests/test_ffield.py",)),
    Mutant("ffield: add keeps the carry", "ffield.py",
           "out += (((a // pw) + (b // pw)) % p) * pw",
           "out += ((a // pw) % p + (b // pw) % p) * pw", ("tests/test_ffield.py",)),
]


def occurrences(mutant: Mutant) -> int:
    return (SRC / "kummerlcp" / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def killed(mutant: Mutant) -> bool:
    """Whether the selected tests fail on a copy of src/ with the mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "kummerlcp" / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import kummerlcp; print(kummerlcp.__file__)"],
                               env=env, capture_output=True, text=True, check=True).stdout
        if not where.startswith(str(copy)):
            raise SystemExit(f"the copy is not the package imported: {where.strip()}")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a test failed; anything else is no verdict
        raise SystemExit(f"pytest exited {proc.returncode} on {mutant.name!r}:\n{proc.stdout[-2000:]}")
    return proc.returncode == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("index", type=int, nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    bad = [f"{m.file}: {m.old!r} occurs {n} times" for m in MUTANTS
           if (n := occurrences(m)) != 1]
    if bad:
        print("\n".join(bad))
        return 1
    chosen = args.index or range(len(MUTANTS))
    if args.list:
        for i in chosen:
            m = MUTANTS[i]
            print(f"{i:2d} {m.file}: {m.name}" + (" (equivalent)" if m.equivalent else ""))
        return 0
    failures = 0
    for i in chosen:
        m = MUTANTS[i]
        start = time.perf_counter()
        dead = killed(m)
        ok = dead != bool(m.equivalent)
        verdict = "killed" if dead else "survived"
        note = f"equivalent: {m.equivalent}" if m.equivalent else ""
        print(f"{i:2d} {verdict:8s} {time.perf_counter() - start:6.1f}s "
              f"{'ok ' if ok else 'BAD'} {m.file}: {m.name}  {note}".rstrip(), flush=True)
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
