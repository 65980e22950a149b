"""The benchmark's three workloads.

Each workload builds its inputs from a seed in ``setup``, computes what its
checks need in ``prepare`` (not part of the measured set-up), runs one op at
a time in ``op`` (a closed loop: the caller starts op i+1 only after op i has
returned) and checks each op's output in ``check``, outside the op's timed
region.  ``tuples`` gives the number of non-special coefficient tuples an op
classifies, computed from the inputs alone; ``trace_ops`` is the fixed list
of op indices one traced pass runs.

Program functions are called through their modules (``codes.x``, not a
name imported from them), so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import math
import random

import numpy as np

from kummerlcp import codes, curve as curve_mod, ffield, instances, nonspecial


def box_size(m: int, lambdas) -> int:
    """Tuples in the bounded coefficient box e_inf * prod e_i of a curve."""
    e = [m // math.gcd(m, lam) for lam in lambdas]
    return m // math.gcd(m, sum(lambdas)) * math.prod(e)


class Catalog:
    """One op reproduces every catalog instance, in a seeded order."""

    name = "catalog"
    IDS = ("f169", "dickson_half_m8", "ex37", "f49")
    # ex37 enumerates its whole box; each of the three pair builds
    # (f169, f49, dickson_half_m8) must verify its defining tuple.
    TUPLES = box_size(6, (1, 1, 1, 3, 5)) + 3

    def setup(self, seed: int):
        for p in (7, 13):
            ffield.make_field(p, 2)
        for cid in self.IDS:
            instances.catalog(cid)
        return random.Random(seed)

    def prepare(self, rng):
        pass

    def op(self, rng, i: int):
        return {cid: instances.reproduce(cid) for cid in rng.sample(self.IDS, len(self.IDS))}

    def check(self, rng, i: int, out) -> str | None:
        for cid in ("f169", "dickson_half_m8", "ex37"):
            if not out[cid]["ok"]:
                return f"reproduce({cid!r}) is not ok: {out[cid]['observed']}"
        f49 = out["f49"]
        obs = f49["observed"]
        # f49's recorded targets are unreachable over GF(49): it stays red
        if f49["ok"] or (obs["census"], obs["maximal"], obs["t"], obs["verified"]) \
                != (104, False, 12, True):
            return f"reproduce('f49') left its documented state: {f49}"
        return None

    def tuples(self, rng, i: int) -> int:
        return self.TUPLES

    def trace_ops(self, rng) -> list[int]:
        return [0]


class Dickson103:
    """One op builds the half_single pair on y^8 = (x+2)^4 phi_3(x) over
    GF(103^2) at 50 seeded completely split x-values: n = 400."""

    name = "dickson103_n400"
    N_VALUES = 50
    PARAMS = (400, 376, 24)

    def setup(self, seed: int):
        curve = instances.dickson_curve_single(8, 103)
        values = curve_mod.completely_split_values(curve)
        return curve, sorted(random.Random(seed).sample(values, self.N_VALUES))

    def prepare(self, inputs):
        pass

    def op(self, inputs, i: int):
        curve, values = inputs
        return codes.lcp_build_regime(curve, "half_single", split_values=values)

    def check(self, inputs, i: int, pair) -> str | None:
        got = (pair.C.n, pair.C.k, pair.E.k)
        if got != self.PARAMS:
            return f"(n, k_C, k_E) = {got}, expected {self.PARAMS}"
        if not (pair.verified and pair.gcd_identity and pair.lmd_identity):
            return (f"verified={pair.verified} gcd={pair.gcd_identity} "
                    f"lmd={pair.lmd_identity}")
        return None

    def tuples(self, inputs, i: int) -> int:
        return 1  # the pair's defining tuple

    def trace_ops(self, inputs) -> list[int]:
        return [0]


def sweep_curves(rng: random.Random) -> list[tuple[int, tuple]]:
    """Abstract curves (m, lambdas): m = 2..10, r = 2..5, 50 draws each,
    keeping distinct lambda tuples with gcd(m, lambdas) = 1."""
    out = []
    for m in range(2, 11):
        for r in range(2, 6):
            seen = set()
            for _ in range(50):
                lambdas = tuple(rng.randrange(1, m) for _ in range(r))
                if math.gcd(m, *lambdas) != 1 or lambdas in seen:
                    continue
                seen.add(lambdas)
                out.append((m, lambdas))
    return out


def oracle_tuples(curve) -> list[tuple]:
    """Canonical non-special degree-g tuples from the restriction formula:
    deg = g and ell = 1 over the box, coefficients sorted within each
    equal-lambda group, one row per orbit, in lexicographic order."""
    ram = curve.ram
    groups = {}
    for i, lam in enumerate(curve.lambdas):
        groups.setdefault(lam, []).append(i)
    rows = []
    for n0 in range(ram.e_inf):
        deg = np.zeros((), dtype=np.int64) + n0 * ram.d_inf
        for axis, (e_i, d_i) in enumerate(zip(ram.e, ram.d)):
            shape = [1] * curve.r
            shape[axis] = e_i
            deg = deg + (np.arange(e_i, dtype=np.int64) * d_i).reshape(shape)
        hits = np.argwhere((deg == curve.genus) & (curve_mod.ell_invariant_bulk(curve, n0) == 1))
        for idx in groups.values():
            hits[:, idx] = np.sort(hits[:, idx], axis=1)
        rows.append(np.column_stack([np.full(len(hits), n0), hits]))
    table = np.unique(np.vstack(rows), axis=0)
    return [tuple(int(v) for v in row) for row in table]


class NonspecialSweep:
    """One op enumerates the non-special tuples of one abstract curve
    (deduplicated) and re-checks each with the cond2 criterion.  The curves
    are those of acceptance criterion 3, in an order drawn from the seed."""

    name = "nonspecial_sweep"
    # Acceptance criterion 3's generator seed.  A population drawn per run
    # seed moves the total box by up to 20 % and the median op by ~18 %
    # from seed to seed, which would drown a change in the noise.
    POPULATION_SEED = 20260824

    def __init__(self):
        self._oracles = {}  # (m, lambdas) -> oracle_tuples

    def setup(self, seed: int):
        specs = sweep_curves(random.Random(self.POPULATION_SEED))
        random.Random(seed).shuffle(specs)
        return [curve_mod.make_curve(None, m, list(lams)) for m, lams in specs]

    def prepare(self, curves):
        for curve in curves:
            key = (curve.m, curve.lambdas)
            if key not in self._oracles:
                self._oracles[key] = oracle_tuples(curve)

    def op(self, curves, i: int):
        curve = curves[i % len(curves)]
        tups = nonspecial.enumerate_nonspecial(curve, dedup=True)
        return tups, [nonspecial.criterion_check(curve, t, mode="cond2") for t in tups]

    def check(self, curves, i: int, out) -> str | None:
        curve = curves[i % len(curves)]
        tups, reports = out
        if [(t.n0,) + t.n for t in tups] != self._oracles[(curve.m, curve.lambdas)]:
            return f"{curve}: enumeration differs from the ell oracle"
        if not all(r.passed for r in reports):
            return f"{curve}: an enumerated tuple fails cond2"
        return None

    def tuples(self, curves, i: int) -> int:
        curve = curves[i % len(curves)]
        return box_size(curve.m, curve.lambdas)

    def trace_ops(self, curves) -> list[int]:
        return list(range(len(curves)))


WORKLOADS = {w.name: w for w in (Catalog(), Dickson103(), NonspecialSweep())}
