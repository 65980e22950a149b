"""Command-line interface.

Subcommands: curve info, nonspecial enumerate, nonspecial check, lcp build,
census, reproduce.  Curves are given inline (--m/--lambdas, optionally
--field/--alphas), as a JSON file (--spec), or by catalog id (--catalog).
Output is text by default; --json switches to JSON, and --csv to CSV on
nonspecial enumerate and check (the commands with a CSV form).  Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import codes, curve as curve_mod, instances, nonspecial
from .curve import InvariantTuple, KummerCurve, make_curve
from .errors import KummerError, UsageError
from .ffield import make_field


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _tuple_arg(c: KummerCurve, text: str) -> InvariantTuple:
    vals = _int_list(text)
    if len(vals) != c.r + 1:
        raise UsageError(f"--tuple needs {c.r + 1} entries (n0 first)")
    return InvariantTuple(vals[0], tuple(vals[1:]))


def _add_curve_args(sp):
    sp.add_argument("--catalog", help="catalog id (ex37, f49, f169, dickson_half_m8)")
    sp.add_argument("--spec", help="path to a curve spec JSON file")
    sp.add_argument("--m", type=int, help="extension degree")
    sp.add_argument("--lambdas", help="comma-separated branch multiplicities")
    sp.add_argument("--field", help="base field as p,k")
    sp.add_argument("--alphas", help="comma-separated branch point encodings")
    sp.add_argument("--a", type=int, default=1, help="leading coefficient encoding")


def _load_curve(args) -> KummerCurve:
    if args.catalog:
        return instances.catalog(args.catalog)["curve"]
    if args.spec:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"bad --spec {args.spec}: {exc!r}") from None
        return KummerCurve.from_json(spec)
    if args.m is None or args.lambdas is None:
        raise UsageError("need --catalog, --spec, or --m with --lambdas")
    lambdas = _int_list(args.lambdas)
    if args.field:
        pk = _int_list(args.field)
        if len(pk) != 2:
            raise UsageError(f"--field needs p,k, got {args.field!r}")
        F = make_field(*pk)
        if not args.alphas:
            raise UsageError("--field requires --alphas")
        alphas = _int_list(args.alphas)
        if len(alphas) != len(lambdas):
            raise UsageError("--alphas and --lambdas must have equal length")
        return make_curve(F, args.m, list(zip(alphas, lambdas)), args.a)
    return make_curve(None, args.m, lambdas)


def _emit(payload, args, text_fn, csv_rows_fn=None):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.csv:
        csv.writer(sys.stdout).writerows(csv_rows_fn())
    else:
        text_fn()


def _cmd_curve_info(args) -> int:
    c = _load_curve(args)
    ram = c.ram
    payload = {
        "curve": c.to_json(),
        "ramification": {
            "d": list(ram.d), "e": list(ram.e), "Lambda": ram.lam_sum,
            "d_inf": ram.d_inf, "e_inf": ram.e_inf, "genus": ram.genus,
        },
    }

    def text():
        base = "abstract" if c.is_abstract else f"GF({c.field.q})"
        print(f"Kummer curve over {base}: m={c.m}, lambdas={c.lambdas}")
        print(f"  d = {ram.d}  e = {ram.e}")
        print(f"  Lambda = {ram.lam_sum}  d_inf = {ram.d_inf}  "
              f"e_inf = {ram.e_inf}")
        print(f"  genus = {ram.genus}")

    _emit(payload, args, text)
    return 0


def _cmd_enumerate(args) -> int:
    c = _load_curve(args)
    tuples = nonspecial.enumerate_nonspecial(c, dedup=args.dedup)
    rows = [(t.n0,) + t.n for t in tuples]
    payload = [t.to_json() for t in tuples]

    def text():
        for row in rows:
            print("(" + ",".join(str(v) for v in row) + ")")
        print(f"total: {len(rows)}")

    _emit(payload, args, text, lambda: rows)
    return 0


def _cmd_check(args) -> int:
    c = _load_curve(args)
    tup = _tuple_arg(c, args.tuple)
    report = nonspecial.criterion_check(c, tup, mode=args.mode)

    def text():
        print(f"tuple {[tup.n0, *tup.n]}: {report.verdict} "
              f"(degree {report.degree}, genus {report.genus}, "
              f"bounds_ok {report.bounds_ok})")
        for j, b, cnt, ok in report.rows:
            print(f"  j={j}: B={b} |C|={cnt} {'ok' if ok else 'FAIL'}")

    _emit(report.to_json(), args, text,
          lambda: [(j, b, cnt, int(ok)) for j, b, cnt, ok in report.rows])
    return 0


def _cmd_lcp(args) -> int:
    c = _load_curve(args)
    split_values = _int_list(args.split) if args.split else None
    if args.regime:
        pair = codes.lcp_build_regime(c, args.regime, split_values=split_values,
                                      s=args.s, k=args.k)
    else:
        if not args.tuple or not args.phi:
            raise UsageError("general build needs --tuple and --phi "
                             "(or use --regime)")
        tup = _tuple_arg(c, args.tuple)
        pair = codes.lcp_build_general(c, tup, _int_list(args.phi),
                                       split_values, args.s)

    def text():
        print(f"G: [{pair.C.n},{pair.C.k},>={pair.C.designed_distance}]  "
              f"H: [{pair.E.n},{pair.E.k},>={pair.E.designed_distance}]")
        print(f"s = {pair.s}  verified = {pair.verified}  "
              f"gcd identity = {pair.gcd_identity}  "
              f"lmd identity = {pair.lmd_identity}")

    _emit(pair.to_json(), args, text)
    return 0 if pair.verified else 1


def _cmd_census(args) -> int:
    c = _load_curve(args)
    result = curve_mod.census(c)
    payload = {"N": result.n_rational, "maximal": result.is_maximal,
               "split_count": result.split_count}

    def text():
        print(f"rational places: {result.n_rational}  "
              f"maximal: {result.is_maximal}  "
              f"completely split x-values: {result.split_count}")

    _emit(payload, args, text)
    return 0


def _cmd_reproduce(args) -> int:
    report = instances.reproduce(args.id)

    def text():
        for key, want in report["expected"].items():
            got = report["observed"].get(key)
            mark = "ok" if got == want else "MISMATCH"
            print(f"  {key}: expected {want}, observed {got} [{mark}]")
        print(f"{report['id']}: {'ok' if report['ok'] else 'FAILED'}")

    _emit(report, args, text)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kummerlcp")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output")
    fmt.add_argument("--csv", action="store_true",
                     help="CSV output (nonspecial enumerate and check)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="curve inspection")
    curve_sub = p_curve.add_subparsers(dest="subcommand", required=True)
    p_info = curve_sub.add_parser("info")
    _add_curve_args(p_info)
    p_info.set_defaults(func=_cmd_curve_info)

    p_ns = sub.add_parser("nonspecial", help="non-special divisor tools")
    ns_sub = p_ns.add_subparsers(dest="subcommand", required=True)
    p_enum = ns_sub.add_parser("enumerate")
    _add_curve_args(p_enum)
    p_enum.add_argument("--dedup", action="store_true")
    p_enum.set_defaults(func=_cmd_enumerate)
    p_check = ns_sub.add_parser("check")
    _add_curve_args(p_check)
    p_check.add_argument("--tuple", required=True,
                         help="comma-separated n0,n1,...,nr")
    p_check.add_argument("--mode", choices=["cond2", "cond3"], default="cond3")
    p_check.set_defaults(func=_cmd_check)

    p_lcp = sub.add_parser("lcp", help="complementary pair construction")
    lcp_sub = p_lcp.add_subparsers(dest="subcommand", required=True)
    p_build = lcp_sub.add_parser("build")
    _add_curve_args(p_build)
    p_build.add_argument("--regime", choices=list(codes.REGIMES))
    p_build.add_argument("--tuple", help="comma-separated n0,n1,...,nr")
    p_build.add_argument("--phi", help="comma-separated branch indices")
    p_build.add_argument("--split", help="comma-separated split x-values")
    p_build.add_argument("--s", type=int, default=None)
    p_build.add_argument("--k", type=int, default=1)
    p_build.set_defaults(func=_cmd_lcp)

    p_census = sub.add_parser("census", help="rational place count")
    _add_curve_args(p_census)
    p_census.set_defaults(func=_cmd_census)

    p_rep = sub.add_parser("reproduce", help="re-derive a catalog instance")
    p_rep.add_argument("id")
    p_rep.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.csv and args.func not in (_cmd_enumerate, _cmd_check):
            raise UsageError("--csv is for nonspecial enumerate and check only")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except KummerError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
