import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from kummerlcp.cli import main
from kummerlcp.codes import REGIMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curve_info_text(capsys):
    code, out, _ = run(capsys, "curve", "info", "--m", "6",
                       "--lambdas", "1,1,1,3,5")
    assert code == 0
    assert "genus = 9" in out
    assert "d_inf = 1" in out


def test_curve_info_json_catalog(capsys):
    code, out, _ = run(capsys, "--json", "curve", "info", "--catalog", "ex37")
    assert code == 0
    blob = json.loads(out)
    assert blob["ramification"]["genus"] == 9
    assert blob["curve"]["m"] == 6


def test_curve_info_inline_concrete(capsys):
    code, out, _ = run(capsys, "--json", "curve", "info", "--m", "2",
                       "--lambdas", "1,1,1,1,1", "--field", "3,2",
                       "--alphas", "0,1,3,4,8")
    assert code == 0
    assert json.loads(out)["ramification"]["genus"] == 2


def test_curve_spec_file(tmp_path, capsys):
    spec = tmp_path / "curve.json"
    spec.write_text(json.dumps({"abstract": True, "m": 6,
                                "lambdas": [1, 1, 1, 3, 5]}))
    code, out, _ = run(capsys, "curve", "info", "--spec", str(spec))
    assert code == 0 and "genus = 9" in out


def test_enumerate_text_and_counts(capsys):
    code, out, _ = run(capsys, "nonspecial", "enumerate",
                       "--catalog", "ex37", "--dedup")
    assert code == 0
    assert "total: 24" in out
    code, out, _ = run(capsys, "nonspecial", "enumerate",
                       "--m", "17", "--lambdas", "1,2")
    assert code == 0
    assert "total: 0" in out


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "--csv", "nonspecial", "enumerate",
                       "--m", "5", "--lambdas", "1,1,1", "--dedup")
    assert code == 0
    rows = [line for line in out.strip().splitlines() if line]
    assert "0,0,1,3" in rows


def test_enumerate_json_roundtrip(capsys):
    code, out, _ = run(capsys, "--json", "nonspecial", "enumerate",
                       "--catalog", "ex37", "--dedup")
    blob = json.loads(out)
    assert len(blob) == 24
    assert all(set(e) == {"n0", "n"} for e in blob)


def test_check_command(capsys):
    code, out, _ = run(capsys, "nonspecial", "check", "--catalog", "ex37",
                       "--tuple", "0,0,1,3,0,5")
    assert code == 0
    assert "nonspecial_deg_g" in out
    code, out, _ = run(capsys, "nonspecial", "check", "--catalog", "ex37",
                       "--tuple", "0,0,0,0,0,0", "--mode", "cond2")
    assert code == 0
    assert "fails" in out
    # bounds and counts stay exact ints beyond int64
    code, out, err = run(capsys, "nonspecial", "check", "--catalog", "ex37",
                         "--tuple", "99999999999999999999999,0,1,3,0,5")
    assert (code, err) == (0, "")
    assert "  j=1: B=-16666666666666666666664 |C|=3 FAIL" in out.splitlines()


def test_check_tuple_length_usage_error(capsys):
    code, _, err = run(capsys, "nonspecial", "check", "--catalog", "ex37",
                       "--tuple", "0,0")
    assert code == 2
    assert "usage error" in err
    code, _, err = run(capsys, "lcp", "build", "--catalog", "f169",
                       "--tuple", "0,0", "--phi", "0")
    assert code == 2
    assert "usage error" in err


def test_missing_curve_usage_error(capsys, tmp_path, monkeypatch):
    bad_argvs = [
        ["nonspecial", "enumerate"],
        ["curve", "info", "--m", "6", "--lambdas", "1,x"],
        ["curve", "info", "--m", "2", "--lambdas", "1,1", "--field", "7",
         "--alphas", "0,1"],
        ["curve", "info", "--m", "2", "--lambdas", "1,1,1", "--field", "7,1",
         "--alphas", "0,1"],  # --alphas and --lambdas of unequal length
        ["curve", "info", "--spec", str(tmp_path / "missing.json")],
    ]
    # spec objects with a key missing or a value of the wrong kind: each
    # from_json checks its keys, with no catch-all around it in the CLI
    for i, partial in enumerate([
            {"m": 4}, [4], {"abstract": True, "m": 6},
            {"abstract": True, "m": 6, "lambdas": 5},
            {"field": {"p": 7}, "m": 4, "branches": []},
            {"field": {"p": 7, "k": 2}, "m": 4, "branches": [{"alpha": 0}]},
            {"field": {"p": 7, "k": 2}, "m": 4, "branches": [[0, 1]]}]):
        path = tmp_path / f"partial{i}.json"
        path.write_text(json.dumps(partial))
        bad_argvs.append(["curve", "info", "--spec", str(path)])
    for argv in bad_argvs:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "usage error" in err
    monkeypatch.setenv("KDL_MAX_SEARCH", "abc")
    code, _, err = run(capsys, "nonspecial", "enumerate", "--catalog", "ex37")
    assert code == 2
    assert "usage error" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "curve", "info", "--m", "6", "--lambdas", "2,4")
    assert code == 1
    assert "GcdViolation" in err
    for phi in ("9", ","):   # out of range; empty
        code, _, err = run(capsys, "lcp", "build", "--catalog", "f169",
                           "--tuple", "0,0,2,3,6,1", "--phi", phi)
        assert code == 1, phi
        assert "RampPreconditionViolated" in err
    # a repeated split x-value (2 splits completely on f169)
    for how in (["--regime", "lambda_two"],
                ["--tuple", "0,0,2,3,6,1", "--phi", "0,1,2,3"]):
        code, _, err = run(capsys, "lcp", "build", "--catalog", "f169",
                           *how, "--s", "2", "--split", "2,2")
        assert code == 1, how
        assert "NotWholeFibers" in err and "[2]" in err
        assert "Traceback" not in err
    # split x-values outside [0, 169): -167 and 171 would evaluate as x = 2
    rest = "6,7,11,13,19,20,53,64,67,70,73"
    for split in ("-167," + rest, "2,-167," + rest.split(",", 1)[1],
                  "171," + rest, "2,169," + rest.split(",", 1)[1]):
        code, _, err = run(capsys, "lcp", "build", "--catalog", "f169",
                           "--regime", "lambda_two", "--s", "2",
                           f"--split={split}")
        assert code == 1, split
        assert "NotAnElement" in err and "Traceback" not in err
    # encodings outside GF(7): the leading coefficient, then a branch point
    inline = ["census", "--field", "7,1", "--m", "2", "--lambdas", "1,1"]
    for extra in (["--alphas", "0,1", "--a", "99"], ["--alphas", "0,99"]):
        code, _, err = run(capsys, *inline, *extra)
        assert code == 1, extra
        assert "NotAnElement" in err
    # orders far above the cap: rejected before p ** k or a primality test
    for fld in ("3,10000", "2305843009213693951,1"):
        code, _, err = run(capsys, "census", "--m", "2", "--lambdas", "1",
                           "--field", fld, "--alphas", "0")
        assert code == 1, fld
        assert "FieldTooLarge" in err and "Traceback" not in err


def test_irrational_infinity_exit_code(capsys):
    # a = 13 is no square in GF(169) and d_inf = 2: no rational Q_infinity
    # for the delta = 1 space of the lambda_two regime
    code, _, err = run(capsys, "lcp", "build", "--field", "13,2",
                       "--alphas", "26,39,130,143,0", "--lambdas", "1,1,1,1,2",
                       "--m", "8", "--a", "13", "--regime", "lambda_two")
    assert code == 1
    assert "RationalityError" in err and "Traceback" not in err


def test_spec_encodings_exit_code(tmp_path, capsys):
    # a float in a spec file once truncated to an element, or m and lambda
    # to integers (y^4 = x (x - 3) for m = 4.5, lambda = 1.5), and exited 0
    curve = {"field": {"p": 7, "k": 2}, "m": 4,
             "branches": [{"alpha": 0, "lambda": 1}, {"alpha": 3, "lambda": 1}]}
    cases = [(("branches", 1, "alpha"), 1.5, "NotAnElement"),
             (("a",), 1.5, "NotAnElement"), (("a",), True, "NotAnElement"),
             (("m",), 4.5, "NotAnInteger"), (("m",), None, "NotAnInteger"),
             (("branches", 1, "lambda"), 1.5, "NotAnInteger"),
             (("branches", 1, "lambda"), "1", "NotAnInteger"),
             (("field", "p"), 7.0, "NotAnInteger"),
             # once TypeError: unhashable type, in make_field's cache
             (("field", "p"), [7], "NotAnInteger"), (("field", "k"), [2], "NotAnInteger")]
    for keys, bad, error in cases:
        spec = json.loads(json.dumps(curve))
        obj = spec
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = bad
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        for command in (["curve", "info"], ["census"]):
            code, _, err = run(capsys, *command, "--spec", str(path))
            assert code == 1, (keys, bad, command)
            assert error in err and "Traceback" not in err


def test_format_flags(capsys):
    # --json and --csv together are an argparse error; --csv only where a
    # command has a CSV form (nonspecial enumerate and check)
    with pytest.raises(SystemExit) as exc:
        main(["--json", "--csv", "census", "--catalog", "f169"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    for argv in (["curve", "info", "--catalog", "ex37"],
                 ["census", "--catalog", "f169"],
                 ["lcp", "build", "--catalog", "dickson_half_m8",
                  "--regime", "half_single"],
                 ["reproduce", "f169"]):
        code, out, err = run(capsys, "--csv", *argv)
        assert (code, out) == (2, ""), argv
        assert "usage error: --csv" in err
    for argv in (["nonspecial", "enumerate", "--catalog", "ex37"],
                 ["nonspecial", "check", "--catalog", "ex37", "--tuple", "0,0,1,3,0,5"]):
        code, out, _ = run(capsys, "--csv", *argv)
        assert code == 0 and out[0].isdigit(), argv  # not "(0,..." or "tuple ..."


def test_census_command(capsys):
    code, out, _ = run(capsys, "--json", "census", "--catalog", "f169")
    assert code == 0
    blob = json.loads(out)
    assert blob == {"N": 232, "maximal": False, "split_count": 28}
    code, out, _ = run(capsys, "census", "--catalog", "f49")
    assert code == 0 and "rational places: 104" in out


def test_lcp_build_regime(capsys):
    code, out, _ = run(capsys, "--json", "lcp", "build",
                       "--catalog", "dickson_half_m8", "--regime",
                       "half_single")
    assert code == 0
    blob = json.loads(out)
    assert blob["verified"] and blob["gcd_identity"] and blob["lmd_identity"]
    assert blob["params_G"]["n"] == blob["params_H"]["n"] == 168
    assert blob["params_G"]["k"] + blob["params_H"]["k"] == 168


def test_lcp_build_general_needs_tuple_and_phi(capsys):
    code, _, err = run(capsys, "lcp", "build", "--catalog", "f169")
    assert code == 2 and "usage error" in err


def test_lcp_build_general_explicit(capsys):
    code, out, _ = run(capsys, "--json", "lcp", "build", "--catalog", "f169",
                       "--tuple", "0,0,2,3,6,1", "--phi", "0,1,2,3",
                       "--s", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["params_G"] == {"n": 224, "k": 160, "designed_distance": 52}


def test_reproduce_exit_codes(capsys):
    code, out, _ = run(capsys, "reproduce", "f169")
    assert code == 0
    assert "f169: ok" in out
    code, out, _ = run(capsys, "reproduce", "f49")
    assert code == 1  # honest mismatch: targets not attained over GF(49)
    assert "MISMATCH" in out
    code, _, err = run(capsys, "reproduce", "nope")
    assert code == 1 and "UnknownId" in err


def test_output_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "nonspecial", "enumerate",
                           "--catalog", "ex37", "--dedup")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Fuzzing argv from the CLI grammar
# ---------------------------------------------------------------------------

CATALOG_IDS = ["ex37", "f49", "f169", "dickson_half_m8", "nope"]

#: (p, k) with p^k <= 169, non-primes and k = 0 included
FUZZ_FIELDS = [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (7, 2),
               (13, 1), (13, 2), (4, 1), (6, 1), (1, 3), (7, 0)]

#: lcp build curves and options that build a pair; the fuzz adds options
#: to them, since random ones rarely get that far
LCP_SEEDS = [
    ["--catalog", "f169", "--regime", "lambda_two"],
    ["--catalog", "dickson_half_m8", "--regime", "half_single"],
    ["--catalog", "f169", "--tuple", "0,0,2,3,6,1", "--phi", "0,1,2,3"],
]


def int_list(data, label, entries, min_size=0, max_size=6):
    vals = data.draw(st.lists(entries, min_size=min_size, max_size=max_size),
                     label=label)
    # now and then an empty or a non-integer entry
    tail = data.draw(st.sampled_from([""] * 10 + [",", ",x"]),
                     label=f"{label} tail")
    return ",".join(map(str, vals)) + tail


def mostly(good, bad):
    """Entries drawn from good four times as often as from bad."""
    return st.sampled_from(list(good) * 4 + list(bad))


def curve_args(data):
    source = data.draw(st.sampled_from(["catalog", "abstract", "concrete"]),
                       label="curve")
    if source == "catalog":
        return ["--catalog", data.draw(st.sampled_from(CATALOG_IDS), label="id")]
    m = data.draw(st.sampled_from([0, 1, 2, 3, 4, 6, 8]), label="m")
    r = data.draw(st.integers(0, 5), label="r")
    lambdas = mostly(range(1, m), [-1, 0, m, 9])
    args = ["--m", str(m), "--lambdas", int_list(data, "lambdas", lambdas, r, r)]
    if source == "concrete":
        p, k = data.draw(st.sampled_from(FUZZ_FIELDS), label="field")
        q = p ** k
        alphas = mostly(range(q), [-1, q])
        args += ["--field", f"{p},{k}",
                 "--alphas", int_list(data, "alphas", alphas, r, r)]
        if data.draw(st.booleans(), label="has a"):
            args += ["--a", str(data.draw(st.integers(-1, q), label="a"))]
    return args


def fuzz_argv(data):
    command = data.draw(st.sampled_from(
        ["curve info", "nonspecial enumerate", "nonspecial check", "lcp build",
         "census", "reproduce"]), label="command")
    # --csv only where the command has a CSV form: elsewhere it stops at the
    # usage check, which test_format_flags covers
    formats = [[], ["--json"]] + ([["--csv"]] if command.startswith("nonspecial") else [])
    argv = data.draw(st.sampled_from(formats), label="fmt")
    if command == "reproduce":
        return argv + ["reproduce", data.draw(st.sampled_from(CATALOG_IDS))]
    argv += command.split()
    if command == "lcp build" and data.draw(st.booleans(), label="seeded"):
        argv += data.draw(st.sampled_from(LCP_SEEDS), label="seed")
    else:
        argv += curve_args(data)
    if command == "nonspecial enumerate" and data.draw(st.booleans()):
        argv.append("--dedup")
    coeffs = mostly(range(7), [-2, 9])
    if command == "nonspecial check":
        argv += ["--tuple", int_list(data, "tuple", coeffs, max_size=7)]
    if command == "lcp build":
        options = {
            "--regime": lambda: data.draw(st.sampled_from(list(REGIMES))),
            "--tuple": lambda: int_list(data, "tuple", coeffs, max_size=7),
            "--phi": lambda: int_list(data, "phi", mostly(range(5), [-1, 6])),
            "--split": lambda: int_list(data, "split", st.integers(-2, 171),
                                        max_size=8),
            "--s": lambda: str(data.draw(st.integers(-2, 8))),
            "--k": lambda: str(data.draw(st.integers(-1, 4))),
        }
        for flag, value in options.items():
            if data.draw(st.integers(0, 3), label=flag) == 0:
                argv += [flag, value()]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_cli_fuzz_exits_0_1_or_2(data):
    # bad input ends in a KummerError mapped to exit 1 or 2, or in an
    # argparse usage error; any other exception fails here
    argv = fuzz_argv(data)
    with mock.patch.dict(os.environ), redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()):
        os.environ.pop("KDL_MAX_SEARCH", None)
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv


#: keys of the spec objects, so that drawn objects often hold one
SPEC_KEYS = ["abstract", "field", "p", "k", "m", "a", "branches", "alpha", "lambda",
             "lambdas"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False, width=16),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SPEC_KEYS), inner, max_size=3),
    max_leaves=6)


def spec_paths(obj, path=()):
    """Every path of keys and indices into a JSON object, the root first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from spec_paths(value, path + (key,))


@settings(max_examples=300, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_cli_spec_fuzz_exits_0_1_or_2(tmp_path_factory, data):
    # a valid spec with drawn values put in or keys taken out, or a drawn
    # object: from_json and the constructors end in a KummerError
    spec = data.draw(st.sampled_from([
        {"field": {"p": 7, "k": 2}, "m": 4, "a": 1,
         "branches": [{"alpha": 0, "lambda": 1}, {"alpha": 3, "lambda": 1}]},
        {"abstract": True, "m": 6, "lambdas": [1, 1, 1, 3, 5]}]), label="spec")
    spec = json.loads(json.dumps(spec))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        path = data.draw(st.sampled_from(list(spec_paths(spec))), label="path")
        value = data.draw(json_values, label="value")
        if not path:
            spec = value
            continue
        obj = spec
        for key in path[:-1]:
            obj = obj[key]
        if data.draw(st.booleans(), label="drop"):
            del obj[path[-1]]
        else:
            obj[path[-1]] = value
    path = tmp_path_factory.getbasetemp() / "fuzzed_spec.json"
    path.write_text(json.dumps(spec))
    command = data.draw(st.sampled_from([["curve", "info"], ["census"]]), label="command")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main([*command, "--spec", str(path)])
    assert code in (0, 1, 2), spec
    assert "Traceback" not in err.getvalue()
