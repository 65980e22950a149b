import json

import pytest

from kummerlcp.cli import main


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
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"m": 4}))
    bad_argvs = [
        ["nonspecial", "enumerate"],
        ["curve", "info", "--m", "6", "--lambdas", "1,x"],
        ["curve", "info", "--m", "2", "--lambdas", "1,1", "--field", "7",
         "--alphas", "0,1"],
        ["curve", "info", "--spec", str(tmp_path / "missing.json")],
        ["curve", "info", "--spec", str(partial)],
    ]
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
