"""End-to-end CLI tests: subcommands, exit codes, file round trips."""

import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibered_lrc
from fibered_lrc import cli
from fibered_lrc.cli import main
from fibered_lrc.construction import build_evaluation_set, surface_params
from fibered_lrc.lrc_code import encode, generator_matrix
from fibered_lrc.serialize import codeword_to_dict, save_json


def run_python(*argv, timeout=120, **kwargs):
    """Run python in a subprocess that imports this checkout's package."""
    env = dict(os.environ)
    src = str(Path(fibered_lrc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=timeout, **kwargs)


def run_optimized(*argv):
    """Run the CLI in a python -O subprocess, which strips every assert."""
    return run_python("-O", "-m", "fibered_lrc.cli", *argv)


def test_cli_import_loads_no_process_pool():
    proc = run_python("-c", "import sys, fibered_lrc.cli; "
                      "print('concurrent.futures.process' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.fixture()
def prof49(tmp_path):
    path = tmp_path / "prof49.json"
    assert main(["construct", "--field", "7^2", "--orbits", "0",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture()
def cw49(tmp_path, f49):
    es = build_evaluation_set(surface_params(f49, 3), (0,))
    cw = encode(generator_matrix(es), [3, 14, 0, 25, 6])
    path = tmp_path / "cw49.json"
    with open(path, "w") as fh:
        save_json(codeword_to_dict(f49, cw), fh)
    return path, cw


def test_construct_profile(prof49):
    doc = json.loads(prof49.read_text())
    assert doc["schema"] == "fibered-lrc/v1" and doc["kind"] == "profile"
    assert (doc["q"], doc["m"], doc["b"], doc["n"], doc["k"]) == (49, 1, 1, 16, 5)
    assert doc["d_exact"] is None


def test_mindist_exact_and_budgeted(tmp_path, capsys):
    assert main(["mindist", "--field", "7^2", "--orbits", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d_exact"] == 8 and doc["d_upper"] == 8
    out = tmp_path / "capped.json"
    assert main(["mindist", "--field", "7^2", "--orbits", "0",
                 "--budget", "30", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["d_exact"] is None and doc["d_upper"] >= 8


def test_mindist_exact_on_2401(capsys):
    # q x q tables would not fit F_2401; it takes the exact pencil search
    assert main(["mindist", "--field", "7^4", "--orbits", "0,1,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["n"], doc["d_exact"], doc["d_upper"]) == (48, 39, 39)


def test_mindist_below_lower_bound_on_3_6_exits_2(capsys):
    # the cheapest code below n - 9: n = 48, d = 38 (well under a second)
    assert main(["mindist", "--field", "3^6", "--orbits", "2,4,5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "invariant violation: d_exact=38 outside [39, 38]\n"


def test_documents_match_golden(tmp_path, golden_dir):
    # profiles and seeded simulation reports, byte for byte
    prof = tmp_path / "prof.json"
    assert main(["construct", "--field", "7^2", "--orbits", "0,1",
                 "--out", str(prof)]) == 0
    sim = ["simulate", "--profile", str(prof), "--seed", "7"]
    runs = {
        "construct_7_2_o0.json": ["construct", "--field", "7^2", "--orbits", "0"],
        "mindist_7_2_o01.json": ["mindist", "--field", "7^2", "--orbits", "0,1"],
        # a budgeted r = 5 search: d_exact is null
        "mindist_7_2_r5_budget5000.json": ["mindist", "--field", "7^2",
                                           "--r", "5", "--budget", "5000"],
        "simulate_7_2_o01_f3.json": sim + ["--failures", "3", "--trials", "40"],
        "simulate_7_2_o01_f1_fiber.json": sim + ["--failures", "1", "--trials",
                                                 "10", "--group-by-fiber"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0, argv
        assert out.read_bytes() == (golden_dir / name).read_bytes(), name


def test_table_matches_golden(tmp_path, golden_dir):
    out = tmp_path / "t.csv"
    assert main(["table", "--field", "7^2", "--out", str(out)]) == 0
    assert out.read_bytes() == (golden_dir / "table_7_2.csv").read_bytes()


def cap_address_space():
    # 1.5 GB, so that a table listing all its subsets fails in seconds
    # instead of exhausting the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))


def test_table_takes_subsets_lazily():
    # 3^8 has 91 orbits, 2^91 - 1 subsets; --max-subsets 2 takes two
    proc = run_python("-m", "fibered_lrc.cli", "table", "--field", "3^8",
                      "--max-subsets", "2", timeout=60,
                      preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "q,m,b,n,delta,d" and len(lines) == 3, proc.stdout


def test_table_and_mindist_give_one_verdict(monkeypatch, capsys):
    # an exact distance one below delta on the b = 2 code of F_49 fails the
    # profile check in a table row as it does in mindist
    real = cli.min_distance

    def below_bound(es, **kwargs):
        dist = real(es, **kwargs)
        return replace(dist, d=22) if es.b == 2 else dist

    monkeypatch.setattr(cli, "min_distance", below_bound)
    for argv in (["table", "--field", "7^2"],
                 ["mindist", "--field", "7^2", "--orbits", "0,1"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "invariant violation: d_exact=22 outside [23, 22]\n"


@pytest.mark.nightly
def test_mindist_below_lower_bound_exits_2(capsys):
    # F_625 orbits 1..7 has d = n - 10 = 102 < 103 (a few seconds)
    assert main(["mindist", "--field", "5^4", "--orbits", "1,2,3,4,5,6,7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "invariant violation: d_exact=102 outside [103, 102]\n"


def test_parser_writes_to_the_streams_of_each_call():
    # the parser is built once; its usage and help still go to the
    # stdout and stderr in place at each call
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            with pytest.raises(SystemExit) as info:
                main(["table", "--field", "7^2", "--max-subsets", "0"])
            assert info.value.code == 1
            with pytest.raises(SystemExit) as info:
                main(["--help"])
            assert info.value.code == 0
        assert "must be >= 1" in err.getvalue()
        assert out.getvalue().startswith("usage: fibered-lrc")


@pytest.mark.parametrize("field", ["1000000000000000003", "3^100000000"])
def test_huge_field_exits_1_quickly(field):
    # trial division up to sqrt(p), or computing 3^100000000, would not end;
    # make_field refuses the order before any command sees the field
    for command in ("construct", "table"):
        res = run_python("-m", "fibered_lrc.cli", command, "--field", field,
                         timeout=30)
        assert res.returncode == 1, (command, res.stderr)
        assert "exceeds" in res.stderr and "Traceback" not in res.stderr


def test_recover_huge_codeword_field_exits_1(prof49, cw49, tmp_path, capsys):
    doc = json.loads(cw49[0].read_text())
    doc["field"] = {"p": 10**18 + 3, "m": 1, "modulus": [0, 1]}
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    assert main(["recover", "--profile", str(prof49), "--codeword", str(bad),
                 "--erase", "0,0,0"]) == 1
    err = capsys.readouterr().err
    assert "exceeds" in err and "Traceback" not in err


def test_recover_round_trip(prof49, cw49, tmp_path, capsys):
    cw_path, cw = cw49
    out = tmp_path / "fixed.json"
    code = main(["recover", "--profile", str(prof49), "--codeword",
                 str(cw_path), "--erase", "0,1,2;0,3,2", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    # same vertical fiber twice: both must cross over horizontally
    assert lines == ["(0,1,2) H", "(0,3,2) H"]
    doc = json.loads(out.read_text())
    assert None not in doc["symbols"] and doc["n"] == 16


def test_recover_erase_trailing_separator(prof49, cw49, tmp_path, capsys):
    # an empty chunk after the last ';' names no erasure
    assert main(["recover", "--profile", str(prof49), "--codeword",
                 str(cw49[0]), "--erase", "0,1,2;",
                 "--out", str(tmp_path / "fixed.json")]) == 0
    assert capsys.readouterr().out == "(0,1,2) V\n"


def test_recover_unrecoverable(prof49, cw49, tmp_path, capsys):
    cw_path, _ = cw49
    erase = ";".join(f"0,{i},{j}" for i in range(4) for j in range(4))
    out = tmp_path / "fixed.json"
    code = main(["recover", "--profile", str(prof49), "--codeword",
                 str(cw_path), "--erase", erase, "--out", str(out)])
    assert code == 2
    assert "UNRECOVERED" in capsys.readouterr().out
    assert json.loads(out.read_text())["symbols"].count(None) == 16


def test_recover_bad_erase_triple_exits_1(prof49, cw49, capsys):
    # prof49 has b = 1, so (1,0,0) names an orbit the code does not have
    for trip in ("0,9,0", "1,0,0", "-1,0,0"):
        assert main(["recover", "--profile", str(prof49), "--codeword",
                     str(cw49[0]), f"--erase={trip}"]) == 1, trip
        err = capsys.readouterr().err
        assert f"point ({trip}) out of range" in err, err
        assert "Traceback" not in err


@pytest.mark.parametrize("option, value, message", [
    ("--erase", "0,1", "erasure '0,1' is not of the form l,i,j"),
    ("--erase", "a,b,c", "invalid literal for int() with base 10: 'a'"),
    ("--orbits", "x", "invalid literal for int() with base 10: 'x'"),
    ("--threads", "x", "invalid literal for int() with base 10: 'x'"),
])
def test_malformed_option_exits_1(option, value, message, prof49, cw49, capsys):
    argv = ["recover", "--profile", str(prof49), "--codeword", str(cw49[0])]
    if option == "--orbits":
        argv = ["construct", "--field", "7^2"]
    with pytest.raises(SystemExit) as info:
        main([*argv, f"{option}={value}"])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.endswith(f"argument {option}: {message}\n"), err
    assert "Traceback" not in err


def test_mindist_many_threads_same_output(capsys):
    # --threads has no effect, so a huge count starts nothing
    outputs = []
    for threads in ("1", "10000"):
        assert main(["mindist", "--field", "7^2", "--orbits", "0",
                     "--threads", threads]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1].out == outputs[0].out and outputs[1].err == ""


def test_recover_codeword_mismatch_exits_2(prof49, cw49, f49, f121, tmp_path,
                                           capsys):
    es121 = build_evaluation_set(surface_params(f121, 3), (0,))
    cases = (
        (f121, encode(generator_matrix(es121), [1, 2, 3, 4, 5]),
         "codeword field differs from profile field"),
        (f49, cw49[1][:15], "codeword has 15 symbols, code n=16"),
    )
    for fld, symbols, message in cases:
        path = tmp_path / "cw.json"
        with open(path, "w") as fh:
            save_json(codeword_to_dict(fld, symbols), fh)
        assert main(["recover", "--profile", str(prof49), "--codeword",
                     str(path), "--erase", "0,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invariant violation: {message}\n"


def test_recover_stopped_peel_skips_the_horizontal_check(prof49, cw49, capsys):
    # (0,2,0) repairs along its horizontal fiber in round one; its vertical
    # fiber still holds two erasures, so the cross-check has nothing to
    # compare, and the 2 x 2 block stays erased
    erase = "0,0,0;0,0,1;0,1,0;0,1,1;0,2,0"
    assert main(["recover", "--profile", str(prof49), "--codeword",
                 str(cw49[0]), "--erase", erase]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:5] == [
        "(0,2,0) H", "(0,0,0) UNRECOVERED", "(0,0,1) UNRECOVERED",
        "(0,1,0) UNRECOVERED", "(0,1,1) UNRECOVERED"]
    assert captured.err == ""


def test_simulate_deterministic(prof49, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["simulate", "--profile", str(prof49), "--failures", "1",
                     "--trials", "40", "--seed", "7", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    assert doc["success_rate"] == 1.0 and doc["reads_per_repair"] == 3
    assert main(["simulate", "--profile", str(prof49), "--failures", "99",
                 "--trials", "1"]) == 1  # more failures than nodes


def test_verify_newton(capsys):
    assert main(["verify", "newton", "--field", "13^2"]) == 0
    out = capsys.readouterr().out
    assert "case 1" in out and "sum e*f = 4" in out
    assert main(["verify", "newton", "--field", "7", "--r", "5"]) == 0
    out = capsys.readouterr().out
    assert "case 2" in out and "sum e*f = 6" in out


def test_verify_newton_large_r_is_quick():
    # r = 99 has 9701 basis monomials; the bound reads only the 5 corners
    proc = run_python("-m", "fibered_lrc.cli", "verify", "newton",
                      "--field", "101", "--r", "99", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "newton checks: ok" in proc.stdout


def test_verify_newton_huge_r_fits_in_memory():
    # r = 27593 has about 7.6e8 basis monomials; the bound is read off the
    # five corners of the basis, so 1.5 GB of address space is plenty
    proc = run_python("-m", "fibered_lrc.cli", "verify", "newton",
                      "--field", "1048573", "--r", "27593", timeout=60,
                      preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert "newton checks: ok" in proc.stdout


def test_mindist_budget_on_a_code_too_large_to_scan_exits_1():
    # all 10941 orbits of F_1048573: n = 175056 points, whose crossings alone
    # would need 28.5 GiB; the scan is refused before it allocates them
    proc = run_python("-m", "fibered_lrc.cli", "mindist", "--field", "1048573",
                      "--budget", "5", timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 1, proc.stderr
    assert "n = 175056 points has 15321951456 crossings" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_construct_huge_r_finds_no_nice_elements_quickly():
    # A = P_0 has at most five nonzero terms at any r; a Horner pass over
    # all r + 2 coefficients at each of the q elements ran for minutes
    proc = run_python("-m", "fibered_lrc.cli", "construct",
                      "--field", "1048573", "--r", "27593", timeout=30,
                      preexec_fn=cap_address_space)
    assert proc.returncode == 1, proc.stderr
    assert "no nice elements" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_elliptic_exit_codes(capsys):
    assert main(["verify", "elliptic", "--field", "7^2"]) == 0
    assert "elliptic checks: ok" in capsys.readouterr().out
    # 11^2 has a singular nice fiber and nonsquare twists: violations
    assert main(["verify", "elliptic", "--field", "11^2"]) == 2
    out = capsys.readouterr().out
    assert "SINGULAR" in out and "NONSQUARE TWIST" in out
    assert main(["verify", "elliptic", "--field", "13", "--r", "5"]) == 1
    capsys.readouterr()
    assert main(["verify", "elliptic", "--field", "7^2", "--r", "5"]) == 1
    assert capsys.readouterr().err == (
        "error: elliptic checks apply to locality r = 3 only\n")


def _transcript(argvs, capsys) -> bytes:
    """Each command line, its full stdout and its exit code, as one text."""
    transcript = []
    for argv in argvs:
        code = main(argv)
        transcript.append(f"$ {' '.join(argv)}\n{capsys.readouterr().out}"
                          f"exit {code}\n")
    return "".join(transcript).encode()


def test_verify_elliptic_matches_golden(golden_dir, capsys):
    # the full stdout and exit code per field, byte for byte
    got = _transcript([["verify", "elliptic", "--field", label]
                       for label in ("7^2", "11^2", "13^2", "5^4", "3^4")],
                      capsys)
    assert got == (golden_dir / "verify_elliptic.txt").read_bytes()


def test_verify_newton_matches_golden(golden_dir, capsys):
    # the six `verify newton` commands of the bench, byte for byte
    got = _transcript([["verify", "newton", "--field", label, "--r", str(r)]
                       for label, r in (("13^2", 3), ("7", 5), ("13", 5),
                                        ("17", 7), ("11", 9), ("5^4", 3))],
                      capsys)
    assert got == (golden_dir / "verify_newton.txt").read_bytes()


def test_verify_invariants_matches_golden(golden_dir, capsys):
    got = _transcript([["verify", "invariants", "--field", label]
                       for label in ("7^2", "11^2", "13^2", "5^4")], capsys)
    assert got == (golden_dir / "verify_invariants.txt").read_bytes()


def test_verify_invariants(prof49, capsys):
    assert main(["verify", "invariants", "--profile", str(prof49)]) == 0
    out = capsys.readouterr().out
    assert out.count("ok   ") == 7 and "FAIL" not in out
    assert main(["verify", "invariants", "--field", "11^2"]) == 0


@pytest.mark.parametrize("argv,code", [
    (["verify", "newton", "--field", "13^2"], 0),
    (["verify", "elliptic", "--field", "11^2"], 2),
    (["verify", "invariants", "--field", "7^2"], 0),
], ids=["newton", "elliptic", "invariants"])
def test_verify_out_writes_the_report(argv, code, tmp_path, capsys):
    assert main(argv) == code
    report = capsys.readouterr().out
    path = tmp_path / "report.txt"
    assert main([*argv, "--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == report.encode()
    # a path that cannot be written is an input error, as for construct
    assert main([*argv, "--out", str(tmp_path / "no" / "report.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    # argparse-level problems must exit 1, not its default 2
    for argv in (["table", "--field", "99"],
                 ["recover", "--codeword", "x.json"],
                 ["table"],
                 ["recover", "--profile", "nope.json", "--codeword", "n.json"],
                 ["mindist", "--field", "7^2", "--orbits", "5"],
                 ["mindist", "--field", "7^2", "--threads", "0"],
                 ["table", "--field", "7^2", "--max-subsets", "-1"],
                 ["table", "--field", "7^2", "--max-subsets", "0"],
                 # the generic search would enumerate 49^18 classes
                 ["mindist", "--field", "7^2", "--r", "5"],
                 # table has no --budget: it points to mindist
                 ["table", "--field", "7^2", "--r", "5"]):
        with pytest.raises(SystemExit) as info:
            code = main(argv)
            raise SystemExit(code)
        assert info.value.code == 1, argv
        err = capsys.readouterr().err
        if argv[0] == "table" and "--r" in argv:
            assert "mindist --budget" in err, err


def test_tampered_profile_exits_2(prof49, tmp_path, capsys):
    # the last four are well typed but describe no code of F_49
    for key, value in (("n", 999), ("q", 7), ("m", 3), ("availability", 5),
                       ("d_witness", ["0"] * 5)):
        doc = json.loads(prof49.read_text())
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", "invariants", "--profile", str(bad)]) == 2, key
        assert "profile invariants violated" in capsys.readouterr().err


def test_codeword_symbols_not_a_list_exits_1(prof49, cw49, tmp_path, capsys):
    doc = json.loads(cw49[0].read_text())
    doc["symbols"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["recover", "--profile", str(prof49), "--codeword", str(bad),
                 "--erase", "0,0,0"]) == 1
    err = capsys.readouterr().err
    assert "symbols must be a list" in err and "Traceback" not in err


def test_tampered_bounds_exit_2_under_optimize(prof49, tmp_path):
    # the bounds check must not be an assert, which python -O strips
    doc = json.loads(prof49.read_text())
    doc["d_exact"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_optimized("verify", "invariants", "--profile", str(bad))
    assert res.returncode == 2, res.stderr
    assert "d_exact=99" in res.stderr


def test_profile_rules_exit_2_under_optimize(prof49, tmp_path):
    # CodeProfile raises on each rule, so python -O keeps every check
    paths = []
    for idx, (key, value) in enumerate((("d_lower", 6), ("d_upper", 12),
                                        ("k", 6), ("availability", 5),
                                        ("d_witness", ["0"] * 5))):
        doc = json.loads(prof49.read_text())
        doc[key] = value
        paths.append(tmp_path / f"bad{idx}.json")
        paths[-1].write_text(json.dumps(doc))
    res = run_python("-O", "-c", "import sys; from fibered_lrc.cli import main; "
                     "print([main(['verify', 'invariants', '--profile', path]) "
                     "for path in sys.argv[1:]])", *map(str, paths))
    assert res.stdout == "[2, 2, 2, 2, 2]\n", res.stderr
    assert res.stderr.count("profile invariants violated") == 5


def test_recover_corrupted_exit_2_under_optimize(prof49, cw49, tmp_path, f49):
    # a corrupted symbol in the vertical recovery set of the erased one must
    # fail the residual check, not be stripped with it under python -O
    _, cw = cw49
    bad = list(cw)
    bad[4] = f49.add(bad[4], 1)  # point (0,1,0)
    path = tmp_path / "corrupted.json"
    with open(path, "w") as fh:
        save_json(codeword_to_dict(f49, bad), fh)
    res = run_optimized("recover", "--profile", str(prof49), "--codeword",
                        str(path), "--erase", "0,0,0")
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert "residual" in res.stderr and res.stdout == ""


def test_recover_horizontal_corruption_exit_2(prof49, cw49, tmp_path, f49):
    # (0,1,0) is in the horizontal set of (0,1,2), which has no spare node;
    # its repair (12 where the codeword has 11) must fail the vertical check
    _, cw = cw49
    bad = list(cw)
    bad[4] = f49.add(bad[4], 1)  # point (0,1,0)
    path = tmp_path / "corrupted.json"
    with open(path, "w") as fh:
        save_json(codeword_to_dict(f49, bad), fh)
    argv = ["recover", "--profile", str(prof49), "--codeword", str(path),
            "--erase", "0,1,2;0,3,2", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    res = run_optimized(*argv)
    assert res.returncode == 2, (res.stdout, res.stderr)
    assert "(0, 1, 2)" in res.stderr and res.stdout == ""


def test_mindist_budgeted_same_under_optimize():
    # no assert may guard the budgeted scan: python -O strips them
    argv = ["mindist", "--field", "13^2", "--orbits", "0,2,3,4",
            "--budget", str(20 * 70 * 169**2 + 1)]
    plain = run_python("-m", "fibered_lrc.cli", *argv)
    opt = run_optimized(*argv)
    assert plain.returncode == opt.returncode == 0, (plain.stderr, opt.stderr)
    assert opt.stdout == plain.stdout
    assert json.loads(plain.stdout)["d_upper"] == 55


@pytest.fixture(scope="module")
def good_docs(tmp_path_factory, f49):
    """Files of a mindist profile of F_49 orbit (0,) and a codeword of it."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {"prof": root / "prof.json", "cw": root / "cw.json"}
    assert main(["mindist", "--field", "7^2", "--orbits", "0",
                 "--out", str(files["prof"])]) == 0
    es = build_evaluation_set(surface_params(f49, 3), (0,))
    with open(files["cw"], "w") as fh:
        save_json(codeword_to_dict(
            f49, encode(generator_matrix(es), [3, 14, 0, 25, 6])), fh)
    return root, files


def _paths(doc, path=()):
    """(path, value) of every value inside a JSON document."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        yield from _paths(val, path + (key,))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# replacements that no valid document holds: another JSON type where a
# value has one type, and for element tokens (log indices in [0, 48) or
# "0" on F_49) out-of-range and mistyped ones
_WRONG_TYPE = {int: [None, True, 2.5, "7", [], {}],
               str: [None, 7, 2.5, "", "x", [], {}],
               list: [7, "x", {}], dict: [None, 7, "x", []]}
_BAD_TOKENS = [-1, 48, 49, 2**70, "1", "x", "", 1.0, True, [], {}]
_TOKEN_LISTS = ("symbols", "d_witness")


@st.composite
def broken_document(draw, doc) -> bytes:
    """The text of a JSON document with one thing made wrong.

    A value of another type, a bad element token, a missing key, a list of
    another length, a value nested in up to 10^5 lists, a non-object
    document, or text cut short or not UTF-8.
    """
    paths = list(_paths(doc))[1:]
    how = draw(st.sampled_from(["type", "token", "delete", "resize", "nest",
                                "whole", "text"]))
    nest = None
    if how == "type":
        path, val = draw(st.sampled_from(
            [(p, v) for p, v in paths
             if p[0] not in _TOKEN_LISTS or len(p) == 1]))
        # a profile may leave d_exact null
        _set(doc, path, draw(st.sampled_from(
            [w for w in _WRONG_TYPE[type(val)]
             if w is not None or path != ("d_exact",)])))
    elif how == "token":
        path = draw(st.sampled_from([p for p, _ in paths
                                     if p[0] in _TOKEN_LISTS and len(p) == 2]))
        _set(doc, path, draw(st.sampled_from(_BAD_TOKENS)))
    elif how == "delete":
        path = draw(st.sampled_from([p for p, _ in paths if len(p) == 1
                                     or p[0] == "field" and len(p) == 2]))
        del (doc if len(path) == 1 else doc[path[0]])[path[-1]]
    elif how == "resize":
        path, val = draw(st.sampled_from(
            [(p, v) for p, v in paths if isinstance(v, list)]))
        size = draw(st.integers(0, len(val) + 3).filter(lambda k: k != len(val)))
        _set(doc, path, (val * 4)[:size])
    elif how == "nest":
        path, val = draw(st.sampled_from(paths))
        depth = draw(st.sampled_from([1, 3, 900, 100_000]))
        nest = "[" * depth + json.dumps(val) + "]" * depth
        _set(doc, path, "nested here")
    elif how == "whole":
        doc = draw(st.sampled_from([None, 7, "x", [], [doc]]))
    text = json.dumps(doc)
    if nest is not None:
        text = text.replace('"nested here"', nest)
    if how == "text":
        text = text[:draw(st.integers(0, len(text) - 1))]
        if draw(st.booleans()):
            return b"\xff" + text.encode()
    return text.encode()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_broken_documents_exit_with_message(good_docs, data):
    root, files = good_docs
    which = data.draw(st.sampled_from(sorted(files)))
    bad = root / "bad.json"
    bad.write_bytes(data.draw(broken_document(json.loads(files[which].read_text()))))
    files = dict(files, **{which: bad})
    runs = [["recover", "--profile", str(files["prof"]), "--codeword",
             str(files["cw"]), "--erase", "0,0,0"]]
    if which == "prof":
        runs.append(["verify", "invariants", "--profile", str(bad)])
    for argv in runs:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (1, 2) and err.getvalue().strip(), argv
        assert "Traceback" not in err.getvalue()


def test_module_entry_point_matches_main(capsys):
    # `python -m fibered_lrc.cli` runs main under the __main__ check and
    # turns its return value into the exit status
    argv = ["construct", "--field", "7^2", "--orbits", "0"]
    assert main(argv) == 0
    res = run_python("-m", "fibered_lrc.cli", *argv)
    assert (res.returncode, res.stdout) == (0, capsys.readouterr().out), res.stderr
    res = run_python("-m", "fibered_lrc.cli", "construct", "--field", "4")
    assert res.returncode == 1 and "Traceback" not in res.stderr, res.stderr


def test_console_script(golden_dir):
    res = subprocess.run(["fibered-lrc", "table", "--field", "7^2"],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0
    assert res.stdout == (golden_dir / "table_7_2.csv").read_text()
