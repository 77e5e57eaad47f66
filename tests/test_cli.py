import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ffsubspace import chow, cli, graded_ideal, harness
from ffsubspace.chow import chow_of_linear, multihomform_to_json
from ffsubspace.cli import main
from ffsubspace.effective_constants import b_const
from ffsubspace.function_field import ProjectivePoint
from ffsubspace.graded_ideal import IdealGenerators
from ffsubspace.harness import (
    MAX_EXACT_HILBERT_CUTOFF,
    constants_rows,
    fmt_q,
    load_scenario_dict,
    run_check,
)
from ffsubspace.hilbert_bounds import hypersurface_hilbert, threshold_a_eps
from ffsubspace.multipoly import HomogeneousPoly, parse_poly
from helpers import int_digits_unlimited, workload_scenario
from oracles import position_walk, s_sum_oracle
from test_harness import conic_scenario_dict, golden_scenario_dict
from test_twisted_cubic import ideal_scenario_dict

SCENARIO = str(
    Path(__file__).resolve().parents[1] / "src/ffsubspace/scenarios/conic.json"
)


@pytest.mark.parametrize("fmt", [["--format", "json"], []], ids=["json", "text"])
def test_check_ok(capsys, tmp_path, fmt):
    # the report file holds the JSON report whatever stdout's format
    report = tmp_path / "out.json"
    assert main(["check", SCENARIO, *fmt, "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert main(["check", SCENARIO, "--format", "json"]) == 0
    expected = capsys.readouterr().out
    assert report.read_text() == expected
    assert json.loads(expected)["position"]["in_position"] is True
    if fmt:
        assert out == expected
    else:
        assert out.startswith("variety: hypersurface in P^2")


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser("check") is cli.build_parser("check") is not cli.build_parser()
    assert main(["check", SCENARIO, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] == "ffsubspace-report/1"
    # the default format comes back on the next call
    assert main(["check", SCENARIO]) == 0
    assert capsys.readouterr().out.startswith("variety: hypersurface in P^2")


def _main_on_the_full_parser(argv):
    """main as it was when the full parser read every call."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (cli.ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _outcome(run, argv, capsys):
    """(exit code, stdout, stderr) of run(argv), argparse's exits included."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


# Each command's valid call, a required argument it misses, and the same
# command with a bad --format (an unknown option where it has none).
_CALLS = {
    "check": ([SCENARIO, "--format", "json"], [], [SCENARIO, "--format", "xml"]),
    "hilbert": (["--gens", "X0*X2 - X1^2", "--m", "3"], ["--m", "3"], None),
    "bounds a-eps": (["--n", "1", "--delta", "2", "--d", "1", "--eps", "1"], ["--n", "1"], None),
    "chow": (["--input", SCENARIO], [], None),
    "constants": (None, [], None),  # the valid call's inputs file is made per test
    "filtration": (
        ["--gens", "X0*X2 - X1^2", "--m", "4", "--q-poly", "X0 + X2", "--point", "1,t,t^2",
         "--place", "t"],
        ["--gens", "X0*X2 - X1^2", "--m", "4"],
        None,
    ),
    "position": (["--file", SCENARIO, "--N", "2"], ["--N", "2"], None),
}


@pytest.mark.parametrize("name", list(_CALLS))
def test_a_command_parser_reads_as_the_full_parser(capsys, tmp_path, name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # both parsers wrap help alike
    valid, missing, bad_format = _CALLS[name]
    valid = valid or ["--inputs", _constants_inputs(tmp_path)]
    command = name.split()
    argvs = [
        command + valid,
        command + ["-h"],
        command + valid + ["-h"],
        command + missing,
        command + (bad_format or valid + ["--format", "xml"]),
        command + valid + ["--bogus", "1"],
        command[:1] + ["--bogus"],
    ]
    for argv in argvs:
        assert _outcome(main, argv, capsys) == _outcome(_main_on_the_full_parser, argv, capsys), argv
    # the valid call succeeds, with the full parser's namespace but its `command`
    assert _outcome(main, argvs[0], capsys)[0] == 0
    args, rest = cli.build_parser(command[0]).parse_known_args(argvs[0][1:])
    full = vars(cli.build_parser().parse_args(argvs[0]))
    assert rest == [] and full.pop("command") == command[0] and vars(args) == full


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["nope"], ["--", "check"], ["-x", "check"]])
def test_calls_without_a_command_go_to_the_full_parser(capsys, argv):
    assert _outcome(main, argv, capsys) == _outcome(_main_on_the_full_parser, argv, capsys)


def test_main_reads_sys_argv_when_argv_is_none(capsys):
    # the console script and `python -m ffsubspace.cli` call main()
    argv = ["check", SCENARIO, "--format", "json"]
    # not -I, which would ignore PYTHONPATH and so the checkout's src/
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-s", "-m", "ffsubspace.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == main(argv) == 0
    assert proc.stdout == capsys.readouterr().out and proc.stderr == ""


def test_check_missing_file(capsys):
    assert main(["check", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_schema_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ambient_dim": 2}')
    assert main(["check", str(bad)]) == 2
    assert "/variety" in capsys.readouterr().err


def test_check_violation_exit_code(tmp_path, capsys):
    scenario = {
        "ambient_dim": 1,
        "variety": {"kind": "projective_space"},
        "divisors": [{"poly": "X1", "degree": 1}] * 4,
        "N": 1,
        "places": ["t", "inf"],
        "epsilon": "1",
        "points": [["1", "t"]],
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(scenario))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "Violation" in out and "PositionCheckFailed" in out


def test_hilbert_command(capsys):
    assert main(["hilbert", "--gens", "X0*X2 - X1^2", "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert "H(m) = 7" in out


@pytest.mark.parametrize("num_vars", ["-1", "0"])
@pytest.mark.parametrize("argv", [
    ["hilbert", "--gens", "X0", "--m", "2"],
    ["filtration", "--gens", "", "--m", "2", "--q-poly", "t"],
])
def test_num_vars_below_one_is_refused_before_parsing(capsys, argv, num_vars):
    # parsing first would end with a variable-range or a d | m error instead
    assert main([*argv, "--num-vars", num_vars]) == 2
    assert capsys.readouterr() == ("", f"error: --num-vars must be at least 1, got {num_vars}\n")


def test_hilbert_command_builds_only_the_asked_piece(capsys, monkeypatch):
    # H(m) comes from the degree-m piece the command prints, so an ideal that
    # does not persist below m costs one rank, not the ranks of degrees 3..m
    built = []
    real = graded_ideal.graded_piece

    def spy(gens, m):
        built.append(m)
        return real(gens, m)

    monkeypatch.setattr(graded_ideal, "graded_piece", spy)
    monkeypatch.setattr(cli, "graded_piece", spy)
    gens = "X0^2*X1 - t*X3^3; X1*X2 - X0^2; X3^2*X0"
    assert main(["hilbert", "--gens", gens, "--m", "12"]) == 0
    assert "H(m) = 18" in capsys.readouterr().out
    assert set(built) == {12}


def test_bounds_command(capsys, tmp_path):
    report = tmp_path / "bounds.json"
    assert main(
        ["bounds", "a-eps", "--n", "1", "--delta", "2", "--d", "1", "--eps", "1",
         "--report", str(report)]
    ) == 0
    out = capsys.readouterr().out
    assert "a_eps = " in out and "pass" in out
    assert json.loads(report.read_text())["scan_ok"] is True


def test_bounds_command_refuses_a_negative_window(capsys):
    assert main(
        ["bounds", "a-eps", "--n", "1", "--delta", "2", "--d", "1", "--eps", "1",
         "--window", "-5"]
    ) == 2
    assert capsys.readouterr() == ("", "error: --window must be at least 0, got -5\n")


@pytest.mark.parametrize("window, code", [(100, 0), (1000, 0), (1001, 2), (10**6, 2)])
def test_bounds_command_bounds_the_window(capsys, window, code):
    assert main(
        ["bounds", "a-eps", "--n", "1", "--delta", "2", "--d", "1", "--eps", "1",
         "--window", str(window)]
    ) == code
    captured = capsys.readouterr()
    if code == 0:
        assert "a_eps = " in captured.out and captured.err == ""
    else:
        assert captured == ("", f"error: --window must be at most 1000, got {window}\n")


def test_bounds_command_refuses_a_huge_a_eps_at_once(capsys, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("no H value may be computed past the scan limit")

    monkeypatch.setattr(cli, "scan_ratio_window", unbuilt)
    start = time.perf_counter()
    assert main(["bounds", "a-eps", "--n", "3", "--delta", "4", "--d", "3", "--eps", "1/10"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "", "error: a_eps = 64488507: a scan to degree 64488607 exceeds the limit 1000000\n"
    )


@pytest.mark.parametrize("limit, code", [(385 + 99, 2), (385 + 100, 0)])
def test_bounds_command_scan_limit_is_inclusive(capsys, monkeypatch, limit, code):
    # n = 1, delta = 2, d = 1, eps = 1 gives a_eps = 385; the default window is 100
    monkeypatch.setattr(cli, "MAX_SCAN_DEGREE", limit)
    assert main(["bounds", "a-eps", "--n", "1", "--delta", "2", "--d", "1", "--eps", "1"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.startswith("a_eps = 385\n") and err == ""
    else:
        assert (out, err) == ("", f"error: a_eps = 385: a scan to degree 485 exceeds the limit {limit}\n")


def test_bounds_command_writes_a_huge_a_eps_in_its_refusal(capsys):
    # a_eps has 5,016 digits, past int.__repr__'s default limit of 4300
    delta = 10**500
    argv = ["bounds", "a-eps", "--n", "10", "--delta", str(delta), "--d", "1", "--eps", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    a = threshold_a_eps(10, delta, 1, 1)
    with int_digits_unlimited():
        assert (out, err) == (
            "", f"error: a_eps = {a}: a scan to degree {a + 100} exceeds the limit 1000000\n"
        )


def test_chow_command(capsys, tmp_path):
    assert main(["chow", "--input", SCENARIO]) == 0
    out = capsys.readouterr().out
    assert "stated bound 25" in out and "combinatorial monomial count 36" in out


def test_chow_command_bare_variety(capsys, tmp_path):
    path = tmp_path / "variety.json"
    path.write_text(
        json.dumps({"ambient_dim": 2, "kind": "hypersurface", "F": "X0*X2 - X1^2"})
    )
    assert main(["chow", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "degree 2 per block" in out


def t_scaled_ideal_scenario():
    """The ideal scenario with one Chow-form coefficient times t^3 + 2."""
    scenario = ideal_scenario_dict()
    term = scenario["variety"]["chow_form"]["terms"][0]
    term["coeff"] = f"({term['coeff']})*(t^3 + 2)"
    return scenario


def test_chow_command_on_a_t_dependent_form(capsys, tmp_path):
    # the coefficient bound holds by construction, so no place rows
    path = tmp_path / "t_scaled.json"
    path.write_text(json.dumps(t_scaled_ideal_scenario()))
    assert main(["chow", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "height h(X) = 3/1" in out and "place" not in out


def _small_form(*exponents):
    return {"blocks": 2, "vars_per_block": 4,
            "terms": [{"exponents": e, "coeff": "1"} for e in exponents]}


@pytest.mark.parametrize("change, message, pointer", [
    ({"chow_form": multihomform_to_json(chow_of_linear([ProjectivePoint([1, 0, 0])]))},
     "chow_form vars_per_block must equal ambient_dim + 1", "/chow_form/vars_per_block"),
    ({"generators": ["X0 + X1^2"]}, "mixed term degrees [1, 2]", "/generators/0"),
    ({"degree": 3}, "Additional properties are not allowed ('degree' was unexpected)", "/"),
    ({"chow_form": _small_form([[0, 0, 0, 1], [1, 0, 0, 0]], [[0, 0, 0, 3], [3, 0, 0]])},
     "bad block shape in term [[0, 0, 0, 3], [3, 0, 0]]", "/chow_form/terms/1/exponents"),
    ({"chow_form": _small_form([[0, 0, 0, 1], [1, 0, 0, 0]], [[0, 0, 1, 0], [0, 1, 0, 0]],
                               [[0, 0, 0, 2], [2, 0, 0, 0]])},
     "mixed term degrees [2, 4]", "/chow_form/terms/2/exponents"),
    ({"chow_form": _small_form([[1, 0, 0, 0], [0, 0, 0, 1]], [[2, 0, 0, 0], [0, 0, 0, 0]])},
     "mixed block degrees (1, 1) vs (2, 0) in multihomogeneous form",
     "/chow_form/terms/1/exponents"),
])
def test_chow_command_bare_variety_errors(capsys, tmp_path, change, message, pointer):
    # pointers name nodes of the bare file itself, not of a scenario around it
    variety = {"ambient_dim": 3, **ideal_scenario_dict()["variety"], **change}
    path = tmp_path / "variety.json"
    path.write_text(json.dumps(variety))
    assert main(["chow", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message} (at {pointer})\n"


def test_chow_command_on_projective_space(capsys, tmp_path):
    path = tmp_path / "variety.json"
    path.write_text(json.dumps({"ambient_dim": 2, "kind": "projective_space"}))
    assert main(["chow", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "3 blocks of 3 vars" in out and "0 nonzero P_sigma" in out
    assert "place" not in out


# The whole stdout of `chow --input`, pinned byte for byte.
CHOW_STDOUT = {
    "conic": (
        "Chow form: 2 blocks of 3 vars, degree 2 per block, 7 terms\n"
        "height h(X) = 0/1\n"
        "skew expansion: 21 nonzero P_sigma; stated bound 25; "
        "combinatorial monomial count 36\n"
    ),
    "ideal": (
        "Chow form: 2 blocks of 4 vars, degree 3 per block, 34 terms\n"
        "height h(X) = 0/1\n"
        "skew expansion: 2424 nonzero P_sigma; stated bound 7056; "
        "combinatorial monomial count 3136\n"
    ),
    "t_scaled": (
        "Chow form: 2 blocks of 4 vars, degree 3 per block, 34 terms\n"
        "height h(X) = 3/1\n"
        "skew expansion: 2439 nonzero P_sigma; stated bound 7056; "
        "combinatorial monomial count 3136\n"
    ),
    "projective_space": (
        "Chow form: 3 blocks of 3 vars, degree 1 per block, 6 terms\n"
        "height h(X) = 0/1\n"
        "skew expansion: 0 nonzero P_sigma; stated bound 64; "
        "combinatorial monomial count 27\n"
    ),
    "quadric_surface": (
        "Chow form: 3 blocks of 4 vars, degree 2 per block, 66 terms\n"
        "height h(X) = 0/1\n"
        "skew expansion: 3786 nonzero P_sigma; stated bound 592704; "
        "combinatorial monomial count 9261\n"
    ),
}


CHOW_INPUTS = {
    "conic": lambda: json.loads(Path(SCENARIO).read_text()),
    "ideal": ideal_scenario_dict,
    "t_scaled": t_scaled_ideal_scenario,
    "projective_space": lambda: {"ambient_dim": 2, "kind": "projective_space"},
    "quadric_surface": lambda: {"ambient_dim": 3, "kind": "hypersurface", "F": "X0*X3 - X1*X2"},
}


def _write_json(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("name", sorted(CHOW_STDOUT))
def test_chow_command_stdout_is_pinned(capsys, tmp_path, name):
    assert main(["chow", "--input", _write_json(tmp_path, CHOW_INPUTS[name]())]) == 0
    assert capsys.readouterr() == (CHOW_STDOUT[name], "")


def test_chow_command_builds_no_psigma(capsys, tmp_path, monkeypatch):
    # `chow` prints only the count of the P_sigma, read off the packed sums
    def unbuilt(expansion):
        raise AssertionError("P_sigma built")

    monkeypatch.setattr(chow, "_psigma_forms", unbuilt)
    assert main(["chow", "--input", _write_json(tmp_path, ideal_scenario_dict())]) == 0
    assert capsys.readouterr() == (CHOW_STDOUT["ideal"], "")


def test_chow_command_parses_only_the_variety(capsys, tmp_path):
    # a point that does not parse is refused by `check`, which reads it, and
    # not by `chow`, which prints only data of the Chow form
    scenario = ideal_scenario_dict()
    scenario["points"][1][2] = "t +"
    path = _write_json(tmp_path, scenario)
    assert main(["chow", "--input", path]) == 0
    assert capsys.readouterr() == (CHOW_STDOUT["ideal"], "")
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == (
        "error: unexpected end of input (at position 3) (at /points/1/2)\n"
    )


def test_constants_command(capsys, tmp_path):
    inputs = {
        "n": 1, "delta": 2, "M": 2, "N": 2, "q": 4, "d_i": [1, 1, 1, 1],
        "epsilon": "1", "s_card": 2, "s_degree": 2, "c1_prime": "7",
        "m": 12, "H_table": {str(k): 2 * k + 1 for k in range(1, 13)},
    }
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(inputs))
    assert main(["constants", "--inputs", str(path)]) == 0
    out = capsys.readouterr().out
    assert "10240000002304" in out  # b(12, 1, 2, 2) = 48^2 + 20^10
    assert "c_prime_eps" in out


def _constants_inputs(tmp_path, **changes):
    inputs = {
        "n": 1, "delta": 2, "M": 2, "N": 2, "q": 4, "d_i": [1, 1, 1, 1],
        "epsilon": "1", "s_card": 2, "s_degree": 2, **changes,
    }
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(inputs))
    return str(path)


def test_constants_with_a_huge_delta(capsys, tmp_path):
    # delta = 10^500: b has 5,011 digits, past int.__repr__'s default limit
    assert main(["constants", "--inputs", _constants_inputs(tmp_path, delta=10**500)]) == 0
    rows = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    with int_digits_unlimited():
        m, b = int(rows["m".rjust(12)]), int(rows["b".rjust(12)])
        assert b == b_const(m, 1, 2, 10**500) and len(str(b)) == 5011


def test_constants_at_a_large_delta_are_fast(tmp_path):
    # the Sombra bound's second binomial starts at k = delta = 3 * 10^6;
    # summing G term by term below it took 3.5 s
    inputs = _constants_inputs(tmp_path, delta=3 * 10**6)
    code, seconds, out, _ = _main_in_capped_child("constants", "--inputs", inputs)
    assert code == 0 and seconds < 1.0
    assert "S_sum = 1378084508626500012999999\n" in out


def test_constants_refuse_a_huge_b_before_building_it(tmp_path):
    # b would have about 17 million bits; its digits alone took minutes
    inputs = _constants_inputs(tmp_path, M=10, delta=10**500)
    code, seconds, out, stderr = _main_in_capped_child("constants", "--inputs", inputs)
    assert code == 2 and seconds < 1.0 and out == ""
    assert stderr == "error: b of up to 17199450 bits exceeds the limit 524288\n"


def test_constants_with_n_zero_is_a_schema_error(capsys, tmp_path):
    # epsilon / N is the first use of N, so the schema must refuse N = 0
    assert main(["constants", "--inputs", _constants_inputs(tmp_path, N=0)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(at /N)" in err


@pytest.mark.parametrize("changes, pointer", [
    ({"n": 0}, "/n"),
    ({"delta": 0}, "/delta"),
    ({"M": -1}, "/M"),
    ({"q": 0}, "/q"),
    ({"s_card": -1}, "/s_card"),
    ({"s_degree": 0}, "/s_degree"),
    ({"d_i": [1, 1, 1, -1]}, "/d_i/3"),
    ({"H_table": {"1": 3, "2": 0}}, "/H_table/2"),
])
def test_constants_counts_are_at_least_one(capsys, tmp_path, changes, pointer):
    assert main(["constants", "--inputs", _constants_inputs(tmp_path, **changes)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(at {pointer})" in err


@pytest.mark.parametrize("key", ["01", "1\n", "007"])
def test_constants_refuses_a_degree_key_that_is_not_canonical(capsys, tmp_path, key):
    # each matches the key pattern, and "01" or "1\n" would name degree 1
    # a second time, the later value silently winning
    inputs = _constants_inputs(tmp_path, H_table={"1": 3, key: 1000})
    assert main(["constants", "--inputs", inputs]) == 2
    assert capsys.readouterr().err == (
        f"error: {key!r} is not a canonical degree (at /H_table/{key})\n"
    )


def test_integral_floats_are_schema_errors(capsys, tmp_path):
    # Draft 2020-12 counts 2.0 as an integer; here it is refused at the
    # schema (exit 2) instead of crashing in the arithmetic (exit 1)
    assert main(["check", _conic_with(tmp_path, ambient_dim=2.0)]) == 2
    assert capsys.readouterr().err == "error: 2.0 is not of type 'integer' (at /ambient_dim)\n"
    inputs = _constants_inputs(tmp_path, d_i=[1, 1, 1, 1.0])
    assert main(["constants", "--inputs", inputs]) == 2
    assert capsys.readouterr().err == "error: 1.0 is not of type 'integer' (at /d_i/3)\n"


def test_check_and_constants_give_the_same_ledger(capsys, tmp_path):
    # the golden scenario has nonzero heights and e_S term, and its m = 642
    # comes from the effective route; constants gets the same inputs, no m
    report = run_check(load_scenario_dict(golden_scenario_dict()))
    i = report.inputs
    assert i.m is None and report.constants.m == 642
    assert i.h_q_family and any(i.h_q_i) and i.e_s_term
    inputs = {
        "n": i.n, "delta": i.delta, "M": i.M, "N": i.N, "q": i.q, "d_i": list(i.d_i),
        "s_card": i.s_card, "s_degree": i.s_degree,
        **{key: fmt_q(getattr(i, key)) for key in
           ("epsilon", "h_fx", "h_q_family", "e_s_term", "c1", "c1_prime")},
        "h_q_i": [fmt_q(h) for h in i.h_q_i],
        "H_table": {str(k): hypersurface_hilbert(k, 2, 2) for k in range(1, 643)},
    }
    path, out = tmp_path / "inputs.json", tmp_path / "ledger.json"
    path.write_text(json.dumps(inputs))
    assert main(["constants", "--inputs", str(path), "--report", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text()) == dict(constants_rows(report.constants))


def test_constants_checks_an_explicit_m_zero(capsys, tmp_path):
    # m = 0 is checked like any other m, not replaced by a chosen one
    assert main(["constants", "--inputs", _constants_inputs(tmp_path, m=0)]) == 2
    assert "need d | m and m >= max(3, (n+1)delta), got m=0" in capsys.readouterr().err


def test_filtration_command(capsys):
    assert main(
        ["filtration", "--gens", "", "--num-vars", "2", "--m", "4",
         "--q-poly", "X0", "--point", "t,1", "--place", "t"]
    ) == 0
    out = capsys.readouterr().out
    assert "exponent sum 10" in out and "stated closed form 9" in out
    assert "lhs 10 >= rhs 9: ok" in out


@pytest.mark.parametrize("given, missing", [
    (["--point", "t,1"], "--place"),
    (["--place", "t"], "--point"),
])
def test_filtration_point_and_place_go_together(capsys, given, missing):
    # the key inequality needs both; one alone is an input error, not a no-op
    assert main(
        ["filtration", "--gens", "", "--num-vars", "2", "--m", "4", "--q-poly", "X0", *given]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: missing {missing}")


@pytest.mark.parametrize("point, place, message", [
    ("1,t", "t^2", "finite place must be irreducible: t^2"),
    ("1,t,t^2", "t", "--point has 3 coordinates, the ideal has 2 variables"),
    ("0,0", "t", "projective point needs a nonzero coordinate"),
    ("0,1", "t", "point lies on the filtration divisor"),
])
def test_filtration_refuses_a_bad_point_or_place_first(capsys, point, place, message):
    # refused before the filtration is built or printed
    assert main(
        ["filtration", "--gens", "", "--num-vars", "2", "--m", "4", "--q-poly", "X0",
         "--point", point, "--place", place]
    ) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


_ZERO_DIVISOR = ["filtration", "--gens", "X0*X1", "--num-vars", "2", "--m", "2",
                 "--point", "1,0", "--place", "t", "--q-poly"]


def test_filtration_refuses_a_divisor_that_vanishes_on_a_component(capsys):
    # X = {X0*X1 = 0} is two lines and Q = X0 vanishes on one of them without
    # lying in the ideal: multiplication by Q is not injective on the quotient
    assert main(_ZERO_DIVISOR + ["X0"]) == 2
    assert capsys.readouterr() == ("", (
        "error: divisor form X0 is a zero divisor modulo the ideal (it vanishes "
        "on a component of the variety): dim W_1 = 1 < H(1) = 2\n"
    ))


def test_filtration_of_a_reducible_variety_by_a_non_zero_divisor(capsys):
    assert main(_ZERO_DIVISOR + ["X0 + X1"]) == 0
    out = capsys.readouterr().out
    assert "level dims W_i: [2, 2, 1]" in out
    assert "lhs 0 >= rhs 0: ok" in out


def test_check_json_report_file_is_stdout(capsys, tmp_path, monkeypatch):
    # with --format json the report is built and serialized once
    built = []
    to_dict = harness.report_to_dict
    monkeypatch.setattr(harness, "report_to_dict", lambda r: built.append(r) or to_dict(r))
    report = tmp_path / "out.json"
    assert main(["check", SCENARIO, "--format", "json", "--report", str(report)]) == 0
    assert report.read_bytes() == capsys.readouterr().out.encode()
    assert len(built) == 1


def test_position_command(capsys, tmp_path):
    assert main(["position", "--file", SCENARIO, "--N", "1"]) == 0
    out = capsys.readouterr().out
    assert "NOT certified" in out
    assert "[0, 1]: NonemptyAtCap" in out
    report = tmp_path / "position.json"
    assert main(["position", "--file", SCENARIO, "--report", str(report)]) == 0
    capsys.readouterr()
    assert main(["check", SCENARIO, "--format", "json"]) == 0
    check = json.loads(capsys.readouterr().out)
    assert json.loads(report.read_text()) == check["position"]


def test_chow_form_with_too_many_blocks(capsys, tmp_path):
    # t * det(u0, u1, u2): three blocks would be a surface, all of P^2.
    terms = [
        {"exponents": [[int(i == s[b]) for i in range(3)] for b in range(3)],
         "coeff": "t" if sign > 0 else "-t"}
        for s, sign in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]
    ]
    scenario = {
        "ambient_dim": 2,
        "variety": {
            "kind": "ideal",
            "generators": ["X0"],
            "chow_form": {"blocks": 3, "vars_per_block": 3, "terms": terms},
        },
        "divisors": [{"poly": "X1", "degree": 1}],
        "N": 1,
        "places": ["t", "inf"],
        "epsilon": "1",
        "points": [],
    }
    path = tmp_path / "three_blocks.json"
    path.write_text(json.dumps(scenario))
    assert main(["chow", "--input", str(path)]) == 2
    assert "/variety/chow_form/blocks" in capsys.readouterr().err


def test_chow_form_that_does_not_fit_the_generators(capsys, tmp_path):
    # the twisted cubic's generators with the Chow form of a line: the exact
    # H(1) = 4 is above Chardin's bound 2 for dimension 1 and degree 1
    line = chow_of_linear([ProjectivePoint([1, 0, 0, 0]), ProjectivePoint([0, 1, 0, 0])])
    scenario = ideal_scenario_dict()
    scenario["variety"]["chow_form"] = multihomform_to_json(line)
    path = tmp_path / "line_form.json"
    path.write_text(json.dumps(scenario))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "H(1) = 4" in err and "(at /variety/chow_form)" in err


@pytest.mark.parametrize("command", [["chow", "--input"], ["check"]])
def test_repeated_chow_form_term(capsys, tmp_path, command):
    # a second term with the exponents of term 0 would overwrite it
    scenario = ideal_scenario_dict()
    terms = scenario["variety"]["chow_form"]["terms"]
    terms.append(dict(terms[0], coeff="5"))
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(scenario))
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"repeat those of term 0 (at /variety/chow_form/terms/{len(terms) - 1})" in err


@pytest.mark.parametrize("command", [["chow", "--input"], ["check"]])
@pytest.mark.parametrize("a, b, zeros", [(2, 4, 0), (1, 2, 1)])
def test_unequal_block_degrees_in_chow_form(capsys, tmp_path, command, a, b, zeros):
    # each term has degree a in block 0 and b in block 1; the error names the
    # first nonzero term, after `zeros` terms with coefficient 0
    scenario = ideal_scenario_dict()
    scenario["variety"]["chow_form"]["terms"] = [
        {"exponents": [[0, 0, 0, a], [b, 0, 0, 0]], "coeff": "0"}
    ] * zeros + [
        {"exponents": [[a if j == i else 0 for j in range(4)],
                       [b if j == i + 1 else 0 for j in range(4)]], "coeff": "1"}
        for i in range(3)
    ]
    path = tmp_path / "unequal.json"
    path.write_text(json.dumps(scenario))
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: unequal block degrees ({a}, {b}) in multihomogeneous form "
        f"(at /variety/chow_form/terms/{zeros}/exponents)\n"
    )


def _single_term_ideal():
    # a single term of degree 40 per block would expand into 741,321 products
    scenario = ideal_scenario_dict()
    scenario["variety"]["chow_form"]["terms"] = [
        {"exponents": [[40, 0, 0, 0], [0, 40, 0, 0]], "coeff": "1"}
    ]
    return scenario


@pytest.mark.parametrize("document, count", [
    pytest.param(_single_term_ideal(), "up to 741321", id="single_term"),
    # the Chow form of P^M or of a hypersurface is refused by its shape
    # before it is built; built, P^9's ran out of memory
    pytest.param({"ambient_dim": 9, "kind": "projective_space"}, "at least 9^10", id="P9"),
    pytest.param({"ambient_dim": 8, "kind": "hypersurface", "F": "X0"}, "at least 8^8",
                 id="X0_in_P8"),
    pytest.param({"ambient_dim": 3, "kind": "hypersurface", "F": "X0^60"}, "at least 1891^3",
                 id="X0^60_in_P3"),
])
def test_huge_skew_expansion_exits_fast(tmp_path, document, count):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    code, seconds, _, stderr = _main_in_capped_child("chow", "--input", str(path))
    assert code == 2 and seconds < 1.0
    assert f"skew expansion of {count} products exceeds the limit 50000" in stderr


def _conic_with(tmp_path, **changes):
    scenario = json.loads(Path(SCENARIO).read_text())
    scenario.update(changes)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return str(path)


@pytest.mark.parametrize("places, message", [
    (["2*t"], "finite place must be monic: 2*t"),
    (["t/2"], "finite place must be monic: 1/2*t"),
    (["t^2 - 1"], "finite place must be irreducible: t^2 - 1"),
    (["3"], "not a valid finite place: 3"),
    (["t", "inf", "t"], "place t repeats /places/0"),
])
def test_bad_places_exit_2(capsys, tmp_path, places, message):
    assert main(["check", _conic_with(tmp_path, places=places)]) == 2
    # the error names the pointer of the last place: the one that does not
    # parse, or the repeat
    assert capsys.readouterr().err == f"error: {message} (at /places/{len(places) - 1})\n"


@pytest.mark.parametrize("N", [4, 10])
def test_scenario_N_must_leave_a_subset_to_check(capsys, tmp_path, N):
    # N >= q would run the position check over no (N+1)-subsets
    path = _conic_with(tmp_path, N=N)
    for command in (["check", path], ["position", "--file", path]):
        assert main(command) == 2
        assert capsys.readouterr().err == f"error: N must lie in [1, 3], got {N} (at /N)\n"
    # `chow` parses only the variety
    assert main(["chow", "--input", path]) == 0


def test_scenario_with_too_many_position_subsets_is_refused(monkeypatch, capsys, tmp_path):
    # 20 lines on the conic: N = 4 would walk C(20, 5) = 15504 subsets, past
    # MAX_POSITION_SUBSETS (2000); it exits 2 before any graded piece is built,
    # as the scenario's N (at /N) and as `position --N`
    built = []
    monkeypatch.setattr(graded_ideal, "graded_piece", lambda gens, m: built.append(m))
    lines = [{"poly": f"X0 + {k}*X1 + {k * k + 1}*X2", "degree": 1} for k in range(20)]
    refusal = "error: N = 4 gives C(20, 5) = 15504 subsets to check, more than 2000"
    path = _conic_with(tmp_path, divisors=lines, N=4)
    for command in (["check", path], ["position", "--file", path]):
        assert main(command) == 2
        assert capsys.readouterr() == ("", f"{refusal} (at /N)\n")
    path = _conic_with(tmp_path, divisors=lines, N=1)  # C(20, 2) = 190 subsets
    assert main(["position", "--file", path, "--N", "4"]) == 2
    assert capsys.readouterr() == ("", f"{refusal}\n")
    assert built == []


P1_REFUSAL = "error: hypersurface variety needs ambient_dim >= 2 (at /ambient_dim)\n"


@pytest.mark.parametrize("command, bare", [
    ("check", False), ("chow --input", False), ("chow --input", True),
])
def test_hypersurface_in_P1_is_refused(capsys, tmp_path, command, bare):
    # ambient_dim is at /ambient_dim in a scenario and in a bare variety file
    variety = {"kind": "hypersurface", "F": "X0*X1"}
    data = {"ambient_dim": 1, **variety} if bare else {
        **conic_scenario_dict(points=[]), "ambient_dim": 1, "variety": variety,
        "divisors": [{"poly": "X0", "degree": 1}, {"poly": "X1", "degree": 1}], "N": 1,
    }
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(data))
    assert main([*command.split(), str(path)]) == 2
    assert capsys.readouterr().err == P1_REFUSAL


def _projective_plane_scenario(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(conic_scenario_dict(
        points=[["1", "t", "t^2 + 1"], ["t - 1", "2", "1/t"]],
        variety={"kind": "projective_space"},
    )))
    return str(path)


def test_check_builds_no_chow_form(capsys, monkeypatch, tmp_path):
    # h(X) of projective space and of a hypersurface needs no Chow form
    files = [SCENARIO, _projective_plane_scenario(tmp_path)]
    runs = []
    for file in files:
        for fmt in ("text", "json"):
            code = main(["check", file, "--format", fmt])
            runs.append((code, capsys.readouterr().out))

    def refuse(*args):
        raise AssertionError("a Chow form was built")

    monkeypatch.setattr(chow, "_cross_minors", refuse)
    monkeypatch.setattr(chow, "_determinant", refuse)
    for file in files:
        for fmt in ("text", "json"):
            code = main(["check", file, "--format", fmt])
            assert (code, capsys.readouterr().out) == runs.pop(0)


def _quadric_divisor_scenario(tmp_path):
    path = tmp_path / "quadric.json"
    path.write_text(json.dumps(conic_scenario_dict(
        points=[["1", "t", "t^2"], ["(t + 1)^2", "2*t + 2", "4"]],
        divisors=[
            {"poly": "t*X0^2 + X1*X2/(t + 1) - 3*X2^2", "degree": 2},
            {"poly": "2*X0 + t*X1", "degree": 1},
            {"poly": "X1 - (t^2 + 1)*X2", "degree": 1},
            {"poly": "X0 + X1 + X2/t", "degree": 1},
        ],
        places=["t", "t + 1", "t^2 + 1", "inf"],
    )))
    return str(path)


def test_check_builds_no_form_power(capsys, monkeypatch, tmp_path):
    # h(Q_1..Q_q) and the S-term come from powers of coefficients, not forms
    files = [SCENARIO, _quadric_divisor_scenario(tmp_path)]
    runs = []
    for file in files:
        for fmt in ("text", "json"):
            code = main(["check", file, "--format", fmt])
            runs.append((code, capsys.readouterr().out))

    def refuse(*args):
        raise AssertionError("a power of a form was built")

    monkeypatch.setattr(HomogeneousPoly, "__pow__", refuse)
    for file in files:
        for fmt in ("text", "json"):
            code = main(["check", file, "--format", fmt])
            assert (code, capsys.readouterr().out) == runs.pop(0)


@pytest.mark.parametrize("c1, c_eps, verdict, code", [
    ("1000000", "500000/321", "HeightSmall", 0),
    ("0", "0/1", "Violation", 1),
])
def test_height_small_and_violation_verdicts(capsys, tmp_path, c1, c_eps, verdict, code):
    # c1_prime = -10^6 puts rhs_full = 10 + c_prime_eps below lhs = 6; the
    # point's height 2 is at most c_eps = 500000/321 for c1 = 10^6, not for 0
    overrides = {"c1": c1, "c1_prime": "-1000000"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(conic_scenario_dict(constants_overrides=overrides)))
    assert main(["check", str(path), "--format", "json"]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["constants"]["c_eps"] == c_eps
    point = report["points"][0]
    assert (point["height"], point["lhs"], point["rhs_full"], point["verdict"]) == (
        "2/1", "6/1", "2121630/412163", verdict
    )
    assert main(["check", str(path), "--format", "text"]) == code
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["0", "2/1", "6/1", "10/1", "2121630/412163", verdict] in rows


IDEAL_WITHOUT_GENERATORS = {
    "kind": "ideal", "chow_form": {"blocks": 1, "vars_per_block": 3, "terms": []},
}


@pytest.mark.parametrize("path, value, message", [
    (("variety",), {"kind": "hypersurface"}, "hypersurface variety needs F (at /variety/F)"),
    (("variety", "F"), "0", "F must be nonzero (at /variety/F)"),
    (("variety",), IDEAL_WITHOUT_GENERATORS,
     "ideal variety needs generators (at /variety/generators)"),
    (("divisors", 1, "poly"), "0", "divisor must be nonzero (at /divisors/1/poly)"),
    (("epsilon",), "0", "epsilon must be positive (at /epsilon)"),
    (("epsilon",), "-1/2", "epsilon must be positive (at /epsilon)"),
    (("divisors",), [], "[] should be non-empty (at /divisors)"),
    (("places",), [], "[] should be non-empty (at /places)"),
    (("divisors", 1, "poly"), "(X0 + X1 + X2)^31",
     "power with up to 528 terms exceeds the limit 500 (at position 15) (at /divisors/1/poly)"),
    (("divisors", 1, "poly"), "X0/X1",
     "division by a non-constant polynomial (at position 2) (at /divisors/1/poly)"),
])
def test_bad_scenario_values_exit_2(capsys, tmp_path, path, value, message):
    scenario = conic_scenario_dict()
    *parents, last = path
    target = scenario
    for key in parents:
        target = target[key]
    target[last] = value
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(scenario))
    assert main(["check", str(file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    # only input errors become exit code 2; a bug inside the run propagates
    def broken(scenario):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "run_check", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["check", SCENARIO])


def test_malformed_inputs_exit_2(capsys, tmp_path):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({"n": 1, "delta": 2}))
    assert main(["constants", "--inputs", str(path)]) == 2
    assert "/M" in capsys.readouterr().err
    path.write_text(json.dumps({
        "n": 1, "delta": 2, "M": 2, "N": 2, "q": 4, "d_i": [1, 1, 1, 1],
        "epsilon": "one", "s_card": 2, "s_degree": 2,
    }))
    assert main(["constants", "--inputs", str(path)]) == 2
    assert "(at /epsilon)" in capsys.readouterr().err
    assert main(["hilbert", "--gens", "X0*X2 - X1^2", "--m", "-1"]) == 2
    assert "degree must be >= 0" in capsys.readouterr().err
    for eps in ["x", "1/0"]:
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds", "a-eps", "--n", "1", "--delta", "2", "--d", "1", "--eps", eps])
        assert exit_info.value.code == 2
        assert f"invalid Fraction value: {eps!r}" in capsys.readouterr().err
    terms = [{"exponents": [[1, 0, 0]]}]
    path = _conic_with(tmp_path, variety={
        "kind": "ideal", "generators": ["X0"],
        "chow_form": {"blocks": 1, "vars_per_block": 3, "terms": terms},
    })
    assert main(["check", path]) == 2
    assert "/variety/chow_form/terms/0" in capsys.readouterr().err


CAPPED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from ffsubspace.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - start)
"""


def _main_in_capped_child(*args):
    """(exit code, seconds inside main, stdout of main, stderr) of the CLI on
    these arguments, in a child with 2 GB of address space."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    out, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    code, seconds = last.split()
    return int(code), float(seconds), out, proc.stderr


def _check_in_capped_child(tmp_path, coordinate):
    """`_main_in_capped_child` of `check` on the conic with one point that
    has this coordinate."""
    return _main_in_capped_child("check", _conic_with(tmp_path, points=[["1", coordinate, "t"]]))


def test_huge_exponent_exits_fast(tmp_path):
    # t^1000000000 would be a 10^9-term polynomial; the parser refuses the
    # exponent before building anything.  The child's address space is
    # capped so that a regression fails instead of exhausting memory.
    code, seconds, _, stderr = _check_in_capped_child(tmp_path, "t^1000000000")
    assert code == 2 and seconds < 1.0
    assert "exceeds the limit 1000 (at position 2)" in stderr


@pytest.mark.parametrize("coordinate, message", [
    ("(t^1000)^1000", "power of degree 1000000 exceeds the limit 1000 (at position 9)"),
    ("((2^1000)^1000)^1000",
     "power with coefficients of up to 1000000 bits exceeds the limit 4000 (at position 10)"),
])
def test_huge_nested_power_exits_fast(tmp_path, coordinate, message):
    # each exponent is within MAX_EXPONENT, but the result of the inner power
    # would have degree 10^6 (or 10^6-bit coefficients, and 10^9 one level up)
    code, seconds, _, stderr = _check_in_capped_child(tmp_path, coordinate)
    assert code == 2 and seconds < 1.0
    assert message in stderr


@pytest.mark.parametrize("gens, message", [
    ("(X0+X1+X2+X3)^30", "power with up to 5456 terms exceeds the limit 500 (at position 14)"),
    ("(X0+X1)^1000", "power with up to 1001 terms exceeds the limit 500 (at position 8)"),
])
def test_power_with_many_terms_exits_fast(gens, message):
    # within the exponent, degree and coefficient limits, but built term by
    # term these powers would take seconds
    code, seconds, _, stderr = _main_in_capped_child("hilbert", "--gens", gens, "--m", "1")
    assert code == 2 and seconds < 1.0
    assert message in stderr


@pytest.mark.parametrize("gens, cost", [
    ("(X0+t*X1)^499", 62375000000),
    ("(X0+(t+1)*X1)^499", 124750000000),
])
def test_power_with_costly_coefficients_exits_fast(gens, cost):
    # 500 terms, within every other limit; each coefficient would be a dense
    # polynomial in t of degree up to 499, built for seconds to minutes
    code, seconds, _, stderr = _main_in_capped_child("hilbert", "--gens", gens, "--m", "1")
    assert code == 2 and seconds < 1.0
    assert f"power with an estimated cost of {cost} exceeds the limit 1000000" in stderr


@pytest.mark.parametrize("command", [
    ["hilbert", "--gens", "X0*X2 - X1^2", "--m", "100000"],
    ["filtration", "--gens", "X0*X2 - X1^2", "--q-poly", "X0", "--m", "100000"],
])
def test_huge_graded_piece_exits_fast(command):
    # the degree-100000 piece would list C(100002, 2) monomials
    code, seconds, _, stderr = _main_in_capped_child(*command)
    assert code == 2 and seconds < 1.0
    message = "degree 100000 in 3 variables has 5000150001 monomials, more than the limit 6000"
    assert message in stderr


def _conic_divisor_0(poly):
    return {"divisors": [{"poly": poly, "degree": 1}] + json.loads(
        Path(SCENARIO).read_text())["divisors"][1:]}


@pytest.mark.parametrize("changes, message", [
    pytest.param(_conic_divisor_0("(" * 200 + "X0" + ")" * 200),
                 "groups nested deeper than the limit 100 (at position 100) "
                 "(at /divisors/0/poly)", id="divisor"),
    pytest.param({"points": [["1", "(" * 200 + "t" + ")" * 200, "t"]]},
                 "groups nested deeper than the limit 100 (at position 100) "
                 "(at /points/0/1)", id="coefficient"),
    pytest.param(_conic_divisor_0("(" * 200 + "t*X0" + ")" * 200),
                 "groups nested deeper than the limit 100 (at position 100) "
                 "(at /divisors/0/poly)", id="divisor_coefficient"),
    pytest.param(_conic_divisor_0("- " * 1000 + "X0 +"),
                 "unexpected end of input (at position 2004) (at /divisors/0/poly)",
                 id="signs"),
])
def test_deep_nesting_exits_2(tmp_path, changes, message):
    # about 200 nested groups, or 1,000 signs, overflowed the stack of the
    # recursive descent with a RecursionError traceback
    code, seconds, out, stderr = _main_in_capped_child("check", _conic_with(tmp_path, **changes))
    assert code == 2 and seconds < 1.0 and out == ""
    assert stderr == f"error: {message}\n"


def test_deep_but_allowed_nesting_checks(tmp_path):
    path = _conic_with(
        tmp_path,
        points=[["1", "(" * 100 + "t*2/2" + ")" * 100, "t^2"]],
        **_conic_divisor_0("- " * 1001 + "(" * 100 + "X0" + ")" * 100),
    )
    code, _, out, stderr = _main_in_capped_child("check", path, "--format", "json")
    assert code == 0 and stderr == ""
    report = json.loads(out)
    assert report["scenario"]["divisors"][0] == "-X0"
    assert [p["coordinates"] for p in report["points"]] == [["1", "t", "t^2"]]


@pytest.mark.parametrize("text", [
    pytest.param("[" * 100_000 + "]" * 100_000, id="arrays"),
    pytest.param('{"a": ' * 3000 + "1" + "}" * 3000, id="objects"),
])
@pytest.mark.parametrize("command", [["check"], ["chow", "--input"], ["constants", "--inputs"]])
def test_deeply_nested_json_exits_2(tmp_path, text, command):
    # json's decoder raised a RecursionError past about 1,000 levels
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, seconds, out, stderr = _main_in_capped_child(*command, str(path))
    assert code == 2 and seconds < 1.0 and out == ""
    assert stderr == "error: invalid JSON: nested too deeply (at /)\n"


def test_a_long_offending_value_is_echoed_cut(tmp_path):
    # json loads an array nested 900 deep; its repr alone is 1,800 characters
    deep = json.loads("[" * 900 + "]" * 900)
    code, seconds, out, stderr = _main_in_capped_child("check", _conic_with(tmp_path, epsilon=deep))
    assert code == 2 and seconds < 1.0 and out == ""
    assert stderr == "error: " + "[" * 80 + "... is not of type 'string' (at /epsilon)\n"
    assert len(stderr) < 200 and stderr.count("\n") == 1


def _quadric_scenario(tmp_path, F, point):
    """`check` input for the quadric {F = 0} in P^M, M + 1 = len(point),
    with the M + 1 coordinate hyperplanes, three more in general position
    and N = M."""
    nv = len(point)
    hyperplanes = [f"X{i}" for i in range(nv)] + [
        " + ".join(f"{(i + 1) ** k}*X{i}" for i in range(nv)) for k in range(3)
    ]
    path = tmp_path / "quadric.json"
    path.write_text(json.dumps({
        "ambient_dim": nv - 1,
        "variety": {"kind": "hypersurface", "F": F},
        "divisors": [{"poly": h, "degree": 1} for h in hyperplanes],
        "N": nv - 1, "places": ["t", "inf"], "epsilon": "1", "points": [point],
    }))
    return str(path)


def test_p4_quadric_constants_are_fast_and_equal_the_direct_sum(tmp_path):
    # m = 3342770: the direct sum asks H at 3342769 degrees, the closed form
    # at none below m
    path = _quadric_scenario(tmp_path, "X0*X1 - X2*X3 - X4^2", ["1", "t^2+1", "t", "t", "1"])
    code, seconds, out, _ = _main_in_capped_child("check", path, "--format", "json")
    assert code == 0 and seconds < 1.0
    constants = json.loads(out)["constants"]
    m = constants["m"]
    assert m == 3342770
    direct = s_sum_oracle(lambda k: hypersurface_hilbert(k, 4, 2), 3, 2, 1, m)
    assert constants["S_sum"] == direct == 10405076012428540640432669


def _ideal_with_overrides(tmp_path, **overrides):
    """`check` input for the twisted cubic scenario with these
    constants_overrides."""
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({**ideal_scenario_dict(), "constants_overrides": overrides}))
    return str(path)


def test_long_exact_hilbert_prefix_is_fast(tmp_path):
    # m = cutoff = 8,000: every H(k) of the prefix past persistence is read
    # off one shifted Macaulay representation; iterating the bound degree by
    # degree up to each k took 46.5 s
    path = _ideal_with_overrides(tmp_path, m=8000, hilbert_exact_cutoff=8000)
    code, seconds, out, _ = _main_in_capped_child("check", path, "--format", "json")
    assert code == 0 and seconds < 2.0
    # the twisted cubic has H(k) = 3k + 1, exact here at every k < m
    S_sum = json.loads(out)["constants"]["S_sum"]
    assert S_sum == sum(3 * k + 1 for k in range(1, 8000)) == 95_995_999


def test_exact_hilbert_cutoff_is_bounded(tmp_path):
    # at the limit, with m as large, `check` stays under 1 s; one past it is
    # a schema error before anything is computed
    limit = MAX_EXACT_HILBERT_CUTOFF
    path = _ideal_with_overrides(tmp_path, m=limit, hilbert_exact_cutoff=limit)
    code, seconds, _, _ = _main_in_capped_child("check", path)
    assert code == 0 and seconds < 1.0
    path = _ideal_with_overrides(tmp_path, hilbert_exact_cutoff=limit + 1)
    code, seconds, _, stderr = _main_in_capped_child("check", path)
    assert code == 2 and seconds < 1.0
    message = f"{limit + 1} is greater than the maximum of {limit}"
    assert f"{message} (at /constants_overrides/hilbert_exact_cutoff)" in stderr


def test_check_writes_integers_past_the_digit_limit(capsys, tmp_path):
    # P^9 with its 10 coordinate hyperplanes and their sum: b has 8,441
    # digits, past int.__repr__'s default limit of 4300, in both formats
    nv = 10
    path = tmp_path / "p9.json"
    path.write_text(json.dumps(conic_scenario_dict(
        ambient_dim=nv - 1, variety={"kind": "projective_space"}, N=nv - 1,
        divisors=[{"poly": f"X{i}", "degree": 1} for i in range(nv)]
        + [{"poly": " + ".join(f"X{i}" for i in range(nv)), "degree": 1}],
        points=[["1"] + [f"t + {i}" for i in range(1, nv)]],
    )))
    outs = {}
    for fmt in ("json", "text"):
        assert main(["check", str(path), "--format", fmt]) == 0
        outs[fmt] = capsys.readouterr().out
    with int_digits_unlimited():
        constants = json.loads(outs["json"])["constants"]
        b = b_const(constants["m"], 9, 9, 1)
        assert constants["b"] == b and len(str(b)) == 8441
        assert f"             b = {b}\n" in outs["text"]


def test_p5_quadric_check_finishes(tmp_path):
    path = _quadric_scenario(tmp_path, "X0*X1 - X2*X3 - X4*X5", ["1", "t^2+1", "t", "t", "1", "1"])
    code, seconds, _, _ = _main_in_capped_child("check", path, "--format", "json")
    assert code == 0 and seconds < 5.0


def test_filtration_with_t_in_the_divisor_is_fast():
    # each level stops at H(m - i d); scanning every candidate took 18-24 s
    command = ["filtration", "--gens", "X0*X2 - X1^2", "--q-poly", "X0 + t*X1 + X2", "--m", "16"]
    code, seconds, out, _ = _main_in_capped_child(*command)
    assert code == 0 and seconds < 8.0
    assert "level dims W_i: [33, 31, 29, 27, 25, 23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 1]" in out


def test_position_walk_stops_at_the_lazard_degree(monkeypatch, capsys, tmp_path):
    # conic divisors leave no linear form to cut with.  With N = 2 each
    # subset is the conic and three conics, Lazard degree 4, walked from
    # degree 1: three stop at their full piece of degree 3, and the failing
    # one, whose four conics meet at (1 : 0 : 0), at degree 4, below the cap
    # 6.  With N = 1 each subset is exactly M + 1 = 3 conics, whose first
    # full piece can only be the one of degree 4, so only that one is built.
    built, real = [], graded_ideal.graded_piece

    def spy(gens, m):
        built.append(m)
        return real(gens, m)

    path = tmp_path / "conics.json"
    path.write_text(json.dumps(conic_scenario_dict(divisors=[
        {"poly": p, "degree": 2}
        for p in ["X1*X2", "X2^2 + t*X0*X1", "X1^2 - X2^2 + X0*X2", "X0^2 + t*X1*X2"]
    ])))
    monkeypatch.setattr(graded_ideal, "graded_piece", spy)
    assert main(["position", "--file", str(path), "--N", "2"]) == 0
    assert sorted(built) == [1] * 4 + [2] * 4 + [3] * 4 + [4]
    assert capsys.readouterr().out.count("NonemptyAtCap(cap=6)") == 1
    built.clear()
    assert main(["position", "--file", str(path), "--N", "1"]) == 0
    assert built == [4] * 6
    assert capsys.readouterr().out.count("EmptyCertified(m=4)") == 2


@pytest.mark.parametrize("n_value, subsets", [(-5, None), (0, None), (1, 6), (3, 1), (4, None), (10, None)])
def test_position_n_must_leave_a_subset(monkeypatch, capsys, n_value, subsets):
    # the conic has q = 4 divisors: --N in [1, 3] is walked, one emptiness
    # check per subset, and any other value exits 2 before any check
    checked, real = [], graded_ideal.has_common_projective_zero

    def spy(gens):
        checked.append(gens)
        return real(gens)

    monkeypatch.setattr(graded_ideal, "has_common_projective_zero", spy)
    code = main(["position", "--file", SCENARIO, "--N", str(n_value)])
    captured = capsys.readouterr()
    if subsets is None:
        assert (code, captured.out, checked) == (2, "", [])
        assert captured.err == f"error: --N must lie in [1, 3], got {n_value}\n"
    else:
        assert code == 0 and len(checked) == subsets
        assert captured.out.startswith(f"N = {n_value}: ")
        assert captured.out.count("  subset ") == subsets


SCHMIDT_HYPERPLANES = ["X0 + t*X1", "X1 + t*X2", "X2 + t*X3", "t*X0 + X3",
                       "X0 + X1 + X2 + (t^2 + 1)*X3"]


def test_classical_schmidt_position_builds_no_graded_piece(monkeypatch, capsys, tmp_path):
    # P^3 with five hyperplanes in general position over Q(t) and N = 3:
    # each 4-subset has rank 4, so the linear cut certifies it at degree 1
    # in `position` and in `check`, with no graded piece; the verdicts are
    # those of the plain walk
    path = tmp_path / "schmidt.json"
    path.write_text(json.dumps(conic_scenario_dict(
        ambient_dim=3, variety={"kind": "projective_space"}, N=3,
        divisors=[{"poly": p, "degree": 1} for p in SCHMIDT_HYPERPLANES],
        points=[["1", "t", "t^2 + 1", "t^3"], ["t", "1", "2", "t - 1"]],
    )))
    planes = [parse_poly(p, 4) for p in SCHMIDT_HYPERPLANES]
    walked = [
        (list(indices), position_walk(IdealGenerators.of(4, tuple(planes[i] for i in indices))))
        for indices in itertools.combinations(range(5), 4)
    ]
    assert all(verdict == (True, 1) for _, verdict in walked)

    def no_piece(gens, m):
        raise AssertionError("a graded piece was built")

    monkeypatch.setattr(graded_ideal, "graded_piece", no_piece)
    assert main(["position", "--file", str(path), "--N", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"  subset {indices}: {verdict}" for indices, verdict in walked]
    assert main(["check", str(path), "--format", "json"]) == 0
    subsets = json.loads(capsys.readouterr().out)["position"]["subsets"]
    assert [(s["indices"], (s["empty_certified"], s["certified_degree"])) for s in subsets] == [
        (indices, tuple(verdict)) for indices, verdict in walked
    ]


def test_ideal_session_position_builds_no_graded_piece(monkeypatch):
    # each of the 20 subsets is the twisted cubic's three quadrics and three
    # of the six planes, of rank 3 = M: the planes cut P^3 to one point and
    # the quadrics are evaluated there.  Pieces are built only after the
    # position stage, for the Hilbert values.
    scenario = load_scenario_dict(workload_scenario("ideal-session", 1))
    stage, built = ["before"], []
    real_piece, real_position = graded_ideal.graded_piece, harness.check_subgeneral_position

    def piece_spy(gens, m):
        built.append(stage[0])
        return real_piece(gens, m)

    def position_spy(*args):
        stage[0] = "position"
        try:
            return real_position(*args)
        finally:
            stage[0] = "after"

    monkeypatch.setattr(graded_ideal, "graded_piece", piece_spy)
    monkeypatch.setattr(harness, "check_subgeneral_position", position_spy)
    report = run_check(scenario)
    assert len(report.position.subsets) == 20 and report.position.in_position
    assert built and set(built) == {"after"}


LCM_SCENARIO = str(Path(__file__).resolve().parent / "data" / "lcm_of_degrees.json")


def test_large_lcm_of_degrees_exits_fast():
    # degrees 1, 1, 23, 29 and 31 have lcm d = 20677, and the divisor
    # X0 + (t+1)*X1 makes the family's height d: it is read off the orders
    # of the coefficients, with no power (c/a_i)^(d/d_i) built
    code, seconds, out, stderr = _main_in_capped_child("check", LCM_SCENARIO, "--format", "json")
    assert code in (0, 1) and seconds < 1.0 and "Traceback" not in stderr
    constants = json.loads(out)["constants"]
    assert (constants["d"], constants["h_q_family"], constants["e_s_term"]) == (
        20677, "20677/1", "-20677/1"
    )


def test_position_cap_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["position", "--file", SCENARIO, "--cap", "6"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --cap 6" in capsys.readouterr().err


# modules a CLI run must not load: sympy is imported only to factor,
# jsonschema (with its referencing chain) is a test dependency only,
# records are NamedTuples or __slots__ classes, so neither `dataclasses` nor
# the `inspect` it pulls in is loaded, and the filtration module is loaded
# by the `filtration` command only; both checks below cover all of them
HEAVY = ("sympy", "mpmath", "jsonschema", "referencing", "dataclasses", "inspect",
         "ffsubspace.filtration")

SYMPY_MODULES = f"""
import sys
sys.path.insert(0, sys.argv[1])
import ffsubspace.cli
print(" ".join(m for m in {HEAVY!r} if m in sys.modules) or "none")
"""

SYMPY_MODULES_AFTER_RUNS = f"""
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from ffsubspace.cli import main
inputs, paths = sys.argv[2], sys.argv[3:]
for path in paths:
    for args in (["check", path, "--format", "json"], ["check", path, "--format", "text"],
                 ["chow", "--input", path]):
        with contextlib.redirect_stdout(io.StringIO()):
            print(args[0], main(args), file=sys.stderr)
with contextlib.redirect_stdout(io.StringIO()):
    print("constants", main(["constants", "--inputs", inputs]), file=sys.stderr)
print(" ".join(m for m in {HEAVY!r} if m in sys.modules) or "none")
import ffsubspace  # the package still resolves the filtration's names
print(ffsubspace.order_by_vanishing.__module__)
"""


def _isolated(script, *args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-I", "-c", script, src, *args],
        capture_output=True, text=True, timeout=120, check=True,
    )


def test_import_does_not_load_sympy():
    assert _isolated(SYMPY_MODULES).stdout == "none\n"


def test_check_and_chow_do_not_load_sympy(tmp_path):
    # places of degree <= 2 (t^2 + 1 among them) are checked without sympy,
    # and `chow` factors no Chow-form coefficient, not even one with the
    # irreducible cubic t^3 + 2; constants too runs without sympy and
    # without jsonschema
    paths = [SCENARIO]
    for name, scenario in [("golden", golden_scenario_dict()), ("ideal", ideal_scenario_dict()),
                           ("t_scaled", t_scaled_ideal_scenario())]:
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(scenario))
    proc = _isolated(SYMPY_MODULES_AFTER_RUNS, _constants_inputs(tmp_path), *paths)
    assert proc.stdout == "none\nffsubspace.filtration\n"
    runs = ["check", "0", "check", "0", "chow", "0"] * 4 + ["constants", "0"]
    assert proc.stderr.split() == runs


# an integer past the 4300 digits Python's int() converts
HUGE_LITERAL = "1" * 5000


def test_oversized_literal_in_a_point_exits_2(capsys, tmp_path):
    for coordinate, position in [(HUGE_LITERAL, 0), (f"(t + {HUGE_LITERAL})", 5)]:
        assert main(["check", _conic_with(tmp_path, points=[["1", coordinate, "t"]])]) == 2
        assert capsys.readouterr().err == (
            "error: integer literal of 5000 digits exceeds the limit 1205 "
            f"(at position {position}) (at /points/0/1)\n"
        )


@pytest.mark.parametrize("command", [["check"], ["chow", "--input"], ["constants", "--inputs"]])
def test_oversized_json_integer_exits_2(capsys, tmp_path, command):
    # json refuses to convert the literal with a bare ValueError, not a
    # JSONDecodeError
    source = Path(
        _constants_inputs(tmp_path) if command[0] == "constants" else _conic_with(tmp_path)
    )
    text = source.read_text()
    assert '"N": 2' in text
    source.write_text(text.replace('"N": 2', f'"N": {HUGE_LITERAL}'))
    assert main([*command, str(source)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON: Exceeds the limit (4300 digits)")
    assert err.endswith("(at /)\n")


def test_malformed_json_is_a_schema_error_for_every_reader(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"N": ')
    for command in (["check"], ["chow", "--input"], ["constants", "--inputs"]):
        assert main([*command, str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid JSON: Expecting value: line 1 column 7 (char 6) (at /)\n"
        )


@pytest.mark.parametrize("changes, message", [
    ({"points": [["1", "t", "t^2"], ["1", "(t + 1)(t - 1)", "t"]]},
     "unexpected trailing '(' (at position 7) (at /points/1/1)"),
    ({"divisors": [{"poly": "X0", "degree": 1}, {"poly": "X1 +", "degree": 1}]},
     "unexpected end of input (at position 4) (at /divisors/1/poly)"),
    ({"variety": {"kind": "hypersurface", "F": "X0*X2 - X3^2"}},
     "variable X3 out of range (have X0..X2) (at position 8) (at /variety/F)"),
    ({"variety": {"kind": "ideal", "generators": ["X0", "X1 X2"], "chow_form": {
        "blocks": 1, "vars_per_block": 3, "terms": [{"exponents": [[1, 0, 0]], "coeff": "1"}],
    }}}, "unexpected trailing 'X2' (at position 3) (at /variety/generators/1)"),
    ({"variety": {"kind": "ideal", "generators": ["X0"], "chow_form": {
        "blocks": 1, "vars_per_block": 3, "terms": [{"exponents": [[1, 0, 0]], "coeff": "2 (t)"}],
    }}}, "unexpected trailing '(' (at position 2) (at /variety/chow_form/terms/0/coeff)"),
    # a form that is not homogeneous, and a point with no nonzero coordinate
    ({"divisors": [{"poly": "X0", "degree": 1}, {"poly": "X0 + X1^2", "degree": 1}]},
     "mixed term degrees [1, 2] (at /divisors/1/poly)"),
    ({"variety": {"kind": "hypersurface", "F": "X0 + X1^2"}},
     "mixed term degrees [1, 2] (at /variety/F)"),
    ({"variety": {"kind": "ideal", "generators": ["X0", "X0 + X1^2"], "chow_form": {
        "blocks": 1, "vars_per_block": 3, "terms": [{"exponents": [[1, 0, 0]], "coeff": "1"}],
    }}}, "mixed term degrees [1, 2] (at /variety/generators/1)"),
    ({"points": [["1", "t", "t^2"], ["0", "0", "0"]]},
     "projective point needs a nonzero coordinate (at /points/1)"),
])
def test_scenario_parse_errors_name_the_json_pointer(capsys, tmp_path, changes, message):
    assert main(["check", _conic_with(tmp_path, **changes)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
