"""Command-line interface: dispatch, formats, files, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from permrealize import (
    Realization,
    as_realization,
    from_rows,
    make_spectrum,
    realize_companion,
    realize_suleimanova,
)
from permrealize import dispatch
from permrealize import explorer as explorer_mod
from permrealize.cli import TOLERANCE_ENV_VAR, _print_matrix, main
from permrealize.linalg import format_scalar


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", "10,-1,-2,-3")
    assert code == 0
    assert "suleimanova" in out
    assert "conditions hold: True" in out


def test_check_perron_failure_exits_2(capsys):
    code, out, _ = run(capsys, "check", "-1,0.5")
    assert code == 2
    assert "perron ok:       False" in out


def test_check_empty_spectrum_exits_1(capsys):
    code, _, err = run(capsys, "check", "")
    assert code == 1
    assert "error" in err.lower()


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "6,-1,-2,-3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["classification"] == "zero-trace-suleimanova"
    assert obj["conditions_hold"] is True
    assert obj["spectral_radius"] == 6.0
    # Exact entries are compared with no band: 1e-13 is a positive entry.
    code, out, _ = run(capsys, "check", "1,1e-13,-1", "--exact", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["classification"], obj["positives"]) == ("small-order", 2)


def test_check_parse_garbage_exits_1(capsys):
    code, _, _ = run(capsys, "check", "1,banana")
    assert code == 1


@pytest.mark.parametrize("tok", ["1e400", "inf", "nan"])
def test_realize_entry_not_a_finite_float_exits_1(capsys, tok):
    code, out, err = run(capsys, "realize", f"{tok},-1")
    assert code == 1
    assert out == ""
    assert "cannot parse spectrum entry" in err


def test_realize_exact_beyond_float_range(capsys):
    code, out, _ = run(capsys, "realize", "1e400,-1", "--exact", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "suleimanova-permutative"
    a, b = f"{10**400 - 1}/2", f"{10**400 + 1}/2"
    assert obj["matrix"] == [[a, b], [b, a]]
    assert obj["certificate"]["verdict"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "1e400,-1", "--exact"),
        ("check", "1e400,-1", "--exact", "--format", "json"),
        ("realize", "1e400,-1,-1", "--exact", "--method", "small"),
        ("realize", "1e400,-1,-1,-1,-1", "--exact", "--method", "companion"),
    ],
)
def test_exact_beyond_float_range_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "Traceback" not in err


def test_unknown_subcommand_exits_1(capsys):
    assert run(capsys, "frobnicate", "1")[0] == 1


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


def test_realize_integer_example_csv_exact(capsys):
    code, out, err = run(
        capsys, "realize", "10,-1,-2,-3", "--exact", "--format", "csv"
    )
    assert code == 0
    assert out == "1,2,3,4\n2,1,3,4\n3,2,1,4\n4,2,3,1\n"
    assert "certified=pass" in err


def test_realize_zero_trace_example_csv_exact(capsys):
    code, out, err = run(
        capsys, "realize", "6,-1,-2,-3", "--exact", "--format", "csv"
    )
    assert code == 0
    assert out == "0,1,2,3\n1,0,2,3\n2,1,0,3\n3,1,2,0\n"
    assert "suleimanova-permutative" in err


def test_realize_pretty_prints_method_and_case(capsys):
    code, out, _ = run(capsys, "realize", "8,6,0,0")
    assert code == 0
    assert "method: small-order" in out
    assert "case: N4-Group" in out
    assert "certified: pass" in out


def _print_matrix_reference(r):
    """The pretty matrix as first printed: every entry formatted on its own."""
    cells = [[format_scalar(v) for v in row] for row in r.matrix.data]
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print("  " + "  ".join(c.rjust(width) for c in row))


def test_pretty_matrix_matches_per_entry_formatter(capsys):
    zeros = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -0.0], [1.5, -1.5, 1e-310]])
    sigma3 = make_spectrum([1.0, 0.0, 0.0])
    sule = make_spectrum([7.1, -0.3, -0.3, -1.7, -1.7, -2.9])
    exact = make_spectrum([Fraction(7, 3), Fraction(-1, 2), Fraction(-1)], exact=True)
    for r in (
        realize_suleimanova(sule),
        Realization(matrix=from_rows(zeros.tolist()), method="", target=sigma3),
        as_realization(realize_companion(sule), sule),
        realize_suleimanova(exact),
    ):
        _print_matrix(r)
        got = capsys.readouterr().out
        _print_matrix_reference(r)
        assert got == capsys.readouterr().out


def test_realize_json_has_certificate(capsys):
    code, out, _ = run(capsys, "realize", "10,-1,-2,-3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "suleimanova-permutative"
    assert obj["matrix"][0] == [1.0, 2.0, 3.0, 4.0]
    assert obj["certificate"]["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("10,-1,-2,-3",),
        ("6,-1,-2,-3",),
        ("8,2,2,0", "--method", "small"),
        ("10,-1,-2,-3.5,-0.25", "--method", "companion"),
        ("10,-1,-2,-3", "--exact"),
        ("0.5",),
    ],
)
def test_realize_json_is_json_dumps_of_its_object(capsys, argv):
    code, out, _ = run(capsys, "realize", *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out)) + "\n"


def test_realize_forced_method(capsys):
    code, out, _ = run(
        capsys, "realize", "10,-1,-2,-3", "--method", "companion",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "companion"
    assert obj["matrix"][0][3] == 60.0


def test_realize_spectrum_file_json(tmp_path, capsys):
    f = tmp_path / "sigma.json"
    f.write_text("[10, -1, -2, -3]")
    code, out, _ = run(capsys, "realize", "--file", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["certificate"]["passed"] is True


def test_realize_spectrum_file_lines(tmp_path, capsys):
    f = tmp_path / "sigma.txt"
    f.write_text("10\n-1\n-2\n-3\n")
    code, _, _ = run(capsys, "realize", "--file", str(f))
    assert code == 0


def test_realize_requires_exactly_one_source(tmp_path, capsys):
    f = tmp_path / "sigma.txt"
    f.write_text("1\n-1\n")
    assert run(capsys, "realize")[0] == 1
    assert run(capsys, "realize", "1,-1", "--file", str(f))[0] == 1


def test_realize_unrealizable_by_available_methods_exits_3(capsys):
    # A search that finds nothing excludes nothing: inconclusive, not a
    # verified negative.
    code, _, err = run(
        capsys, "realize", "5,3,1,-2,-3,-4", "--budget", "600"
    )
    assert code == 3
    assert "pattern search" in err


def test_realize_missing_file_exits_1(capsys):
    assert run(capsys, "realize", "--file", "/nonexistent/sigma")[0] == 1


# ---------------------------------------------------------------------------
# verify (and the realize -> verify round trip)
# ---------------------------------------------------------------------------


def test_round_trip_realize_then_verify(tmp_path, capsys):
    out_file = tmp_path / "m.csv"
    code, _, _ = run(
        capsys, "realize", "10,-1,-2,-3", "--out", str(out_file)
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "10,-1,-2,-3", "--matrix", str(out_file)
    )
    assert code == 0
    assert "passed       True" in out


def test_round_trip_survives_large_n(tmp_path, capsys):
    # n = 30 is within the float charpoly limit, so the exact polynomial
    # check of the realized matrix, as written and read back, backs exit 0.
    values = ",".join(["30"] + ["-1"] * 29)
    out_file = tmp_path / "m30.csv"
    assert run(capsys, "realize", values, "--out", str(out_file))[0] == 0
    assert run(capsys, "verify", values, "--matrix", str(out_file))[0] == 0


def test_verify_wrong_spectrum_exits_2(tmp_path, capsys):
    out_file = tmp_path / "m.csv"
    run(capsys, "realize", "10,-1,-2,-3", "--out", str(out_file))
    code, _, _ = run(
        capsys, "verify", "10,-1,-2,-2.9", "--matrix", str(out_file)
    )
    assert code == 2


@pytest.mark.parametrize(
    "n, code, verdict", [(30, 2, "fail"), (31, 3, "inconclusive")]
)
def test_verify_perturbed_matrix_never_passes(tmp_path, capsys, n, code, verdict):
    # Up to the charpoly limit the polynomial rejects a perturbed matrix;
    # beyond it no spectral check can run for a matrix of unknown origin,
    # so the verdict is inconclusive rather than a vacuous pass.
    values = ",".join([str(n)] + ["-1"] * (n - 1))
    out_file = tmp_path / "m.csv"
    assert run(capsys, "realize", values, "--out", str(out_file))[0] == 0
    rows = out_file.read_text().splitlines()
    first = rows[0].split(",")
    first[1] = repr(float(first[1]) + 1.0)
    rows[0] = ",".join(first)
    out_file.write_text("\n".join(rows) + "\n")
    got, out, _ = run(
        capsys, "verify", values, "--matrix", str(out_file), "--format", "json"
    )
    assert got == code
    obj = json.loads(out)
    assert obj["verdict"] == verdict
    assert obj["passed"] is False


def test_verify_json_matrix_file(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text("[[0, 1], [1, 0]]")
    code, out, _ = run(
        capsys, "verify", "1,-1", "--matrix", str(f), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_nonsquare_matrix_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("1,2,3\n4,5,6\n")
    assert run(capsys, "verify", "1,-1,0", "--matrix", str(f))[0] == 1


@pytest.mark.parametrize("tok", ["1e400", "-1e400", "inf", "nan"])
def test_verify_matrix_entry_not_a_finite_float_exits_1(tmp_path, capsys, tok):
    f = tmp_path / "m.csv"
    f.write_text(f"0,{tok}\n1,0\n")
    code, out, err = run(capsys, "verify", "1,-1", "--matrix", str(f))
    assert code == 1
    assert out == ""
    assert "cannot parse matrix entry" in err


def test_verify_dimension_mismatch_exits_1(tmp_path, capsys):
    f = tmp_path / "m.csv"
    f.write_text("0,1\n1,0\n")
    assert run(capsys, "verify", "1,-1,0", "--matrix", str(f))[0] == 1


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


def test_explore_certified_exits_0(capsys):
    code, out, _ = run(capsys, "explore", "10,-1,-2,-3", "--strategy", "alpha")
    assert code == 0
    rec = json.loads(out.strip().splitlines()[0])
    assert rec["certified"] is True


def test_explore_zero_spectrum_random_strategy(capsys):
    code, out, _ = run(
        capsys, "explore", "0,0,0", "--strategy", "random", "--budget", "1500"
    )
    assert code == 0


def test_explore_inconclusive_exits_3(capsys):
    code, _, _ = run(
        capsys, "explore", "3,3,-2,-2,-2", "--budget", "400", "--seed", "7"
    )
    assert code == 3


def test_explore_log_file_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        run(
            capsys, "explore", "3,3,-2,-2,-2", "--budget", "400",
            "--seed", "7", "--out", str(path),
        )
    assert a.read_text() == b.read_text()


#: Spectra that fail a necessary condition: the radius 3.5 is attained only
#: by a negative entry (n = 5 and n = 10), and a sum of -1.
GATE_FAILURES = ("3,1,1,1,-3.5", "3,1,1,1,1,1,1,1,1,-3.5", "3,-1,-1,-1,-1")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("realize", "20,15,1,-1,-1,-1,-1,-1,-1,-1"), 3),
        (("realize", "6,5,-4,-3,-2,-1,-1,-1,-1"), 2),  # sum -2
        (("realize", "3,2,1,1,1,1,1,1,1"), 3),
        (("realize", "3,2,-1", "--method", "suleimanova"), 3),
        (("realize", "3,2,1,1,1", "--method", "small"), 3),
        (("explore", "8,-1,-1,-1,-1,-1,-1,-1,-1"), 3),
        (("realize", "3,-2,-2", "--method", "suleimanova"), 2),
        # Exact traces of 1e-13 are not zero: the first row keeps them.
        (("realize", "1,-0.9999999999999", "--exact"), 0),
        (("realize", "1,1e-13,-1", "--exact"), 0),
        (("realize", "1,-1.0000000000001", "--exact", "--method", "small"), 2),
    ]
    # The gate: a Perron failure at n = 5 and n = 10, and a negative sum at
    # n = 5, exit 2 under every method.
    + [(("realize", s, "--method", m), 2) for s in GATE_FAILURES for m in dispatch.METHODS],
)
def test_not_applicable_exits_3_and_failed_condition_exits_2(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == expected, err
    if expected == 0:
        assert err == ""
        assert "certified: pass" in out
        return
    assert out == ""
    prefix = "inconclusive: " if expected == 3 else "not realizable: "
    assert err.startswith(prefix)


@pytest.mark.parametrize("method", dispatch.METHODS)
def test_failed_condition_runs_no_construction(monkeypatch, capsys, method):
    def refuse(*args, **kwargs):
        raise AssertionError("a construction ran past the gate")

    monkeypatch.setattr(dispatch, "explore", refuse)
    monkeypatch.setattr(dispatch, "realize_companion", refuse)
    for spectrum in GATE_FAILURES:
        code, out, err = run(capsys, "realize", spectrum, "--method", method)
        assert (code, out) == (2, ""), err
        assert err.startswith("not realizable: ")


def _alpha_family(n):
    """(2n, 1, 1, 1, -1 x (n - 4)): three positives, every l_i <= s/n."""
    return ",".join(str(v) for v in [2 * n, 1, 1, 1] + [-1] * (n - 4))


@pytest.mark.parametrize(
    "argv",
    [
        ("20,1,1,1,-1,-1,-1,-1,-1,-1",),
        ("3,2,1", "--method", "suleimanova"),
        ("8,2,2,0",),
        ("0,0,0,0,0",),
        ("20,1,1,-1,-1",),
    ]
    + [(_alpha_family(n),) for n in (5, 9, 16, 40, 64)]
    + [(_alpha_family(n), "--method", "suleimanova") for n in (5, 9, 16, 40, 64)],
)
def test_nonnegative_first_row_realizes_without_the_search(monkeypatch, capsys, argv):
    def no_search(*args, **kwargs):
        raise AssertionError("the pattern search ran")

    monkeypatch.setattr(dispatch, "explore", no_search)
    code, out, err = run(capsys, "realize", *argv, "--format", "json")
    assert code == 0, err
    obj = json.loads(out)
    assert obj["method"] == "suleimanova-permutative"
    assert obj["certificate"]["verdict"] == "pass"


def test_explore_overflowing_coefficients_exits_3_without_warnings():
    # A subprocess, so that numpy warnings reach stderr as a user sees them
    # (pytest would capture them itself).
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = "import sys; from permrealize.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["explore", "1e300,-1e299,-1e299,-1e299,-1e299", "--budget", "3000"]
    p = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert p.returncode == 3, p.stderr
    assert p.stdout == ""
    assert "Warning" not in p.stderr
    assert p.stderr.startswith("inconclusive: ")


def test_explore_overflowing_candidates_exits_3_without_warnings():
    # The target's coefficients fit float64, but the random patterns'
    # candidates overflow the objective's squared mismatch.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = "import sys; from permrealize.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["explore", "1e31,-2e30,-2e30,-2e30,-2e30", "--strategy", "random",
            "--budget", "2000"]
    p = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert p.returncode == 3, p.stderr
    lines = p.stdout.splitlines()
    assert lines
    assert all(set(json.loads(ln)) == {"tuple", "x", "objective", "certified"}
               for ln in lines)
    assert "Warning" not in p.stderr


def test_explore_certifies_under_the_tolerance_flags(capsys):
    argv = ("explore", "7.1,-0.3,-1.7,-2.9")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--rel-tol", "0", "--abs-tol", "1e-300")
    assert code == 3
    assert json.loads(out.splitlines()[0])["certified"] is False


# ---------------------------------------------------------------------------
# bench (smoke only; the full run lives in the acceptance suite)
# ---------------------------------------------------------------------------


def test_bench_smoke(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "4,8")
    assert code == 0
    obj = json.loads(out)
    assert [e["n"] for e in obj["entries"]] == [4, 8]
    assert obj["n4_cross_check"] == {"suleimanova": True, "companion": True}
    assert "note" in obj


# ---------------------------------------------------------------------------
# tolerance profile resolution
# ---------------------------------------------------------------------------


def test_env_var_sets_default_tolerances(monkeypatch, capsys):
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-6,1e-5")
    code, out, _ = run(capsys, "realize", "10,-1,-2,-3", "--format", "json")
    assert code == 0
    tol = json.loads(out)["certificate"]["tolerances"]
    assert tol == {"absolute": 1e-6, "relative": 1e-5}


def test_env_var_garbage_exits_1(monkeypatch, capsys):
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "not-a-profile")
    assert run(capsys, "realize", "10,-1,-2,-3")[0] == 1


@pytest.mark.parametrize(
    "flags, env",
    [
        (("--rel-tol", "inf"), None),
        (("--abs-tol", "nan"), None),
        ((), "1e-6,inf"),
    ],
)
def test_non_finite_tolerances_exit_1(monkeypatch, capsys, flags, env):
    if env is not None:
        monkeypatch.setenv(TOLERANCE_ENV_VAR, env)
    code, _, err = run(capsys, "realize", "10,-1,-2,-3", *flags)
    assert code == 1
    assert "finite" in err


def test_flags_override_env_var(monkeypatch, capsys):
    monkeypatch.setenv(TOLERANCE_ENV_VAR, "1e-6,1e-5")
    code, out, _ = run(
        capsys, "realize", "10,-1,-2,-3", "--format", "json",
        "--abs-tol", "1e-9",
    )
    tol = json.loads(out)["certificate"]["tolerances"]
    assert tol == {"absolute": 1e-9, "relative": 1e-5}


@pytest.mark.parametrize("spectrum", [
    "1e200," + ",".join(["-1e198"] * 39),
    "1.5e308,-1e307,-1e308",
])
def test_realize_near_the_float_limit_passes_without_warnings(spectrum):
    # Squared entry sizes overflow here; the eigenpair check runs on the
    # block scaled by a power of two, so nothing overflows.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = "import sys; from permrealize.cli import main; sys.exit(main(sys.argv[1:]))"
    p = subprocess.run(
        [sys.executable, "-c", code, "realize", spectrum, "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert p.returncode == 0, p.stderr
    assert p.stderr == ""
    cert = json.loads(p.stdout)["certificate"]
    assert cert["eigenpairs"] == "pass"
    assert cert["verdict"] == "pass"
    if cert["charpoly"] == "not-applicable":
        assert math.isfinite(cert["max_residual"])


@pytest.mark.parametrize("spectrum", ["3,1,1,1,-3.5", "3,-1,-1,-1,-1"])
def test_explore_runs_the_feasibility_gate_first(monkeypatch, capsys, spectrum):
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran on an infeasible spectrum")

    monkeypatch.setattr(explorer_mod, "explore", refuse)
    code, out, err = run(capsys, "explore", spectrum)
    assert code == 2
    assert out == ""
    assert err.startswith("not realizable: ")
