"""Command-line interface: exit codes, formats, and value plumbing.

Runs the module as a subprocess so argument parsing, error mapping and
file output are exercised the way a user hits them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import halfstable
from halfstable.doublesine import s2

# the subprocess imports the same package this test run imported
_SRC = str(Path(halfstable.__file__).resolve().parents[1])


def run_cli(*args, **kw):
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "halfstable.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kw)


def test_missing_argument_is_usage_error():
    res = run_cli("s2", "--alpha", "1.7")
    assert res.returncode == 2
    assert "--z" in res.stderr


def test_domain_error_maps_to_exit_3():
    res = run_cli("survival", "--alpha", "3", "--rho", "0.5",
                  "--x", "1", "--t", "1")
    assert res.returncode == 3
    assert "alpha" in res.stderr


def test_budget_error_maps_to_exit_4():
    res = run_cli("simulate", "--alpha", "1.5", "--rho", "0.6",
                  "--x", "1", "--t", "1",
                  "--n-paths", "1000000000", "--dt", "1e-6")
    assert res.returncode == 4
    assert "budget" in res.stderr


def test_tol_is_an_option_only_where_it_is_read():
    res = run_cli("phi", "--alpha", "1.5", "--rho", "0.55", "--z", "2",
                  "--tol", "1e-3")
    assert res.returncode == 2
    assert "--tol" in res.stderr
    # simulate hands it to its spectral survival, which refuses tol >= 1
    res = run_cli("simulate", "--alpha", "1.5", "--rho", "0.6", "--x", "1",
                  "--t", "1", "--n-paths", "1000", "--tol", "2")
    assert res.returncode == 3, res.stderr
    assert "tol" in res.stderr


def test_s2_special_value_full_precision():
    res = run_cli("s2", "--alpha", "1.7", "--z", "1")
    assert res.returncode == 0
    line = [l for l in res.stdout.splitlines() if l.startswith("1+0j")][0]
    printed = line.split(",")[1]
    # full double precision in the output: it reads back as the same
    # float, and the value is correct to ~1e-14
    assert float(printed) == s2(1.0, 1.7).real
    assert abs(float(printed) - np.sqrt(1.7)) < 1e-12


def test_runs_are_byte_identical():
    a = run_cli("phi", "--alpha", "1.5", "--rho", "0.55", "--z", "2")
    b = run_cli("phi", "--alpha", "1.5", "--rho", "0.55", "--z", "2")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_survival_json_contains_erf():
    res = run_cli("survival", "--alpha", "2", "--rho", "1/2",
                  "--x", "1", "--t", "1", "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert abs(doc["rows"][0]["survival"] - erf(0.5)) < 1e-6
    assert doc["config"]["alpha"] == "2"


def test_survival_at_small_alpha_rho_hat():
    # x lam reaches 1e-300 before the integrand is small; the rest below
    # it is added as a power law instead of being refused
    res = run_cli("survival", "--alpha", "1.02", "--rho", "0.97",
                  "--x", "1", "--t", "1")
    assert res.returncode == 0, res.stderr


def test_survival_below_alpha_one_where_the_kernel_grows():
    # alpha <= 1 with rho < 1/2 runs on the rotated ray (contour value as
    # in test_spectral); where the sector of that ray nearly closes,
    # survival refuses and names it
    res = run_cli("survival", "--alpha", "0.5", "--rho", "0.2",
                  "--x", "2", "--t", "1", "--format", "json")
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)["rows"][0]["survival"]
    assert abs(got - 0.658492828866) <= 1e-10
    res = run_cli("survival", "--alpha", "1.0003", "--rho", "0.0003",
                  "--x", "2", "--t", "1")
    assert res.returncode == 4, res.stderr
    assert "cancellation" in res.stderr and "rad wide" in res.stderr
    assert "e^inf" not in res.stderr


def test_rational_rho_accepted():
    res = run_cli("doney", "--alpha", "1.4", "--rho", "3/7")
    assert res.returncode == 0
    assert "# k = 1" in res.stdout
    assert "# l = 2" in res.stdout


def test_one_sided_flag_derives_rho():
    res = run_cli("eigenfn", "--alpha", "1.5", "--one-sided", "negative",
                  "--x", "1")
    assert res.returncode == 0
    assert "# rho = 0.66666666666666663" in res.stdout
    # contradicting an explicit --rho is refused
    bad = run_cli("eigenfn", "--alpha", "1.5", "--rho", "0.5",
                  "--one-sided", "negative", "--x", "1")
    assert bad.returncode in (2, 3)


def test_output_file_written_atomically(tmp_path):
    out = tmp_path / "vals.csv"
    res = run_cli("s2", "--alpha", "1.3", "--z", "0.7+0.1j",
                  "-o", str(out))
    assert res.returncode == 0
    body = out.read_text()
    assert body.startswith("# halfstable s2")
    assert "z,re,im" in body
    assert not list(tmp_path.glob("*.tmp*"))


def test_simulate_emits_reproducible_json_lines():
    args = ("simulate", "--alpha", "1.5", "--rho", "0.6", "--x", "1",
            "--t", "1", "--n-paths", "20000", "--dt", "0.01",
            "--seed", "7")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    lines = [json.loads(l) for l in a.stdout.splitlines() if l.strip()]
    assert lines and lines[0]["kind"] == "survival"
    # the MC estimate should sit within a few sigma of the spectral value
    row = lines[0]
    assert abs(row["mc"] - row["spectral"]) < 6.0 * row["std_error"]
    assert a.stdout == b.stdout


def test_verify_quick_passes_brownian():
    res = run_cli("verify", "--alpha", "2", "--rho", "1/2", "--quick")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "ok" in res.stdout
    assert "FAIL" not in res.stdout


def test_verify_quick_skips_lucky_integral_below_alpha_one():
    res = run_cli("verify", "--alpha", "0.8", "--rho", "0.6", "--quick")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "skipped: needs alpha > 1 or rho = 1/2" in res.stdout
    assert "FAIL" not in res.stdout


def test_transform_stretched_function():
    res = run_cli("transform", "--alpha", "1.5", "--rho", "0.55",
                  "--function", "stretched:1.4", "--lam", "1")
    assert res.returncode == 0, res.stderr
    value = res.stdout.strip().splitlines()[-1].split(",")[1]
    assert np.isfinite(float(value))
    # beta above alpha is not a class member: a domain error, exit 3
    bad = run_cli("transform", "--alpha", "1.5", "--rho", "0.55",
                  "--function", "stretched:1.8", "--lam", "1")
    assert bad.returncode == 3, bad.stderr


def test_complex_rows_evaluate_once_per_z(monkeypatch, capsys):
    import halfstable.doublesine as ds
    from halfstable import cli

    calls = []
    exact = ds.s2

    def counting(z, alpha):
        calls.append(z)
        return exact(z, alpha)

    monkeypatch.setattr(ds, "s2", counting)
    assert cli.main(["s2", "--alpha", "1.7", "--z", "1,0.5+0.2j,2"]) == 0
    assert len(calls) == 3
    assert "1+0j" in capsys.readouterr().out


def test_verify_reports_a_raising_check_and_goes_on():
    res = run_cli("verify", "--quick", "--alpha", "0.17", "--rho", "0.5")
    assert res.returncode == 5, res.stdout + res.stderr
    for name in ("s2 value at 1", "s2 value at (1+alpha)/2", "s2 shift by 1",
                 "s2 shift by alpha", "s2 reflection",
                 "two-sided profile integral", "wiener-hopf factorization",
                 "supremum normalization", "laplace consistency",
                 "rotated-ray supremum density", "lucky integral",
                 "eigenfunction laplace transform",
                 "eigenfunction mellin transform", "survival scaling"):
        assert name in res.stdout
    assert res.stdout.count("FAIL (DomainError") == 4


def test_verify_builds_each_profile_once(capsys):
    from halfstable import cli
    from halfstable.profiles import ray_profile

    ray_profile.cache_clear()
    cli.main(["verify", "--quick", "--alpha", "1.5", "--rho", "0.55"])
    # the G profiles of (alpha, rho) and of its dual, and the mu profile;
    # the rotated density reads the dual G profile instead of its own
    assert ray_profile.cache_info().misses == 3
    assert "FAIL" not in capsys.readouterr().out


_A = ("--alpha", "1.5", "--rho", "0.55")
_EDGE_ARGVS = [
    ("s2", "--alpha", "0.5", "--z", "nan"),
    ("s2", "--alpha", "1e-300", "--z", "0.5"),
    ("s2", "--alpha", "1e400", "--z", "1"),
    ("s2", "--alpha", "1.5", "--z", "1e300"),
    ("s2", "--alpha", "1.5", "--z", "1000000000000.3"),
    ("phi", *_A, "--z", "nan"),
    ("eigenfn", *_A, "--x", "1e-300"),
    ("survival", *_A, "--x", "1", "--t", "1", "--tol", "-1"),
    ("density", *_A, "--x", "1", "--y", "1", "--t", "1", "--tol", "nan"),
    ("density", *_A, "--x", "1", "--y", "1e300", "--t", "1"),
    ("transform", *_A, "--function", "stretched:x", "--lam", "1"),
    ("transform", *_A, "--function", "stretched:1e400", "--lam", "1"),
    ("survival", *_A, "--x", "1e300", "--t", "1"),
    ("survival", *_A, "--x", "1", "--t", "1e-300"),
    ("simulate", *_A, "--x", "1", "--t", "1", "--seed", "-1"),
    ("eigenfn", "--alpha", "0.1", "--rho", "0.9", "--x", "1"),
    ("verify", "--quick", "--alpha", "0.17", "--rho", "0.5"),
    ("survival", *_A, "--x", "1e300", "--t", "1e-300"),
]


def test_edge_inputs_keep_the_exit_code_contract():
    # a subprocess each, so no pytest warning filter applies; the timeout
    # catches a hang (survival at x = 1e300 used to run for minutes)
    for argv in _EDGE_ARGVS:
        res = run_cli(*argv, timeout=30)
        assert res.returncode in (0, 2, 3, 4, 5), (argv, res.stderr)
        assert "Traceback" not in res.stderr, (argv, res.stderr)
    # x lambda_cut ~ 1e500: refused up front, without a RuntimeWarning
    res = run_cli(*_EDGE_ARGVS[-1], timeout=30)
    assert res.returncode == 4, res.stderr
    assert "x lambda_cut = e^1153 overflows" in res.stderr, res.stderr
    assert "Warning" not in res.stderr, res.stderr


def test_small_alpha_refuses_before_tabulating(monkeypatch, capsys):
    # the profile's series would form z_hi^5 = e^1050: the refusal comes
    # before the 33 600-node double-sine grid is tabulated
    from halfstable import cli, profiles

    tabulated = []
    monkeypatch.setattr(profiles, "_abs_squared_on_panels",
                        lambda *args: tabulated.append(args))
    profiles.ray_profile.cache_clear()
    assert cli.main(["eigenfn", "--alpha", "0.1", "--rho", "0.9",
                     "--x", "1"]) == 3
    assert tabulated == []
    assert ("alpha = 0.1 is below the smallest alpha this profile's grid "
            "supports, about 0.148: its series forms z_hi^5 = e^1050") \
        in capsys.readouterr().err


def test_resolvent_refuses_overflowing_q():
    res = run_cli("resolvent", *_A, "--q", "1e300", "--x", "1", "--y", "2")
    assert res.returncode == 3, res.stdout + res.stderr
    assert "q = 1e+300" in res.stderr
