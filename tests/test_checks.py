"""The identity suite as records, and the refusal contract over the
domain.

Every check of the quick suite is ok or skipped with its regime at 36
(alpha, rho) pairs spanning alpha in [0.2, 2], alpha = 1, and rho across
its admissible interval including both one-sided edges.  A check that
still fails is listed in ``KNOWN_FAILURES``; the test fails when a listed
check passes, so the table only shrinks on purpose.
"""

import math

import pytest

from halfstable import errors
from halfstable.checks import CheckRecord, run_suite
from halfstable.model import StableParams


def _across(alpha):
    lo, hi = 1.0 - 1.0 / alpha, 1.0 / alpha
    return [lo, lo + 0.25 * (hi - lo), 0.5, lo + 0.75 * (hi - lo), hi]


DOMAIN = ([(a, r) for a in (0.2, 0.5, 0.8, 1.0)
           for r in (0.02, 0.25, 0.5, 0.75, 0.98)]
          + [(a, r) for a in (1.2, 1.5, 1.8) for r in _across(a)]
          + [(2.0, 0.5)])

# (alpha, rho, check) -> the error class its FAIL names; none is known.
KNOWN_FAILURES = {}

_HALFSTABLE_ERRORS = {cls.__name__ for cls in vars(errors).values()
                      if isinstance(cls, type)
                      and issubclass(cls, errors.HalfstableError)}


@pytest.mark.parametrize("alpha,rho", DOMAIN)
def test_quick_suite_is_ok_or_skipped(alpha, rho):
    records = run_suite(StableParams(alpha, rho), quick=True)
    assert records and all(isinstance(r, CheckRecord) for r in records)
    for rec in records:
        assert rec.residual is None or not math.isnan(rec.residual), rec
        known = KNOWN_FAILURES.get((alpha, rho, rec.name))
        if rec.status == "FAIL":
            assert rec.reason.split(":")[0] in _HALFSTABLE_ERRORS, rec
            assert rec.reason.split(":")[0] == known, rec
        else:
            assert known is None, f"{rec.name} passes: drop it from the table"
            assert rec.status in ("ok", "skipped"), rec


def test_records_carry_the_status_rule(monkeypatch):
    import halfstable.doublesine as ds
    import halfstable.spectral as sp

    def refuse(*args):
        raise errors.NonConvergence("stub refusal")

    monkeypatch.setattr(ds, "tau_binomial_check", lambda *args: 1.0)
    monkeypatch.setattr(sp, "survival", refuse)
    by_name = {r.name: r for r in run_suite(StableParams(0.8, 0.6), True)}
    ok = by_name["s2 value at 1"]
    assert ok.status == "ok" and ok.residual <= ok.tol and ok.reason == ""
    assert by_name["two-sided profile integral"] == CheckRecord(
        "two-sided profile integral", "FAIL", 1.0, 1e-8)
    assert by_name["lucky integral"] == CheckRecord(
        "lucky integral", "skipped", None, None,
        "needs alpha > 1 or rho = 1/2")
    assert by_name["survival scaling"] == CheckRecord(
        "survival scaling", "FAIL", None, 1e-8,
        "NonConvergence: stub refusal")


def test_transform_inversion_needs_rho_at_least_one_half():
    # survival holds at (1.5, 0.45), but the inversion runs through the
    # semigroup diagonalization, which needs rho >= 1/2
    by_name = {r.name: r for r in run_suite(StableParams(1.5, 0.45))}
    assert by_name["transform inversion"] == CheckRecord(
        "transform inversion", "skipped", None, None, "needs rho >= 1/2")
    assert all(r.status in ("ok", "skipped") for r in by_name.values())
