"""Acceptance suite: the quantitative exit checks of the artifact.

Each check prints one PASS/FAIL line with the measured values.  One
`RunCache` per `run_checks` call holds every channel (with its model)
the checks ask for and the smallest evolved eigenvalue of every
trajectory, check 9's M(B) fields included, so the physicality audit
(check 14) covers exactly the runs of that call; the channels come from
`channel_for_field`, whose memo computes each once per process.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import CP_MARGIN_TOL, ChannelTrajectory, build_quadrature, compute_channel, verify_channel_cp
from .config import RunConfig
from .constants import NumericalDomainError
from .evolution import EVOLVED_PSD_TOL, evolve, find_g_crossings
from .magnetometry import (
    bound_separation_onset,
    channel_for_field,
    esd_time,
    first_min_then_max,
    low_field_revival,
    rescaled_integral,
)
from .measures import _k_eigh, concurrence, discord_bounds, oracle_one_sided_discord
from .states import (
    Bell,
    BellDiagonal,
    EntFamily,
    PhaseFamily,
    TwoQubitState,
    Werner,
    bloch_decompose,
    make_state,
)

# the paper-typo resolution for the imaginary-phase family: the quoted
# amplitude (-1+i)/sqrt(2) fixes gamma = 3*pi/4 (see decisions ledger)
GAMMA_SPLIT = 0.75 * math.pi
T2STAR_FIT_PASSES = 50  # Gauss-Newton passes before check 1's fit is refused (it takes 5)


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str


@dataclass
class RunCache:
    """Runs of one acceptance call on `RunConfig()`'s dot, time grid and node rule.

    `channels` maps (field, t_max) to the channel, which carries its
    model.  A trajectory is evolved on its cached channel each time a check
    asks for it and is not kept: `min_eigenvalues` maps (state, field,
    t_max) to its smallest evolved eigenvalue, which check 14 audits.
    """

    channels: dict = field(default_factory=dict)
    min_eigenvalues: dict = field(default_factory=dict)

    def channel(self, b_field: float, t_max: float) -> ChannelTrajectory:
        key = (float(b_field), float(t_max))
        if key not in self.channels:
            self.channels[key] = channel_for_field(RunConfig(t_max=t_max), b_field)
        return self.channels[key]

    def traj(self, spec, b_field: float, t_max: float):
        tr = evolve(make_state(spec), self.channel(b_field, t_max))
        self.min_eigenvalues[(repr(spec), float(b_field), float(t_max))] = float(tr.min_eigenvalue.min())
        return tr


def _spread(values) -> float:
    values = np.asarray(values, dtype=float)
    mid = 0.5 * (values.max() + values.min())
    return (values.max() - values.min()) / mid


def _random_rho(rng) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return rho


def _random_unitary(rng, n=2) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    qmat, r = np.linalg.qr(g)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------


def check_1_t2star(cache: RunCache) -> CheckResult:
    start = time.monotonic()
    t2 = fitted_t2star(cache)
    p_max = float(cache.channel(5.0, 25.0).p.max())
    wall = time.monotonic() - start
    ok = 12.0 <= t2 <= 12.7 and p_max < 1e-4 and wall < 60.0
    return CheckResult(
        1, "t2star_dephasing", ok,
        f"fitted T2*={t2:.4f} ns (band [12.0, 12.7]); max p={p_max:.2e} (<1e-4); {wall:.1f}s",
    )


def fitted_t2star(cache: RunCache) -> float:
    """The least-squares T2* of exp(-(t/T2*)^2) against |c| on the 5 T, 25 ns channel.

    Gauss-Newton on the one parameter from 12 ns: with the residual
    r = exp(-(t/tau)^2) - |c| and its derivative J = exp(-(t/tau)^2) 2 t^2 / tau^3,
    each pass steps tau by -(J.r)/(J.J), until a step is at most 4 ulps of tau.
    """
    ch = cache.channel(5.0, 25.0)
    t, target = ch.times, np.abs(ch.c)
    tau = 12.0
    for _ in range(T2STAR_FIT_PASSES):
        model = np.exp(-((t / tau) ** 2))
        jac = model * 2.0 * t * t / tau ** 3
        step = float(jac @ (model - target) / (jac @ jac))
        tau -= step
        if abs(step) <= 4.0 * np.finfo(float).eps * tau:
            return tau
    raise NumericalDomainError(f"the T2* fit did not converge in {T2STAR_FIT_PASSES} Gauss-Newton passes")


def check_2_kink_position(cache: RunCache) -> CheckResult:
    tr = cache.traj(BellDiagonal(0.4, 0.4), 0.1, 20.0)
    kinks = find_g_crossings(tr.times, tr.g, tr.g_on)
    analytic = fitted_t2star(cache) * math.sqrt(math.log(4.0 / 3.0) / 2.0)
    ok = len(kinks) == 1 and abs(kinks[0].t_cross_ns - 4.67) <= 0.2
    detail = f"{len(kinks)} crossing(s)"
    if kinks:
        t_k = kinks[0].t_cross_ns
        ok = ok and abs(t_k - analytic) < 0.1
        detail += f" at t={t_k:.4f} ns (target 4.67 +- 0.2); analytic estimate {analytic:.4f} (|diff|<0.1)"
    return CheckResult(2, "kink_position", ok, detail)


def check_3_bell_no_kinks(cache: RunCache) -> CheckResult:
    worst_g = -math.inf
    n_kinks = 0
    for b in (0.0, 0.011, 0.0165, 1.0):
        tr = cache.traj(Bell("psi-"), b, 20.0)
        n_kinks += len(find_g_crossings(tr.times, tr.g, tr.g_on))
        finite = np.isfinite(tr.g)
        worst_g = max(worst_g, float(tr.g[finite].max()))
    ok = n_kinks == 0 and worst_g <= 1.0 + 1e-6
    return CheckResult(
        3, "bell_no_kinks", ok,
        f"crossings={n_kinks} (need 0); max g={worst_g:.12f} (<=1+1e-6) over B in {{0, 11 mT, 16.5 mT, 1 T}}",
    )


def check_4_zero_field_werner_law(cache: RunCache) -> CheckResult:
    tr = cache.traj(Bell("psi-"), 0.0, 50.0)
    dev_g = float(np.abs(tr.g - 1.0).max())
    w = tr.st_weights
    dev_w = max(
        float(np.abs(w[:, 0] - w[:, 1]).max()),
        float(np.abs(w[:, 1] - w[:, 2]).max()),
        float(np.abs(w[:, 0] - w[:, 2]).max()),
    )
    ok = dev_g < 1e-3 and dev_w < 1e-3
    return CheckResult(
        4, "zero_field_werner_law", ok,
        f"max|g-1|={dev_g:.2e} (<1e-3); max triplet-weight spread={dev_w:.2e} (<1e-3) for t<=50 ns",
    )


def check_5_positive_field_regime(cache: RunCache) -> CheckResult:
    margins = []
    for bmt in (0.5, 1.5, 5.0):
        tr = cache.traj(Bell("psi-"), bmt * 1e-3, 20.0)
        mask = tr.times > 0.1
        margins.append((bmt, float((1.0 - tr.g[mask]).min())))
    ok = all(m > 0.0 for _, m in margins)
    txt = ", ".join(f"{b} mT: {m:.2e}" for b, m in margins)
    return CheckResult(5, "positive_field_regime", ok, f"min (1-g) margins for t>0.1 ns: {txt}")


def check_6_discord_anchors(cache: RunCache) -> CheckResult:
    rng = np.random.default_rng(20140609)
    ent = [make_state(EntFamily(a=0.5 * rng.uniform(), alpha=rng.uniform(0, 2 * np.pi),
                                beta=rng.uniform(0, 2 * np.pi))).rho for _ in range(100)]
    worst_ent = float(np.max(np.abs(discord_bounds(np.array(ent)).ds_lower - 0.5)))

    def random_x(force_zero_bloch: bool) -> np.ndarray:
        if force_zero_bloch:
            # the coincidence claim needs a vanishing local z component on
            # one side: d0 + d2 = d1 + d3 zeroes the second qubit's
            r0, r1 = rng.uniform(size=2)
            d = 0.5 * np.array([r0, r1, 1.0 - r0, 1.0 - r1])
        else:
            d = rng.dirichlet(np.ones(4))
        inner = math.sqrt(d[1] * d[2]) * rng.uniform() * np.exp(1j * rng.uniform(0, 2 * np.pi))
        outer = math.sqrt(d[0] * d[3]) * rng.uniform() * np.exp(1j * rng.uniform(0, 2 * np.pi))
        x_state = np.diag(d).astype(complex)
        x_state[1, 2], x_state[2, 1] = inner, np.conj(inner)
        x_state[0, 3], x_state[3, 0] = outer, np.conj(outer)
        return TwoQubitState(x_state).rho

    # four coincidence classes and the general X states, drawn in the same
    # interleaved rng order per iteration, each then bounded as one stack
    classes = {"pure": [], "x_zero_bloch": [], "bell_diagonal": [], "rotated_bell_mix": []}
    general = []
    for _ in range(200):
        # pure states
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        classes["pure"].append(TwoQubitState(np.outer(psi, psi.conj())).rho)
        # X states with a vanishing local Bloch component (the coincidence
        # class; with both z components finite the two-sided distance
        # exceeds the one-sided one by exactly min(x3^2, y3^2)/4, so no
        # bound pair can close there - see the decisions notes)
        classes["x_zero_bloch"].append(random_x(force_zero_bloch=True))
        # general X states: the gap never exceeds that intrinsic ceiling
        general.append(random_x(force_zero_bloch=False))
        # Bell-diagonal states
        a = rng.uniform(0, 0.5)
        b = a * rng.uniform(-1, 1)
        classes["bell_diagonal"].append(make_state(BellDiagonal(a, b)).rho)
        # zero-local-Bloch states: Bell mixtures rotated by local unitaries
        w = rng.dirichlet(np.ones(4))
        mix = sum(wk * make_state(Bell(k)).rho for wk, k in zip(w, ("phi+", "phi-", "psi+", "psi-")))
        u = np.kron(_random_unitary(rng), _random_unitary(rng))
        classes["rotated_bell_mix"].append(TwoQubitState(u @ mix @ u.conj().T).rho)

    def gaps(rhos: list[np.ndarray]) -> np.ndarray:
        b = discord_bounds(np.array(rhos))
        return b.ds_upper - b.ds_lower

    worst_gap = max(0.0, *(float(np.max(gaps(rhos))) for rhos in classes.values()))
    form = bloch_decompose(np.array(general))
    ceiling = 0.25 * np.minimum(form.x[:, 2] ** 2, form.y[:, 2] ** 2)
    worst_x_excess = max(0.0, float(np.max(gaps(general) - ceiling)))

    bnds = discord_bounds(np.array([_random_rho(rng) for _ in range(10_000)]))
    worst_order = max(0.0, float(np.max(bnds.ds_lower - bnds.ds_upper)))

    ok = worst_ent <= 1e-10 and worst_gap < 1e-9 and worst_x_excess < 1e-9 and worst_order <= 1e-10
    return CheckResult(
        6, "discord_value_anchors", ok,
        f"max|ds-1/2| on 100 entangled-family states={worst_ent:.1e} (<=1e-10); "
        f"max bound gap on coincidence classes={worst_gap:.1e} (<1e-9); "
        f"max general-X gap above the intrinsic min(x3,y3)^2/4 ceiling={worst_x_excess:.1e} (<1e-9); "
        f"max lower-upper violation on 1e4 random states={worst_order:.1e} (<=1e-10)",
    )


def check_7_oracle_equivalence(cache: RunCache) -> CheckResult:
    rng = np.random.default_rng(1369)
    rho = np.array([_random_rho(rng) for _ in range(100)])
    closed = 0.25 * _k_eigh(bloch_decompose(rho)).a[0]  # side A of the bound `discord_bounds` runs
    worst = float(np.abs(oracle_one_sided_discord(rho, grid_resolution=18) - closed).max())
    ok = worst < 1e-6
    return CheckResult(
        7, "oracle_equivalence", ok,
        f"max |pinching-minimization - closed form| over 100 random states = {worst:.2e} (<1e-6)",
    )


def check_8_werner_scheme_invariance(cache: RunCache) -> CheckResult:
    series = [cache.traj(Werner(p), 1.5e-3, 20.0).g for p in (0.1, 1.0 / 3.0, 1.0)]
    dev = max(
        float(np.abs(series[0] - series[1]).max()),
        float(np.abs(series[1] - series[2]).max()),
        float(np.abs(series[0] - series[2]).max()),
    )
    conc = concurrence(make_state(Werner(1.0 / 3.0)))
    ok = dev <= 1e-10 and conc <= 1e-8
    return CheckResult(
        8, "werner_scheme_invariance", ok,
        f"max g-series deviation over p in {{0.1, 1/3, 1}} at 1.5 mT = {dev:.1e} (<=1e-10); "
        f"concurrence(p=1/3) = {conc:.1e} (<=1e-8)",
    )


def check_9_m_of_b_monotonic(cache: RunCache) -> CheckResult:
    # the M column of `run_sweep` at the default window, on the cache's runs so that check 14 audits them
    start = time.monotonic()
    b_fields = np.linspace(0.0, 0.1, 21).tolist()
    ms = np.array([rescaled_integral(cache.traj(Werner(0.33), b, 20.0)) for b in b_fields])
    wall = time.monotonic() - start
    increasing = bool(np.all(np.diff(ms) > 0.0))
    ok = increasing and wall < 600.0
    return CheckResult(
        9, "m_of_b_monotonic", ok,
        f"M from {ms[0]:.4f} to {ms[-1]:.4f} ns over 0-100 mT, strictly increasing={increasing}; {wall:.0f}s (<600)",
    )


def check_10_g_extrema_calibration(cache: RunCache) -> CheckResult:
    b_fields = np.linspace(0.25e-3, 5e-3, 20)
    rows = []
    for b in b_fields:
        tr = cache.traj(Bell("psi-"), float(b), 50.0)
        g_min, g_max = first_min_then_max(tr.times, tr.g)
        rows.append((b, g_min, g_max))
    have_all = all(r[1] is not None and r[2] is not None for r in rows)
    if not have_all:
        return CheckResult(10, "g_extrema_calibration", False, "missing extrema at some fields")
    max_vals = [r[2].value for r in rows]
    min_times = [r[1].t_ns for r in rows]
    max_times = [r[2].t_ns for r in rows]
    decreasing = bool(np.all(np.diff(max_vals) < 0.0))
    s_min = _spread(min_times)
    s_max = _spread(max_times)
    ok = decreasing and s_min < 0.10 and s_max < 0.10
    return CheckResult(
        10, "g_extrema_calibration", ok,
        f"g-max value {max_vals[0]:.4f}->{max_vals[-1]:.4f} strictly decreasing={decreasing}; "
        f"min-time spread={s_min:.1%} (<10%); max-time spread={s_max:.1%} (<10%, "
        f"times {min(max_times):.1f}->{max(max_times):.1f} ns)",
    )


def _revival(tr) -> tuple[bool, str]:
    rev = low_field_revival(tr)
    threshold = rev.d_min + 0.01 * tr.d_lower[0]
    return rev.d_max >= threshold, (
        f"min {rev.d_min:.2e}@{rev.t_min:.1f} ns, post-min max {rev.d_max:.2e}@{rev.t_max:.1f} ns, "
        f"revival threshold {threshold:.2e}"
    )


def check_11_low_field_revival(cache: RunCache) -> CheckResult:
    parts = []
    ok = True
    for b in (0.0, 0.003):
        has, txt = _revival(cache.traj(Bell("psi-"), b, 12000.0))
        ok = ok and has
        parts.append(f"B={b * 1e3:g} mT: revival={has} ({txt})")
    has_1t, txt = _revival(cache.traj(Bell("psi-"), 1.0, 12000.0))
    ok = ok and not has_1t
    parts.append(f"B=1 T: revival={has_1t} (must be False; {txt})")
    return CheckResult(11, "low_field_revival", ok, "; ".join(parts))


def check_12_esd_contrast(cache: RunCache) -> CheckResult:
    t_esd = {}
    for b in (0.011, 0.0165):
        tr = cache.traj(Bell("psi-"), b, 20.0)
        t_esd[b] = esd_time(tr.times, tr.concurrence)
    finite = all(t is not None and t <= 20.0 for t in t_esd.values())
    if finite:
        t1, t2 = t_esd[0.011], t_esd[0.0165]
        contrast = abs(t1 - t2) / min(t1, t2)
        ok = contrast > 0.10
        detail = (
            f"ESD(11 mT)={t1:.2f} ns, ESD(16.5 mT)={t2:.2f} ns, contrast={contrast:.1%} (need >10%)"
        )
    else:
        ok = False
        detail = f"ESD times not both finite within 20 ns: {t_esd}"
    return CheckResult(12, "esd_contrast", ok, detail)


def _normalized_ds(tr) -> np.ndarray:
    return 0.5 * tr.ds_lower / tr.ds_lower[0]


def check_13_phase_sensitivity(cache: RunCache) -> CheckResult:
    diffs = {}
    for b in (0.0165, 0.0):
        n_pi = _normalized_ds(cache.traj(PhaseFamily(math.pi), b, 20.0))
        n_half = _normalized_ds(cache.traj(PhaseFamily(math.pi / 2.0), b, 20.0))
        diffs[b] = float(np.abs(n_pi - n_half).max()) / 0.5

    def onset(b: float) -> float:
        t_split = bound_separation_onset(cache.traj(PhaseFamily(GAMMA_SPLIT), b, 20.0))
        return math.inf if t_split is None else t_split

    onset_0, onset_1t = onset(0.0), onset(1.0)
    ok = (
        diffs[0.0165] > 0.05
        and diffs[0.0] < 0.01
        and math.isfinite(onset_1t)
        and onset_1t < onset_0
    )
    return CheckResult(
        13, "phase_sensitivity", ok,
        f"normalized-trajectory sup diff: {diffs[0.0165]:.1%} at 16.5 mT (>5%), {diffs[0.0]:.2%} at B=0 (<1%); "
        f"bound-separation onset for e^(i*gamma)=(-1+i)/sqrt(2): {onset_1t:.2f} ns at 1 T < {onset_0} at B=0",
    )


def check_14_physicality_suite(cache: RunCache) -> CheckResult:
    # cover the field/grid set of the other checks, then audit every run of this call
    for b in (0.0, 0.0005, 0.0015, 0.005, 0.011, 0.0165, 0.1, 1.0):
        cache.traj(Bell("psi-"), b, 20.0)
    worst_double = 0.0
    for b in (0.0, 0.0015, 0.1, 5.0):
        base = cache.channel(b, 20.0)
        doubled = build_quadrature(base.dot, 20.0, m_count=2 * base.m_count, q_count=2 * base.q_count)
        dbl = compute_channel(doubled, base.times)
        worst_double = max(
            worst_double, float(np.abs(base.p - dbl.p).max()), float(np.abs(base.c - dbl.c).max())
        )
    worst_cp = min(verify_channel_cp(ch).worst_margin for ch in cache.channels.values())
    worst_eig = min(cache.min_eigenvalues.values())
    ok = worst_cp >= -CP_MARGIN_TOL and worst_eig >= -EVOLVED_PSD_TOL and worst_double < 1e-6

    def bound(tol: float) -> str:
        """-tol as the line prints it: -1e-9, not :g's -1e-09."""
        return f"{-tol:.0e}".replace("e-0", "e-")

    return CheckResult(
        14, "physicality_suite", ok,
        f"worst CP margin={worst_cp:.1e} (>={bound(CP_MARGIN_TOL)}) over {len(cache.channels)} channels; "
        f"min evolved eigenvalue={worst_eig:.1e} (>={bound(EVOLVED_PSD_TOL)}) over {len(cache.min_eigenvalues)} trajectories; "
        f"node-doubling sup change={worst_double:.1e} (<1e-6)",
    )


CHECKS = [
    check_1_t2star,
    check_2_kink_position,
    check_3_bell_no_kinks,
    check_4_zero_field_werner_law,
    check_5_positive_field_regime,
    check_6_discord_anchors,
    check_7_oracle_equivalence,
    check_8_werner_scheme_invariance,
    check_9_m_of_b_monotonic,
    check_10_g_extrema_calibration,
    check_11_low_field_revival,
    check_12_esd_contrast,
    check_13_phase_sensitivity,
    check_14_physicality_suite,
]


def run_checks(only: list[int] | None = None, echo: bool = True) -> list[CheckResult]:
    cache = RunCache()
    results = []
    for idx, fn in enumerate(CHECKS, start=1):
        if only is not None and idx not in only:
            continue
        result = fn(cache)
        results.append(result)
        if echo:
            print(f"{'PASS' if result.passed else 'FAIL'} {idx:2d} {result.name}: {result.detail}")
    return results
