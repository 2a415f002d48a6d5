import enum
import math
from dataclasses import dataclass

import numpy as np
import pytest

from qdspin import BlochForm, DotParameters, TwoQubitState, build_quadrature, compute_channel
from qdspin.constants import InvalidParameterError
from qdspin.states import PAULIS


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(83)


@pytest.fixture(scope="session")
def default_dot():
    return DotParameters()


def random_density(rng) -> TwoQubitState:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return TwoQubitState(rho)


def random_unitary(rng, n=2) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def channel_of(dot: DotParameters, times):
    """Channel of `dot` on `times` from a model sized by the node rule for their last time."""
    times = np.asarray(times, dtype=float)
    return compute_channel(build_quadrature(dot, float(times.max())), times)


def bloch_reconstruct(form: BlochForm) -> np.ndarray:
    """Inverse of `bloch_decompose`, written out as (1 + x.s x 1 + 1 x y.s + T_ij s_i x s_j) / 4."""
    eye = np.eye(2)
    rho = np.kron(eye, eye).astype(complex)
    for i, si in enumerate(PAULIS):
        rho = rho + form.x[i] * np.kron(si, eye) + form.y[i] * np.kron(eye, si)
        for j, sj in enumerate(PAULIS):
            rho = rho + form.t_corr[i, j] * np.kron(si, sj)
    return rho / 4.0


class Regime(enum.Enum):
    G_LE_1 = "g_le_1"
    G_GE_1 = "g_ge_1"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class BellDiagonalDiscord:
    ds: float
    regime: Regime
    g: float


def bell_diagonal_discord(a: float, b: complex) -> BellDiagonalDiscord:
    """Analytic geometric discord of the X-pattern state diag(1/2-a, a, a, 1/2-a), coherence b.

    ds = 2|b|^2 in the g <= 1 regime and (1/2 - 2a)^2 + |b|^2 in the
    g >= 1 regime, with g = 2|b| / |1 - 4a|: the oracle of the general
    closed-form bounds on Bell-diagonal states.
    """
    if not -1e-12 <= a <= 0.5 + 1e-12:
        raise InvalidParameterError(f"a must lie in [0, 1/2], got {a}")
    babs = abs(b)
    if babs > a + 1e-12:
        raise InvalidParameterError(f"positivity requires |b| <= a, got |b|={babs}, a={a}")
    denom = abs(1.0 - 4.0 * a)
    if denom < 1e-300:
        g = math.inf if babs > 0.0 else 0.0
    else:
        g = 2.0 * babs / denom
    if abs(g - 1.0) < 1e-12:
        regime = Regime.BOUNDARY
        ds = 2.0 * babs * babs
    elif g < 1.0:
        regime = Regime.G_LE_1
        ds = 2.0 * babs * babs
    else:
        regime = Regime.G_GE_1
        ds = (0.5 - 2.0 * a) ** 2 + babs * babs
    return BellDiagonalDiscord(ds=ds, regime=regime, g=g)


# ---------------------------------------------------------------------------
# per-sample loop oracles of the feature scanners
# ---------------------------------------------------------------------------


def loop_find_g_crossings(times, g, g_at) -> list:
    """`evolution.find_g_crossings` as a per-sample state machine over the side of each sample."""
    from qdspin.evolution import G_BAND, KINK_T_TOL, KinkEvent

    times = np.asarray(times, dtype=float)
    g = np.asarray(g, dtype=float)
    finite = np.isfinite(g)
    side = np.zeros(times.size, dtype=int)
    side[finite & (g > 1.0 + G_BAND)] = 1
    side[finite & (g < 1.0 - G_BAND)] = -1
    events = []
    last_side = 0
    last_idx = -1
    for i in range(times.size):
        s = side[i]
        if s == 0:
            continue
        if last_side != 0 and s != last_side:
            t_lo, t_hi = times[last_idx], times[i]
            f_lo = g_at(t_lo) - 1.0
            for _ in range(200):
                if t_hi - t_lo <= KINK_T_TOL:
                    break
                t_mid = 0.5 * (t_lo + t_hi)
                f_mid = g_at(t_mid) - 1.0
                if f_mid == 0.0:
                    t_lo = t_hi = t_mid
                elif (f_mid > 0.0) == (f_lo > 0.0):
                    t_lo, f_lo = t_mid, f_mid
                else:
                    t_hi = t_mid
            events.append(KinkEvent(t_cross_ns=float(0.5 * (t_lo + t_hi)),
                                    direction="down" if last_side > 0 else "up"))
        last_side = s
        last_idx = i
    return events


def loop_find_extrema(times, values, min_prominence: float = 0.0) -> list:
    """`evolution.find_extrema` with plateaus, candidates and prominence found sample by sample."""
    from qdspin.evolution import Extremum, ExtremumKind, _parabolic_refine

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 3:
        return []
    reps = [0]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, times.size):
            if abs(values[i] - values[reps[-1]]) <= 0.0:
                continue
            reps.append(i)
    run_centers = []
    for r in range(len(reps)):
        lo = reps[r]
        hi = reps[r + 1] - 1 if r + 1 < len(reps) else times.size - 1
        run_centers.append((lo + hi) // 2)
    rt = times[run_centers]
    rv = values[run_centers]
    events = []
    for j in range(1, len(run_centers) - 1):
        prev_v, this_v, next_v = rv[j - 1], rv[j], rv[j + 1]
        if not (np.isfinite(prev_v) and np.isfinite(this_v) and np.isfinite(next_v)):
            continue
        if this_v > prev_v and this_v > next_v:
            kind = ExtremumKind.MAXIMUM
        elif this_v < prev_v and this_v < next_v:
            kind = ExtremumKind.MINIMUM
        else:
            continue
        if min_prominence > 0.0 and loop_prominence(rv, j, kind) < min_prominence:
            continue
        t_ref, v_ref = _parabolic_refine(rt, rv, j)
        events.append(Extremum(t_ns=t_ref, value=v_ref, kind=kind))
    return events


def loop_prominence(values, j: int, kind) -> float:
    """`evolution._prominence` walking out from j to the first strictly higher sample on each side."""
    from qdspin.evolution import ExtremumKind

    v = values if kind is ExtremumKind.MAXIMUM else -values
    peak = v[j]

    def side_base(indices) -> float:
        lowest = peak
        for i in indices:
            if v[i] > peak:
                return lowest
            lowest = min(lowest, v[i])
        return lowest

    return peak - max(side_base(range(j - 1, -1, -1)), side_base(range(j + 1, len(v))))


def loop_esd_time(times, conc):
    """`magnetometry.esd_time` as a scan over the dead runs of the concurrence."""
    from qdspin.magnetometry import ESD_MIN_RUN, ESD_ZERO_TOL

    dead = np.asarray(conc) <= ESD_ZERO_TOL
    n = dead.size
    i = 0
    while i < n:
        if not dead[i]:
            i += 1
            continue
        j = i
        while j < n and dead[j]:
            j += 1
        if (j - i) >= ESD_MIN_RUN:
            return float(times[i])
        i = j
    return None


# ---------------------------------------------------------------------------
# per-cell oracle of the CSV writer
# ---------------------------------------------------------------------------


def csv_cell_oracle(header_lines, columns) -> str:
    """`config.write_csv`'s text built cell by cell: a column of strings as given,
    numbers as .17g, NaN and None empty."""

    def cells(column):
        if not isinstance(column, np.ndarray) and all(isinstance(v, str) for v in column):
            return list(column)
        return ["" if v is None or math.isnan(v) else f"{float(v):.17g}" for v in column]

    lines = [f"# {h}" for h in header_lines or ()]
    lines.append(",".join(columns))
    lines.extend(",".join(row) for row in zip(*(cells(c) for c in columns.values())))
    return "\n".join(lines) + "\n"
