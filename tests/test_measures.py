import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdspin as q
from qdspin.constants import InvalidParameterError, NumericalDomainError
from qdspin.measures import RESCALE_PREFACTOR

from conftest import Regime, bell_diagonal_discord, random_density, random_unitary

MIXED = q.TwoQubitState(np.eye(4, dtype=complex) / 4.0)


def test_maximally_mixed_has_zero_discord():
    assert q.discord_bounds(MIXED).ds_lower == pytest.approx(0.0, abs=1e-14)
    assert q.discord_bounds(MIXED).ds_upper == pytest.approx(0.0, abs=1e-14)
    assert q.oracle_one_sided_discord(MIXED, grid_resolution=8) == pytest.approx(0.0, abs=1e-14)


def test_bell_state_discord_half():
    for kind in ("phi+", "psi-"):
        state = q.make_state(q.Bell(kind))
        assert q.discord_bounds(state).ds_lower == pytest.approx(0.5, abs=1e-12)
        assert q.discord_bounds(state).ds_upper == pytest.approx(0.5, abs=1e-12)


def test_werner_third_discord():
    state = q.make_state(q.Werner(1.0 / 3.0))
    assert q.discord_bounds(state).ds_lower == pytest.approx(1.0 / 18.0, abs=1e-12)


def test_rescaled_discord_values():
    assert q.rescaled_discord(0.0, 0.7) == 0.0
    # hand-evaluated anchors
    assert q.rescaled_discord(0.5, 1.0) == pytest.approx(RESCALE_PREFACTOR * (1 - np.sqrt(0.75)), rel=1e-12)
    assert q.rescaled_discord(0.5, 1.0) == pytest.approx(8.9745962e-3, rel=1e-6)
    assert q.rescaled_discord(1.0 / 18.0, 1.0 / 3.0) == pytest.approx(2.8518430e-3, rel=1e-6)


def test_rescaled_discord_domain():
    with pytest.raises(InvalidParameterError):
        q.rescaled_discord(0.1, 0.1)
    with pytest.raises(NumericalDomainError):
        q.rescaled_discord(2.5, 1.0)
    # tiny negative radicand from round-off clamps to the cap value
    assert q.rescaled_discord(2.0 - 1e-12, 1.0) == pytest.approx(RESCALE_PREFACTOR, rel=1e-5)


@pytest.mark.parametrize(
    "a,b,ds,regime",
    [
        (0.5, 0.5, 0.5, Regime.BOUNDARY),
        (0.4, 0.4, 0.25, Regime.G_GE_1),
        (1.0 / 3.0, -1.0 / 6.0, 1.0 / 18.0, Regime.BOUNDARY),
        (0.4, 0.05, 2 * 0.05**2, Regime.G_LE_1),
        (0.3, 0.0, 0.0, Regime.G_LE_1),
    ],
)
def test_bell_diagonal_discord_branches(a, b, ds, regime):
    result = bell_diagonal_discord(a, b)
    assert result.ds == pytest.approx(ds, abs=1e-12)
    assert result.regime is regime


def test_bell_diagonal_discord_infinite_g():
    result = bell_diagonal_discord(0.25, 0.2)
    assert result.g == np.inf
    assert result.ds == pytest.approx(0.04, abs=1e-12)


def test_bell_diagonal_discord_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        bell_diagonal_discord(0.2, 0.4)


def test_bell_diagonal_matches_general_formula(rng):
    for _ in range(1000):
        a = rng.uniform(0.0, 0.5)
        b = a * rng.uniform(-1.0, 1.0)
        state = q.make_state(q.BellDiagonal(a, b))
        assert q.discord_bounds(state).ds_lower == pytest.approx(
            bell_diagonal_discord(a, b).ds, abs=1e-12
        )


def test_g_ratio_cases():
    assert q.g_ratio(q.make_state(q.BellDiagonal(0.4, 0.4))) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert q.g_ratio(q.make_state(q.Bell("psi-"))) == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(q.g_ratio(MIXED))


def test_concurrence_values():
    assert q.concurrence(q.make_state(q.Bell("phi-"))) == pytest.approx(1.0, abs=1e-12)
    assert q.concurrence(q.make_state(q.Werner(1.0 / 3.0))) == pytest.approx(0.0, abs=1e-8)
    assert q.concurrence(q.make_state(q.BellDiagonal(0.4, 0.4))) == pytest.approx(0.6, abs=1e-12)


def test_concurrence_x_pattern_closed_form(rng):
    for _ in range(200):
        a = rng.uniform(0.0, 0.5)
        b = a * rng.uniform(-1.0, 1.0)
        state = q.make_state(q.BellDiagonal(a, b))
        assert q.concurrence(state) == pytest.approx(2 * max(0.0, abs(b) - (0.5 - a)), abs=1e-9)


def test_bounds_order_random(rng):
    for _ in range(2000):
        bounds = q.discord_bounds(random_density(rng))
        assert bounds.ds_lower <= bounds.ds_upper + 1e-10
        assert -1e-12 <= bounds.ds_lower <= 0.5 + 1e-9
        assert bounds.rescaled_lower <= bounds.rescaled_upper + 1e-12
        assert bounds.rescaled_upper <= RESCALE_PREFACTOR + 1e-9


def test_bounds_coincide_for_pure_states(rng):
    for _ in range(100):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        bounds = q.discord_bounds(q.TwoQubitState(np.outer(psi, psi.conj())))
        assert abs(bounds.ds_upper - bounds.ds_lower) < 1e-9


def _random_x_state(rng, zero_y_bloch):
    if zero_y_bloch:
        r0, r1 = rng.uniform(size=2)
        d = 0.5 * np.array([r0, r1, 1.0 - r0, 1.0 - r1])
    else:
        d = rng.dirichlet(np.ones(4))
    inner = np.sqrt(d[1] * d[2]) * rng.uniform() * np.exp(1j * rng.uniform(0, 2 * np.pi))
    outer = np.sqrt(d[0] * d[3]) * rng.uniform() * np.exp(1j * rng.uniform(0, 2 * np.pi))
    x_state = np.diag(d).astype(complex)
    x_state[1, 2], x_state[2, 1] = inner, np.conj(inner)
    x_state[0, 3], x_state[3, 0] = outer, np.conj(outer)
    return q.TwoQubitState(x_state)


def test_bounds_coincide_for_zero_bloch_x_states(rng):
    for _ in range(200):
        bounds = q.discord_bounds(_random_x_state(rng, zero_y_bloch=True))
        assert bounds.ds_upper - bounds.ds_lower < 1e-9


def test_general_x_state_gap_has_exact_ceiling(rng):
    # with both local z components finite the two-sided distance exceeds
    # the one-sided one by min(x3^2, y3^2)/4; the upper bound never
    # exceeds that ceiling above the lower bound
    for _ in range(300):
        state = _random_x_state(rng, zero_y_bloch=False)
        form = q.bloch_decompose(state)
        bounds = q.discord_bounds(state)
        ceiling = 0.25 * min(form.x[2] ** 2, form.y[2] ** 2)
        assert bounds.ds_upper - bounds.ds_lower <= ceiling + 1e-9


def test_local_unitary_invariance(rng):
    for _ in range(50):
        state = random_density(rng)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = q.TwoQubitState(u @ state.rho @ u.conj().T)
        b0, b1 = q.discord_bounds(state), q.discord_bounds(rotated)
        assert b0.ds_lower == pytest.approx(b1.ds_lower, abs=1e-10)
        assert b0.ds_upper == pytest.approx(b1.ds_upper, abs=1e-10)
        assert q.concurrence(state) == pytest.approx(q.concurrence(rotated), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(29396)  # a simplex polish that stops at its iteration limit unconverged, 1.1e-5 off
def test_oracle_matches_closed_form(seed):
    rng = np.random.default_rng(seed)
    state = random_density(rng)
    form = q.bloch_decompose(state)
    k_x = np.outer(form.x, form.x) + form.t_corr @ form.t_corr.T
    closed = 0.25 * (np.trace(k_x) - np.linalg.eigvalsh(k_x)[-1])
    assert q.oracle_one_sided_discord(state, grid_resolution=14) == pytest.approx(closed, abs=1e-6)


def test_ent_family_anchor(rng):
    for _ in range(50):
        spec = q.EntFamily(a=0.5 * rng.uniform(), alpha=rng.uniform(0, 2 * np.pi),
                           beta=rng.uniform(0, 2 * np.pi))
        state = q.make_state(spec)
        # sqrt of near-zero eigenvalues limits concurrence accuracy to ~sqrt(eps)
        assert q.concurrence(state) == pytest.approx(1.0, abs=1e-7)
        assert q.discord_bounds(state).ds_lower == pytest.approx(0.5, abs=1e-10)


# ---------------------------------------------------------------------------
# stacked core against the single-state calls
# ---------------------------------------------------------------------------


def _bell_mixture(weights):
    kinds = ("phi+", "phi-", "psi+", "psi-")
    return sum(w * q.make_state(q.Bell(k)).rho for w, k in zip(weights, kinds))


def test_degenerate_top_cluster_bell_mixtures(rng):
    # two equal weights make two |T| singular values equal; the mixtures kept
    # are those where that pair is the top of K, so the cluster rule runs
    kept = 0
    while kept < 12:
        w_pair, split = rng.uniform(0.0, 0.5), rng.uniform()
        rest = 1.0 - 2.0 * w_pair
        weights = rng.permutation([w_pair, w_pair, rest * split, rest * (1.0 - split)])
        u = np.kron(random_unitary(rng), random_unitary(rng))
        state = q.TwoQubitState(u @ _bell_mixture(weights) @ u.conj().T)
        form = q.bloch_decompose(state)
        k_vals = np.linalg.eigvalsh(np.outer(form.x, form.x) + form.t_corr @ form.t_corr.T)
        if k_vals[-1] - k_vals[-2] >= 1e-10:
            continue
        kept += 1
        bounds = q.discord_bounds(state)
        # zero local Bloch vectors: the bounds coincide at (Tr K - k_max)/4,
        # the one-sided distance the pinching oracle minimizes on side A
        assert bounds.ds_upper - bounds.ds_lower <= 1e-15
        assert bounds.ds_lower == pytest.approx(0.25 * (k_vals.sum() - k_vals[-1]), abs=1e-15)
        assert q.oracle_one_sided_discord(state, grid_resolution=12) == pytest.approx(
            bounds.ds_lower, abs=1e-6
        )


def _upper_reference(form):
    """The upper bound transcribed per state: loop over the top-cluster eigenvectors."""
    t = form.t_corr
    sides = []
    for bloch, k_mat in ((form.x, np.outer(form.x, form.x) + t @ t.T),
                         (form.y, np.outer(form.y, form.y) + t.T @ t)):
        w, v = np.linalg.eigh(k_mat)
        sides.append((bloch, np.trace(k_mat) - w[2], [v[:, j] for j in range(3) if w[2] - w[j] < 1e-10]))
    (x, ax, kx_vecs), (y, ay, ky_vecs) = sides

    def correction(bloch, vecs, rotate):
        return min(np.trace(l) - np.linalg.eigvalsh(l)[-1]
                   for l in (np.outer(bloch, bloch) + np.outer(rotate @ k, rotate @ k) for k in vecs))

    bx, by = correction(x, ky_vecs, t), correction(y, kx_vecs, t.T)
    return max(0.0, 0.25 * min(ax + by, ay + bx))


def test_upper_bound_cluster_rule_on_x_states(rng):
    # an inner coherence alone gives T = diag(2c, 2c, t3), so K has a
    # degenerate top pair in part of the samples, while the local z
    # components keep the L corrections of the candidates apart
    degenerate = 0
    for _ in range(200):
        d = rng.dirichlet(np.ones(4))
        rho = np.diag(d).astype(complex)
        rho[1, 2] = rho[2, 1] = rng.uniform() * np.sqrt(d[1] * d[2])
        u = np.kron(random_unitary(rng), random_unitary(rng))
        state = q.TwoQubitState(u @ rho @ u.conj().T)
        form = q.bloch_decompose(state)
        k_x = np.outer(form.x, form.x) + form.t_corr @ form.t_corr.T
        degenerate += np.diff(np.linalg.eigvalsh(k_x))[-1] < 1e-10
        bounds = q.discord_bounds(state)
        assert bounds.ds_upper == pytest.approx(max(_upper_reference(form), bounds.ds_lower), abs=1e-15)
    assert degenerate >= 10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
def test_stacked_measures_match_single_state_calls(seed, n):
    # one function per measure: a stack gives, state by state, the bits of a one-state call
    rng = np.random.default_rng(seed)
    states = [random_density(rng) if k % 3 else q.make_state(q.BellDiagonal(0.3, 0.1 * rng.uniform()))
              for k in range(n)]
    rho = np.array([s.rho for s in states])
    stacked = q.discord_bounds(rho)
    conc, g, pur = q.concurrence(rho), q.g_ratio(rho), q.purity(rho)
    weights = q.singlet_triplet_weights(rho)
    params = {o: q.bell_diagonal_params(rho, o) for o in q.Ordering}
    for k, state in enumerate(states):
        bounds = q.discord_bounds(state)
        for name in ("ds_lower", "ds_upper", "rescaled_lower", "rescaled_upper"):
            assert getattr(stacked, name)[k] == getattr(bounds, name)
        assert conc[k] == q.concurrence(state) and pur[k] == q.purity(state)
        assert g[k] == q.g_ratio(state)
        assert np.array_equal(weights[k], q.singlet_triplet_weights(state))
        for ordering, (bell_a, bell_b) in params.items():
            a, b = q.bell_diagonal_params(state, ordering)
            assert np.array_equal([bell_a[k], bell_b[k]], [a, b], equal_nan=True)
