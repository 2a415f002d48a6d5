import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdspin as q
from qdspin import measures
from qdspin.constants import InvalidParameterError, NumericalDomainError
from qdspin.magnetometry import trajectory_for_field
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


def _gram_corrections(bloch, u):
    """Tr L - l_max of L = a a^T + u u^T, the smaller eigenvalue of the 2x2 Gram matrix of a and u."""
    aa = (bloch * bloch).sum(axis=-1)[..., None]
    uu = (u * u).sum(axis=-2)
    return 0.5 * (aa + uu - np.hypot(aa - uu, 2.0 * (bloch[..., :, None] * u).sum(axis=-2)))


def _eigvalsh_corrections(bloch, u):
    """Tr L - l_max of L = a a^T + u u^T read off an `eigvalsh` of the 3x3 L."""
    l_mats = (bloch[..., None, :, None] * bloch[..., None, None, :]
              + np.einsum("...ij,...kj->...jik", u, u))
    return np.trace(l_mats, axis1=-2, axis2=-1) - np.linalg.eigvalsh(l_mats)[..., 2]


def _one_pass_bounds(form, corrections=_gram_corrections):
    """Both bounds in one pass, as computed before the steps were split: the bit oracle of the steps."""
    x, y, t = form.x, form.y, form.t_corr
    t_tr = np.swapaxes(t, -1, -2)
    bloch = np.stack([x, y])
    k = bloch[..., :, None] * bloch[..., None, :] + np.stack([t @ t_tr, t_tr @ t])
    w, v = np.linalg.eigh(k)
    a = np.trace(k, axis1=-2, axis2=-1) - w[..., 2]
    lower = np.maximum(0.0, 0.25 * np.maximum(a[0], a[1]))
    w_c, v_c = w[::-1], v[::-1]
    u = np.stack([t @ v_c[0], t_tr @ v_c[1]])
    corr = corrections(bloch, u)
    in_cluster = w_c[..., 2:] - w_c < 1e-10
    b = np.min(np.where(in_cluster, corr, np.inf), axis=-1)
    upper = np.maximum(0.0, 0.25 * np.minimum(a[0] + b[1], a[1] + b[0]))
    return lower, np.maximum(upper, lower)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
def test_split_bound_steps_keep_the_one_pass_bits(seed, n):
    rng = np.random.default_rng(seed)
    states = [random_density(rng) if k % 3 else q.make_state(q.BellDiagonal(0.3, 0.1 * rng.uniform()))
              for k in range(n)]
    rho = np.array([s.rho for s in states])
    for target in (rho, *states):
        lower, upper = _one_pass_bounds(q.bloch_decompose(target))
        bounds = q.discord_bounds(target)
        assert np.array_equal(bounds.ds_lower, lower) and np.array_equal(bounds.ds_upper, upper)
        assert np.array_equal(bounds.rescaled_lower, q.rescaled_discord(lower, q.purity(target)))
        assert np.array_equal(bounds.rescaled_upper, q.rescaled_discord(upper, q.purity(target)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
def test_stacked_measures_match_single_state_calls(seed, n):
    # one function per measure: a stack gives, state by state, the bits of a one-state call; the
    # Bell-diagonal, Werner and Bell states have diagonal K, so a stack mixes both routes of `_k_eigh`
    rng = np.random.default_rng(seed)
    x_starts = (lambda: q.BellDiagonal(0.3, 0.1 * rng.uniform()), lambda: q.Werner(rng.uniform()),
                lambda: q.Bell(rng.choice(["phi+", "phi-", "psi+", "psi-"])))
    states = [random_density(rng) if k % 3 else q.make_state(x_starts[k // 3 % 3]()) for k in range(n)]
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


def _count_eigh(monkeypatch) -> list:
    """Shapes of the stacks handed to `np.linalg.eigh` from now on."""
    calls, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


X_FORM_STARTS = ("bell:psi-", "werner:p=0.33", "belldiag:a=0.3,b=0.25")


@pytest.mark.parametrize("t_max, dt", [(20.0, 0.02), (2000.0, 0.1)])
@pytest.mark.parametrize("spec", [*X_FORM_STARTS, "bell:phi+", "phase:gamma=2.35619449"])
def test_x_form_trajectories_read_k_off_its_diagonal(spec, t_max, dt, monkeypatch):
    # the channel multiplies the inner coherence rho_12 by |c|^2, so these starts keep a real X form,
    # every K is exactly diagonal and no eigh runs; bell:phi+'s outer coherence is multiplied by c^2,
    # whose imaginary part fills T_xy except at 0 T, where c is real, and the phase state is not of X form
    calls = _count_eigh(monkeypatch)
    for b_field in (0.0, 0.003, 0.1):
        traj = trajectory_for_field(q.RunConfig(state=spec, t_max=t_max, dt=dt), b_field)
        calls.clear()
        traj.ds_lower, traj.ds_upper
        diagonal = spec in X_FORM_STARTS or (spec == "bell:phi+" and b_field == 0.0)
        assert (calls == []) == diagonal, (b_field, calls)
        lower, upper = _one_pass_bounds(traj._bloch)
        assert np.array_equal(traj.ds_lower, lower) and np.array_equal(traj.ds_upper, upper)


def test_gram_corrections_match_the_eigensolver(rng):
    # measured: at most 2.8e-16 apart over 20 000 Ginibre and 20 000 pure states
    psi = rng.normal(size=(500, 4)) + 1j * rng.normal(size=(500, 4))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    pair = rng.uniform(0.0, 0.5, 100)
    split = rng.uniform(size=100)
    chan = q.channel_for_field(q.RunConfig(t_max=20.0), 0.011)
    families = {
        "ginibre": np.array([random_density(rng).rho for _ in range(500)]),
        "pure": psi[:, :, None] * psi.conj()[:, None, :],
        "zero local z X": np.array([_random_x_state(rng, zero_y_bloch=True).rho for _ in range(200)]),
        # two equal weights: a degenerate top of K, so the cluster rule picks among candidates
        "Bell-diagonal": np.array([_bell_mixture(rng.permutation([w, w, (1 - 2 * w) * f, (1 - 2 * w) * (1 - f)]))
                                   for w, f in zip(pair, split)]),
        "evolved": np.concatenate([q.evolve(q.make_state(spec), chan).rho for spec in
                                   (q.Bell("psi-"), q.Werner(0.33), q.PhaseFamily(2.35619449),
                                    q.BellDiagonal(0.4, 0.4))]),
    }
    for name, rho in families.items():
        _, upper = _one_pass_bounds(q.bloch_decompose(rho), _eigvalsh_corrections)
        assert np.abs(q.discord_bounds(rho).ds_upper - upper).max() <= 1e-15, name


def test_gram_correction_is_zero_for_a_zero_vector(rng):
    # a = 0 (zero local Bloch vectors) or u = 0 (T = 0) makes every correction exactly 0, with no
    # division to warn about.  Side terms of (tiny, 1) leave the bound at (tiny + correction)/4,
    # so a correction off 0 by any round-off shows.
    n = 200
    vec, mat = rng.normal(size=(n, 3)), rng.normal(size=(n, 3, 3))
    zero_vec, zero_mat = np.zeros((n, 3)), np.zeros((n, 3, 3))
    tiny = 2.0**-70
    for form in (q.BlochForm(zero_vec, zero_vec, mat), q.BlochForm(vec, -vec, zero_mat),
                 q.BlochForm(zero_vec, zero_vec, zero_mat)):
        eig = measures._k_eigh(form)
        for side_terms in ([tiny, 1.0], [1.0, tiny]):
            side_a = np.repeat(np.array(side_terms)[:, None], n, axis=1)
            with np.errstate(all="raise"):
                upper = measures._upper_bound(form, eig._replace(a=side_a), np.zeros(n))
            assert np.all(upper == 0.25 * tiny)
