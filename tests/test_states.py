import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdspin as q
from qdspin.constants import InvalidParameterError
from qdspin.states import raw_state_from_csv, raw_state_from_json

from conftest import bloch_reconstruct, random_density


def test_bell_states_pure_and_ordered():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        st_ = q.make_state(q.Bell(kind))
        assert q.purity(st_) == pytest.approx(1.0, abs=1e-14)
        a, b = q.bell_diagonal_params(st_)
        assert not np.isnan(a)
        assert a == pytest.approx(0.5, abs=1e-12)
        assert abs(b) == pytest.approx(0.5, abs=1e-12)


def test_werner_interpolates_to_maximally_mixed():
    assert np.allclose(q.make_state(q.Werner(0.0)).rho, np.eye(4) / 4.0)
    a, b = q.bell_diagonal_params(q.make_state(q.Werner(1.0 / 3.0)))
    assert a == pytest.approx(1.0 / 3.0)
    assert b == pytest.approx(-1.0 / 6.0)


def test_werner_requires_valid_mixing():
    with pytest.raises(InvalidParameterError):
        q.make_state(q.Werner(1.2))


def test_ent_family_normalization_enforced():
    # unit norm fixes b = 1/2 - a, which is not an input; both amplitudes must be nonnegative
    with pytest.raises(TypeError):
        q.EntFamily(a=0.3, b=0.3)
    assert q.EntFamily(a=0.3).b == 0.5 - 0.3
    for a in (-0.1, 0.6):
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            q.EntFamily(a=a)
    # round-off below zero, which the check lets through, builds the state with that amplitude zero
    for a, zero in ((-1e-16, 0), (np.nextafter(0.5, 1.0), 1)):
        assert q.make_state(q.EntFamily(a=a)).rho[zero, zero] == 0.0


def test_phase_family_extremes():
    # e^{i*pi} is maximally entangled, gamma=0 is a product state
    assert q.concurrence(q.make_state(q.PhaseFamily(np.pi))) == pytest.approx(1.0, abs=1e-12)
    assert q.concurrence(q.make_state(q.PhaseFamily(0.0))) == pytest.approx(0.0, abs=1e-12)


def test_bell_diagonal_positivity_guard():
    with pytest.raises(InvalidParameterError):
        q.make_state(q.BellDiagonal(0.2, 0.3))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_make_state_always_valid(seed):
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, 5)
    if pick == 0:
        spec = q.Bell(("phi+", "phi-", "psi+", "psi-")[rng.integers(0, 4)])
    elif pick == 1:
        spec = q.Werner(float(rng.uniform()))
    elif pick == 2:
        spec = q.EntFamily(a=float(0.5 * rng.uniform()), alpha=float(rng.uniform(0, 2 * np.pi)),
                           beta=float(rng.uniform(0, 2 * np.pi)))
    elif pick == 3:
        spec = q.PhaseFamily(float(rng.uniform(0, 2 * np.pi)))
    else:
        a = float(rng.uniform(0, 0.5))
        spec = q.BellDiagonal(a, complex(a * rng.uniform(-1, 1), 0.0))
    state = q.make_state(spec)
    # construction re-validates Hermiticity, trace and positivity
    assert abs(np.trace(state.rho) - 1.0) < 1e-12


def test_bloch_roundtrip_random(rng):
    for _ in range(200):
        state = random_density(rng)
        form = q.bloch_decompose(state)
        assert np.abs(bloch_reconstruct(form) - state.rho).max() < 1e-12


def test_bloch_known_values():
    mixed = q.TwoQubitState(np.eye(4, dtype=complex) / 4.0)
    form = q.bloch_decompose(mixed)
    assert np.abs(form.x).max() == 0.0 and np.abs(form.t_corr).max() == 0.0

    singlet = q.bloch_decompose(q.make_state(q.Bell("psi-")))
    assert np.allclose(singlet.x, 0.0, atol=1e-14)
    assert np.allclose(singlet.t_corr, -np.eye(3), atol=1e-14)


@pytest.mark.parametrize("p", [0.0, 0.25, 1.0 / 3.0, 0.8, 1.0])
def test_werner_bloch_form(p):
    # hand expansion: x = y = 0 and T = -p * identity
    form = q.bloch_decompose(q.make_state(q.Werner(p)))
    assert np.allclose(form.x, 0.0, atol=1e-14)
    assert np.allclose(form.y, 0.0, atol=1e-14)
    assert np.allclose(form.t_corr, -p * np.eye(3), atol=1e-13)


def test_purity_values():
    assert q.purity(q.make_state(q.Bell("phi+"))) == pytest.approx(1.0)
    assert q.purity(q.TwoQubitState(np.eye(4, dtype=complex) / 4.0)) == pytest.approx(0.25)
    # X-pattern formula 2[(1/2-a)^2+a^2]+2|b|^2 at a=b=1/2
    assert q.purity(q.make_state(q.BellDiagonal(0.5, 0.5))) == pytest.approx(1.0)


def test_purity_complex_entries():
    psi = 0.5 * np.array([1.0, 1.0, 1.0, 1.0j])
    state = q.TwoQubitState(np.outer(psi, psi.conj()))
    assert q.purity(state) == pytest.approx(1.0, abs=1e-13)


def test_singlet_triplet_weights():
    w = q.singlet_triplet_weights(q.make_state(q.Bell("psi-")))
    assert np.allclose(w, (0.0, 0.0, 0.0, 1.0), atol=1e-12)
    # X-pattern with real b: (1/2-a, a+b, 1/2-a, a-b)
    w = q.singlet_triplet_weights(q.make_state(q.BellDiagonal(0.3, 0.1)))
    assert np.allclose(w, (0.2, 0.4, 0.2, 0.2), atol=1e-12)
    assert sum(w) == pytest.approx(1.0)


def test_singlet_triplet_weights_match_the_projections(rng):
    t0 = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    s0 = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    stack = np.array([random_density(rng).rho * scale for scale in rng.uniform(0.5, 2.0, size=200)])
    w = q.singlet_triplet_weights(stack)
    assert np.abs(w[:, 1] - np.einsum("i,nij,j->n", t0, stack, t0).real).max() <= 1e-15
    assert np.abs(w[:, 3] - np.einsum("i,nij,j->n", s0, stack, s0).real).max() <= 1e-15
    assert np.abs(w.sum(axis=-1) - np.trace(stack, axis1=1, axis2=2).real).max() <= 1e-15


def test_bell_diagonal_params_detects_pattern():
    assert not np.isnan(q.bell_diagonal_params(q.TwoQubitState(np.eye(4, dtype=complex) / 4.0))[0])
    phi = q.make_state(q.Bell("phi+"))
    a, b = q.bell_diagonal_params(phi)
    assert a == pytest.approx(0.5) and b == pytest.approx(0.5)
    # states with local Bloch vectors are not of the form
    assert np.isnan(q.bell_diagonal_params(q.make_state(q.PhaseFamily(np.pi / 2)))[0])


def test_bell_diagonal_params_reads_the_arrangement_the_matrix_fits():
    phi, psi = q.make_state(q.Bell("phi+")), q.make_state(q.Bell("psi-"))
    mixed = q.TwoQubitState(np.eye(4, dtype=complex) / 4.0)  # fits both: PSI is tried first
    phase = q.make_state(q.PhaseFamily(1.0))  # fits neither
    expected = [(phi, q.Ordering.PHI), (q.make_state(q.EntFamily(a=0.5)), q.Ordering.PHI),
                (psi, q.Ordering.PSI), (mixed, q.Ordering.PSI), (phase, q.Ordering.PSI)]
    for state, ordering in expected:
        assert q.bell_ordering(state) is q.bell_ordering(state.rho) is ordering
        for target in (state, state.rho):
            assert np.array_equal(q.bell_diagonal_params(target), q.bell_diagonal_params(state, ordering),
                                  equal_nan=True)
    # a stack is read in the arrangement of its first matrix
    a, b = q.bell_diagonal_params(np.array([phi.rho, psi.rho]))
    assert (a[0], b[0]) == pytest.approx((0.5, 0.5), abs=1e-15) and np.isnan(a[1])
    a, b = q.bell_diagonal_params(np.array([psi.rho, phi.rho]))
    assert (a[0], b[0]) == pytest.approx((0.5, -0.5), abs=1e-15) and np.isnan(a[1])
    assert q.bell_diagonal_params(np.empty((0, 4, 4)))[0].shape == (0,)
    # not of the form: a and both parts of b are nan
    a, b = q.bell_diagonal_params(phase)
    assert np.isnan(a) and np.isnan(b.real) and np.isnan(b.imag)


def test_g_from_bloch_matches_x_pattern_formula(rng):
    for _ in range(100):
        a = rng.uniform(0.05, 0.5)
        b = a * rng.uniform(-1, 1)
        state = q.make_state(q.BellDiagonal(a, b))
        expected = 2 * abs(b) / abs(1 - 4 * a) if abs(1 - 4 * a) > 1e-12 else np.inf
        got = q.g_ratio(state)
        if np.isfinite(expected):
            assert got == pytest.approx(expected, abs=1e-12)


def test_raw_state_io(tmp_path):
    rho = q.make_state(q.Bell("psi-")).rho
    rows = [[f"{v.real}", f"{v.imag}"] for v in rho.flatten()]
    csv_text = "\n".join(",".join(r) for r in rows)
    st1 = raw_state_from_csv(csv_text)
    assert np.abs(st1.rho - rho).max() < 1e-15

    json_text = "[" + ",".join(
        "[" + ",".join(f"[{rho[i, j].real},{rho[i, j].imag}]" for j in range(4)) + "]"
        for i in range(4)
    ) + "]"
    st2 = raw_state_from_json(json_text)
    assert np.abs(st2.rho - rho).max() < 1e-15

    path = tmp_path / "state.json"
    path.write_text(json_text)
    assert np.abs(q.load_raw_state(path).rho - rho).max() < 1e-15


@pytest.mark.parametrize("reader,text", [(raw_state_from_csv, "abc,0\n"), (raw_state_from_json, "not json"),
                                         (raw_state_from_json, "[[1, 2]]")])
def test_raw_state_malformed_text_is_invalid_parameter(reader, text):
    with pytest.raises(InvalidParameterError, match="malformed raw-state"):
        reader(text)


def test_raw_state_rejects_invalid():
    bad = np.eye(4, dtype=complex)  # trace 4
    with pytest.raises(InvalidParameterError):
        q.make_state(q.Raw(bad))
