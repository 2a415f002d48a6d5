"""Two-qubit states: construction, validation, Bloch decomposition, diagnostics.

Density matrices are always stored in the computational product basis
|uu>, |ud>, |du>, |dd> with |0> = spin-up (parallel to the field).  A
state is its validated matrix alone.  The Bell-diagonal X pattern
    diag(1/2 - a, a, a, 1/2 - a)  with inner anti-diagonal coherence b
shows in one basis arrangement for Psi-type states and in another for
Phi-type ones; `bell_ordering` reads the arrangement off the matrix.
Every correlation measure is ordering-independent; only the (a, b)
pattern extraction is not.
"""
from __future__ import annotations

import cmath
import csv
import enum
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .constants import InvalidParameterError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL_CONSTRUCTION = 1e-10
PATTERN_TOL = 1e-10  # largest entry deviation from the Bell-diagonal X pattern still of that form

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
IDENTITY_2 = np.eye(2, dtype=complex)

# the 15 Pauli products (sigma_i x 1), (1 x sigma_i), (sigma_i x sigma_j), row-major in (i, j)
_PAULI_PRODUCTS = np.array(
    [np.kron(s, IDENTITY_2) for s in PAULIS]
    + [np.kron(IDENTITY_2, s) for s in PAULIS]
    + [np.kron(si, sj) for si in PAULIS for sj in PAULIS]
)


class Ordering(enum.Enum):
    """Basis arrangement in which a state shows the Bell-diagonal X pattern."""

    PSI = "psi"  # |uu>, |ud>, |du>, |dd>: the computational arrangement, pattern of Psi-type states
    PHI = "phi"  # |ud>, |uu>, |dd>, |du>; pattern of Phi-type states


_ORDERING_PERM = {
    Ordering.PSI: (0, 1, 2, 3),
    Ordering.PHI: (1, 0, 3, 2),
}


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check finiteness, Hermiticity, unit trace and positivity; return the validated matrix as complex."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidParameterError(f"density matrix must be 4x4, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        i, j = np.argwhere(~np.isfinite(rho))[0]
        raise InvalidParameterError(f"density matrix entry ({i}, {j}) is not finite: {rho[i, j]}")
    # each test is written so that a NaN fails it
    rho_h = rho.conj().T
    herm = float(np.abs(rho - rho_h).max())
    if not herm <= HERMITICITY_TOL:
        raise InvalidParameterError(f"matrix not Hermitian: max asymmetry {herm:.3e}")
    tr = complex(rho.trace())
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise InvalidParameterError(f"trace must be 1, got {tr:.15g}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho_h)).min())
    if not min_eig >= -PSD_TOL_CONSTRUCTION:
        raise InvalidParameterError(f"matrix not positive semidefinite: min eigenvalue {min_eig:.3e}")
    return rho


@dataclass(frozen=True)
class TwoQubitState:
    """Validated 4x4 density matrix."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = validate_density_matrix(self.rho)
        rho = np.array(rho, dtype=complex, order="C")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


# ---------------------------------------------------------------------------
# state specifications
# ---------------------------------------------------------------------------

_BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


@dataclass(frozen=True)
class Bell:
    kind: str = "psi-"

    def __post_init__(self) -> None:
        if self.kind not in _BELL_KINDS:
            raise InvalidParameterError(f"unknown Bell state {self.kind!r}; expected one of {_BELL_KINDS}")


@dataclass(frozen=True)
class Werner:
    """(1 - p) * maximally mixed + p * singlet; quantumly correlated for p > 0."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise InvalidParameterError(f"Werner mixing p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class EntFamily:
    """Maximally entangled family sqrt(a)|00> + sqrt(b)e^{ia}|10> + sqrt(b)e^{ib}|01> - sqrt(a)e^{i(a+b)}|11>.

    Unit norm forces b = 1/2 - a.
    """

    a: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        if self.a < -1e-15 or self.b < -1e-15:
            raise InvalidParameterError(f"amplitudes must be nonnegative: a={self.a}, b={self.b}")

    @property
    def b(self) -> float:
        return 0.5 - self.a


@dataclass(frozen=True)
class PhaseFamily:
    """(|00> + |10> + |01> + e^{i gamma}|11>) / 2; separable at gamma = 0."""

    gamma: float


@dataclass(frozen=True)
class BellDiagonal:
    """X-pattern state diag(1/2-a, a, a, 1/2-a) with inner coherence b."""

    a: float
    b: complex

    def __post_init__(self) -> None:
        if not 0.0 <= self.a <= 0.5 + 1e-12:
            raise InvalidParameterError(f"diagonal weight a must lie in [0, 1/2], got {self.a}")
        if abs(self.b) > self.a + 1e-12:
            raise InvalidParameterError(
                f"positivity requires |b| <= a, got |b|={abs(self.b)} > a={self.a}"
            )


@dataclass(frozen=True)
class Raw:
    matrix: np.ndarray


StateSpec = Union[Bell, Werner, EntFamily, PhaseFamily, BellDiagonal, Raw]


def _ket_state(amplitudes: np.ndarray) -> TwoQubitState:
    psi = np.asarray(amplitudes, dtype=complex)
    return TwoQubitState(np.outer(psi, psi.conj()))


def make_state(spec: StateSpec) -> TwoQubitState:
    """Construct a validated TwoQubitState from a specification."""
    if isinstance(spec, Bell):
        s = 1.0 / math.sqrt(2.0)
        kets = {
            "phi+": np.array([s, 0, 0, s]),
            "phi-": np.array([s, 0, 0, -s]),
            "psi+": np.array([0, s, s, 0]),
            "psi-": np.array([0, s, -s, 0]),
        }
        return _ket_state(kets[spec.kind])
    if isinstance(spec, Werner):
        singlet = make_state(Bell("psi-")).rho
        rho = (1.0 - spec.p) * np.eye(4, dtype=complex) / 4.0 + spec.p * singlet
        return TwoQubitState(rho)
    if isinstance(spec, EntFamily):
        ra, rb = math.sqrt(max(spec.a, 0.0)), math.sqrt(max(spec.b, 0.0))  # either may be -1e-15
        psi = np.array(
            [
                ra,
                rb * cmath.exp(1j * spec.beta),
                rb * cmath.exp(1j * spec.alpha),
                -ra * cmath.exp(1j * (spec.alpha + spec.beta)),
            ]
        )
        return _ket_state(psi)
    if isinstance(spec, PhaseFamily):
        psi = 0.5 * np.array([1.0, 1.0, 1.0, cmath.exp(1j * spec.gamma)])
        return _ket_state(psi)
    if isinstance(spec, BellDiagonal):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 0.5 - spec.a
        rho[1, 1] = rho[2, 2] = spec.a
        rho[1, 2] = spec.b
        rho[2, 1] = np.conj(spec.b)
        return TwoQubitState(rho)
    if isinstance(spec, Raw):
        return TwoQubitState(np.asarray(spec.matrix, dtype=complex))
    raise InvalidParameterError(f"unknown state specification {spec!r}")


# ---------------------------------------------------------------------------
# Bloch decomposition and diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlochForm:
    """Local Bloch vectors and correlation matrix of a two-qubit state."""

    x: np.ndarray
    y: np.ndarray
    t_corr: np.ndarray


def _rho(state: TwoQubitState | np.ndarray) -> np.ndarray:
    return state.rho if isinstance(state, TwoQubitState) else np.asarray(state, dtype=complex)


def bloch_decompose(state: TwoQubitState | np.ndarray) -> BlochForm:
    """Return x_i = Tr[rho (s_i x 1)], y_i = Tr[rho (1 x s_i)], T_ij = Tr[rho (s_i x s_j)].

    Accepts one state or a (..., 4, 4) stack; the fields then carry the
    same leading axes.
    """
    vals = np.einsum("...ij,kji->...k", _rho(state), _PAULI_PRODUCTS).real
    return BlochForm(vals[..., 0:3], vals[..., 3:6], vals[..., 6:].reshape(*vals.shape[:-1], 3, 3))


def purity(state: TwoQubitState | np.ndarray) -> float:
    """Tr rho^2, in [1/4, 1].  Equals the squared Frobenius norm for Hermitian rho.

    A (..., 4, 4) stack gives an array of purities.
    """
    return (np.abs(_rho(state)) ** 2).sum(axis=(-2, -1))


def singlet_triplet_weights(state: TwoQubitState | np.ndarray) -> np.ndarray:
    """Projector weights (..., 4) = (w_Tm1, w_T0, w_Tp1, w_S0) in the total-spin basis.

    T+1 = |uu>, T-1 = |dd>, T0/S0 the symmetric/antisymmetric combinations
    of |ud>, |du>, so w_T0, w_S0 = (rho_11 + rho_22)/2 +- Re(rho_12 + rho_21)/2.
    The four weights sum to Tr rho = 1.  Takes one state, a 4x4 matrix or a
    (..., 4, 4) stack; the arithmetic is elementwise, so a state gives the
    same bits alone as inside a stack.
    """
    rho = _rho(state).real
    inner = 0.5 * (rho[..., 1, 1] + rho[..., 2, 2])
    flip = 0.5 * (rho[..., 1, 2] + rho[..., 2, 1])
    return np.stack([rho[..., 3, 3], inner + flip, rho[..., 0, 0], inner - flip], axis=-1)


def _bell_pattern(rho: np.ndarray, ordering: Ordering) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b) read in the arrangement `ordering`, and whether each matrix fits the X pattern there."""
    perm = list(_ORDERING_PERM[ordering])
    rho = rho[..., perm, :][..., perm]
    diag = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    a = 0.5 * (diag[..., 1] + diag[..., 2])
    outer = 0.5 * (diag[..., 0] + diag[..., 3])
    b = rho[..., 1, 2]
    pattern = np.zeros(rho.shape, dtype=complex)
    pattern[..., 0, 0] = pattern[..., 3, 3] = outer
    pattern[..., 1, 1] = pattern[..., 2, 2] = a
    pattern[..., 1, 2] = b
    pattern[..., 2, 1] = np.conj(b)
    fits = (np.abs(rho - pattern).max(axis=(-2, -1)) <= PATTERN_TOL) & (np.abs(outer - (0.5 - a)) <= PATTERN_TOL)
    return a, b, fits


def bell_ordering(state: TwoQubitState | np.ndarray) -> Ordering:
    """The arrangement in which a state, or a stack's first matrix, fits the X pattern: PSI, then PHI, else PSI."""
    first = _rho(state).reshape(-1, 4, 4)[:1]
    return next((o for o in (Ordering.PSI, Ordering.PHI) if _bell_pattern(first, o)[2].all()), Ordering.PSI)


def bell_diagonal_params(
    state: TwoQubitState | np.ndarray, ordering: Ordering | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the Bell-diagonal X pattern, nan (both parts of b) where a state is not of that form.

    The pattern is checked in the basis arrangement `ordering`, by default
    `bell_ordering` of the state, or of the first matrix of a stack.
    Not-of-form is a value, not an error.  One state gives numpy scalars,
    a (..., 4, 4) stack arrays over its leading axes.
    """
    rho = _rho(state)
    a, b, fits = _bell_pattern(rho, bell_ordering(rho) if ordering is None else ordering)
    return np.where(fits, a, np.nan)[()], np.where(fits, b, complex(np.nan, np.nan))[()]


# ---------------------------------------------------------------------------
# raw-state I/O (16 complex entries, row-major)
# ---------------------------------------------------------------------------


def raw_state_from_json(text: str) -> TwoQubitState:
    """Parse a JSON array of exactly 4 rows of 4 [re, im] number pairs."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InvalidParameterError(f"malformed raw-state JSON: {exc}") from exc

    def is_number(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)   # JSON true/false load as bool, an int

    def is_list_of(value, size: int, item_ok) -> bool:
        return isinstance(value, list) and len(value) == size and all(map(item_ok, value))

    if not is_list_of(data, 4, lambda row: is_list_of(row, 4, lambda pair: is_list_of(pair, 2, is_number))):
        raise InvalidParameterError("malformed raw-state JSON: expected 4 rows of 4 [re, im] number pairs")
    return make_state(Raw(np.array([[complex(re, im) for re, im in row] for row in data])))


def raw_state_from_csv(text: str) -> TwoQubitState:
    """Parse CSV (re, im) pairs, 16 entries row-major (any row grouping)."""
    values: list[float] = []
    try:
        for row in csv.reader(io.StringIO(text)):
            values.extend(float(cell) for cell in row if cell.strip() != "")
    except ValueError as exc:
        raise InvalidParameterError(f"malformed raw-state CSV: {exc}") from exc
    if len(values) != 32:
        raise InvalidParameterError(f"raw-state CSV must hold 32 numbers (16 re/im pairs), got {len(values)}")
    flat = np.asarray(values).reshape(16, 2)
    rho = (flat[:, 0] + 1j * flat[:, 1]).reshape(4, 4)
    return make_state(Raw(rho))


def load_raw_state(path: str | Path) -> TwoQubitState:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read raw-state file {str(path)!r}: {exc.strerror}") from exc
    if path.suffix.lower() == ".json":
        return raw_state_from_json(text)
    return raw_state_from_csv(text)
