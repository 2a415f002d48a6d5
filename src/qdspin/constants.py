"""Physical constants and quantum-dot parameters.

Unit system used throughout the package: energies in micro-eV, times in
nanoseconds, magnetic fields in Tesla.  All dynamical phases are computed
as (energy / hbar) * time with hbar in ueV*ns.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

HBAR_UEV_NS = 0.6582119569       # reduced Planck constant, ueV * ns
MU_B_UEV_PER_T = 57.883818       # Bohr magneton, ueV / T
G_FACTOR_GAAS = 0.44             # |g| of the conduction electron in GaAs


class QdspinError(Exception):
    """Base class for package errors."""


class InvalidParameterError(QdspinError, ValueError):
    """A physical parameter or state specification is out of range."""


class ValidityWindowError(QdspinError, ValueError):
    """Requested evolution time exceeds the box-model validity window."""


class NumericalDomainError(QdspinError, ArithmeticError):
    """A numerical input left the mathematically allowed domain."""


def _is_real(value) -> bool:
    """An int or float, not a bool, inside the finite float range."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class DotParameters:
    """Uniform-coupling (box model) parameters of a single dot plus applied field.

    a_total   total hyperfine energy A of the dot, ueV
    n_nuclei  number of nuclei coupled to the electron
    i_nuclear nuclear spin quantum number (3/2 for all GaAs isotopes)
    b_field   magnetic field along z, Tesla
    g_factor  |g| of the electron: only the magnitude enters bath-averaged
              observables, because the polarization distribution is symmetric

    The per-nucleus coupling is alpha = A / N.  The bath polarization at
    infinite temperature has variance sigma_m^2 = N * I(I+1) / 3.
    """

    a_total: float = 83.0
    n_nuclei: float = 1.5e6
    i_nuclear: float = 1.5
    b_field: float = 0.0
    g_factor: float = G_FACTOR_GAAS

    def __post_init__(self) -> None:
        for name in ("a_total", "n_nuclei", "i_nuclear", "b_field", "g_factor"):
            if not _is_real(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not self.a_total > 0.0:
            raise InvalidParameterError(f"a_total must be positive, got {self.a_total}")
        if not self.n_nuclei >= 1.0:
            raise InvalidParameterError(f"n_nuclei must be >= 1, got {self.n_nuclei}")
        two_i = 2.0 * self.i_nuclear
        # an I whose 2I overflows fails before `round`, which cannot take it
        if not (self.i_nuclear > 0.0 and math.isfinite(two_i)) or abs(two_i - round(two_i)) > 1e-9:
            raise InvalidParameterError(
                f"i_nuclear must be a positive half-integer, got {self.i_nuclear}"
            )
        if not math.isfinite(self.n_nuclei * self.i_nuclear * (self.i_nuclear + 1.0) / 3.0):
            raise InvalidParameterError(f"n_nuclei={self.n_nuclei:g} and i_nuclear={self.i_nuclear:g} give "
                                        "a bath polarization variance N*I(I+1)/3 that overflows")
        if not self.g_factor > 0.0:
            raise InvalidParameterError(f"g_factor must be positive, got {self.g_factor}")
        half_splitting = 0.5 * self.zeeman_energy
        if not math.isfinite(half_splitting * half_splitting):  # the block energies square it
            raise InvalidParameterError(
                f"b_field={self.b_field} T gives a Zeeman half-splitting whose square overflows "
                f"(g_factor={self.g_factor})"
            )

    @property
    def alpha(self) -> float:
        """Per-nucleus hyperfine coupling A/N, ueV."""
        return self.a_total / self.n_nuclei

    @property
    def sigma_m(self) -> float:
        """Std deviation of the net nuclear polarization at infinite temperature."""
        return math.sqrt(self.n_nuclei * self.i_nuclear * (self.i_nuclear + 1.0) / 3.0)

    @property
    def zeeman_energy(self) -> float:
        """Electron Zeeman splitting |g| mu_B B, ueV (sign follows b_field)."""
        return self.g_factor * MU_B_UEV_PER_T * self.b_field

    @property
    def validity_window_ns(self) -> float:
        """Upper time limit of the uniform-coupling approximation, hbar*N/A.

        This is an order-of-magnitude bound; callers allow a small grace
        factor on top of it.
        """
        return HBAR_UEV_NS * self.n_nuclei / self.a_total

    @property
    def dephasing_time_ns(self) -> float:
        """Gaussian free-induction dephasing time sqrt(6/(I(I+1))) sqrt(N) hbar / A."""
        ii1 = self.i_nuclear * (self.i_nuclear + 1.0)
        return math.sqrt(6.0 / ii1) * math.sqrt(self.n_nuclei) * HBAR_UEV_NS / self.a_total
