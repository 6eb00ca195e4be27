"""Periodic grid, Fourier transform conventions, spectral operators and norms.

Everything in this module works on the domain (-pi, pi] with N equispaced
nodes.  Fourier coefficients follow the Fourier-series convention: the
forward transform carries the 1/N factor, so a plane wave exp(i*k*x) has
coefficient exactly 1 at wavenumber k.  Coefficient arrays are stored in
FFT order, aligned with ``GridSpec.wavenumbers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "Field",
    "spectral_derivative",
    "l2_norm",
    "h1_seminorm",
]


@dataclass(frozen=True)
class GridSpec:
    """Equispaced periodic grid on (-pi, pi] with integer wavenumbers.

    Parameters
    ----------
    n_points : int
        Number of nodes N.  Must be even and >= 8.  Nodes sit at
        x_j = -pi + 2*pi*j/N for j = 0..N-1; wavenumbers are the
        integers {-N/2, ..., N/2 - 1} in FFT order.
    """

    n_points: int

    def __post_init__(self) -> None:
        n = self.n_points
        if not isinstance(n, (int, np.integer)):
            raise TypeError(f"n_points must be an integer, got {type(n).__name__}")
        if n < 8 or n % 2 != 0:
            raise ValueError(f"n_points must be even and >= 8, got {n}")

    @cached_property
    def nodes(self) -> np.ndarray:
        x = -np.pi + 2.0 * np.pi * np.arange(self.n_points) / self.n_points
        x.setflags(write=False)
        return x

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers in FFT order: 0, 1, ..., N/2-1, -N/2, ..., -1."""
        k = np.fft.fftfreq(self.n_points, d=1.0 / self.n_points).astype(np.int64)
        k.setflags(write=False)
        return k

    @cached_property
    def _k_float(self) -> np.ndarray:
        k = self.wavenumbers.astype(np.float64)
        k.setflags(write=False)
        return k

    @cached_property
    def _k_squared(self) -> np.ndarray:
        k2 = self._k_float**2
        k2.setflags(write=False)
        return k2

    @cached_property
    def _k_first_derivative(self) -> np.ndarray:
        """1j*k multiplier with the unpaired Nyquist mode -N/2 zeroed."""
        k = self._k_float.copy()
        k[self.n_points // 2] = 0.0
        mult = 1j * k
        mult.setflags(write=False)
        return mult

    @cached_property
    def _coeff_phase(self) -> np.ndarray:
        """(-1)**k factors translating raw FFT output (origin at x=0) to x=-pi."""
        phase = np.where(self.wavenumbers % 2 == 0, 1.0, -1.0)
        phase.setflags(write=False)
        return phase

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n_points

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"GridSpec(n_points={self.n_points})"


@dataclass(frozen=True, eq=False)
class Field:
    """Complex-valued state on a grid; immutable, with a spectral view."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {v.shape} does not match grid with "
                f"{self.grid.n_points} points"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def spectrum(self) -> np.ndarray:
        """Forward DFT: u_hat_k = (1/N) sum_j u_j exp(-i k x_j).

        Computed on each call; the array is in FFT order (read-only),
        aligned with ``grid.wavenumbers``.
        """
        coeffs = self.grid._coeff_phase * np.fft.fft(self.values) / self.grid.n_points
        coeffs.setflags(write=False)
        return coeffs


def spectral_derivative(f: Field, order: int) -> Field:
    """Differentiate by scaling mode k with (i*k)**order.

    Only orders 1 and 2 are supported.  The unpaired Nyquist mode -N/2 is
    zeroed for order 1 and kept (factor -N^2/4) for order 2.
    """
    if order == 1:
        mult = f.grid._k_first_derivative
    elif order == 2:
        mult = -f.grid._k_squared
    else:
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    # (-1)**k phases cancel for diagonal multipliers, so work on raw FFTs.
    values = np.fft.ifft(mult * np.fft.fft(f.values))
    return Field(f.grid, values)


def mollifier_cutoff(eps: float) -> int:
    """Highest retained wavenumber of the frequency cutoff: floor(1/eps)."""
    if eps <= 0:
        raise ValueError(f"mollifier eps must be positive, got {eps}")
    return int(np.floor(1.0 / eps))


def _filter_weights(
    grid: GridSpec, mollify_eps: float | None, dealias: bool
) -> np.ndarray | None:
    """0/1 spectral weights: the cutoff |k| <= floor(1/eps) times the 2/3 mask.

    The 2/3 rule keeps |k| <= floor(N/3).  None when no mode is removed.
    """
    kabs = np.abs(grid._k_float)
    keep = np.ones(grid.n_points, dtype=bool)
    if mollify_eps is not None:
        keep &= kabs <= mollifier_cutoff(mollify_eps)
    if dealias:
        keep &= kabs <= grid.n_points // 3
    return None if keep.all() else keep.astype(np.float64)


def l2_norm(f: Field) -> float:
    """Continuum L2(-pi, pi] norm via Parseval: sqrt(2*pi*sum_k |u_hat_k|^2)."""
    c = f.spectrum
    return float(np.sqrt(2.0 * np.pi * np.sum(c.real**2 + c.imag**2)))


def h1_seminorm(f: Field) -> float:
    """L2 norm of the first spatial derivative."""
    return l2_norm(spectral_derivative(f, 1))
