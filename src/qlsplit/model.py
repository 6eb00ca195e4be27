"""PDE family definition, exact solutions, initial data.

The equation family is

    i u_t = -u_xx + u f(|u|^2) + sign * u g'(|u|^2) (g(|u|^2))_xx

with polynomial f and g.  ``sign = +1`` selects the pseudo-attractive
superfluid thin-film model, ``-1`` the superfluid thin-film model and
``0`` the plain cubic equation (quasilinear term switched off).  The
quasilinear term vanishes at constant modulus, so a wave train a e^{ikx}
has the frequency k^2 + f(a^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import GridSpec

__all__ = [
    "ModelSpec",
    "Perturbation",
    "Gaussian",
    "MultiMode",
    "InitialCondition",
    "exact_plane_wave",
    "build_initial_condition",
]

@dataclass(frozen=True)
class ModelSpec:
    """Nonlinearity selection for the quasilinear Schrodinger family.

    ``f_coeffs`` and ``g_coeffs`` are polynomial coefficients in s = |u|^2,
    ascending order, each nonempty and finite.  The model derives f, g,
    g' and F = integral of f once, as read-only arrays ``_f``, ``_g``,
    ``_gprime`` and ``_F`` in the descending order of ``np.polyval``.
    """

    f_coeffs: tuple[float, ...] = (0.0, 1.0)
    g_coeffs: tuple[float, ...] = (0.0, 1.0)
    quasilinear_sign: int = +1

    def __post_init__(self) -> None:
        if self.quasilinear_sign not in (-1, 0, 1):
            raise ValueError(
                f"quasilinear_sign must be -1, 0 or +1, got {self.quasilinear_sign}"
            )
        for name in ("f_coeffs", "g_coeffs"):
            coeffs = tuple(float(c) for c in getattr(self, name))
            if not (coeffs and np.isfinite(coeffs).all()):
                raise ValueError(f"{name} must be nonempty and finite, got {coeffs}")
            object.__setattr__(self, name, coeffs)
        f, g = np.array(self.f_coeffs[::-1]), np.array(self.g_coeffs[::-1])
        for name, p in (("_f", f), ("_g", g), ("_gprime", np.polyder(g)), ("_F", np.polyint(f))):
            p.setflags(write=False)
            object.__setattr__(self, name, p)

    @classmethod
    def pseudo_attractive(cls) -> "ModelSpec":
        """f(s) = s, g(s) = s, sign +1 (the model driving the blow-up study)."""
        return cls(quasilinear_sign=+1)

    @classmethod
    def thin_film(cls) -> "ModelSpec":
        """f(s) = s, g(s) = s, sign -1 (superfluid thin-film equation)."""
        return cls(quasilinear_sign=-1)

    @classmethod
    def cubic_nls(cls) -> "ModelSpec":
        """f(s) = s with the quasilinear term switched off."""
        return cls(quasilinear_sign=0)


@dataclass(frozen=True)
class Perturbation:
    """Seed of mode m and amplitude eps: ``build_initial_condition`` adds eps e^{imx}, and
    ``planewave_deviation`` reads it as the modulus seed (a + eps cos((m - k) x)) e^{ikx}."""

    mode: int
    amplitude: float = 1e-10


@dataclass(frozen=True)
class Gaussian:
    """u(0, x) = a * exp(-x^2 / (2 sigma^2))."""

    amplitude: float
    width: float
    perturbation: Perturbation | None = None

    def __post_init__(self) -> None:
        w = float(self.width)  # the sample divides by 2 w^2, which must not overflow or be 0
        if not (w > 0 and 0 < 2.0 * w * w < np.inf):
            raise ValueError("Gaussian width must be finite and positive, and 2 width^2 "
                             f"a positive finite float, got {self.width}")


@dataclass(frozen=True)
class MultiMode:
    """u(0, x) = a * sum_j exp(i k_j x) with 0 <= k_1 < ... < k_j."""

    amplitude: float
    wavenumbers: tuple[int, ...]
    perturbation: Perturbation | None = None

    def __post_init__(self) -> None:
        ks = tuple(self.wavenumbers)
        if len(ks) == 0:
            raise ValueError("MultiMode requires at least one wavenumber")
        # int(k) runs only on a finite k, so inf and NaN fail as ValueError
        if not all(0 <= k < np.inf and k == int(k) for k in ks) or list(ks) != sorted(set(ks)):
            raise ValueError(
                f"MultiMode wavenumbers must be distinct, nonnegative and "
                f"ascending integers, got {ks}"
            )
        object.__setattr__(self, "wavenumbers", tuple(map(int, ks)))


InitialCondition = Gaussian | MultiMode


def _check_mode(k: int, grid: GridSpec, what: str) -> None:
    if not (abs(k) < grid.n_points // 2 and k == int(k)):
        raise ValueError(
            f"{what} {k} is not representable on a grid with "
            f"{grid.n_points} points (need an integer |k| < N/2)"
        )


def exact_plane_wave(a: float, k: int, t: float, grid: GridSpec,
                     model: ModelSpec = ModelSpec()) -> np.ndarray:
    """Wave train a*exp(i(kx - omega t)) of the model, omega = k^2 + f(a^2)."""
    _check_mode(k, grid, "plane-wave wavenumber")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite phase raises below
        phase = (k * k + np.polyval(model._f, a * a)) * t
    if not np.isfinite(phase):
        raise ValueError(f"plane-wave phase (k^2 + f(a^2)) t is not finite at a = {a}, t = {t}")
    return a * np.exp(1j * (k * grid.nodes - phase))


def build_initial_condition(ic: InitialCondition, grid: GridSpec) -> np.ndarray:
    """Sample an initial-condition description onto the grid's nodes."""
    x = grid.nodes
    if isinstance(ic, Gaussian):
        with np.errstate(over="ignore"):  # a subnormal 2 width^2 sends x^2 / (2 width^2) to inf
            u = ic.amplitude * np.exp(-(x**2) / (2.0 * ic.width**2)).astype(complex)
    elif isinstance(ic, MultiMode):
        u = ic.amplitude * np.sum([exact_plane_wave(1.0, k, 0.0, grid)
                                   for k in ic.wavenumbers], axis=0)
    else:
        raise TypeError(f"unknown initial condition type {type(ic).__name__}")
    if ic.perturbation is not None:
        _check_mode(ic.perturbation.mode, grid, "perturbation mode")
        u = u + ic.perturbation.amplitude * exact_plane_wave(1.0, ic.perturbation.mode, 0.0, grid)
    return u
