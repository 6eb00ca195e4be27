"""Closed-form plane-wave linear stability and split-step mode growth.

Perturbing a wave train a*exp(i(kx - omega t)) by a relative disturbance
at integer wavenumber xi couples the pair (eps_hat_xi, conj(eps_hat_-xi))
through a 2x2 constant matrix.  Its eigenvalues decide modulational
stability; the sufficient stability threshold is |a| <= sqrt(2)/2.

All closed forms are evaluated in extended precision internally so that
they can be compared against a direct numeric eigensolve at tight
absolute tolerances even when the eigenvalues are O(10^4).
"""

from __future__ import annotations

import numpy as np

from .spectral import _check_positive

__all__ = [
    "gn_matrix",
    "gn_eigenvalues",
    "two_by_two_eigenvalues",
    "stability_threshold_scan",
    "split_step_mode_growth",
]


def gn_matrix(a: float, k: int, xi: int, dtype=np.complex128) -> np.ndarray:
    """2x2 coefficient matrix of the pair at carrier a e^{ikx}, perturbation mode xi.

    Accepts a complex dtype so callers can build the matrix in extended
    precision for high-accuracy eigenvalue cross-checks.
    """
    real_type = np.zeros(1, dtype=dtype).real.dtype.type
    a2 = real_type(a) ** 2
    xi = real_type(xi)
    k = real_type(k)
    xi2 = xi * xi
    m = np.array(
        [
            [-2 * k * xi - xi2 - a2 + a2 * xi2, -a2 + a2 * xi2],
            [a2 - a2 * xi2, -2 * k * xi + xi2 + a2 - a2 * xi2],
        ],
        dtype=dtype,
    )
    return 1j * m


def _discriminant(a, xi: int):
    """2 a^2 xi^2 - 2 a^2 - xi^2, the closed form's radicand, elementwise in a.

    Raises ValueError for an amplitude that is negative, NaN or infinite,
    and for a xi whose square is beyond long double range.
    """
    a = np.asarray(a, dtype=np.float64)
    bad = ~((0 <= a) & (a < np.inf))
    if bad.any():
        raise ValueError(f"carrier amplitude must be finite and >= 0, got {a[bad][0]}")
    with np.errstate(over="ignore"):
        xi2 = np.longdouble(xi) ** 2
    if not np.isfinite(xi2):
        raise ValueError(f"xi^2 overflows a long double: xi has {len(str(abs(xi)))} digits")
    a2 = a.astype(np.longdouble) ** 2
    return 2 * a2 * xi2 - 2 * a2 - xi2


def gn_eigenvalues(a, k: int, xi: int):
    """Closed-form eigenvalues -2ik*xi +/- |xi| sqrt(2a^2 xi^2 - 2a^2 - xi^2).

    Elementwise over the amplitude ``a``: returns (lambda_plus,
    lambda_minus) as complex128 arrays of its shape, or numpy scalars for a
    scalar.  The radicand is evaluated in extended precision before the
    principal square root is taken, and only the result is rounded.
    lambda_plus has the larger real part, and it is positive (the mode is
    unstable) exactly when the radicand is.
    """
    root = np.sqrt(_discriminant(a, xi).astype(np.clongdouble))
    xi_abs = np.longdouble(abs(xi))
    doppler = np.clongdouble(-2j) * np.longdouble(k) * np.longdouble(xi)
    # [()] turns 0-d results into numpy scalars and leaves arrays as they are
    return ((doppler + xi_abs * root).astype(np.complex128)[()],
            (doppler - xi_abs * root).astype(np.complex128)[()])


def two_by_two_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Direct eigensolve of a 2x2 matrix via the quadratic formula.

    Uses the balanced discriminant ((m00 - m11)/2)^2 + m01*m10 and
    preserves the input dtype, so it can serve as an extended-precision
    oracle for closed-form eigenvalues.
    """
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    half_trace = (m[0, 0] + m[1, 1]) / 2
    disc = np.sqrt(((m[0, 0] - m[1, 1]) / 2) ** 2 + m[0, 1] * m[1, 0])
    return np.array([half_trace + disc, half_trace - disc], dtype=m.dtype)


def stability_threshold_scan(a_grid, xi_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Modewise instability verdict over xi = 1..xi_max for each amplitude.

    The radicand (2a^2 - 1) xi^2 - 2a^2 is negative for every xi when
    2a^2 <= 1; above that it and the growth rate |xi| sqrt(radicand) increase
    strictly with xi.  So Re lambda_plus at xi_max decides every mode, and
    xi_max is the most unstable mode whenever one is unstable.  Returns the
    arrays (unstable, growth_rate): growth_rate is that Re lambda_plus (inf
    if it overflows a float64), 0.0 where stable.  The scan takes no carrier
    wavenumber: k only Doppler-shifts Im(lambda), so no verdict depends on it.
    """
    if xi_max < 1:
        raise ValueError(f"xi_max must be >= 1, got {xi_max}")
    rate = gn_eigenvalues(a_grid, 0, xi_max)[0].real
    return rate > 0, rate


def split_step_mode_growth(w_amplitude, tau: float, k):
    """Per-step multipliers 1 +/- tau k^2 sqrt(2|w|^2 - 1) of a frozen mode.

    Returns (plus, minus): a real pair, growing exponentially, when
    2|w|^2 > 1; a complex conjugate pair on the stable side.  ``w_amplitude``
    and ``k`` broadcast against each other as numpy arrays do, and the pair
    is complex128 arrays of the broadcast shape, or numpy scalars for scalar
    inputs.  Each element is computed with the operations of the scalar
    formula in their order (the product with the root is a complex
    multiply), so it equals the call for that (w, k) alone bit for bit,
    signed zeros and the inf/nan of an overflow included.
    """
    _check_positive("tau", tau)
    w = np.asarray(w_amplitude, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    radicand = 2.0 * w * w - 1.0
    root = np.sqrt(radicand.astype(np.complex128))
    shift = (tau * (k * k)) * root
    # [()] turns 0-d results into numpy scalars and leaves arrays as they are
    return (1.0 + shift)[()], (1.0 - shift)[()]
