"""Conserved quantities, error norms, and order fitting."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from qlsplit import (
    Gaussian,
    GridSpec,
    ModelSpec,
    build_initial_condition,
    energy,
    error_norms,
    fit_order,
    h1_seminorm,
    l2_norm,
    mass,
)

from conftest import random_field, spectral_derivative, spectrum


class TestMass:
    def test_zero(self, grid):
        assert mass(np.zeros(grid.n_points)) == 0.0

    def test_unit_plane_wave(self, grid):
        f = np.exp(3j * grid.nodes)
        assert mass(f) == pytest.approx(2 * np.pi, rel=1e-13)

    def test_gaussian_against_quadrature(self):
        from scipy.integrate import quad

        a, sigma = 0.2, 0.2
        g = GridSpec(256)
        f = build_initial_condition(Gaussian(a, sigma), g)
        oracle, _ = quad(lambda x: a**2 * np.exp(-(x**2) / sigma**2), -np.pi, np.pi)
        assert mass(f) == pytest.approx(oracle, abs=1e-7)
        assert mass(f) == pytest.approx(0.0141796, abs=1e-7)

    def test_mass_equals_l2_squared(self, grid):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(grid.n_points) * (1 + 0.5j)
        # one Parseval sum: the L2 norm is the root of the mass, bit for bit
        assert l2_norm(f) == np.sqrt(mass(f))


PSEUDO = ModelSpec.pseudo_attractive()


class TestEnergy:
    def test_zero(self, grid):
        assert energy(np.zeros(grid.n_points), PSEUDO) == 0.0

    @pytest.mark.parametrize("a,k", [(1.0, 1), (0.5, 3), (1.2, -2)])
    def test_plane_wave_closed_form(self, a, k):
        # pi a^2 k^2 + (pi/2) a^4; the quasilinear term vanishes
        g = GridSpec(64)
        f = a * np.exp(1j * k * g.nodes)
        expected = np.pi * a**2 * k**2 + 0.5 * np.pi * a**4
        assert energy(f, PSEUDO) == pytest.approx(expected, abs=1e-10)

    def test_unit_plane_wave_value(self, grid):
        f = np.exp(1j * grid.nodes)
        assert energy(f, PSEUDO) == pytest.approx(np.pi + np.pi / 2, abs=1e-10)

    def test_steep_gradient_drives_energy_negative(self):
        # the quasilinear term enters with a minus sign for the
        # pseudo-attractive model
        g = GridSpec(512)
        f = build_initial_condition(Gaussian(1.3, 0.05), g)
        assert energy(f, PSEUDO) < 0.0

    def test_thin_film_energy_positive_for_same_data(self):
        g = GridSpec(512)
        f = build_initial_condition(Gaussian(1.3, 0.05), g)
        assert energy(f, ModelSpec.thin_film()) > 0.0

    def test_cubic_model_drops_quasilinear_term(self, grid):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(grid.n_points).astype(complex)
        e_cubic = energy(f, ModelSpec.cubic_nls())
        ux = spectral_derivative(f, 1)
        w = 2 * np.pi / grid.n_points
        s = np.abs(f) ** 2
        expected = 0.5 * w * np.sum(np.abs(ux) ** 2) + 0.25 * w * np.sum(s**2)
        assert e_cubic == pytest.approx(expected, rel=1e-12)


def coefficient_mass(f):
    """The coefficient spelling of the mass: 2*pi*sum_k |u_hat_k|^2."""
    c = spectrum(f)
    return float(2.0 * np.pi * np.sum(c.real**2 + c.imag**2))


def derivative_energy(f, model):
    """The energy from spectral derivatives on the nodes, trapezoidal sums."""
    w = 2.0 * np.pi / len(f)
    ux = spectral_derivative(f, 1)
    s = f.real**2 + f.imag**2
    e = 0.5 * w * float(np.sum(ux.real**2 + ux.imag**2))
    e += 0.5 * w * float(np.sum(P.polyval(s, P.polyint(model.f_coeffs))))
    if model.quasilinear_sign != 0:
        gx = spectral_derivative(P.polyval(s, model.g_coeffs), 1).real
        e -= model.quasilinear_sign * 0.25 * w * float(np.sum(gx**2))
    return e


class TestParsevalMatchesDerivatives:
    """The Parseval sums of the raw FFT against the coefficient and
    spectral-derivative spellings, to roundoff of the field's size."""

    MODELS = (PSEUDO, ModelSpec.thin_film(), ModelSpec.cubic_nls(),
              ModelSpec(f_coeffs=(0.0, 1.0, 0.5), g_coeffs=(0.0, 1.0, 0.3)))

    @pytest.mark.parametrize("kind", ["rough", "plane-wave", "zero", "nyquist"])
    @pytest.mark.parametrize("n", [64, 256, 4096])
    def test_within_roundoff(self, n, kind):
        g = GridSpec(n)
        f = {
            "rough": random_field(g, np.random.default_rng(n), scale=0.5),
            "plane-wave": 0.8 * np.exp(5j * g.nodes),
            "zero": np.zeros(n),
            "nyquist": 0.6 * np.exp(-0.5j * n * g.nodes),
        }[kind]
        old_mass = coefficient_mass(f)
        pairs = [
            (mass(f), old_mass),
            (l2_norm(f), np.sqrt(old_mass)),
            (h1_seminorm(f), np.sqrt(coefficient_mass(spectral_derivative(f, 1)))),
            *((energy(f, m), derivative_energy(f, m)) for m in self.MODELS),
        ]
        for new, old in pairs:
            assert abs(new - old) <= 1e-14 * max(abs(old), old_mass)


class TestErrorNorms:
    def test_identical_fields(self, grid):
        f = np.exp(1j * grid.nodes)
        assert error_norms(f, f) == (0.0, 0.0)

    def test_single_mode_difference(self, grid):
        base = np.exp(1j * grid.nodes)
        shifted = base + 1e-3 * np.exp(5j * grid.nodes)
        err_l2, err_h1 = error_norms(shifted, base)
        assert err_l2 == pytest.approx(1e-3 * np.sqrt(2 * np.pi), rel=1e-12)
        assert err_h1 == pytest.approx(5e-3 * np.sqrt(2 * np.pi), rel=1e-12)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid mismatch"):
            error_norms(np.zeros(64), np.zeros(128))


class TestFitOrder:
    def test_exact_quadratic_decay(self):
        t_final = 1.0
        taus = t_final / np.array([100, 200, 400, 800], dtype=float)
        o2, o1 = fit_order(taus, 3.0 * taus**2, 7.0 * taus**2)
        assert o2 == pytest.approx(2.0, abs=1e-12)
        assert o1 == pytest.approx(2.0, abs=1e-12)

    def test_published_coarse_regime_l2_column(self):
        # second-order decay of the L2 errors in the smooth benchmark regime
        t_final = np.pi / 4
        errs = [1.6973e-06, 4.2241e-07, 1.0545e-07, 2.6323e-08, 6.5487e-09]
        taus = t_final / np.array([500, 1000, 2000, 4000, 8000], dtype=float)
        o2, _ = fit_order(taus, errs, errs)
        assert o2 == pytest.approx(2.0, abs=0.1)

    def test_published_stiff_regime_h1_column(self):
        # stiff-regime ladder is pre-asymptotic in its first rows
        t_final = np.pi / 4
        errs = [1.2775e-01, 5.1125e-02, 1.5832e-02, 4.1212e-03, 9.6345e-04]
        taus = t_final / np.array([20000, 40000, 80000, 160000, 320000], dtype=float)
        _, o1 = fit_order(taus, errs, errs)
        assert 1.7 <= o1 <= 2.1

    def test_requires_three_rows(self):
        # every tau needs its two errors: unequal lengths are rejected too
        for taus, err_l2, err_h1 in [
            ([0.1, 0.05], [1e-3, 2.5e-4], [1e-2, 2.5e-3]),
            ([0.1, 0.05, 0.025], [1e-3, 2.5e-4], [1e-2, 2.5e-3, 6e-4]),
        ]:
            with pytest.raises(ValueError, match="3 points"):
                fit_order(taus, err_l2, err_h1)

    def test_rows_must_increase(self):
        # n_steps increasing is tau decreasing; a repeated tau fails too, and
        # so does a step that is not finite and positive
        for taus in ([0.05, 0.1, 0.025], [0.1, 0.05, 0.05], [np.inf, 1.0, 0.5],
                     [-1.0, -2.0, -3.0], [0.1, 0.0, -0.1]):
            with pytest.raises(ValueError, match="step sizes"):
                fit_order(taus, [1e-3, 1e-4, 1e-5], [1e-3, 1e-4, 1e-5])

    def test_errors_must_be_positive(self):
        for err_l2, err_h1 in [([1e-3, 0.0, 1e-5], [1e-3, 1e-4, 1e-5]),
                               ([1e-3, 1e-4, 1e-5], [1e-3, np.nan, 1e-5]),
                               ([1e-2, 2.5e-3, np.inf], [1e-3, 1e-4, 1e-5]),
                               ([1e-3, 1e-4, 1e-5], [1e-3, 1e-4, -np.inf])]:
            with pytest.raises(ValueError, match="positive"):
                fit_order([0.1, 0.05, 0.025], err_l2, err_h1)
