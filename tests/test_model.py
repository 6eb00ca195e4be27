"""Model family, potential evaluation, exact solutions, initial data."""

import numpy as np
import pytest

from qlsplit import (
    Field,
    Gaussian,
    GridSpec,
    ModelSpec,
    MultiMode,
    Perturbation,
    PlaneWave,
    StepperConfig,
    build_initial_condition,
    exact_plane_wave,
    l2_norm,
    run_simulation,
    spectral_derivative,
)
from qlsplit.model import _potential


def potential(model, f):
    """The model potential of the field f, as the step's kick evaluates it."""
    return _potential(model, f.values.real**2 + f.values.imag**2, -f.grid._k_squared)


def pde_residual(model, a, k, grid):
    """L2 residual of the wave train inserted into the discretized equation.

    For the exact dispersion relation omega = k^2 + a^2 the residual is
    roundoff-level: a cross-check of the potential and the dispersion
    convention.
    """
    u = exact_plane_wave(a, k, 0.0, grid)
    omega = k * k + a * a
    rhs = -spectral_derivative(u, 2).values + potential(model, u) * u.values
    return l2_norm(Field(grid, rhs - omega * u.values))


def initial_min_ellipticity(ic, grid):
    """SimulationRecord.min_ellipticity of the t = 0 record of a run from ic."""
    cfg = StepperConfig(tau=1e-3)
    rec = run_simulation(ModelSpec.pseudo_attractive(), ic, grid, cfg, 1e-3)
    return rec.min_ellipticity[0]


class TestModelSpec:
    def test_presets(self):
        assert ModelSpec.pseudo_attractive().quasilinear_sign == 1
        assert ModelSpec.thin_film().quasilinear_sign == -1
        assert ModelSpec.cubic_nls().quasilinear_sign == 0

    def test_gprime_derived_exactly(self):
        m = ModelSpec(g_coeffs=(1.0, 0.0, 3.0, 2.0))  # 1 + 3 s^2 + 2 s^3
        assert m.gprime_coeffs == (0.0, 6.0, 6.0)
        assert ModelSpec(g_coeffs=(2.0,)).gprime_coeffs == (0.0,)
        # g' is derived from g, never given
        with pytest.raises(TypeError):
            ModelSpec(gprime_coeffs=(1.0,))

    @pytest.mark.parametrize("sign", [2, -3, 5])
    def test_sign_validated(self, sign):
        with pytest.raises(ValueError):
            ModelSpec(quasilinear_sign=sign)


class TestPotentialField:
    def test_zero_field(self, grid):
        v = potential(ModelSpec.pseudo_attractive(), Field(grid, np.zeros(grid.n_points)))
        assert np.all(v == 0)

    @pytest.mark.parametrize(
        "model", [ModelSpec.pseudo_attractive(), ModelSpec.thin_film(), ModelSpec.cubic_nls()]
    )
    def test_constant_modulus_gives_f_of_a_squared(self, grid, model):
        a = 0.8
        f = Field(grid, a * np.exp(5j * grid.nodes))
        v = potential(model, f)
        assert np.allclose(v, a**2, atol=1e-12)

    def test_modulated_profile_against_symbolic_expansion(self, grid):
        # |1 + 0.1 cos x|^2 = 1.005 + 0.2 cos x + 0.005 cos 2x, so
        # V = s + s'' = 1.005 - 0.015 cos 2x and V(0) = 0.99
        u = (1.0 + 0.1 * np.cos(grid.nodes)).astype(complex)
        v = potential(ModelSpec.pseudo_attractive(), Field(grid, u))
        expected = 1.005 - 0.015 * np.cos(2 * grid.nodes)
        assert np.allclose(v, expected, atol=1e-12)
        x0 = np.argmin(np.abs(grid.nodes))
        assert v[x0] == pytest.approx(0.99, abs=1e-12)

    def test_real_output(self, grid):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        v = potential(ModelSpec.pseudo_attractive(), Field(grid, u))
        assert v.dtype == np.float64


class TestExactPlaneWave:
    def test_initial_time(self, grid):
        f = exact_plane_wave(0.5, 3, 0.0, grid)
        assert np.allclose(f.values, 0.5 * np.exp(3j * grid.nodes), atol=1e-14)

    def test_dispersion_relation(self, grid):
        # omega = k^2 + a^2: at a=1, k=1 the phase advances by omega*t = 2t
        t = 0.25
        f = exact_plane_wave(1.0, 1, t, grid)
        expected = np.exp(1j * (grid.nodes - 2.0 * t))
        assert np.allclose(f.values, expected, atol=1e-14)

    @pytest.mark.parametrize("a,k", [(0.3, 1), (0.7, 3), (1.1, -5), (0.5, 15)])
    def test_discrete_pde_residual(self, a, k):
        grid = GridSpec(64)
        res = pde_residual(ModelSpec.pseudo_attractive(), a, k, grid)
        assert res < 1e-10

    def test_residual_other_models(self):
        grid = GridSpec(64)
        assert pde_residual(ModelSpec.thin_film(), 0.6, 2, grid) < 1e-10
        assert pde_residual(ModelSpec.cubic_nls(), 0.6, 2, grid) < 1e-10

    def test_unrepresentable_wavenumber(self, grid):
        with pytest.raises(ValueError):
            exact_plane_wave(1.0, grid.n_points // 2, 0.0, grid)


class TestInitialConditions:
    def test_gaussian_peak(self):
        grid = GridSpec(256)
        f = build_initial_condition(Gaussian(0.2, 0.2), grid)
        assert np.abs(f.values).max() == pytest.approx(0.2, rel=1e-12)
        assert grid.nodes[np.argmax(np.abs(f.values))] == pytest.approx(0.0, abs=1e-14)

    def test_multimode_constructive_interference(self):
        grid = GridSpec(256)
        f = build_initial_condition(MultiMode(0.65, (2, 8)), grid)
        assert np.abs(f.values).max() == pytest.approx(1.3, rel=1e-12)

    def test_plane_wave_constant_modulus(self, grid):
        a = np.sqrt(2) / 2 + 1e-8
        f = build_initial_condition(PlaneWave(a, 1), grid)
        assert np.allclose(np.abs(f.values), a, atol=1e-14)

    def test_perturbation_seeds_one_mode(self, grid):
        pert = Perturbation(mode=5, amplitude=1e-6)
        f = build_initial_condition(PlaneWave(0.5, 1, perturbation=pert), grid)
        c = f.spectrum
        idx = {k: i for i, k in enumerate(grid.wavenumbers)}
        assert c[idx[5]] == pytest.approx(1e-6, rel=1e-10)
        assert c[idx[1]] == pytest.approx(0.5, rel=1e-12)

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            Gaussian(0.2, -0.1)
        with pytest.raises(ValueError):
            MultiMode(0.5, (3, 2))
        with pytest.raises(ValueError):
            MultiMode(0.5, (2, 2))
        with pytest.raises(ValueError):
            MultiMode(0.5, (-1, 2))
        with pytest.raises(ValueError):
            build_initial_condition(PlaneWave(0.5, grid.n_points), grid)
        with pytest.raises(ValueError):
            build_initial_condition(
                PlaneWave(0.5, 1, perturbation=Perturbation(mode=grid.n_points)), grid
            )

    def test_gaussian_wraparound_negligible_for_narrow_widths(self):
        # sampling the non-periodized Gaussian: tail at the domain edge
        grid = GridSpec(256)
        f = build_initial_condition(Gaussian(1.0, 0.2), grid)
        edge = np.abs(f.values[0])
        assert edge < 1e-9


class TestEllipticityIndicator:
    def test_zero_field(self, grid):
        assert initial_min_ellipticity(Field(grid, np.zeros(grid.n_points)), grid) == 1.0

    def test_threshold_plane_wave(self, grid):
        mn = initial_min_ellipticity(PlaneWave(np.sqrt(2) / 2, 1), grid)
        assert abs(mn) < 1e-14

    def test_gaussian_above_and_below(self):
        grid = GridSpec(256)
        mn = initial_min_ellipticity(Gaussian(0.65, 0.1), grid)
        assert mn == pytest.approx(1 - 2 * 0.65**2, rel=1e-12)
        assert mn > 0
        assert initial_min_ellipticity(Gaussian(0.75, 0.1), grid) < 0
