"""Grid, transform, derivative and norm contracts, and the spectral parts
of the Strang step: its free flight, its filter weights and its Krasny floor."""

import numpy as np
import pytest

from qlsplit import (
    GridSpec,
    ModelSpec,
    StepperConfig,
    energy,
    error_norms,
    h1_seminorm,
    l2_norm,
    mass,
    nonlinear_phase_step,
)
from qlsplit.spectral import _filter_weights
from qlsplit.splitting import _StepKernel

from conftest import one_step, random_field, spectral_derivative, spectrum

# V = 0: with this model a Strang step is the free flight plus the filters
FREE = ModelSpec(f_coeffs=(0.0,), quasilinear_sign=0)


def free_flight(f, t):
    """The step kernel's free flight over t, one half flight of a 2t step."""
    half_kick = _StepKernel(GridSpec(len(f)), FREE, 2 * t).half_kick
    return np.fft.ifft(half_kick * np.fft.fft(f))


def filtered(f, eps=None, dealias=False):
    """f with the step's filter weights applied to its spectrum."""
    weights = _filter_weights(GridSpec(len(f)), eps, dealias)
    return np.fft.ifft(weights * np.fft.fft(f))


def krasny_step(f, delta):
    """One V = 0 step with the Krasny floor: |u_hat_k| moves only by roundoff."""
    return one_step(FREE, f, 1e-3, krasny_delta=delta)


class TestGridSpec:
    def test_nodes_and_spacing(self):
        g = GridSpec(16)
        assert g.nodes[0] == pytest.approx(-np.pi)
        assert np.allclose(np.diff(g.nodes), 2 * np.pi / 16)
        assert g.spacing == pytest.approx(2 * np.pi / 16)
        assert g.nodes[-1] == pytest.approx(np.pi - 2 * np.pi / 16)

    def test_wavenumber_set(self):
        g = GridSpec(16)
        assert sorted(g.wavenumbers) == list(range(-8, 8))
        # symmetric except the single Nyquist mode -N/2
        ks = set(g.wavenumbers)
        assert all(-k in ks for k in ks if k != -8)
        assert 8 not in ks

    @pytest.mark.parametrize("n", [6, 7, 15, 0, -8])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            GridSpec(n)

    # np.arange made an empty node array of 2**63, and of 2**63 - 2 within intp
    @pytest.mark.parametrize("n", [2**63, 2**63 - 2, np.uint64(2**63),
                                   np.iinfo(np.intp).max // 16 + 1])
    def test_rejects_sizes_no_array_can_hold(self, n):
        limit = np.iinfo(np.intp).max // 16
        with pytest.raises(ValueError, match=f"n_points must be even, >= 8 and <= {limit}, "):
            GridSpec(n)

    def test_largest_size_constructs_lazily(self):
        # the nodes are built on first use, so the bound itself is a valid grid
        assert GridSpec(np.iinfo(np.intp).max // 16 - 1).n_points % 2 == 0

    def test_rejects_non_integer_size(self):
        with pytest.raises(TypeError, match="n_points must be an integer"):
            GridSpec(64.0)


class TestTransforms:
    def test_constant_field(self, grid):
        f = np.full(grid.n_points, 2.5 - 0.5j)
        c = spectrum(f)
        assert c[0] == pytest.approx(2.5 - 0.5j, abs=1e-14)
        assert np.max(np.abs(c[1:])) < 1e-14

    def test_single_mode_identity(self, grid):
        f = np.exp(1j * grid.nodes)
        c = spectrum(f)
        k1 = list(grid.wavenumbers).index(1)
        assert c[k1] == pytest.approx(1.0, abs=1e-13)
        others = np.delete(c, k1)
        assert np.max(np.abs(others)) < 1e-13

    def test_cosine_against_direct_dft_sum(self):
        # brute-force DFT oracle at N = 16
        g = GridSpec(16)
        u = np.cos(2 * g.nodes).astype(complex)
        c = spectrum(u)
        for i, k in enumerate(g.wavenumbers):
            oracle = np.sum(u * np.exp(-1j * k * g.nodes)) / g.n_points
            assert c[i] == pytest.approx(oracle, abs=1e-14)
        k2 = list(g.wavenumbers).index(2)
        km2 = list(g.wavenumbers).index(-2)
        assert c[k2] == pytest.approx(0.5, abs=1e-14)
        assert c[km2] == pytest.approx(0.5, abs=1e-14)

    def test_parseval(self, grid):
        rng = np.random.default_rng(8)
        for _ in range(5):
            f = random_field(grid, rng)
            physical = grid.spacing * np.sum(np.abs(f) ** 2)
            spectral = 2 * np.pi * np.sum(np.abs(spectrum(f)) ** 2)
            assert physical == pytest.approx(spectral, rel=1e-12)

    def test_size_mismatch_rejected(self, grid):
        # a state is a 1-D array whose length is a grid size
        diagnostics = [mass, l2_norm, h1_seminorm, lambda u: energy(u, FREE),
                       lambda u: error_norms(u, u),
                       lambda u: nonlinear_phase_step(FREE, u, 0.1)]
        for shape in [(grid.n_points - 1,), (6,), (0,), (2, grid.n_points), ()]:
            for diagnostic in diagnostics:
                with pytest.raises(ValueError):
                    diagnostic(np.zeros(shape, dtype=complex))


class TestDerivative:
    def test_eigenfunction_first_order(self, grid):
        f = np.exp(3j * grid.nodes)
        df = spectral_derivative(f, 1)
        assert np.allclose(df, 3j * f, atol=1e-12)

    def test_eigenfunction_second_order(self, grid):
        f = np.exp(3j * grid.nodes)
        d2f = spectral_derivative(f, 2)
        assert np.allclose(d2f, -9.0 * f, atol=1e-12)

    def test_cosine_derivative_matches_analytic(self, grid):
        f = np.cos(grid.nodes).astype(complex)
        df = spectral_derivative(f, 1)
        assert np.allclose(df.real, -np.sin(grid.nodes), atol=1e-12)
        assert abs(df.real[np.argmin(np.abs(grid.nodes))]) < 1e-12

    def test_all_representable_modes(self):
        g = GridSpec(32)
        for k in range(-15, 16):
            f = np.exp(1j * k * g.nodes)
            assert np.allclose(spectral_derivative(f, 1), 1j * k * f, atol=1e-11)
            assert np.allclose(spectral_derivative(f, 2), -(k**2) * f, atol=1e-11)

    def test_nyquist_handling(self):
        g = GridSpec(16)
        nyquist = np.exp(-8j * g.nodes)  # alternating +-1
        assert np.max(np.abs(spectral_derivative(nyquist, 1))) < 1e-13
        d2 = spectral_derivative(nyquist, 2)
        assert np.allclose(d2, -64.0 * nyquist, atol=1e-12)

    @pytest.mark.parametrize("order", [0, 3, -1])
    def test_unsupported_order(self, grid, order):
        f = np.zeros(grid.n_points)
        with pytest.raises(ValueError):
            spectral_derivative(f, order)


class TestFreePropagator:
    def test_zero_time_is_identity(self, grid):
        f = random_field(grid, np.random.default_rng(1))
        out = free_flight(f, 0.0)
        assert np.allclose(out, f, atol=1e-15)

    def test_single_mode_phase(self, grid):
        f = np.exp(1j * grid.nodes)
        out = free_flight(f, np.pi / 2)
        assert np.allclose(out, -1j * f, atol=1e-13)

    def test_l2_preserved(self, grid):
        rng = np.random.default_rng(2)
        for _ in range(5):
            f = random_field(grid, rng)
            assert l2_norm(free_flight(f, 0.37)) == pytest.approx(
                l2_norm(f), rel=1e-13
            )

    def test_composition(self, grid):
        f = random_field(grid, np.random.default_rng(3))
        once = free_flight(f, 0.3)
        twice = free_flight(free_flight(f, 0.1), 0.2)
        assert np.allclose(once, twice, atol=1e-13)


class TestMollifier:
    def test_identity_beyond_nyquist(self, grid):
        f = random_field(grid, np.random.default_rng(4))
        out = filtered(f, eps=1.0 / grid.n_points)
        assert np.allclose(out, f, atol=1e-15)

    def test_sharp_cutoff(self, grid):
        f = np.exp(3j * grid.nodes)
        out = filtered(f, eps=0.5)  # cutoff floor(1/0.5) = 2
        assert np.max(np.abs(out)) < 1e-13
        kept = filtered(np.exp(2j * grid.nodes), eps=0.5)
        assert np.allclose(kept, np.exp(2j * grid.nodes), atol=1e-13)

    def test_idempotent(self, grid):
        rng = np.random.default_rng(5)
        f = random_field(grid, rng)
        once = filtered(f, eps=0.11)
        twice = filtered(once, eps=0.11)
        assert np.allclose(once, twice, atol=1e-15)

    def test_never_increases_l2(self, grid):
        rng = np.random.default_rng(6)
        for eps in [0.5, 0.2, 0.07]:
            f = random_field(grid, rng)
            assert l2_norm(filtered(f, eps)) <= l2_norm(f) * (1 + 1e-12)

    def test_cutoff_is_floor_of_inverse_eps(self, grid):
        # |k| <= 1/eps keeps the integers |k| <= floor(1/eps); no cutoff keeps all
        kabs = np.abs(grid.wavenumbers)
        n = grid.n_points
        for eps in (1.0, 0.5, 1 / 3, 0.2, 4 / n, 2 / n):
            weights = _filter_weights(grid, eps, False)
            assert np.array_equal(weights, kabs <= np.floor(1.0 / eps)), eps
        for eps in (None, 1 / n, 5e-324):  # 1 / 5e-324 = inf
            assert np.array_equal(_filter_weights(grid, eps, False), np.ones(n)), eps

    def test_rejects_bad_eps(self):
        # a run sets its cutoff through StepperConfig, which rejects eps = 0
        # before any weights are built
        with pytest.raises(ValueError, match="mollify_eps must be finite and positive"):
            StepperConfig(tau=1e-3, mollify_eps=0.0)

    def test_two_thirds_dealias(self):
        g = GridSpec(64)
        f = random_field(g, np.random.default_rng(12))
        out = filtered(f, dealias=True)
        c = np.abs(spectrum(out))
        kabs = np.abs(g.wavenumbers)
        assert np.all(c[kabs > 21] < 1e-14)  # floor(64/3) = 21
        kept = kabs <= 21
        assert np.allclose(spectrum(out)[kept], spectrum(f)[kept], atol=1e-14)


class TestKrasnyFilter:
    def test_single_mode_unchanged(self, grid):
        f = 0.3 * np.exp(5j * grid.nodes)
        out = krasny_step(f, 0.999)
        assert np.allclose(out, free_flight(f, 1e-3), atol=1e-14)

    def test_threshold_bookkeeping(self, grid):
        idx = {k: i for i, k in enumerate(grid.wavenumbers)}
        x = grid.nodes
        f = np.exp(1j * x) + 1e-2 * np.exp(4j * x) + 1e-5 * np.exp(9j * x)
        out = np.abs(spectrum(krasny_step(f, 1e-3)))
        assert out[idx[1]] == pytest.approx(1.0, abs=1e-13)
        assert out[idx[4]] == pytest.approx(1e-2, abs=1e-14)
        # zeroed in spectrum; round trip back to coefficients leaves roundoff
        assert out[idx[9]] < 1e-15

    def test_never_increases_l2_and_keeps_peak(self, grid):
        rng = np.random.default_rng(9)
        for delta in [0.9, 0.3, 1e-3]:
            f = random_field(grid, rng)
            out = krasny_step(f, delta)
            assert l2_norm(out) <= l2_norm(f) * (1 + 1e-12)
            assert np.max(np.abs(spectrum(out))) == pytest.approx(
                np.max(np.abs(spectrum(f))), rel=1e-12
            )

    def test_zero_field_passthrough(self, grid):
        f = np.zeros(grid.n_points)
        assert np.all(krasny_step(f, 0.5) == 0)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 2.0])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            StepperConfig(tau=1e-3, krasny_delta=delta)


class TestNorms:
    def test_zero(self, grid):
        f = np.zeros(grid.n_points)
        assert l2_norm(f) == 0.0
        assert h1_seminorm(f) == 0.0

    def test_plane_wave_l2(self, grid):
        f = 0.7 * np.exp(2j * grid.nodes)
        assert l2_norm(f) == pytest.approx(0.7 * np.sqrt(2 * np.pi), rel=1e-13)

    def test_gaussian_l2_against_quadrature(self):
        # oracle: continuum integral of a^2 exp(-x^2/sigma^2) over (-pi, pi]
        from scipy.integrate import quad

        a, sigma = 0.2, 0.2
        g = GridSpec(256)
        f = a * np.exp(-g.nodes**2 / (2 * sigma**2))
        oracle, _ = quad(lambda x: a**2 * np.exp(-(x**2) / sigma**2), -np.pi, np.pi)
        assert l2_norm(f) == pytest.approx(np.sqrt(oracle), abs=1e-6)

    def test_h1_constant_and_plane_wave(self, grid):
        const = np.full(grid.n_points, 1.3 + 0j)
        assert h1_seminorm(const) < 1e-13
        f = 0.5 * np.exp(-4j * grid.nodes)
        assert h1_seminorm(f) == pytest.approx(4 * 0.5 * np.sqrt(2 * np.pi), rel=1e-12)

    def test_h1_against_finite_differences(self):
        # second-order centered difference oracle on a smooth Gaussian;
        # FD truncation ~ (dx^2/6) ||u_xxx|| limits the achievable agreement
        g = GridSpec(256)
        u = 0.2 * np.exp(-g.nodes**2 / (2 * 1.0**2))
        dx = g.spacing
        du_fd = (np.roll(u, -1) - np.roll(u, 1)) / (2 * dx)
        fd_norm = np.sqrt(dx * np.sum(np.abs(du_fd) ** 2))
        assert h1_seminorm(u) == pytest.approx(fd_norm, abs=1e-4)
