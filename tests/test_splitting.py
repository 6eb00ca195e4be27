"""Strang stepper, simulation driver and guards."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from qlsplit import (
    Gaussian,
    GridSpec,
    ModelSpec,
    MultiMode,
    Perturbation,
    StepperConfig,
    build_initial_condition,
    exact_plane_wave,
    l2_norm,
    mass,
    nonlinear_phase_step,
    planewave_deviation,
    run_simulation,
)

from qlsplit.splitting import _StepKernel

from conftest import one_step, random_field, spectrum

MODEL = ModelSpec.pseudo_attractive()
MODELS = [MODEL, ModelSpec.thin_film(), ModelSpec.cubic_nls(),
          ModelSpec(f_coeffs=(0, 1, 0.5), g_coeffs=(0, 1, 0.25))]


def reference_weights(grid, mollify_eps=None, dealias=False):
    """Cutoff and 2/3 weights, or None when neither filter is on."""
    k = np.abs(grid.wavenumbers.astype(np.float64))
    weights = None
    if mollify_eps is not None:
        weights = (k <= int(np.floor(1.0 / mollify_eps))).astype(np.float64)
    if dealias:
        mask = (k <= grid.n_points // 3).astype(np.float64)
        weights = mask if weights is None else mask * weights
    return weights


def complex_potential(model, s, grid, weights=None):
    """The complex-FFT potential: three polyval calls, an fft/ifft Laplacian,
    then an fft/ifft pass of the filter weights.  The oracle the real-FFT
    potential must match within roundoff.
    """
    k2 = grid.wavenumbers.astype(np.float64) ** 2
    v = P.polyval(s, model.f_coeffs)
    if model.quasilinear_sign != 0:
        lap = np.fft.ifft(-k2 * np.fft.fft(P.polyval(s, model.g_coeffs))).real
        v = v + model.quasilinear_sign * P.polyval(s, P.polyder(model.g_coeffs)) * lap
    if weights is not None:
        v = np.fft.ifft(weights * np.fft.fft(v)).real
    return v


def reference_potential(model, s, grid, weights=None):
    """The run kernel's arithmetic on the real-FFT half spectrum k = 0..N/2.

    For f = g = id, V = irfft(W (1 - sign k^2) rfft(s)) in one pass (V = s
    when that multiplier is 1); otherwise three polyval calls with an
    rfft/irfft Laplacian, then an rfft/irfft pass of the weights W.
    """
    n = grid.n_points
    k2 = np.arange(n // 2 + 1, dtype=np.float64) ** 2
    w = np.ones(n // 2 + 1) if weights is None else weights[: n // 2 + 1]
    if model.f_coeffs == (0.0, 1.0) and model.g_coeffs == (0.0, 1.0):
        v, mult = s, w * (1.0 - model.quasilinear_sign * k2)
    else:
        v, mult = P.polyval(s, model.f_coeffs), w
        if model.quasilinear_sign != 0:
            lap = np.fft.irfft(-k2 * np.fft.rfft(P.polyval(s, model.g_coeffs)), n)
            v = v + model.quasilinear_sign * P.polyval(s, P.polyder(model.g_coeffs)) * lap
    if (mult != 1.0).any():
        v = np.fft.irfft(mult * np.fft.rfft(v), n)
    return v


def mollified_phase_step(model, u, tau, mollify_eps):
    """The run's kick with the cutoff: u * exp(-i tau V), V cut to |k| <= 1/eps."""
    kernel = _StepKernel(GridSpec(len(u)), model, tau, mollify_eps)
    return u * kernel.phase(u.real**2 + u.imag**2)


def half_angle_phase(theta):
    """e^{i theta} from t = tan(theta / 2) and d = 2 / (1 + t^2) = 1 + cos: sin
    is t d, cos is 1 - t sin for |theta| <= pi / 2 and d - 1 beyond.

    The run kernel's phase formula, which the reference loops share to match
    it bit for bit; ``TestHalfAnglePhase`` pins the kernel's to np.exp.
    """
    t = np.tan(0.5 * theta)
    d = 2.0 / (1.0 + t * t)
    sin = t * d
    return np.where(d < 1.0, d - 1.0, 1.0 - t * sin) + 1j * sin


def reference_states(model, u0, tau, n_steps, mollify_eps=None,
                     krasny_delta=None, dealias=False, potential=reference_potential):
    """The original unfused step loop: u_1, ..., u_n, one whole step each.

    Kept as the reference the fused run loop must match bit for bit, with
    the run kernel's potential; with ``complex_potential`` it is the
    complex-FFT loop that runs must stay near within roundoff.
    """
    grid = GridSpec(len(u0))
    half_kick = np.exp(-1j * grid.wavenumbers.astype(np.float64) ** 2 * (tau / 2.0))
    weights = reference_weights(grid, mollify_eps, dealias)
    f_raw = np.fft.fft(u0)
    states = []
    for _ in range(n_steps):
        u_mid = np.fft.ifft(f_raw * half_kick)
        s = u_mid.real**2 + u_mid.imag**2
        u_mid *= half_angle_phase(-tau * potential(model, s, grid, weights))
        f_raw = np.fft.fft(u_mid)
        if weights is not None:
            f_raw *= weights
        f_raw *= half_kick
        if krasny_delta is not None:
            mags = np.abs(f_raw)
            if mags.max() > 0.0:
                f_raw[mags < krasny_delta * mags.max()] = 0.0
        states.append(np.fft.ifft(f_raw))
    return states


class TestNonlinearPhaseStep:
    def test_zero_tau_is_identity(self, grid):
        f = random_field(grid, np.random.default_rng(0))
        out = nonlinear_phase_step(MODEL, f, 0.0)
        assert np.array_equal(out, f)

    def test_rejects_nonfinite_tau(self, grid):
        # zero and negative tau are valid steps; a non-finite one made NaNs
        f = random_field(grid, np.random.default_rng(0))
        for tau in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="tau must be finite"):
                nonlinear_phase_step(MODEL, f, tau)

    def test_plane_wave_global_phase(self, grid):
        a, tau = 0.8, 0.05
        f = a * np.exp(2j * grid.nodes)
        out = nonlinear_phase_step(MODEL, f, tau)
        assert np.allclose(out, f * np.exp(-1j * tau * a**2), atol=1e-14)

    def test_nodewise_modulus_conserved(self, grid):
        # the defining property of the nonlinear sub-flow
        rng = np.random.default_rng(1)
        for tau in [1e-3, 0.1, 2.0]:
            f = random_field(grid, rng)
            out = nonlinear_phase_step(MODEL, f, tau)
            dev = np.abs(np.abs(out) - np.abs(f))
            assert dev.max() < 1e-15

    def test_mollified_potential(self, grid):
        f = random_field(grid, np.random.default_rng(2))
        plain = nonlinear_phase_step(MODEL, f, 0.1)
        moll = mollified_phase_step(MODEL, f, 0.1, 0.3)
        assert not np.allclose(plain, moll)
        dev = np.abs(np.abs(moll) - np.abs(f))
        assert dev.max() < 1e-15

    def test_subnormal_numpy_eps_keeps_every_mode(self, grid):
        # 1 / np.float64(5e-324) overflows; the cutoff is inf, without a warning
        f = random_field(grid, np.random.default_rng(3))
        out = mollified_phase_step(MODEL, f, 0.1, np.float64(5e-324))
        assert np.array_equal(out, nonlinear_phase_step(MODEL, f, 0.1))

    @pytest.mark.parametrize("mollify_eps", [None, 0.05, 0.3])
    @pytest.mark.parametrize("model", MODELS,
                             ids=["plain", "thin-film", "cubic", "polynomial"])
    def test_matches_reference_potential(self, model, mollify_eps):
        rng = np.random.default_rng(31)
        for n in (64, 256, 1024, 4096):
            grid = GridSpec(n)
            u = 1.3 * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
            s = u.real**2 + u.imag**2
            v = reference_potential(model, s, grid, reference_weights(grid, mollify_eps))
            for tau in (1e-4, 1e-2, 0.5):
                if mollify_eps is None:
                    out = nonlinear_phase_step(model, u, tau)
                else:
                    out = mollified_phase_step(model, u, tau, mollify_eps)
                assert np.array_equal(out, u * half_angle_phase(-tau * v))


class TestHalfAnglePhase:
    """``_StepKernel.phase`` against np.exp: within 1e-15, modulus within 1e-15 of 1."""

    SPECIAL = [1e-300, 1e-8, 1e-4, 1.0, np.pi, np.pi + 1e-12, np.pi - 1e-12, 1e4, 1e8]

    @staticmethod
    def phase(theta):
        """e^{i theta} from the kernel: the cubic model at tau = 1 has V = s,
        so phase(-theta) is exp(-i V) = e^{i theta}."""
        theta = np.asarray(theta, dtype=np.float64)
        n = max(8, len(theta) + len(theta) % 2)  # a grid size: even, at least 8
        s = np.zeros(n)
        s[: len(theta)] = -theta
        return _StepKernel(GridSpec(n), ModelSpec.cubic_nls(), 1.0).phase(s)[: len(theta)]

    def test_matches_exp(self):
        rng = np.random.default_rng(41)
        special = np.array(self.SPECIAL)
        for theta in (np.concatenate([special, -special]),
                      rng.uniform(-1e4, 1e4, 10**5) * 10.0 ** rng.integers(-8, 5, 10**5)):
            got = self.phase(theta)
            assert np.abs(got - np.exp(1j * theta)).max() <= 1e-15
            assert np.abs(np.abs(got) - 1.0).max() <= 1e-15

    def test_small_angles_match_cos_to_one_ulp(self):
        # a wave train turns every node by the same small theta each step, so
        # an error in cos there drifts its modulus step after step; d - 1 in
        # place of 1 - t sin was 3 ulp off and failed the CLI's wave checks
        theta = np.geomspace(1e-8, 1e-2, 4096)
        theta = np.concatenate([theta, -theta])
        got = self.phase(theta)
        assert np.abs(got.real - np.cos(theta)).max() <= np.spacing(0.5)

    def test_pi_stays_finite(self):
        # t = tan(pi / 2) is large but t^2 stays far from overflow
        t = np.tan(0.5 * np.pi)
        assert t == pytest.approx(1.633e16, rel=1e-3)
        got = self.phase([np.pi, -np.pi])  # filterwarnings = error: no overflow warning
        assert np.abs(got - (-1.0)).max() <= 1e-15

    def test_zero_is_exactly_one(self):
        got = self.phase([0.0, -0.0])
        assert np.array_equal(got, [1.0 + 0j, 1.0 + 0j])

    def test_nonfinite_theta_gives_nan(self):
        # as the CLI runs it, under errstate; a NaN state trips "nonfinite"
        with np.errstate(invalid="ignore"):
            got = self.phase([np.nan, np.inf, -np.inf])
        assert np.isnan(got.real).all() and np.isnan(got.imag).all()


class TestStatelessKernel:
    """The kernel holds only its multipliers: each result is a new array."""

    def test_phase_calls_return_distinct_arrays(self, grid):
        kernel = _StepKernel(grid, MODEL, 0.1)
        rng = np.random.default_rng(40)
        first = kernel.phase(rng.uniform(0, 1, grid.n_points))
        kept = first.copy()
        second = kernel.phase(rng.uniform(0, 1, grid.n_points))
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    def test_march_never_writes_a_yielded_spectrum(self, grid):
        # the cutoff and the Krasny floor write in place inside the loop
        u0 = random_field(grid, np.random.default_rng(41), 0.3)
        for filters in [{"mollify_eps": 0.2},
                        {"mollify_eps": 0.2, "dealias": True, "krasny_delta": 1e-3}]:
            kernel = _StepKernel(grid, MODEL, 1e-3, **filters)
            copied = [f.copy() for _, f, _ in kernel.march(u0, 5)]
            listed = [f for _, f, _ in kernel.march(u0, 5)]
            for f_copy, f_kept in zip(copied, listed, strict=True):
                assert np.array_equal(f_copy, f_kept)

    def test_tau_resonance_number_must_be_finite(self):
        # tau (N/2)^2 = 1.024e309 overflows: the free flight would be NaN
        with pytest.raises(ValueError, match="tau must be finite"):
            _StepKernel(GridSpec(64), ModelSpec(), 1e306)
        assert np.isfinite(_StepKernel(GridSpec(64), ModelSpec(), 1e305).half_kick).all()

    def test_cutoff_beyond_float_range_keeps_every_mode(self, grid):
        # 1/eps = inf: the cutoff removes nothing
        f = random_field(grid, np.random.default_rng(42))
        assert np.array_equal(mollified_phase_step(MODEL, f, 0.1, 1e-320),
                              nonlinear_phase_step(MODEL, f, 0.1))

    def test_unfiltered_kernel_cuts_nothing(self, grid):
        # W is all ones: the trailing flight is the half kick bit for bit, and
        # a model whose multiplier is all ones makes no filter pass
        for model in MODELS:
            kernel = _StepKernel(grid, model, 0.1)
            assert kernel.flight.tobytes() == kernel.half_kick.tobytes()
        assert _StepKernel(grid, MODELS[3], 0.1)._v_mult is None


class TestRealFFTPotential:
    FILTERS = [{}, {"mollify_eps": 0.05}, {"mollify_eps": 0.3}, {"dealias": True}]

    @pytest.mark.parametrize("filters", FILTERS,
                             ids=["unfiltered", "mollify-0.05", "mollify-0.3", "dealias"])
    @pytest.mark.parametrize("model", [*MODELS, ModelSpec(g_coeffs=(1, 0, 3, 2))],
                             ids=["plain", "thin-film", "cubic", "polynomial", "cubic-g"])
    def test_matches_complex_fft_potential(self, model, filters):
        # the complex spelling filters an unfiltered V whose Laplacian
        # reaches (N/2)^2 max s, so both agree to roundoff of that scale
        rng = np.random.default_rng(37)
        for n in (128, 4096):
            grid = GridSpec(n)
            u = 1.3 * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
            s = u.real**2 + u.imag**2
            v = _StepKernel(grid, model, 1e-3, **filters).potential(s)
            ref = complex_potential(model, s, grid, reference_weights(grid, **filters))
            scale = np.abs(complex_potential(model, s, grid)).max()
            assert np.abs(v - ref).max() <= 1e-14 * scale

    @pytest.mark.parametrize(
        "model, filters",
        [
            (MODEL, {}),
            (MODEL, {"mollify_eps": 0.05, "dealias": True, "krasny_delta": 1e-6}),
            (ModelSpec.thin_film(), {"mollify_eps": 0.3}),
            (ModelSpec.cubic_nls(), {"dealias": True}),
            (ModelSpec(f_coeffs=(0, 1, 0.5), g_coeffs=(0, 1, 0.25)), {"mollify_eps": 0.3}),
        ],
        ids=["plain", "all-filters", "thin-film-mollify", "cubic-dealias",
             "polynomial-mollify"],
    )
    def test_run_stays_near_complex_fft_loop(self, model, filters):
        # tau (N/2)^2 = 2.0 stays below the resonance pi, so roundoff is not
        # amplified; at tau = 1e-3 (4.1) the plain run drifts 1.5e-4 apart
        grid = GridSpec(128)
        tau, n_steps = 5e-4, 300
        u0 = (0.5 * np.exp(-grid.nodes**2 / (2 * 0.3**2))
              * np.exp(1j * np.cos(grid.nodes)))
        cfg = StepperConfig(tau=tau, record_every=n_steps, **filters)
        rec = run_simulation(model, u0, grid, cfg, tau * n_steps)
        ref = reference_states(model, u0, tau, n_steps, potential=complex_potential,
                               **filters)
        assert np.abs(rec.final_field - ref[-1]).max() < 1e-13

    @pytest.mark.parametrize("model, factor", [
        (MODEL, lambda n: 1 - n**2 / 4),
        (ModelSpec.thin_film(), lambda n: 1 + n**2 / 4),
        (ModelSpec.cubic_nls(), lambda n: 1),
        # g(s) = 2 s takes the polyval path: V = s + 4 s_xx
        (ModelSpec(g_coeffs=(0, 2)), lambda n: 1 - n**2),
        # a constant g has g' = 0 and no quasilinear term: V = f(s) = s
        (ModelSpec(g_coeffs=(2.0,)), lambda n: 1),
        (ModelSpec(g_coeffs=(2.0,), quasilinear_sign=-1), lambda n: 1),
    ], ids=["plain", "thin-film", "cubic", "polynomial", "constant-g", "constant-g-minus"])
    def test_laplacian_keeps_nyquist_mode(self, model, factor):
        # s_j = c + eps (-1)^j is the Nyquist mode N/2 on a constant; its
        # second derivative is -(N/2)^2 times it, not 0
        c, eps = 0.3, 1e-3
        for n in (64, 256, 4096):
            alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            v = _StepKernel(GridSpec(n), model, 1e-3).potential(c + eps * alt)
            expected = c + eps * factor(n) * alt
            assert np.abs(v - expected).max() <= 1e-13 * (c + eps * n**2)

    def test_carrier_one_aliasing_threshold(self):
        # the sideband k - N/2 of the carrier k = 1 pairs with itself through
        # the Nyquist mode and grows above sqrt((N^2/4 - kN) / (2 (N^2/4 - 1))),
        # 0.70158 at N = 256 (README); seed it with eps (-1)^j e^{ix}
        n, tau, n_steps = 256, 2e-6, 8000
        grid = GridSpec(n)
        threshold = np.sqrt((n**2 / 4 - n) / (2 * (n**2 / 4 - 1)))
        assert threshold == pytest.approx(0.70158, abs=1e-5)
        alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)

        def peak_growth(a):
            u0 = (a + 1e-10 * alt) * np.exp(1j * grid.nodes)
            start = abs(np.fft.fft(u0)[n - 127])  # FFT index of the mode 1 - N/2
            march = _StepKernel(grid, MODEL, tau).march(u0, n_steps)
            return max([start] + [abs(f[n - 127]) for _, f, _ in march]) / start

        assert peak_growth(threshold - 1e-4) < 2.0
        assert peak_growth(threshold + 2e-4) > 10.0


class TestStrangStep:
    def test_plane_wave_step_is_exact(self):
        grid = GridSpec(64)
        a, k, tau = 0.5, 1, 1e-3
        f = exact_plane_wave(a, k, 0.0, grid)
        out = one_step(MODEL, f, tau)
        expected = exact_plane_wave(a, k, tau, grid)
        assert l2_norm(out - expected) < 1e-12

    def test_zero_field(self, grid):
        out = one_step(MODEL, np.zeros(grid.n_points), 0.01)
        assert np.all(out == 0)

    def test_reversibility(self):
        grid = GridSpec(256)
        f = 0.2 * np.exp(-grid.nodes**2 / (2 * 0.2**2))
        fwd = one_step(MODEL, f, 1e-3)
        back = one_step(MODEL, fwd, -1e-3)
        assert l2_norm(back - f) < 1e-11

    def test_mass_conserved_per_step_without_filters(self, grid):
        rng = np.random.default_rng(3)
        f = random_field(grid, rng, scale=0.5)
        out = one_step(MODEL, f, 5e-3)
        assert mass(out) == pytest.approx(mass(f), rel=1e-12)

    def test_filters_never_increase_mass(self, grid):
        rng = np.random.default_rng(4)
        f = random_field(grid, rng, scale=0.5)
        for filters in [{"mollify_eps": 0.2}, {"krasny_delta": 1e-3}]:
            out = one_step(MODEL, f, 5e-3, **filters)
            assert mass(out) <= mass(f) * (1 + 1e-12)

    def test_mollified_step_band_limits_the_state(self, grid):
        rng = np.random.default_rng(5)
        f = random_field(grid, rng)
        out = one_step(MODEL, f, 1e-2, mollify_eps=0.2)
        c = spectrum(out)
        beyond = np.abs(grid.wavenumbers) > 5  # floor(1/0.2)
        assert np.max(np.abs(c[beyond])) < 1e-15

    def test_dealias_step_band_limits_the_state(self, grid):
        rng = np.random.default_rng(21)
        f = random_field(grid, rng)
        out = one_step(MODEL, f, 1e-2, dealias=True)
        c = spectrum(out)
        beyond = np.abs(grid.wavenumbers) > grid.n_points // 3
        assert np.max(np.abs(c[beyond])) < 1e-15

    def test_krasny_step_floors_small_modes(self, grid):
        f = np.exp(1j * grid.nodes) + 1e-9 * np.exp(5j * grid.nodes)
        out = one_step(MODEL, f, 1e-3, krasny_delta=1e-6)
        c = np.abs(spectrum(out))
        idx = {k: i for i, k in enumerate(grid.wavenumbers)}
        assert c[idx[5]] < 1e-15

    def test_krasny_step_keeps_a_zero_or_nan_spectrum(self, grid):
        # a zero or NaN peak gives a floor that no mode lies below
        zero = np.zeros(grid.n_points, dtype=complex)
        assert np.array_equal(one_step(MODEL, zero, 1e-3, krasny_delta=1e-6), zero)
        with np.errstate(invalid="ignore"):
            out = one_step(MODEL, np.full(grid.n_points, np.nan + 0j), 1e-3, krasny_delta=1e-6)
        assert np.isnan(out).all()


class TestStepperConfigValidation:
    def test_rejects_zero_tau(self):
        # the config owns tau > 0; run_simulation has no check of its own
        for tau in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau must be finite and positive"):
                StepperConfig(tau=tau)

    def test_rejects_bad_filters(self):
        # the config is the one place the cutoff is checked: inf used to keep
        # only the mean mode, and 0 divided by zero
        with pytest.raises(ValueError):
            StepperConfig(tau=1e-3, krasny_delta=1.5)
        for eps in (0.0, -0.3, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="mollify_eps must be finite and positive"):
                StepperConfig(tau=1e-3, mollify_eps=eps)

    def test_rejects_bad_guards(self):
        with pytest.raises(ValueError):
            StepperConfig(tau=1e-3, blowup_factor=0.9)
        with pytest.raises(ValueError):
            StepperConfig(tau=1e-3, energy_guard_factor=0.0)
        with pytest.raises(ValueError):
            StepperConfig(tau=1e-3, record_every=0)
        # a NaN factor fails every comparison, so its guard would never trip
        for factor in (np.nan, np.inf):
            with pytest.raises(ValueError, match="blowup_factor"):
                StepperConfig(tau=1e-3, blowup_factor=factor)
            with pytest.raises(ValueError, match="energy_guard_factor"):
                StepperConfig(tau=1e-3, energy_guard_factor=factor)


class TestRunSimulation:
    def test_step_count_must_divide(self, grid):
        cfg = StepperConfig(tau=1e-3)
        with pytest.raises(ValueError, match="integer multiple"):
            run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.0015)

    def test_rejects_nonpositive_horizon(self, grid):
        cfg = StepperConfig(tau=1e-3)
        with pytest.raises(ValueError):
            run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, -1.0)
        # 1e-12 rounds to zero steps of tau
        for t_final in (np.nan, np.inf, 1e-12):
            with pytest.raises(ValueError, match="t_final"):
                run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, t_final)

    def test_rejects_nonfinite_initial_data(self, grid):
        cfg = StepperConfig(tau=1e-3)
        bad = np.full(grid.n_points, np.nan + 0j)
        with pytest.raises(ValueError, match="non-finite"):
            run_simulation(MODEL, bad, grid, cfg, 0.01)

    def test_record_striding_and_endpoints(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, record_every=7)
        rec = run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.02)
        assert rec.times[0] == 0.0
        assert rec.times[-1] == pytest.approx(0.02)
        assert np.all(np.diff(rec.times) > 0)
        # 0, 7, 14, 20 -> strides plus forced final row
        assert len(rec.times) == 4
        assert not rec.blew_up

    def test_snapshots_captured(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, record_every=5, snapshot_times=(0.0, 0.01))
        rec = run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.02)
        assert len(rec.snapshots) == 2
        assert rec.snapshots[0][0] == 0.0
        assert rec.snapshots[1][0] == pytest.approx(0.01)
        assert rec.snapshots[1][1].shape == (64,)

    def test_initial_array_not_aliased(self, grid):
        # the run copies the caller's array once; later writes to it reach
        # neither the t = 0 snapshot nor any record
        u0 = build_initial_condition(Gaussian(0.2, 0.5), grid)
        cfg = StepperConfig(tau=1e-3, record_every=5, snapshot_times=(0.0,))
        want = run_simulation(MODEL, u0.copy(), grid, cfg, 0.01)
        rec = run_simulation(MODEL, u0, grid, cfg, 0.01)
        saved = u0.copy()
        u0[:] = 7.0
        assert np.array_equal(rec.snapshots[0][1], saved)
        for name in ("times", "max_amplitude", "mass", "energy", "final_field"):
            assert np.array_equal(getattr(rec, name), getattr(want, name))

    def test_last_snapshot_is_not_the_final_field(self, grid):
        cfg = StepperConfig(tau=1e-3, record_every=5, snapshot_times=(0.01,))
        rec = run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.01)
        snap = rec.snapshots[-1][1]
        assert np.array_equal(snap, rec.final_field)
        assert not np.shares_memory(snap, rec.final_field)
        saved = snap.copy()
        rec.final_field[:] = 7.0
        assert np.array_equal(snap, saved)

    def test_initial_array_must_fit_the_grid(self, grid):
        cfg = StepperConfig(tau=1e-3)
        for shape in [(grid.n_points // 2,), (2, grid.n_points)]:
            with pytest.raises(ValueError, match="does not fit GridSpec"):
                run_simulation(MODEL, np.zeros(shape, dtype=complex), grid, cfg, 0.01)

    def test_snapshot_time_off_the_step_grid_rejected(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, snapshot_times=(0.0104,))
        with pytest.raises(ValueError, match="snapshot time .* integer multiple"):
            run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.02)

    def test_snapshot_times_on_one_step_rejected(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, snapshot_times=(0.01, 0.01 + 1e-12))
        with pytest.raises(ValueError, match="same step"):
            run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.02)

    def test_snapshot_time_outside_run_rejected(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, snapshot_times=(0.05,))
        with pytest.raises(ValueError, match="snapshot"):
            run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.02)

    def test_zero_amplitude_runs_flat(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, record_every=10)
        rec = run_simulation(MODEL, Gaussian(0.0, 0.5), grid, cfg, 0.02)
        assert not rec.blew_up
        assert np.all(rec.max_amplitude == 0)
        assert np.all(rec.mass == 0)
        assert np.all(rec.energy == 0)

    def test_mass_conserved_over_many_steps(self):
        grid = GridSpec(256)
        cfg = StepperConfig(tau=(np.pi / 4) / 2000, record_every=200)
        rec = run_simulation(MODEL, Gaussian(0.2, 0.2), grid, cfg, np.pi / 4)
        drift = np.abs(rec.mass - rec.mass[0]).max() / rec.mass[0]
        assert drift < 1e-12

    def test_deterministic(self):
        grid = GridSpec(128)
        cfg = StepperConfig(tau=1e-3, record_every=10)
        rec1 = run_simulation(MODEL, Gaussian(0.3, 0.3), grid, cfg, 0.05)
        rec2 = run_simulation(MODEL, Gaussian(0.3, 0.3), grid, cfg, 0.05)
        assert np.array_equal(rec1.final_field, rec2.final_field)
        assert np.array_equal(rec1.energy, rec2.energy)

    def test_matches_repeated_strang_steps(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=2e-3, record_every=100)
        rec = run_simulation(MODEL, Gaussian(0.3, 0.4), grid, cfg, 0.01)
        f = one_step(MODEL, 0.3 * np.exp(-grid.nodes**2 / (2 * 0.4**2)), 2e-3)
        for _ in range(4):
            f = one_step(MODEL, f, 2e-3)
        assert np.allclose(rec.final_field, f, atol=1e-13)


FUSED_CASES = pytest.mark.parametrize(
    "model, filters",
    [
        (MODEL, {}),
        (MODEL, {"mollify_eps": 0.05}),
        (MODEL, {"dealias": True}),
        (MODEL, {"krasny_delta": 1e-6}),
        (MODEL, {"mollify_eps": 0.05, "dealias": True, "krasny_delta": 1e-6}),
        (ModelSpec.thin_film(), {}),
        (ModelSpec.cubic_nls(), {}),
        (ModelSpec(f_coeffs=(0, 1, 0.5), g_coeffs=(0, 1, 0.25)), {}),
    ],
    ids=["plain", "mollify", "dealias", "krasny", "all-filters",
         "thin-film", "cubic", "polynomial"],
)


class TestFusedLoopMatchesReference:
    @FUSED_CASES
    def test_bit_for_bit(self, model, filters, tau=1e-3):
        grid = GridSpec(128)
        n_steps = 300
        u0 = (0.5 * np.exp(-grid.nodes**2 / (2 * 0.3**2))
              * np.exp(1j * np.cos(grid.nodes)))
        cfg = StepperConfig(
            tau=tau, record_every=70, snapshot_times=(0.0, 13 * tau, 200 * tau), **filters
        )
        rec = run_simulation(model, u0, grid, cfg, tau * n_steps)
        ref = reference_states(model, u0, tau, n_steps, **filters)
        assert not rec.blew_up
        assert np.array_equal(rec.final_field, ref[-1])
        assert [round(t / tau) for t, _ in rec.snapshots] == [0, 13, 200]
        assert np.array_equal(rec.snapshots[0][1], u0)
        assert np.array_equal(rec.snapshots[1][1], ref[12])
        assert np.array_equal(rec.snapshots[2][1], ref[199])
        rows = [round(t / tau) for t in rec.times]
        assert rows == [0, 70, 140, 210, 280, 300]
        amps = [np.abs(ref[n - 1]).max() for n in rows[1:]]
        assert np.array_equal(rec.max_amplitude[1:], amps)

    @FUSED_CASES
    def test_bit_for_bit_below_resonance(self, model, filters):
        # at tau = 1e-3, tau (N/2)^2 = 4.1 is past the resonance pi and
        # roundoff grows about 1e11x in 300 steps; at 0.41 it does not
        self.test_bit_for_bit(model, filters, tau=1e-4)

    def test_strang_step_is_one_reference_step(self):
        grid = GridSpec(128)
        u0 = random_field(grid, np.random.default_rng(7), scale=0.5)
        out = one_step(MODEL, u0, 2e-3, krasny_delta=1e-4)
        ref = reference_states(MODEL, u0, 2e-3, 1, krasny_delta=1e-4)
        assert np.array_equal(out, ref[0])


class TestPlanewaveDeviation:
    @pytest.mark.parametrize("perturbation", [None, Perturbation(mode=5, amplitude=1e-6)],
                             ids=["unperturbed", "perturbed"])
    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("model", [MODEL, ModelSpec.thin_film()],
                             ids=["plain", "thin-film"])
    def test_bit_for_bit(self, model, k, perturbation):
        # the same modulus seed and sums as planewave_deviation, stepped by
        # the unfused reference loop
        grid = GridSpec(64)
        a, tau, n_steps = 0.6, 5e-4, 200
        modulus = a
        if perturbation is not None:
            modulus = a + perturbation.amplitude * np.cos((perturbation.mode - k) * grid.nodes)
        u0 = modulus * np.exp(1j * k * grid.nodes)
        energy0 = mass(u0 - exact_plane_wave(a, k, 0.0, grid))
        max_dev, max_energy = 0.0, energy0
        for n, u in enumerate(reference_states(model, u0, tau, n_steps), start=1):
            exact = exact_plane_wave(a, k, n * tau, grid)
            dev = l2_norm(u - exact)
            max_dev = max(max_dev, dev)
            max_energy = max(max_energy, dev * dev)
        growth = max_energy / energy0 if energy0 > 0 else None
        assert (perturbation is None) == (growth is None)
        out = planewave_deviation(a, k, tau, n_steps, grid, model, perturbation)
        assert out == (max_dev, growth)

    @pytest.mark.parametrize("model", [
        ModelSpec(f_coeffs=(0, 2), quasilinear_sign=0),
        ModelSpec(f_coeffs=(0, 1, 0.5), g_coeffs=(0, 1, 0.3)),
    ], ids=["f-2s", "f-s-half-s2"])
    def test_custom_f_wave_train_is_exact(self, model):
        # the wave train turns at k^2 + f(a^2); measured against k^2 + a^2
        # these marches used to deviate by 0.3125 and 0.0392
        max_dev, growth = planewave_deviation(0.5, 1, 1e-3, 1000, GridSpec(64), model)
        assert max_dev < 1e-11
        assert growth is None

    def test_nonfinite_march_reads_inf(self):
        # |u|^2 overflows, the potential turns inf and the state nan in the
        # first kick; a nan deviation used to drop out of the max
        grid = GridSpec(64)
        # a^2 = 1.44e308 still gives the exact wave a finite frequency
        with np.errstate(over="ignore", invalid="ignore"):
            unperturbed = planewave_deviation(1.2e154, 1, 1e-3, 5, grid, MODEL)
            seeded = planewave_deviation(0.5, 1, 1e-3, 5, grid, MODEL,
                                         Perturbation(mode=3, amplitude=1e160))
        assert unperturbed == (math.inf, None)
        # the seed energy overflows too, so there is no growth to read
        assert seeded == (math.inf, None)
        # beyond that the exact wave itself has no finite phase
        with pytest.raises(ValueError, match="phase"):
            planewave_deviation(1e200, 1, 1e-3, 5, grid, MODEL)

    def test_rejects_bad_steps(self):
        # zero or negative n_steps used to read a growth of 1 from no march,
        # and a NaN tau (inf, inf)
        grid = GridSpec(64)
        for tau, n_steps in [(1e-3, 0), (1e-3, -5), (np.nan, 5), (-1e-3, 5), (np.inf, 5)]:
            with pytest.raises(ValueError, match="tau|n_steps"):
                planewave_deviation(0.5, 1, tau, n_steps, grid, MODEL,
                                    Perturbation(mode=3, amplitude=1e-6))

    @pytest.mark.parametrize("k", [0, 1, -3])
    def test_rejects_perturbation_mode_at_the_carrier(self, k):
        # xi = 0 is no sideband: the seed (a + eps) e^{ikx} is a wave train
        # of its own, and the growth read its phase drift against a
        with pytest.raises(ValueError, match="seeds no sideband"):
            planewave_deviation(0.5, k, 2.5e-5, 4000, GridSpec(64), MODEL,
                                Perturbation(mode=k, amplitude=1e-6))


class TestBlowupGuards:
    def test_rows_above_threshold_only_on_a_trip(self):
        # the kick reads max|u|^2 every step and every built state is
        # checked, so no recorded amplitude passes the guard unreported
        grid = GridSpec(256)
        for amplitude, factor in [(0.65, 1.8), (0.65, 2.6), (0.2, 1.2)]:
            cfg = StepperConfig(tau=2e-5, blowup_factor=factor, record_every=7)
            rec = run_simulation(
                MODEL, MultiMode(amplitude, (2, 8)), grid, cfg, 0.01
            )
            above = rec.max_amplitude > factor * rec.max_amplitude[0]
            if rec.blew_up:
                assert not above[:-1].any()
            else:
                assert not above.any()


    def test_amplitude_trigger_multimode(self):
        # the pseudo-attractive large-data run takes off almost immediately;
        # the seed, not roundoff, sets the onset (3.74e-3 with either the
        # complex-FFT or the real-FFT potential; unseeded it moves with the
        # roundoff, from 7.1e-3 to 1.03e-2)
        grid = GridSpec(256)
        cfg = StepperConfig(tau=2e-5, blowup_factor=1.8, record_every=50)
        ic = MultiMode(0.65, (2, 8), Perturbation(mode=100, amplitude=2e-8))
        rec = run_simulation(MODEL, ic, grid, cfg, 0.01)
        assert rec.blew_up
        assert rec.blowup.trigger == "amplitude"
        assert rec.blowup.onset_time < 0.01
        assert rec.times[-1] == pytest.approx(rec.blowup.onset_time)
        assert rec.max_amplitude[-1] > 1.8 * 1.3

    def test_energy_trigger_spectral_pollution(self):
        # too-large tau scrambles the spectrum while amplitude stays bounded
        grid = GridSpec(512)
        cfg = StepperConfig(
            tau=(np.pi / 4) / 1000, record_every=20, energy_guard_factor=10.0
        )
        rec = run_simulation(MODEL, Gaussian(0.625, 0.1), grid, cfg, np.pi / 4)
        assert rec.blew_up
        assert rec.blowup.trigger == "energy"
        # amplitude guard alone would never have fired here
        assert rec.max_amplitude.max() < 10 * 0.625

    def test_nonfinite_trigger(self):
        # overflow in |u|^2 drives the potential to inf and the state to nan
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, record_every=10)
        with np.errstate(over="ignore", invalid="ignore"):
            rec = run_simulation(MODEL, Gaussian(1e200, 0.5), grid, cfg, 0.01)
        assert rec.blew_up
        assert rec.blowup.trigger == "nonfinite"

    def test_nonfinite_energy_trigger(self):
        # |u|^4 overflows while max|u| and the mass stay finite: every
        # energy is non-finite, with the energy guard on or off
        grid = GridSpec(64)
        for factor in (None, 10.0):
            cfg = StepperConfig(tau=1e-3, record_every=5, energy_guard_factor=factor)
            with np.errstate(over="ignore", invalid="ignore"):
                rec = run_simulation(MODEL, Gaussian(1e80, 0.5), grid, cfg, 0.01)
            assert rec.blew_up
            assert rec.blowup.trigger == "nonfinite"
            assert rec.blowup.onset_time == pytest.approx(5e-3)
            assert np.isfinite(rec.max_amplitude).all()

    def test_stable_run_reports_no_blowup(self):
        grid = GridSpec(256)
        cfg = StepperConfig(tau=1e-4, blowup_factor=2.0, record_every=50)
        rec = run_simulation(MODEL, Gaussian(0.2, 0.2), grid, cfg, 0.02)
        assert not rec.blew_up
        assert rec.blowup is None


class TestKrasnyStabilization:
    def test_spectral_floor_stabilizes_coarse_stiff_run(self):
        # at N_t = 2000 the stiff profile scrambles its spectrum unless the
        # 1e-3 floor filter removes the roundoff-seeded modes each step
        grid = GridSpec(512)
        t_final = np.pi / 4
        ic = Gaussian(0.625, 0.1)
        base = StepperConfig(
            tau=t_final / 2000, record_every=100, energy_guard_factor=10.0
        )
        unfiltered = run_simulation(MODEL, ic, grid, base, t_final)
        assert unfiltered.blew_up and unfiltered.blowup.trigger == "energy"

        filtered_cfg = StepperConfig(
            tau=t_final / 2000, krasny_delta=1e-3, record_every=100,
            energy_guard_factor=10.0,
        )
        filtered = run_simulation(MODEL, ic, grid, filtered_cfg, t_final)
        assert not filtered.blew_up
        drift = np.abs(filtered.energy - filtered.energy[0]).max()
        assert drift / abs(filtered.energy[0]) < 1e-3
        # the floor filter only ever removes mass
        assert filtered.mass[-1] <= filtered.mass[0]
