"""Model family, potential evaluation, exact solutions, initial data."""

import dataclasses

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
    energy,
    exact_plane_wave,
    l2_norm,
    run_simulation,
)
from qlsplit.spectral import _grid, _power
from qlsplit.splitting import _StepKernel

from conftest import spectral_derivative, spectrum


def potential(model, u):
    """The model potential of the state u, as the step's kick evaluates it."""
    s = u.real**2 + u.imag**2
    return _StepKernel(GridSpec(len(u)), model, 1.0).potential(s)


def pde_residual(model, a, k, grid):
    """L2 residual of the wave train inserted into the discretized equation.

    For the model's dispersion relation omega = k^2 + f(a^2) the residual
    is roundoff-level: a cross-check of the potential and the dispersion
    convention.
    """
    u = exact_plane_wave(a, k, 0.0, grid)
    omega = k * k + P.polyval(a * a, model.f_coeffs)
    rhs = -spectral_derivative(u, 2) + potential(model, u) * u
    return l2_norm(rhs - omega * u)


def initial_min_ellipticity(ic, grid):
    """SimulationRecord.min_ellipticity of the t = 0 record of a run from ic."""
    cfg = StepperConfig(tau=1e-3)
    rec = run_simulation(ModelSpec.pseudo_attractive(), ic, grid, cfg, 1e-3)
    return rec.min_ellipticity[0]


def ellipticity_by_hand(model, u):
    """min over nodes of 1 - 2 sign s g'(s)^2 at s = |u|^2, g' differentiated by hand."""
    s = np.abs(u) ** 2
    c = model.g_coeffs
    gprime = sum(j * c[j] * s ** (j - 1) for j in range(1, len(c)))
    return np.min(1 - 2 * model.quasilinear_sign * s * gprime**2)


class TestModelSpec:
    def test_presets(self):
        assert ModelSpec.pseudo_attractive().quasilinear_sign == 1
        assert ModelSpec.thin_film().quasilinear_sign == -1
        assert ModelSpec.cubic_nls().quasilinear_sign == 0

    def test_gprime_derived_exactly(self):
        # g' is derived from g by the model, never given
        with pytest.raises(TypeError):
            ModelSpec(gprime_coeffs=(1.0,))

    @pytest.mark.parametrize("sign", [2, -3, 5])
    def test_sign_validated(self, sign):
        with pytest.raises(ValueError):
            ModelSpec(quasilinear_sign=sign)

    @pytest.mark.parametrize("name", ["f_coeffs", "g_coeffs"])
    @pytest.mark.parametrize("coeffs", [(), (np.nan, 1.0), (0.0, np.inf), (-np.inf,)])
    def test_coefficients_validated(self, name, coeffs):
        # an empty f used to fail inside energy, a NaN one as a blow-up at t > 0
        with pytest.raises(ValueError, match=name):
            ModelSpec(**{name: coeffs})


class TestPotentialField:
    def test_zero_field(self, grid):
        v = potential(ModelSpec.pseudo_attractive(), np.zeros(grid.n_points))
        assert np.all(v == 0)

    @pytest.mark.parametrize(
        "model", [ModelSpec.pseudo_attractive(), ModelSpec.thin_film(), ModelSpec.cubic_nls()]
    )
    def test_constant_modulus_gives_f_of_a_squared(self, grid, model):
        a = 0.8
        f = a * np.exp(5j * grid.nodes)
        v = potential(model, f)
        assert np.allclose(v, a**2, atol=1e-12)

    def test_modulated_profile_against_symbolic_expansion(self, grid):
        # |1 + 0.1 cos x|^2 = 1.005 + 0.2 cos x + 0.005 cos 2x, so
        # V = s + s'' = 1.005 - 0.015 cos 2x and V(0) = 0.99
        u = (1.0 + 0.1 * np.cos(grid.nodes)).astype(complex)
        v = potential(ModelSpec.pseudo_attractive(), u)
        expected = 1.005 - 0.015 * np.cos(2 * grid.nodes)
        assert np.allclose(v, expected, atol=1e-12)
        x0 = np.argmin(np.abs(grid.nodes))
        assert v[x0] == pytest.approx(0.99, abs=1e-12)

    def test_real_output(self, grid):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        v = potential(ModelSpec.pseudo_attractive(), u)
        assert v.dtype == np.float64


class TestExactPlaneWave:
    def test_initial_time(self, grid):
        f = exact_plane_wave(0.5, 3, 0.0, grid)
        assert np.allclose(f, 0.5 * np.exp(3j * grid.nodes), atol=1e-14)

    def test_dispersion_relation(self, grid):
        # omega = k^2 + f(a^2) = k^2 + a^2: at a=1, k=1 the phase advances by omega*t = 2t
        t = 0.25
        f = exact_plane_wave(1.0, 1, t, grid)
        expected = np.exp(1j * (grid.nodes - 2.0 * t))
        assert np.allclose(f, expected, atol=1e-14)

    @pytest.mark.parametrize("a,k", [(0.3, 1), (0.7, 3), (1.1, -5), (0.5, 15)])
    def test_discrete_pde_residual(self, a, k):
        grid = GridSpec(64)
        res = pde_residual(ModelSpec.pseudo_attractive(), a, k, grid)
        assert res < 1e-10

    def test_residual_other_models(self):
        grid = GridSpec(64)
        assert pde_residual(ModelSpec.thin_film(), 0.6, 2, grid) < 1e-10
        assert pde_residual(ModelSpec.cubic_nls(), 0.6, 2, grid) < 1e-10
        # omega = k^2 + a^2 would leave residuals of 0.54 and 0.097 here
        assert pde_residual(ModelSpec(f_coeffs=(0, 2), quasilinear_sign=0), 0.6, 2, grid) < 1e-10
        assert pde_residual(ModelSpec(f_coeffs=(0, 1, 0.5), g_coeffs=(0, 1, 0.3)),
                            0.6, 2, grid) < 1e-10

    @pytest.mark.parametrize("model", [
        ModelSpec(f_coeffs=(0, 2), quasilinear_sign=0),
        ModelSpec(f_coeffs=(0.25, 1, 0.5), g_coeffs=(0, 1, 0.3)),
    ], ids=["f-2s", "f-quarter-s-half-s2"])
    def test_frequency_reads_the_model(self, grid, model):
        a, k, t = 0.5, 1, 0.75
        omega = k * k + P.polyval(a * a, model.f_coeffs)
        expected = a * np.exp(1j * (k * grid.nodes - omega * t))
        assert np.array_equal(exact_plane_wave(a, k, t, grid, model), expected)
        # at t = 0 the model does not enter
        assert np.array_equal(exact_plane_wave(a, k, 0.0, grid, model),
                              exact_plane_wave(a, k, 0.0, grid))

    def test_unrepresentable_wavenumber(self, grid):
        with pytest.raises(ValueError):
            exact_plane_wave(1.0, grid.n_points // 2, 0.0, grid)
        # a non-integral wavenumber is not periodic on the grid
        for k in (1.5, np.float64(-0.25), np.nan, np.inf):
            with pytest.raises(ValueError):
                exact_plane_wave(0.5, k, 0.0, grid)
        # (k^2 + f(a^2)) t overflows, or is inf * 0 = nan at t = 0
        for a, t in ((1e200, 0.0), (1e200, 1.0), (1e154, 1e10), (0.5, np.inf)):
            with pytest.raises(ValueError, match="phase"):
                exact_plane_wave(a, 1, t, grid)
        assert np.array_equal(exact_plane_wave(0.5, np.int64(3), 0.0, grid),
                              exact_plane_wave(0.5, 3, 0.0, grid))


class TestInitialConditions:
    def test_gaussian_peak(self):
        grid = GridSpec(256)
        f = build_initial_condition(Gaussian(0.2, 0.2), grid)
        assert np.abs(f).max() == pytest.approx(0.2, rel=1e-12)
        assert grid.nodes[np.argmax(np.abs(f))] == pytest.approx(0.0, abs=1e-14)

    def test_multimode_constructive_interference(self):
        grid = GridSpec(256)
        f = build_initial_condition(MultiMode(0.65, (2, 8)), grid)
        assert np.abs(f).max() == pytest.approx(1.3, rel=1e-12)

    @pytest.mark.parametrize("n_points", [32, 64, 256, 1024, 4096])
    def test_multimode_samples_through_exact_plane_wave(self, n_points):
        # bit for bit, signed zeros included, the sum of unit wave trains and
        # the outer-product sampler it replaced; one wavenumber is a plane wave
        grid = GridSpec(n_points)
        cases = [(0.65, (2, 8)), (0.3, (0, 1, 2, 3)), (1.0, (5,)), (0.5, (0,)),
                 (1e-3, (1, 3, n_points // 2 - 1))]
        for a, ks in cases:
            u = build_initial_condition(MultiMode(a, ks), grid)
            waves = [exact_plane_wave(1.0, k, 0.0, grid) for k in ks]
            outer = a * np.sum(np.exp(1j * np.outer(ks, grid.nodes)), axis=0)
            for expected in (a * np.sum(waves, axis=0), outer):
                assert u.tobytes() == expected.tobytes(), (a, ks)
            if len(ks) == 1:
                assert u.tobytes() == (a * waves[0]).tobytes(), (a, ks)

    def test_plane_wave_constant_modulus(self, grid):
        a = np.sqrt(2) / 2 + 1e-8
        f = build_initial_condition(MultiMode(a, (1,)), grid)
        assert np.allclose(np.abs(f), a, atol=1e-14)

    def test_perturbation_seeds_one_mode(self, grid):
        pert = Perturbation(mode=5, amplitude=1e-6)
        f = build_initial_condition(MultiMode(0.5, (1,), perturbation=pert), grid)
        c = spectrum(f)
        idx = {k: i for i, k in enumerate(grid.wavenumbers)}
        assert c[idx[5]] == pytest.approx(1e-6, rel=1e-10)
        assert c[idx[1]] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("n_points", [8, 64, 4096])
    def test_perturbation_samples_through_exact_plane_wave(self, n_points):
        # bit for bit, signed zeros included, the seed eps e^{imx} is the unit
        # wave train's sample and the direct np.exp sample it replaced
        grid = GridSpec(n_points)
        for start in (Gaussian(0.2, 0.3), MultiMode(0.5, (0, 1))):
            base = build_initial_condition(start, grid)
            for m in (0, 1, -3, n_points // 2 - 1):
                wave = exact_plane_wave(1.0, m, 0.0, grid)
                for eps in (1e-10, -0.3, 0.0, -0.0, 1e160):
                    seeded = dataclasses.replace(start, perturbation=Perturbation(m, eps))
                    u = build_initial_condition(seeded, grid)
                    for expected in (base + eps * wave, base + eps * np.exp(1j * m * grid.nodes)):
                        assert u.tobytes() == expected.tobytes(), (start, m, eps)
        seeded = MultiMode(0.5, (1,), perturbation=Perturbation(-(n_points // 2)))
        with pytest.raises(ValueError, match="perturbation mode"):
            build_initial_condition(seeded, grid)

    def test_validation(self, grid):
        # 2 width^2 overflows at 1e200 and underflows to 0 at 1e-300
        for width in (-0.1, np.inf, np.nan, 1e200, 1e-300):
            with pytest.raises(ValueError, match="Gaussian width must be finite and positive"):
                Gaussian(0.2, width)
        with pytest.raises(ValueError):
            MultiMode(0.5, (3, 2))
        with pytest.raises(ValueError):
            MultiMode(0.5, (2, 2))
        with pytest.raises(ValueError):
            MultiMode(0.5, (-1, 2))
        with pytest.raises(ValueError, match="at least one"):
            MultiMode(0.5, ())
        with pytest.raises(TypeError, match="unknown initial condition type"):
            build_initial_condition(Perturbation(mode=1), grid)
        with pytest.raises(ValueError):
            build_initial_condition(MultiMode(0.5, (grid.n_points,)), grid)
        with pytest.raises(ValueError):
            build_initial_condition(
                MultiMode(0.5, (1,), perturbation=Perturbation(mode=grid.n_points)), grid
            )
        # wavenumbers are integers; numpy integers are integers too
        with pytest.raises(ValueError, match="integer"):
            build_initial_condition(MultiMode(0.5, (1,), perturbation=Perturbation(2.5)), grid)
        for ks in [(1.5, 2.7), (1, np.nan), (np.inf,)]:
            with pytest.raises(ValueError, match="integers"):
                MultiMode(0.3, ks)
        assert MultiMode(0.3, np.array([1, 2])).wavenumbers == (1, 2)
        assert type(MultiMode(0.3, (np.int64(1),)).wavenumbers[0]) is int

    def test_subnormal_width_samples_quietly(self):
        # 2 width^2 = 2e-320 is subnormal: x^2 / (2 width^2) overflows to inf
        # off the centre node, where the sample is 0, without a warning
        f = build_initial_condition(Gaussian(0.5, 1e-160), GridSpec(64))
        expected = np.zeros(64, dtype=complex)
        expected[32] = 0.5  # the node x = 0
        assert np.array_equal(f, expected)

    def test_gaussian_wraparound_negligible_for_narrow_widths(self):
        # sampling the non-periodized Gaussian: tail at the domain edge
        grid = GridSpec(256)
        f = build_initial_condition(Gaussian(1.0, 0.2), grid)
        edge = np.abs(f[0])
        assert edge < 1e-9


class TestEllipticityIndicator:
    def test_zero_field(self, grid):
        assert initial_min_ellipticity(np.zeros(grid.n_points), grid) == 1.0

    def test_threshold_plane_wave(self, grid):
        mn = initial_min_ellipticity(MultiMode(np.sqrt(2) / 2, (1,)), grid)
        assert abs(mn) < 1e-14

    def test_gaussian_above_and_below(self):
        grid = GridSpec(256)
        mn = initial_min_ellipticity(Gaussian(0.65, 0.1), grid)
        assert mn == pytest.approx(1 - 2 * 0.65**2, rel=1e-12)
        assert mn > 0
        assert initial_min_ellipticity(Gaussian(0.75, 0.1), grid) < 0

    @pytest.mark.parametrize("model", [ModelSpec.thin_film(), ModelSpec.cubic_nls()],
                             ids=["thin-film", "cubic"])
    def test_thin_film_and_cubic_stay_elliptic(self, model):
        # the pseudo-attractive indicator 1 - 2 max|u|^2 would read negative here
        grid = GridSpec(128)
        rec = run_simulation(model, MultiMode(0.9, (1, 2)), grid,
                             StepperConfig(tau=1e-3, record_every=10), 0.05)
        assert len(rec.times) == 6
        assert (rec.min_ellipticity >= 1.0).all()
        if model.quasilinear_sign == 0:
            assert (rec.min_ellipticity == 1.0).all()

    def test_reads_the_models_g(self):
        model = ModelSpec(f_coeffs=(0, 1, 0.5), g_coeffs=(0, 1, 0.3))
        grid = GridSpec(128)
        u0 = build_initial_condition(Gaussian(0.6, 0.3), grid)
        rec = run_simulation(model, u0, grid, StepperConfig(tau=1e-3), 0.02)
        for row, u in [(0, u0), (-1, rec.final_field)]:
            assert rec.min_ellipticity[row] == pytest.approx(
                ellipticity_by_hand(model, u), rel=1e-14)
        # g' = 1 + 0.6 s makes the minimum lower than the preset's 1 - 2 max s
        assert rec.min_ellipticity[0] < 1 - 2 * 0.36

    def test_pseudo_attractive_is_one_minus_twice_the_peak(self):
        grid = GridSpec(128)
        rec = run_simulation(ModelSpec.pseudo_attractive(), Gaussian(0.65, 0.2), grid,
                             StepperConfig(tau=1e-3, record_every=10), 0.05)
        expected = 1 - 2 * rec.max_amplitude**2
        assert np.abs(rec.min_ellipticity - expected).max() <= 1e-15


# models whose f and g the library evaluates as polynomials; the presets
# evaluate f, g and g' only in records and the plane wave, not in the kick
POLYNOMIAL_MODELS = {
    "f-s-half-s2-g-s-0.3s2": ModelSpec(f_coeffs=(0, 1, 0.5), g_coeffs=(0, 1, 0.3)),
    "g-1-0-3-2": ModelSpec(g_coeffs=(1, 0, 3, 2)),
    "constant-g": ModelSpec(g_coeffs=(2.0,)),
    "constant-g-minus": ModelSpec(g_coeffs=(2.0,), quasilinear_sign=-1),
    # no quasilinear term: the kick's V is f(s) alone, not swamped by a Laplacian
    "f-s-half-s2-cubic": ModelSpec(f_coeffs=(0, 1, 0.5), g_coeffs=(0, 1, 0.3),
                                   quasilinear_sign=0),
}
BIT_MODELS = {**POLYNOMIAL_MODELS, "pseudo-attractive": ModelSpec.pseudo_attractive(),
              "thin-film": ModelSpec.thin_film(), "cubic": ModelSpec.cubic_nls()}


def energy_by_numpy_polynomial(u, model):
    """``energy`` with F = polyint(f) and g evaluated by numpy.polynomial."""
    grid = _grid(u)
    s = u.real**2 + u.imag**2
    e = 0.5 * _power(np.fft.fft(u), grid._k2_paired)
    e += 0.5 * grid.spacing * float(np.sum(P.polyval(s, P.polyint(model.f_coeffs))))
    if model.quasilinear_sign != 0:
        g_raw = np.fft.fft(P.polyval(s, model.g_coeffs))
        e -= model.quasilinear_sign * 0.25 * _power(g_raw, grid._k2_paired)
    return e


class TestPolynomialBits:
    """Every polynomial evaluation of the library, bit for bit the
    numpy.polynomial spelling of ascending coefficients."""

    @pytest.mark.parametrize("model", POLYNOMIAL_MODELS.values(), ids=POLYNOMIAL_MODELS)
    def test_kick_potential(self, model):
        # rough, smooth (a Laplacian of order one) and overflowed s; at s = inf
        # numpy core's g' of a constant g is the empty polynomial, 0 where
        # numpy.polynomial's (0.0,) reads NaN, but the Laplacian it multiplies
        # is NaN there too
        rng = np.random.default_rng(11)
        for n, kind in ((64, "rough"), (4096, "rough"), (256, "smooth"), (64, "inf")):
            grid = GridSpec(n)
            s = 10.0 ** rng.uniform(-8, 1, n)
            if kind == "smooth":
                s = 0.6 + 0.3 * np.sin(grid.nodes) + 0.05 * np.cos(3 * grid.nodes)
            elif kind == "inf":
                s[5] = np.inf
            kernel = _StepKernel(grid, model, 1e-3)
            assert not kernel._linear and kernel._v_mult is None
            with np.errstate(invalid="ignore"):
                v = P.polyval(s, model.f_coeffs)
                if model.quasilinear_sign != 0:
                    g = P.polyval(s, model.g_coeffs)
                    lap = np.fft.irfft(kernel.neg_k2 * np.fft.rfft(g), n)
                    v = v + model.quasilinear_sign * P.polyval(s, P.polyder(model.g_coeffs)) * lap
                assert kernel.potential(s).tobytes() == v.tobytes()

    @pytest.mark.parametrize("model", BIT_MODELS.values(), ids=BIT_MODELS)
    def test_run_records(self, model):
        # a snapshot at every record keeps the state each record evaluated
        grid, tau, n_steps = GridSpec(64), 1e-3, 20
        cfg = StepperConfig(tau=tau, record_every=5,
                            snapshot_times=tuple(n * tau for n in range(0, n_steps + 1, 5)))
        rec = run_simulation(model, Gaussian(0.5, 0.5), grid, cfg, n_steps * tau)
        assert not rec.blew_up and len(rec.snapshots) == len(rec.times) == 5
        gprime = P.polyder(model.g_coeffs)
        for row, (t, u) in enumerate(rec.snapshots):
            assert t == rec.times[row]
            s = u.real**2 + u.imag**2
            ell = 1.0 - 2.0 * model.quasilinear_sign * s * P.polyval(s, gprime) ** 2
            assert rec.min_ellipticity[row].tobytes() == ell.min().tobytes()
            assert rec.energy[row].tobytes() == np.float64(
                energy_by_numpy_polynomial(u, model)).tobytes()

    @pytest.mark.parametrize("model", BIT_MODELS.values(), ids=BIT_MODELS)
    def test_plane_wave(self, grid, model):
        # at k = 0 and t = 1 the phase is f(a^2) itself: a last-bit change shows
        for a, k, t in ((0.5, 1, 0.75), (1.7, -3, 2.5e-3), (1.3, 0, 1.0), (0.0, 2, 1.0),
                        (1e50, 0, 1e-160)):
            omega = k * k + P.polyval(a * a, model.f_coeffs)
            expected = a * np.exp(1j * (k * grid.nodes - omega * t))
            assert exact_plane_wave(a, k, t, grid, model).tobytes() == expected.tobytes()


class TestDerivedPolynomials:
    """``ModelSpec`` derives f, g, g' and F = integral of f once, for every caller."""

    def test_no_caller_derives_again(self, grid, monkeypatch):
        calls = []
        for name in ("polyder", "polyint"):
            def counted(*args, _derive=getattr(np, name), _name=name):
                calls.append(_name)
                return _derive(*args)
            monkeypatch.setattr(np, name, counted)
        model = ModelSpec(f_coeffs=(0, 1, 0.5), g_coeffs=(0, 1, 0.3))
        assert sorted(calls) == ["polyder", "polyint"]  # the counter sees the one derivation
        calls.clear()
        cfg = StepperConfig(tau=1e-3, record_every=5)
        rec = run_simulation(model, Gaussian(0.5, 0.5), grid, cfg, 20 * cfg.tau)
        u = exact_plane_wave(0.5, 1, 0.25, grid, model)
        energies = [energy(u, model), energy(2 * u, model)]
        assert len(rec.times) == 5 and np.isfinite(energies).all()
        assert calls == []

    def test_replace_carries_the_new_gprime(self, grid):
        # the kick potential and the ellipticity minimum read the new g',
        # bit for bit the numpy.polynomial spelling
        old = ModelSpec(f_coeffs=(0, 1, 0.5), g_coeffs=(0, 1, 0.3))
        model = dataclasses.replace(old, g_coeffs=(1, 0, 3, 2))
        gprime = P.polyder(model.g_coeffs)
        s = 0.6 + 0.3 * np.sin(grid.nodes)
        kernel = _StepKernel(grid, model, 1e-3)
        lap = np.fft.irfft(kernel.neg_k2 * np.fft.rfft(P.polyval(s, model.g_coeffs)), len(s))
        v = P.polyval(s, model.f_coeffs) + P.polyval(s, gprime) * lap
        assert kernel.potential(s).tobytes() == v.tobytes()
        cfg = StepperConfig(tau=1e-3, record_every=5, snapshot_times=(0.0, 5e-3))
        rec = run_simulation(model, Gaussian(0.5, 0.5), grid, cfg, 5e-3)
        assert len(rec.snapshots) == len(rec.times) == 2
        for row, (_, u) in enumerate(rec.snapshots):
            s = u.real**2 + u.imag**2
            ell = 1.0 - 2.0 * s * P.polyval(s, gprime) ** 2
            assert rec.min_ellipticity[row].tobytes() == ell.min().tobytes()
        assert old._gprime.tolist() == [0.6, 1.0]

    @pytest.mark.parametrize("name", ["_f", "_g", "_gprime", "_F"])
    def test_derived_arrays_are_read_only(self, name):
        array = getattr(ModelSpec.pseudo_attractive(), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0

    def test_fields_repr_eq_and_hash_are_the_inputs(self):
        model = ModelSpec(f_coeffs=(0, 1, 0.5))
        assert [f.name for f in dataclasses.fields(model)] == [
            "f_coeffs", "g_coeffs", "quasilinear_sign"]
        assert repr(model) == ("ModelSpec(f_coeffs=(0.0, 1.0, 0.5), g_coeffs=(0.0, 1.0), "
                               "quasilinear_sign=1)")
        assert model == ModelSpec(f_coeffs=(0.0, 1.0, 0.5)) != ModelSpec()
        assert hash(model) == hash(((0.0, 1.0, 0.5), (0.0, 1.0), 1))
        assert {ModelSpec(): "preset"}[ModelSpec.pseudo_attractive()] == "preset"
