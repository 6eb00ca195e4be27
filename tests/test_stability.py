"""Plane-wave linearization matrix, closed-form eigenvalues, mode growth."""

import warnings

import numpy as np
import pytest

from qlsplit import (
    gn_eigenvalues,
    gn_matrix,
    split_step_mode_growth,
    stability_threshold_scan,
    two_by_two_eigenvalues,
)

THRESHOLD = np.sqrt(2) / 2


def reference_scan(a_grid, xi_max, carrier_wavenumber):
    """The per-mode loop over xi = 1..xi_max that stability_threshold_scan
    replaced with one evaluation at xi_max; kept as its reference."""
    out = []
    for a in a_grid:
        worst_xi = None
        worst_rate = 0.0
        for xi in range(1, xi_max + 1):
            lam_plus, lam_minus = gn_eigenvalues(float(a), carrier_wavenumber, xi)
            if lam_plus.real > 0:
                rate = float(max(lam_plus.real, lam_minus.real))
                if rate > worst_rate:
                    worst_rate = rate
                    worst_xi = xi
        out.append((float(a), worst_xi is not None, worst_xi, worst_rate))
    return out


def ulp_neighbours(a: float, n: int) -> list[float]:
    """a and the n float64 values on either side of it."""
    below, above = [a], [a]
    for _ in range(n):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[:0:-1] + above


def mode_threshold(xi: int) -> float:
    """a*(xi) = xi / sqrt(2 (xi^2 - 1)), where the radicand at xi vanishes."""
    return xi / np.sqrt(2.0 * (xi * xi - 1))


def scan_amplitudes(xi_max: int) -> list[float]:
    """+-4 ulp around a*(xi) for xi <= 1024, and values off the thresholds.

    The reference costs one closed-form call per mode, so scans to
    xi_max >= 128 take every 128th xi plus the five around xi_max; the
    short scans take every xi.
    """
    stride = 1 if xi_max <= 3 else 128
    xis = set(range(2, 1025, stride)) | set(range(max(2, xi_max - 2), xi_max + 3))
    special = [0.0, *ulp_neighbours(float(np.sqrt(0.5)), 1), 0.8, 1.0, 3.0, 1e3]
    near = [a for xi in sorted(xis) for a in ulp_neighbours(mode_threshold(xi), 4)]
    return special + near


def pair_distance(pair_a, pair_b) -> float:
    """Best-matching distance between two eigenvalue pairs (order-free)."""
    (a0, a1), (b0, b1) = pair_a, pair_b
    straight = max(abs(a0 - b0), abs(a1 - b1))
    crossed = max(abs(a0 - b1), abs(a1 - b0))
    return min(straight, crossed)


class TestGnMatrix:
    def test_zero_amplitude_is_free_dispersion(self):
        m = gn_matrix(0.0, 3, 2)
        expected = 1j * np.array([[-12 - 4, 0], [0, -12 + 4]], dtype=complex)
        assert np.allclose(m, expected, atol=1e-14)

    def test_reference_entries(self):
        # a=1, k=0, xi=1: the xi^2 terms cancel the constant ones entrywise
        m = gn_matrix(1.0, 0, 1)
        expected = 1j * np.array([[-1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(m, expected, atol=1e-14)

    def test_trace_is_doppler_only(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a = float(rng.uniform(0, 1.5))
            k = int(rng.integers(-8, 9))
            xi = int(rng.integers(1, 65))
            m = gn_matrix(a, k, xi)
            assert np.trace(m) == pytest.approx(-4j * k * xi, abs=1e-11)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            gn_eigenvalues(-0.1, 0, 1)
        with pytest.raises(ValueError):
            stability_threshold_scan([0.9, -0.1], xi_max=8)

    @pytest.mark.parametrize("a", [np.nan, np.inf])
    def test_rejects_non_finite_amplitude(self, a):
        with pytest.raises(ValueError):
            gn_eigenvalues(a, 0, 1)
        with pytest.raises(ValueError):
            stability_threshold_scan([0.9, a], xi_max=8)


class TestGnEigenvalues:
    def test_unstable_reference_case(self):
        lam_plus, lam_minus = gn_eigenvalues(1.0, 0, 2)
        assert lam_plus.real > 0
        assert lam_plus == pytest.approx(2 * np.sqrt(2), abs=1e-12)
        assert lam_minus == pytest.approx(-2 * np.sqrt(2), abs=1e-12)

    def test_stable_reference_case(self):
        lam_plus, lam_minus = gn_eigenvalues(1.0, 0, 1)
        assert not lam_plus.real > 0
        assert lam_plus == pytest.approx(1j, abs=1e-12)
        assert lam_minus == pytest.approx(-1j, abs=1e-12)

    def test_threshold_amplitude_stable_for_all_xi(self):
        for xi in range(1, 129):
            lam_plus, lam_minus = gn_eigenvalues(THRESHOLD, 0, xi)
            assert not lam_plus.real > 0
            assert max(lam_plus.real, lam_minus.real) <= 1e-12

    def test_matches_matrix_eigensolve_extended_precision(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            a = float(rng.uniform(0, 1.5))
            k = int(rng.integers(-8, 9))
            xi = int(rng.integers(1, 65))
            mine = gn_eigenvalues(a, k, xi)
            oracle = tuple(map(complex, two_by_two_eigenvalues(
                gn_matrix(a, k, xi, dtype=np.clongdouble))))
            worst = max(worst, pair_distance(mine, oracle))
        assert worst < 1e-12

    def test_matches_lapack_at_double_precision(self):
        # LAPACK backward error scales with the matrix norm (~1e4 here)
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = float(rng.uniform(0, 1.5))
            k = int(rng.integers(-8, 9))
            xi = int(rng.integers(1, 65))
            mine = gn_eigenvalues(a, k, xi)
            oracle = tuple(map(complex, np.linalg.eigvals(gn_matrix(a, k, xi))))
            assert pair_distance(mine, oracle) < 5e-11

    def test_verdict_equals_discriminant_sign(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            a = float(rng.uniform(0, 1.5))
            xi = int(rng.integers(1, 65))
            lam_plus, _ = gn_eigenvalues(a, 0, xi)
            assert (lam_plus.real > 0) == (2 * a**2 * xi**2 - 2 * a**2 - xi**2 > 0)

    def test_carrier_only_shifts_imaginary_part(self):
        for k in [-5, 0, 3, 8]:
            lam_plus, _ = gn_eigenvalues(0.9, k, 4)
            lam_plus0, _ = gn_eigenvalues(0.9, 0, 4)
            assert (lam_plus.real > 0) == (lam_plus0.real > 0)
            assert lam_plus.real == pytest.approx(lam_plus0.real, abs=1e-12)
            assert lam_plus.imag == pytest.approx(
                lam_plus0.imag - 2 * k * 4, abs=1e-12
            )

    @pytest.mark.parametrize("k", [-5, 0, 3])
    @pytest.mark.parametrize("xi", [1, 2, 126, 8192])
    def test_array_call_matches_scalar_calls(self, k, xi):
        # bit for bit, signed zeros included; 1e306 overflows float64 at
        # xi >= 126, so the rounding to inf is covered too
        amplitudes = [0.0, -0.0, *ulp_neighbours(THRESHOLD, 3), 1e150, 1e300, 1e306]
        with np.errstate(over="ignore"):
            lam_plus, lam_minus = gn_eigenvalues(np.array(amplitudes), k, xi)
            scalar = [gn_eigenvalues(a, k, xi) for a in amplitudes]

        def parts(*lams):
            return [repr(float(part)) for lam in lams for part in (lam.real, lam.imag)]

        assert lam_plus.shape == lam_minus.shape == (len(amplitudes),)
        assert (lam_plus.real >= lam_minus.real).all()
        for i, (plus, minus) in enumerate(scalar):
            assert type(plus) is type(minus) is np.complex128
            assert parts(lam_plus[i], lam_minus[i]) == parts(plus, minus), amplitudes[i]

    @pytest.mark.parametrize("digits", [2470, 3000])
    def test_rejects_xi_whose_square_overflows(self, digits):
        # xi is finite in long double and xi^2 is not; no numpy warning
        xi = 10**digits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"xi has {digits + 1} digits"):
                gn_eigenvalues(0.5, 0, xi)
            with pytest.raises(ValueError, match=f"xi has {digits + 1} digits"):
                stability_threshold_scan([0.5, 0.9], xi)


class TestTwoByTwoEigensolve:
    def test_against_lapack_on_random_matrices(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            mine = tuple(map(complex, two_by_two_eigenvalues(m)))
            ref = tuple(map(complex, np.linalg.eigvals(m)))
            assert pair_distance(mine, ref) < 1e-12

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            two_by_two_eigenvalues(np.zeros((3, 3)))


class TestThresholdScan:
    def test_below_threshold_all_stable(self):
        unstable, growth_rate = stability_threshold_scan([0.0, 0.3, 0.70], xi_max=128)
        assert not unstable.any()
        assert (growth_rate == 0.0).all()

    def test_above_threshold_unstable(self):
        unstable, growth_rate = stability_threshold_scan([0.71], xi_max=128)
        assert unstable[0]
        assert growth_rate[0] > 0

    def test_growth_rate_grows_with_xi(self):
        # the most unstable mode is the largest scanned one
        _, rate64 = stability_threshold_scan([0.8], xi_max=64)
        _, rate128 = stability_threshold_scan([0.8], xi_max=128)
        assert rate128[0] > rate64[0]

    def test_verdict_flip_across_threshold(self):
        unstable, _ = stability_threshold_scan(
            [0.70, 0.705, 0.7071, 0.708, 0.71], xi_max=128
        )
        assert unstable.tolist() == [False, False, False, True, True]

    def test_tiny_threshold_straddle_needs_large_xi(self):
        # +-1e-8 around the threshold flips only through very large xi
        a_plus = THRESHOLD + 1e-8
        a_minus = THRESHOLD - 1e-8
        unstable, _ = stability_threshold_scan([a_minus, a_plus], xi_max=8192)
        assert unstable.tolist() == [False, True]
        unstable, _ = stability_threshold_scan([a_plus], xi_max=5000)
        assert not unstable[0]

    @pytest.mark.parametrize("xi_max", [1, 2, 128, 8192])
    def test_is_re_lambda_plus_at_xi_max(self, xi_max):
        grid = scan_amplitudes(xi_max)
        unstable, growth_rate = stability_threshold_scan(grid, xi_max)
        rate = gn_eigenvalues(np.array(grid), 0, xi_max)[0].real
        assert growth_rate.tobytes() == rate.tobytes()
        assert unstable.tolist() == (rate > 0).tolist()

    def test_rejects_bad_xi_max(self):
        with pytest.raises(ValueError):
            stability_threshold_scan([0.5], xi_max=0)

    @pytest.mark.parametrize("carrier", [0, 3])
    @pytest.mark.parametrize("xi_max", [1, 2, 3, 128, 1024])
    def test_matches_per_mode_loop(self, xi_max, carrier):
        # the scan takes no carrier: it must match the loop at every k, and
        # its most unstable mode is xi_max
        grid = scan_amplitudes(xi_max)
        unstable, growth_rate = stability_threshold_scan(grid, xi_max)
        got = [
            (float(a), u, xi_max if u else None, rate)
            for a, u, rate in zip(grid, unstable.tolist(), growth_rate.tolist())
        ]
        want = reference_scan(grid, xi_max, carrier)
        assert list(map(repr, got)) == list(map(repr, want))


class TestSplitStepModeGrowth:
    def test_reference_values(self):
        plus, minus = split_step_mode_growth(1.0, 1e-4, 16)
        assert plus == pytest.approx(1 + 0.0256, rel=1e-12)
        assert minus == pytest.approx(1 - 0.0256, rel=1e-12)

    def test_threshold_amplitude_neutral(self):
        # sqrt(1/2) is not exactly representable: 2 w^2 - 1 lands one ulp
        # above zero, so the multipliers sit within tau k^2 sqrt(2 eps) of 1
        for k in [1, 16, 64]:
            plus, minus = split_step_mode_growth(np.sqrt(0.5), 1e-4, k)
            bound = 1e-4 * k**2 * 2e-8
            assert abs(plus - 1.0) <= bound
            assert abs(minus - 1.0) <= bound

    def test_stable_side_complex_pair(self):
        plus, minus = split_step_mode_growth(0.5, 1e-4, 16)
        shift = 1e-4 * 256 * np.sqrt(0.5)
        assert plus == pytest.approx(1 + 1j * shift, abs=1e-14)
        assert minus == pytest.approx(1 - 1j * shift, abs=1e-14)

    @pytest.mark.parametrize("tau", [1e-4, 0.37])
    def test_broadcast_grid_matches_scalar_calls(self, tau):
        rng = np.random.default_rng(5)
        special = [0.0, *ulp_neighbours(THRESHOLD, 1), 0.8, 1.0, 3.0, 1e3, 1e200]
        w = np.array(special + list(rng.uniform(0.69, 0.73, 20)))
        k = np.array([1, 2, 32, 1000, 10**160], dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            plus, minus = split_step_mode_growth(w[:, None], tau, k[None, :])
            scalar = [[split_step_mode_growth(a, tau, kk) for kk in k] for a in w]

        def parts(mp, mm):
            return [repr(float(mp.real)), repr(float(mp.imag)),
                    repr(float(mm.real)), repr(float(mm.imag))]

        assert plus.shape == minus.shape == (len(w), len(k))
        for i in range(len(w)):
            for j in range(len(k)):
                assert parts(plus[i, j], minus[i, j]) == parts(*scalar[i][j]), (w[i], k[j])

    def test_rejects_nonpositive_tau(self):
        # NaN used to return a NaN pair and inf a pair nan +/- inf j
        for tau in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau must be finite and positive"):
                split_step_mode_growth(1.0, tau, 4)
