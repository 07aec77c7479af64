"""Tests for the limiting class distribution and its two computation routes."""

import math
from fractions import Fraction

import numpy as np
import pytest

import quasigw.quasispecies
from quasigw import (
    ModelParams,
    QuasispeciesParams,
    Regime,
    classify_regime,
    perron,
    power_sigma_series,
    qs_normalization_check,
    qs_pmf,
    qs_pmf_by_recurrence,
)
from quasigw.quasispecies import _log_power_series

LN2 = math.log(2.0)

# float-roundoff slack for sums of ~100 correctly-rounded pmf terms
SUM_EPS = 1e-12


class TestParamsAndRegime:
    def test_threshold_value(self):
        p = QuasispeciesParams(sigma=4.0, a=LN2)
        assert p.threshold == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=1.0, a=0.5),
            dict(sigma=0.5, a=0.5),
            dict(sigma=math.inf, a=0.5),
            dict(sigma=2.0, a=-0.1),
            dict(sigma=2.0, a=math.nan),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            QuasispeciesParams(**kwargs)

    def test_classification(self):
        assert classify_regime(QuasispeciesParams(4.0, LN2)) is Regime.QUASISPECIES
        assert classify_regime(QuasispeciesParams(1.5, 1.0)) is Regime.DISORDERED

    def test_boundary_counts_as_disordered(self):
        assert classify_regime(QuasispeciesParams(2.0, LN2)) is Regime.DISORDERED


def exact_log_power_series(n, sigma):
    """log of sum_{i >= 1} i^n / sigma^i for rational sigma, in exact arithmetic.

    Oracle for the Eulerian closed form x A_n(x) / (1 - x)^(n+1) with
    x = 1/sigma: the Eulerian numbers come from the explicit alternating
    sum A(n, m) = sum_j (-1)^j C(n+1, j) (m+1-j)^n in integers, not from
    the recurrence the package runs in floating point.
    """
    x = 1 / Fraction(sigma)
    if n == 0:
        value = x / (1 - x)
    else:
        eulerian = [
            sum((-1) ** j * math.comb(n + 1, j) * (m + 1 - j) ** n for j in range(m + 1))
            for m in range(n)
        ]
        value = x * sum(c * x**m for m, c in enumerate(eulerian)) / (1 - x) ** (n + 1)
    # scale by a power of two before rounding, so the log keeps full precision
    shift = value.numerator.bit_length() - value.denominator.bit_length()
    return math.log(float(value / Fraction(2) ** shift)) + shift * math.log(2.0)


class TestPowerSigmaSeries:
    """S_k(sigma) = sum_{i>=1} i^k sigma^{-i} against closed rational forms.

    The closed forms follow from differentiating the geometric series:
    S_0 = 1/(s-1), S_1 = s/(s-1)^2, S_2 = s(s+1)/(s-1)^3,
    S_3 = s(s^2+4s+1)/(s-1)^4.
    """

    @pytest.mark.parametrize("sigma", [1.5, 2.0, 4.0, 10.0])
    def test_closed_forms(self, sigma):
        s = sigma
        expected = {
            0: 1.0 / (s - 1.0),
            1: s / (s - 1.0) ** 2,
            2: s * (s + 1.0) / (s - 1.0) ** 3,
            3: s * (s * s + 4.0 * s + 1.0) / (s - 1.0) ** 4,
        }
        for k, value in expected.items():
            assert power_sigma_series(k, s) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("sigma", ["1.00005", "1.001", "1.5", "2", "4", "1000000"])
    @pytest.mark.parametrize("n,rel", [(0, 1e-14), (1, 1e-14), (7, 3e-14), (31, 1e-13),
                                       (171, 2e-12), (250, 2e-12)])
    def test_matches_exact_closed_form(self, sigma, n, rel):
        """Relative accuracy at bases close to 1, where a direct sum needs
        about n / log(sigma) terms, and past n = 170, where n! overflows."""
        sigma = float(sigma)
        got = _log_power_series(n, math.log(sigma))  # the sum itself overflows past n ~ 150
        assert abs(math.expm1(got - exact_log_power_series(n, Fraction(sigma)))) <= rel

    @pytest.mark.parametrize("sigma", [1.00005, 2.0, 4.0])
    def test_one_pass_matches_each_order(self, sigma):
        """A sequence of orders takes one pass over the Eulerian triangle and
        gives each order's own value bit for bit, in the order asked."""
        log_base = math.log(sigma)
        each = [_log_power_series(n, log_base) for n in range(201)]
        assert _log_power_series(np.arange(201), log_base).tolist() == each
        orders = [7, 0, 200, 7, 1]
        assert _log_power_series(orders, log_base).tolist() == [each[n] for n in orders]

    def test_one_pass_matches_each_base(self):
        """Orders and bases broadcast together; each (order, base) pair
        gives its own call's value bit for bit."""
        orders, bases = [3, 0, 40, 40, 3], [math.log(4.0), 0.5, 1e-4, math.log(4.0), 0.5]
        got = _log_power_series(orders, bases).tolist()
        assert got == [_log_power_series(n, b) for n, b in zip(orders, bases)]
        assert _log_power_series(5, [0.5, 2.0]).tolist() == [
            _log_power_series(5, 0.5), _log_power_series(5, 2.0)]
        with pytest.raises(ValueError):
            _log_power_series([1, 2], [0.5, 0.0])

    def test_brute_force_partial_sum(self):
        # direct summation oracle, long enough for the geometric tail to vanish
        total = sum(i**5 * 3.0**-i for i in range(1, 400))
        assert power_sigma_series(5, 3.0) == pytest.approx(total, rel=1e-13)


class TestClosedFormPmf:
    def test_mass_at_zero(self):
        # (sigma e^{-a} - 1) * S_0(sigma) = (2 - 1)/(4 - 1)
        p = QuasispeciesParams(4.0, LN2)
        assert qs_pmf(p, 0) == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_mass_at_one(self):
        # (sigma e^{-a} - 1) * a * S_1(sigma) = ln2 * 4/9
        p = QuasispeciesParams(4.0, LN2)
        assert qs_pmf(p, 1) == pytest.approx(LN2 * 4.0 / 9.0, rel=1e-13)

    def test_no_mutation_point_mass(self):
        p = QuasispeciesParams(3.0, 0.0)
        assert qs_pmf(p, 0) == 1.0
        assert qs_pmf(p, 1) == 0.0
        assert qs_pmf(p, 7) == 0.0

    def test_disordered_regime_is_zero(self):
        p = QuasispeciesParams(2.0, 2.0 * LN2)
        assert all(qs_pmf(p, k) == 0.0 for k in range(20))

    def test_boundary_is_zero(self):
        p = QuasispeciesParams(2.0, LN2)
        assert qs_pmf(p, 0) == 0.0

    def test_nonnegative_and_decaying(self):
        p = QuasispeciesParams(4.0, LN2)
        values = [qs_pmf(p, k) for k in range(200)]
        assert all(v >= 0.0 for v in values)
        assert values[150] < values[20] < values[5]

    @pytest.mark.parametrize("sigma,a", [(4.0, LN2), (2.0, 0.6931), (3.0, 0.0), (2.0, 2.0 * LN2)])
    def test_sequence_of_classes_matches_each_class(self, sigma, a):
        p = QuasispeciesParams(sigma, a)
        each = [qs_pmf(p, k) for k in range(31)]
        assert qs_pmf(p, np.arange(31)).tolist() == each
        assert qs_pmf(p, [5, 0, 5]).tolist() == [each[5], each[0], each[5]]
        assert qs_pmf(p, np.arange(0)).shape == (0,)
        with pytest.raises(ValueError):
            qs_pmf(p, [0, -1])

    def test_boundary_continuity(self):
        """Mass at zero vanishes linearly as the threshold drops to 1."""
        previous = qs_pmf(QuasispeciesParams(2.0, LN2 - 0.1), 0)
        for eps in (1e-3, 1e-6, 1e-9):
            p = QuasispeciesParams(2.0, LN2 - eps)
            value = qs_pmf(p, 0)
            assert 0.0 < value < previous
            previous = value
        assert previous < 1e-8


class TestRecurrencePmf:
    def test_seed_value(self):
        p = QuasispeciesParams(4.0, LN2)
        pmf = qs_pmf_by_recurrence(p, 0)
        assert pmf.shape == (1,)
        assert pmf[0] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_a_zero_point_mass(self):
        pmf = qs_pmf_by_recurrence(QuasispeciesParams(5.0, 0.0), 6)
        assert pmf[0] == 1.0
        assert np.all(pmf[1:] == 0.0)

    def test_disordered_raises(self):
        with pytest.raises(ValueError):
            qs_pmf_by_recurrence(QuasispeciesParams(2.0, LN2), 10)

    @pytest.mark.parametrize("sigma,a", [(4.0, LN2), (2.0, 0.1), (10.0, 1.0)])
    def test_agrees_with_closed_form(self, sigma, a):
        p = QuasispeciesParams(sigma, a)
        rec = qs_pmf_by_recurrence(p, 50)
        closed = np.array([qs_pmf(p, k) for k in range(51)])
        assert np.max(np.abs(rec - closed)) < 1e-10


class TestNormalization:
    def test_partial_sums_increase_to_one(self):
        p = QuasispeciesParams(4.0, LN2)
        prev_partial = 0.0
        prev_tail = math.inf
        for k_max in (5, 10, 20, 40, 60):
            partial, tail = qs_normalization_check(p, k_max)
            assert partial <= 1.0 + SUM_EPS
            assert partial + tail >= 1.0 - SUM_EPS
            assert partial >= prev_partial
            assert tail <= prev_tail
            prev_partial, prev_tail = partial, tail
        assert abs(prev_partial - 1.0) < 1e-9

    def test_small_mutation_pressure(self):
        partial, tail = qs_normalization_check(QuasispeciesParams(2.0, 0.1), 30)
        assert partial == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= tail < 1e-20

    @pytest.mark.parametrize("sigma,a,k_max", [(4.0, LN2, 30), (2.0, 0.6931, 200)])
    def test_one_pass_over_the_triangle(self, sigma, a, k_max, monkeypatch):
        """One _log_power_series call serves the pmf and both tail bounds,
        and the partial sum is that of qs_pmf's values, bit for bit."""
        p = QuasispeciesParams(sigma, a)
        expected = math.fsum(qs_pmf(p, np.arange(k_max + 1)).tolist())
        calls = []
        series = quasigw.quasispecies._log_power_series

        def counted(n, log_base):
            calls.append(n)
            return series(n, log_base)

        monkeypatch.setattr(quasigw.quasispecies, "_log_power_series", counted)
        partial, _ = qs_normalization_check(p, k_max)
        assert partial == expected
        assert len(calls) == 1

    def test_a_zero_exact(self):
        partial, tail = qs_normalization_check(QuasispeciesParams(3.0, 0.0), 0)
        assert partial == 1.0
        assert tail == 0.0

    def test_disordered_rejected(self):
        with pytest.raises(ValueError):
            qs_normalization_check(QuasispeciesParams(2.0, LN2), 10)

    def test_barely_supercritical_tail_reported_honestly(self):
        """Close to the threshold the pmf spreads out; the truncation bound
        must stay an upper bound on the missing mass while it shrinks."""
        p = QuasispeciesParams(sigma=1.1 * 1.001 * math.exp(2.0), a=2.0)
        prev_tail = math.inf
        for k_max in (50, 150, 300):
            partial, tail = qs_normalization_check(p, k_max)
            assert partial <= 1.0 + SUM_EPS
            assert partial + tail >= 1.0 - SUM_EPS
            assert tail < prev_tail
            prev_tail = tail
        assert prev_tail < 1e-3


class TestSpectralBridge:
    def test_perron_vector_approaches_limit_pmf(self):
        """Finite-size eigenvector frequencies approach the limit law as the
        sequence grows at fixed a = ell*q."""
        p_lim = QuasispeciesParams(4.0, LN2)
        limit = np.array([qs_pmf(p_lim, k) for k in range(11)])
        gaps = []
        for ell in (100, 300, 1000):
            p = ModelParams(sigma=4.0, ell=ell, kappa=2, q=LN2 / ell)
            pair = perron(p)
            gaps.append(np.max(np.abs(pair.rho[:11] - limit)))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.01
