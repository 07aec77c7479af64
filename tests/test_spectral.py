"""Tests for the mean matrix, its Perron eigenpair, and extinction probabilities."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import quasigw.spectral

from quasigw import (
    ConvergenceError,
    ModelParams,
    extinction_probabilities,
    fitness_vector,
    kernel_band,
    lumped_kernel_matrix,
    mean_matrix,
    perron,
    perron_bounds_check,
    power_iteration,
)
from quasigw.spectral import _inverse

LN2 = math.log(2.0)


def scalar_master_extinction(sigma, tol=1e-15, max_iter=10_000):
    """Extinction probability of a Poisson(sigma) branching process.

    Scalar oracle: iterate x -> exp(sigma*(x-1)) from 0.  Supercritical
    sigma makes this geometric, so machine precision is reachable.
    """
    x = 0.0
    for _ in range(max_iter):
        x_next = math.exp(sigma * (x - 1.0))
        if abs(x_next - x) < tol:
            return x_next
        x = x_next
    raise RuntimeError("scalar iteration stalled")


class TestMeanMatrix:
    def test_fitness_vector(self):
        p = ModelParams(sigma=4.0, ell=3, kappa=2, q=0.2)
        assert np.array_equal(fitness_vector(p), [4.0, 1.0, 1.0, 1.0])

    def test_master_entry_hand_value(self):
        # W(0,0) = sigma * (1-q)^ell = 2 * 0.8^3
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.2)
        assert mean_matrix(p)[0, 0] == pytest.approx(1.024, rel=1e-14)

    def test_rows_are_scaled_kernel_rows(self):
        p = ModelParams(sigma=3.0, ell=4, kappa=2, q=0.15)
        m = lumped_kernel_matrix(p)
        w = mean_matrix(p)
        assert np.allclose(w[0], 3.0 * m[0], rtol=0, atol=0)
        assert np.array_equal(w[1:], m[1:])

    def test_row_sums(self):
        p = ModelParams(sigma=5.0, ell=30, kappa=3, q=0.1)
        sums = mean_matrix(p).sum(axis=1)
        assert sums[0] == pytest.approx(5.0, abs=1e-12)
        assert np.max(np.abs(sums[1:] - 1.0)) < 1e-12

    def test_q_zero_is_diagonal(self):
        p = ModelParams(sigma=4.0, ell=3, kappa=2, q=0.0)
        assert np.array_equal(mean_matrix(p), np.diag([4.0, 1.0, 1.0, 1.0]))

    def test_strictly_positive_for_interior_q(self):
        p = ModelParams(sigma=2.0, ell=5, kappa=2, q=0.3)
        assert np.all(mean_matrix(p) > 0.0)

    def test_precomputed_kernel_shortcut(self):
        p = ModelParams(sigma=2.0, ell=4, kappa=2, q=0.2)
        m = lumped_kernel_matrix(p)
        kept = m.copy()
        assert np.array_equal(mean_matrix(p, kernel=m), mean_matrix(p))
        assert np.array_equal(m, kept)


class TestPerron:
    """The generic power iteration, kept as the oracle for ``perron``."""

    def test_diagonal_case(self):
        w = np.diag([4.0, 1.0, 1.0, 1.0])
        pair = power_iteration(w)
        assert pair.lam == pytest.approx(4.0, rel=1e-10)
        assert pair.rho[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(pair.rho[1:] < 1e-9)

    def test_neutral_sigma_gives_stationary_law(self):
        """For sigma=1 the mean matrix is the kernel itself: lambda=1 and the
        eigenvector is the stationary law, cross-checked with a dense solver."""
        p = ModelParams(sigma=1.0, ell=20, kappa=2, q=0.15)
        w = mean_matrix(p)
        pair = power_iteration(w)
        assert pair.lam == pytest.approx(1.0, abs=1e-10)
        assert np.abs(pair.rho @ w - pair.rho).sum() < 1e-11
        vals, vecs = np.linalg.eig(w.T)
        top = np.argmax(vals.real)
        stat = np.abs(vecs[:, top].real)
        stat /= stat.sum()
        assert np.max(np.abs(pair.rho - stat)) < 1e-9

    def test_identity_and_range_supercritical(self):
        p = ModelParams(sigma=4.0, ell=1000, kappa=2, q=LN2 / 1000)
        pair = power_iteration(mean_matrix(p))
        assert 1.0 < pair.lam < 4.0
        assert abs(pair.lam - (3.0 * pair.rho[0] + 1.0)) < 1e-8
        assert np.all(pair.rho > 0.0)
        assert pair.rho.sum() == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_dense_eigensolver(self):
        p = ModelParams(sigma=4.0, ell=300, kappa=2, q=LN2 / 300)
        w = mean_matrix(p)
        pair = power_iteration(w)
        lam_dense = np.max(np.linalg.eigvals(w).real)
        assert pair.lam == pytest.approx(lam_dense, rel=1e-9)

    def test_residual_contract(self):
        p = ModelParams(sigma=2.0, ell=50, kappa=2, q=0.05)
        w = mean_matrix(p)
        tol = 1e-12
        pair = power_iteration(w, tol=tol)
        assert pair.residual < tol * pair.lam
        assert np.abs(pair.rho @ w - pair.lam * pair.rho).sum() < tol * pair.lam

    def test_nonconvergence_raises_with_diagnostics(self):
        p = ModelParams(sigma=4.0, ell=100, kappa=2, q=0.01)
        with pytest.raises(ConvergenceError) as exc:
            power_iteration(mean_matrix(p), tol=1e-14, max_iter=3)
        assert exc.value.iterations == 3
        assert exc.value.residual is not None and exc.value.residual > 0.0

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            power_iteration(np.ones((2, 3)))
        with pytest.raises(ValueError):
            power_iteration(np.array([[1.0, -0.1], [0.2, 1.0]]))

    def test_limit_eigenvalue_trend_supercritical(self):
        """With q=a/ell and sigma*exp(-a) > 1 the eigenvalue approaches sigma*exp(-a)."""
        lam = {}
        for ell in (100, 300):
            p = ModelParams(sigma=4.0, ell=ell, kappa=2, q=LN2 / ell)
            lam[ell] = power_iteration(mean_matrix(p)).lam
        assert abs(lam[300] - 2.0) < abs(lam[100] - 2.0)
        assert abs(lam[300] - 2.0) < 0.01

    def test_limit_eigenvalue_trend_disordered(self):
        """sigma*exp(-a) = 0.5 < 1: lambda sits at 1 and low classes lose all mass.

        lambda - 1 equals (sigma-1)*rho(0), which decays faster than any
        exponential in ell here, so it is asserted tiny rather than ordered.
        """
        low_mass = {}
        for ell in (100, 300):
            p = ModelParams(sigma=2.0, ell=ell, kappa=2, q=2.0 * LN2 / ell)
            pair = power_iteration(mean_matrix(p))
            assert abs(pair.lam - 1.0) < 1e-10
            low_mass[ell] = pair.rho[:6].max()
        assert low_mass[300] < low_mass[100]


def assert_pairs_agree(pair, oracle, lam_rtol=1e-10, rho_atol=1e-8):
    assert abs(pair.lam - oracle.lam) <= lam_rtol * oracle.lam
    assert np.abs(pair.rho - oracle.rho).sum() <= rho_atol


# (sigma, a, ell) of every Perron pair the benchmark computes
BENCHMARK_INSTANCES = [(4.0, LN2, ell) for ell in (100, 300, 1000, 2000, 5000)] + [
    (2.0, 0.69, ell) for ell in (100, 300, 1000)
]


class TestSecularPerron:
    """The structured solver against the power-iteration oracle."""

    @pytest.mark.parametrize("sigma,a,ell", BENCHMARK_INSTANCES)
    def test_matches_power_iteration_on_benchmark_instances(self, sigma, a, ell):
        p = ModelParams(sigma=sigma, ell=ell, kappa=2, q=a / ell)
        w = mean_matrix(p)
        band = kernel_band(p)
        pair = perron(p, band=band)
        assert pair.method == "secular Newton"
        assert pair.residual <= 1e-12 * pair.lam
        assert np.abs(pair.rho @ w - pair.lam * pair.rho).sum() <= 1e-12 * pair.lam
        assert 1 <= pair.iterations <= 2
        assert abs(pair.lam - (1.0 + (sigma - 1.0) * pair.rho[0])) < 1e-11
        assert perron_bounds_check(pair, p, band=band).passed
        assert_pairs_agree(pair, power_iteration(w))

    def test_builds_the_mean_matrix_when_not_given(self):
        p = ModelParams(sigma=4.0, ell=100, kappa=2, q=LN2 / 100)
        built, given = perron(p), perron(p, band=kernel_band(p))
        assert built.lam == given.lam
        assert np.array_equal(built.rho, given.rho)

    @pytest.mark.parametrize("kappa", [2, 3])
    def test_neutral_sigma_gives_stationary_binomial(self, kappa):
        p = ModelParams(sigma=1.0, ell=20, kappa=kappa, q=0.15)
        pair = perron(p)
        law = binom.pmf(np.arange(21), 20, (kappa - 1) / kappa)
        assert np.abs(pair.rho - law).sum() < 1e-12
        assert pair.lam == pytest.approx(1.0, abs=1e-13)
        assert_pairs_agree(pair, power_iteration(mean_matrix(p)))

    def test_q_zero_is_master_only(self):
        p = ModelParams(sigma=3.0, ell=5, kappa=2, q=0.0)
        pair = perron(p)
        assert pair.lam == 3.0
        assert np.array_equal(pair.rho, np.eye(6)[0])
        assert_pairs_agree(pair, power_iteration(mean_matrix(p)))

    @pytest.mark.parametrize("sigma,ell,kappa,q", [(3.0, 30, 2, 0.8), (5.0, 10, 3, 0.9),
                                                   (10.0, 2, 2, 0.95)])
    def test_alternating_closed_form_starts_at_sigma(self, sigma, ell, kappa, q):
        """q > (kappa-1)/kappa makes theta < 0; Newton then starts at sigma."""
        p = ModelParams(sigma=sigma, ell=ell, kappa=kappa, q=q)
        pair = perron(p)
        assert pair.iterations > 1
        assert_pairs_agree(pair, power_iteration(mean_matrix(p)))

    def test_larger_alphabet(self):
        p = ModelParams(sigma=4.0, ell=200, kappa=4, q=LN2 / 200)
        pair = perron(p)
        assert pair.iterations == 1
        assert_pairs_agree(pair, power_iteration(mean_matrix(p)))

    @pytest.mark.parametrize("ell", [100, 300])
    def test_disordered_regime(self, ell):
        """sigma e^-a = 0.5: lam - 1 is far below the float spacing at 1."""
        p = ModelParams(sigma=2.0, ell=ell, kappa=2, q=2.0 * LN2 / ell)
        pair = perron(p)
        assert abs(pair.lam - 1.0) < 1e-13
        assert pair.residual <= 1e-12 * pair.lam
        assert_pairs_agree(pair, power_iteration(mean_matrix(p)))

    def test_disordered_regime_counts_inverse_iteration_solves(self):
        p = ModelParams(sigma=2.0, ell=300, kappa=2, q=2.0 * LN2 / 300)
        pair = perron(p)
        assert pair.method == "secular Newton (stationary limit)"
        assert pair.iterations > 10    # one Newton step, then the solves
        with pytest.raises(ConvergenceError, match="inverse-iteration") as exc:
            perron(p, max_iter=pair.iterations - 1)
        assert exc.value.iterations == 1
        assert exc.value.residual is not None

    def test_disordered_regime_long_sequence(self):
        """At ell = 1000 rho is the stationary law to the kernel's accuracy."""
        p = ModelParams(sigma=2.0, ell=1000, kappa=2, q=2.0 * LN2 / 1000)
        pair = perron(p)
        assert abs(pair.lam - 1.0) < 1e-12
        assert np.abs(pair.rho - binom.pmf(np.arange(1001), 1000, 0.5)).sum() < 1e-9

    def test_nonconvergence_raises_with_diagnostics(self):
        p = ModelParams(sigma=3.0, ell=30, kappa=2, q=0.8)
        with pytest.raises(ConvergenceError) as exc:
            perron(p, max_iter=2)
        assert exc.value.iterations == 2
        assert exc.value.residual > 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowed_master_entry_bisects_without_dividing(self):
        """At kappa=2, q=0.5, M(0, 0) = 2^-ell is left out of the band from
        ell = 521 on, so x_0 = y_0 = 0; the step bisects instead of dividing
        0 by 0, and lam and method are those of the 0/0 path it replaces."""
        pair = perron(ModelParams(sigma=2.0, ell=521, kappa=2, q=0.5))
        assert pair.method == "secular Newton"
        assert pair.iterations == 6
        assert pair.lam == pytest.approx(1.0000000000000722, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        sigma=st.floats(min_value=1.0, max_value=10.0),
        ell=st.integers(min_value=1, max_value=60),
        kappa=st.sampled_from([2, 3, 4]),
        q=st.just(0.0) | st.floats(min_value=1e-6, max_value=0.99),
    )
    # lam - 1 ~ 1e-13: the first-order update of rho spans a sign change of x - delta y
    @example(sigma=4.0, ell=43, kappa=2, q=0.9375)
    # lam - 1 ~ 7e-14: the Newton step is below the spacing of floats at 1 + mu
    @example(sigma=6.207339929758998, ell=46, kappa=2, q=0.36959870035579184)
    # the closed-form secular sum is ~1e-180, and its square underflows
    @example(sigma=1.0, ell=321, kappa=4, q=0.6875)
    def test_agrees_with_dense_eigensolver(self, sigma, ell, kappa, q):
        """Dense oracle: power iteration would need ~1/q steps at small q."""
        assume(not (sigma == 1.0 and q == 0.0))   # W = I: no unique Perron vector
        p = ModelParams(sigma=sigma, ell=ell, kappa=kappa, q=q)
        w = mean_matrix(p)
        tol = 1e-12
        pair = perron(p, band=kernel_band(p), tol=tol)
        assert pair.residual <= tol * pair.lam
        assert np.all(pair.rho >= 0.0) and pair.rho.sum() == pytest.approx(1.0, abs=1e-14)
        vals, vecs = np.linalg.eig(w.T)
        top = np.argmax(vals.real)
        oracle = np.abs(vecs[:, top].real)
        oracle /= oracle.sum()
        assert abs(pair.lam - vals[top].real) <= 1e-10 * pair.lam
        assert np.abs(pair.rho - oracle).sum() <= 1e-8
        assert abs(pair.lam - (1.0 + (sigma - 1.0) * pair.rho[0])) <= 1e-12


class TestPivotBlockSplit:
    """Pivot blocks of 100 rows or more are inverted through a 2 x 2 block split,
    away from OpenBLAS's threaded LU."""

    def test_inverse_of_a_wide_m_matrix(self):
        rng = np.random.default_rng(0)
        m = rng.random((250, 250))
        m /= m.sum(axis=1, keepdims=True)
        t = 1.01 * np.eye(250) - m
        assert np.max(np.abs(_inverse(t) @ t - np.eye(250))) < 1e-11

    def test_no_inv_call_reaches_100_rows(self, monkeypatch):
        """sigma=2, ell=300, a=2 ln 2: the band, and so each pivot block, is 101 wide."""
        p = ModelParams(sigma=2.0, ell=300, kappa=2, q=2.0 * LN2 / 300)
        sizes = []
        inv = np.linalg.inv

        def recording(a):
            sizes.append(a.shape[0])
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", recording)
        split = perron(p)
        assert sizes and max(sizes) <= 99
        sizes.clear()
        monkeypatch.setattr(quasigw.spectral, "_MAX_INV", 10**6)
        whole = perron(p)
        assert max(sizes) == 101
        assert abs(split.lam - whole.lam) <= 1e-13
        assert np.max(np.abs(split.rho - whole.rho)) <= 1e-13


class TestPerronBoundsCheck:
    def test_passes_on_converged_pair(self):
        p = ModelParams(sigma=4.0, ell=100, kappa=2, q=LN2 / 100)
        pair = perron(p)
        report = perron_bounds_check(pair, p)
        assert report.passed
        assert len(report.rows) == 11
        for row in report.rows:
            assert row.lower <= row.upper

    def test_q_zero_collapses_to_equalities(self):
        p = ModelParams(sigma=4.0, ell=5, kappa=2, q=0.0)
        pair = perron(p)
        report = perron_bounds_check(pair, p, k_max=5)
        assert report.passed
        # identity kernel: the k=0 sandwich pins lambda*rho(0) = sigma*rho(0)
        row0 = report.rows[0]
        assert row0.value == pytest.approx(row0.lower, abs=1e-9)

    def test_reuses_the_mean_matrix(self):
        p = ModelParams(sigma=4.0, ell=100, kappa=2, q=LN2 / 100)
        band = kernel_band(p)
        pair = perron(p, band=band)
        assert perron_bounds_check(pair, p, band=band) == perron_bounds_check(pair, p)

    def test_failure_injection(self):
        """A distorted eigenvector must be caught by at least one inequality."""
        p = ModelParams(sigma=4.0, ell=100, kappa=2, q=LN2 / 100)
        pair = perron(p)
        bad = pair.rho.copy()
        bad[0] *= 2.0
        bad /= bad.sum()
        fake = dataclasses.replace(pair, rho=bad)
        assert not perron_bounds_check(fake, p).passed


class TestExtinctionProbabilities:
    def test_neutral_sigma_certain_extinction(self):
        # critical case: at sigma = 1 every class dies out surely, and the solve
        # sets u = 1 - s to 0 exactly before any Newton step, so s is exactly 1
        p = ModelParams(sigma=1.0, ell=3, kappa=2, q=0.2)
        s = extinction_probabilities(p, tol=1e-10, max_iter=10**6)
        assert np.all(s <= 1.0)
        assert np.all(s > 1.0 - 5e-5)

    def test_q_zero_master_class_matches_scalar_oracle(self):
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.0)
        s = extinction_probabilities(p, tol=1e-10, max_iter=10**6)
        oracle = scalar_master_extinction(2.0)
        assert oracle == pytest.approx(0.2031878699799799, abs=1e-12)
        assert s[0] == pytest.approx(oracle, abs=1e-6)

    def test_q_zero_other_classes_go_extinct(self):
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.0)
        s = extinction_probabilities(p, tol=1e-10, max_iter=10**6)
        assert np.all(s[1:] > 1.0 - 5e-5)
        assert np.all(s[1:] <= 1.0)

    def test_supercritical_survival_from_every_class(self):
        p = ModelParams(sigma=4.0, ell=3, kappa=2, q=0.1)
        s = extinction_probabilities(p)
        assert np.all(s > 0.0)
        assert np.all(s < 1.0)

    def test_stronger_selection_lowers_extinction(self):
        weak = extinction_probabilities(ModelParams(sigma=2.0, ell=3, kappa=2, q=0.1))
        strong = extinction_probabilities(ModelParams(sigma=4.0, ell=3, kappa=2, q=0.1))
        assert np.all(strong < weak)

    def test_iterates_increase_monotonically(self):
        p = ModelParams(sigma=3.0, ell=4, kappa=2, q=0.2)
        m = lumped_kernel_matrix(p)
        a = fitness_vector(p)
        s = np.zeros(5)
        for _ in range(50):
            s_next = np.exp(a * (m @ s - 1.0))
            assert np.all(s_next >= s - 1e-15)
            s = s_next

    def test_returns_minimal_fixed_point(self):
        """All-ones is always a fixed point; the solver must find the smaller one."""
        p = ModelParams(sigma=3.0, ell=4, kappa=2, q=0.2)
        m = lumped_kernel_matrix(p)
        a = fitness_vector(p)
        ones = np.ones(5)
        assert np.max(np.abs(np.exp(a * (m @ ones - 1.0)) - ones)) < 1e-12
        s = extinction_probabilities(p)
        assert np.all(s < 1.0)

    def test_fixed_point_residual(self):
        p = ModelParams(sigma=2.0, ell=5, kappa=2, q=0.15)
        m = lumped_kernel_matrix(p)
        a = fitness_vector(p)
        s = extinction_probabilities(p, tol=1e-13)
        assert np.max(np.abs(np.exp(a * (m @ s - 1.0)) - s)) < 1e-12

    def test_nonconvergence_raises(self):
        p = ModelParams(sigma=2.0, ell=10, kappa=2, q=0.05)
        with pytest.raises(ConvergenceError) as err:
            extinction_probabilities(p, tol=1e-12, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 1e-12

    def test_q_zero_critical_classes_are_exact(self):
        # classes k >= 1 cannot reach the master class at q = 0
        s = extinction_probabilities(ModelParams(sigma=2.0, ell=2, kappa=2, q=0.0))
        assert s[0] == pytest.approx(scalar_master_extinction(2.0), abs=1e-15)
        assert np.all(s[1:] == 1.0)

    @pytest.mark.parametrize("sigma,ell,a", [(2.0, 100, 0.69), (2.0, 200, 0.1), (4.0, 200, LN2)])
    def test_near_critical_classes_at_defaults(self, sigma, ell, a):
        """Instances the fixed-point iteration could not finish in 10^5 steps."""
        p = ModelParams(sigma=sigma, ell=ell, kappa=2, q=a / ell)
        m = lumped_kernel_matrix(p)
        s = extinction_probabilities(p, kernel=m)
        u = 1.0 - s
        assert np.max(np.abs(u + np.expm1(-fitness_vector(p) * (m @ u)))) <= 1e-12
        assert np.all(np.diff(s) >= -1e-12)
        assert 0.0 < s[0] < 1.0

    def test_underflowed_master_column_is_certain_extinction(self):
        """Every M(b, 0) = 2^-1100 underflows to 0, so in floating point no class
        reaches class 0 (not even class 0 itself), and every u is 0 exactly."""
        p = ModelParams(sigma=2.0, ell=1100, kappa=2, q=0.5)
        m = lumped_kernel_matrix(p)
        assert not np.any(m[:, 0])
        s = extinction_probabilities(p, kernel=m)
        assert np.all(s == 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        sigma=st.floats(min_value=1.0, max_value=10.0),
        ell=st.integers(min_value=1, max_value=60),
        kappa=st.sampled_from([2, 3]),
        q=st.just(0.0) | st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_minimal_fixed_point_property(self, sigma, ell, kappa, q):
        p = ModelParams(sigma=sigma, ell=ell, kappa=kappa, q=q)
        m = lumped_kernel_matrix(p)
        a = fitness_vector(p)
        s = extinction_probabilities(p, kernel=m)
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert np.max(np.abs(np.exp(a * (m @ s - 1.0)) - s)) <= 1e-12
        # the fixed-point iterates from 0 increase to the minimal fixed point
        lower = np.zeros(ell + 1)
        for _ in range(200):
            lower = np.exp(a * (m @ lower - 1.0))
        assert np.all(s >= lower - 1e-12)
