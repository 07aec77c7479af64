"""Tests for the mean matrix, its Perron eigenpair, and extinction probabilities."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from scipy.stats import binom

import quasigw.spectral

from quasigw import (
    ConvergenceError,
    ModelParams,
    PerronPair,
    SlowSeriesError,
    extinction_probabilities,
    fitness_vector,
    kernel_band,
    lumped_kernel_matrix,
    mean_matrix,
    perron,
    perron_bounds_check,
    perron_head,
)
from quasigw.kernel import BAND_FLOOR, _log_stationary_law
from quasigw.spectral import _classes_reaching_master, _inverse, _solve

LN2 = math.log(2.0)
# The head's accuracy bounds hold where numpy's long double is wider than a
# double (80-bit on x86); where it is a double they do not (perron_head).
EXTENDED_LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is a double here: the head loses about a digit")


def power_iteration(w, tol=1e-12, max_iter=10**6):
    """Left power iteration for the Perron eigenpair of a nonnegative matrix:
    the generic solver, kept as the oracle for ``perron``.

    Starts from the uniform distribution, renormalizes in 1-norm each
    step, and stops once both the change in the eigenvalue estimate and
    the residual ||rho W - lam rho||_1 drop below tol (relative to lam).
    The number of steps grows like 1 / log(lam / |lam_2|), so near the
    survival threshold it takes thousands.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"matrix must be square, got shape {w.shape}")
    if w.min() < 0:
        raise ValueError("matrix must be entrywise nonnegative")
    n = w.shape[0]
    v = np.full(n, 1.0 / n)
    lam_prev = np.inf
    residual = np.inf
    for it in range(1, max_iter + 1):
        y = v @ w
        lam = float(y.sum())
        if not lam > 0.0:
            raise ValueError("power iteration hit a zero vector; matrix has a zero row sum")
        residual = float(np.abs(y - lam * v).sum())
        if residual < tol * lam and abs(lam - lam_prev) <= tol * max(1.0, lam):
            return PerronPair(lam=lam, rho=v, residual=residual, iterations=it,
                              method="power iteration")
        lam_prev = lam
        v = y / lam
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual=residual,
        iterations=max_iter,
    )


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


def dense_newton_extinction(p, tol=1e-12, max_iter=100):
    """Extinction probabilities by Newton's method on the dense kernel: the
    solver before the banded elimination, kept as the oracle for it.

    Same iteration as ``extinction_probabilities`` (u = 1 - s from 1 on the
    classes that reach class 0, clamp at 0, step and residual <= tol), but
    each step is one dense LU of the live classes' Jacobian, and the classes
    that reach class 0 come from a search of every nonzero entry of the
    dense kernel.  Returns s and those classes.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order

    m = lumped_kernel_matrix(p)
    a = fitness_vector(p)
    u = np.zeros(p.ell + 1)
    reach = np.sort(breadth_first_order(csr_array(m.T), 0, return_predecessors=False))
    if p.sigma > 1.0:
        u[reach] = 1.0
    step = np.inf
    for _ in range(max_iter + 1):
        mu = m @ u
        f = u + np.expm1(-a * mu)
        if np.max(np.abs(f)) <= tol and step <= tol:
            return 1.0 - u, reach
        live = np.flatnonzero(u)
        jac = m[np.ix_(live, live)] * -(a[live] * np.exp(-a[live] * mu[live]))[:, None]
        jac.flat[:: live.size + 1] += 1.0
        u_live = np.maximum(u[live] - np.linalg.solve(jac, f[live]), 0.0)
        step = float(np.max(np.abs(u_live - u[live]), initial=0.0))
        u[live] = u_live
    raise ConvergenceError("dense Newton oracle did not converge")


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
        # sigma = 1: W is the identity to rounding (theta rounds to 1 at
        # q = 1e-300 too), and rho is e_0, the limit as sigma falls to 1
        for q in (0.0, 1e-300):
            pair = perron(dataclasses.replace(p, sigma=1.0, q=q))
            assert pair.lam == 1.0
            assert np.array_equal(pair.rho, np.eye(6)[0])

    @pytest.mark.parametrize("sigma,ell,kappa,q", [(3.0, 30, 2, 0.8), (5.0, 10, 3, 0.9),
                                                   (10.0, 2, 2, 0.95)])
    def test_alternating_regime_starts_at_closed_form(self, sigma, ell, kappa, q):
        """q > (kappa-1)/kappa makes theta < 0; the closed-form series has
        positive terms there too, so its root is within tol of the numerical one."""
        p = ModelParams(sigma=sigma, ell=ell, kappa=kappa, q=q)
        pair = perron(p)
        assert pair.iterations == 1
        assert_pairs_agree(pair, power_iteration(mean_matrix(p)))

    @pytest.mark.parametrize("ell", [5000, 20000])
    def test_one_newton_step_at_long_sequences(self, ell):
        """With the kernel and the stationary law accurate to rounding, the
        closed-form start is within tol of the numerical root."""
        pair = perron(ModelParams(sigma=4.0, ell=ell, kappa=2, q=LN2 / ell))
        assert pair.method == "secular Newton" and pair.iterations == 1

    @pytest.mark.parametrize("ell,kappa", [(1000, 2), (1022, 2), (1023, 2), (3000, 2),
                                           (700, 3), (2000, 4)])
    def test_stationary_law_matches_mpmath(self, ell, kappa):
        """log pi_j within a few ulps of the 40-digit value wherever pi_j is a
        normal float, on both sides of ell log kappa = 708 (products of
        ratios below, the saddle point above)."""
        mpmath = pytest.importorskip("mpmath")
        log_pi = _log_stationary_law(ModelParams(sigma=2.0, ell=ell, kappa=kappa, q=0.1))
        with mpmath.workdps(40):
            p = mpmath.mpf(kappa - 1) / kappa
            ref = np.array([float(mpmath.log(mpmath.binomial(ell, j)) + j * mpmath.log(p)
                                  + (ell - j) * mpmath.log(1 - p)) for j in range(ell + 1)])
        normal = ref > math.log(1e-300)
        err = np.abs(log_pi - ref)[normal]
        assert np.all(err <= 1e-13 + 4 * np.finfo(float).eps * np.abs(ref[normal]))

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

    def test_disordered_regime_takes_one_elimination(self):
        """The stationary limit needs only the elimination at the floor."""
        p = ModelParams(sigma=2.0, ell=300, kappa=2, q=2.0 * LN2 / 300)
        pair = perron(p, max_iter=1)
        assert pair.method == "secular Newton (stationary limit)"
        assert pair.iterations == 1

    @pytest.mark.parametrize("sigma,kappa,q,ell", [
        (2.0, 2, 2.0 * LN2 / 100, 100), (2.0, 2, 2.0 * LN2 / 300, 300),
        (1.5, 3, 0.02, 200), (2.0, 3, 0.5, 521)])
    def test_stationary_limit_is_accurate_per_class(self, sigma, kappa, q, ell):
        """rho is the stationary law pi to 1e-12 relative in every class
        >= ell / 2 where pi is a normal float, and rho_0 is the limit of the
        secular equation as mu -> 0: pi_0 / (1 - (sigma - 1) S) with
        S = sum_{j >= 1} pi_j theta^j / (1 - theta^j)."""
        pair = perron(ModelParams(sigma=sigma, ell=ell, kappa=kappa, q=q))
        assert pair.method == "secular Newton (stationary limit)" and pair.iterations == 1
        j = np.arange(ell + 1)
        law = binom.pmf(j, ell, (kappa - 1) / kappa)
        far = (j >= ell / 2) & (law >= np.finfo(float).tiny)
        np.testing.assert_allclose(pair.rho[far], law[far], rtol=1e-12, atol=0.0)
        jt = j[1:] * math.log1p(-q * kappa / (kappa - 1))   # log theta^j
        s = float(np.sum(law[1:] * np.exp(jt) / -np.expm1(jt)))
        assert pair.rho[0] == pytest.approx(law[0] / (1.0 - (sigma - 1.0) * s), rel=1e-12, abs=0.0)

    def test_disordered_regime_long_sequence(self):
        """At ell = 1000 rho is the stationary law to the kernel's accuracy."""
        p = ModelParams(sigma=2.0, ell=1000, kappa=2, q=2.0 * LN2 / 1000)
        pair = perron(p)
        assert abs(pair.lam - 1.0) < 1e-12
        assert np.abs(pair.rho - binom.pmf(np.arange(1001), 1000, 0.5)).sum() < 1e-9

    def test_nonconvergence_raises_with_diagnostics(self):
        """sigma near 1 and theta = -0.99998: the closed-form series, whose
        terms swing in sign and fall by a factor of about 1 - 1e-4 per step,
        converges too slowly to give the start, so Newton starts at sigma and
        needs more than two eliminations."""
        p = ModelParams(sigma=1.0001, ell=20, kappa=2, q=0.99999)
        with pytest.raises(ConvergenceError):
            perron_head(p, k_max=0)
        assert perron(p).iterations > 2
        with pytest.raises(ConvergenceError) as exc:
            perron(p, max_iter=2)
        assert exc.value.iterations == 2
        assert exc.value.residual > 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowed_master_entry_takes_one_elimination(self, monkeypatch):
        """At kappa=3, q=0.5 (theta = 1/4), every M(b, 0) <= 2^-ell is below
        BAND_FLOOR from ell = 512 on, so the elimination drops column 0 and
        x_0 = 0.  The closed-form start, lam - 1 ~ 3^-521, lies below the
        floor, so the one elimination, at the floor, gives the stationary
        limit: no Newton step divides by y_0 = 0."""
        p = ModelParams(sigma=2.0, ell=521, kappa=3, q=0.5)
        band = kernel_band(p)
        assert np.all(band.block(0, band.n, 0, 1) < BAND_FLOOR)
        master = []
        solve = quasigw.spectral._BandSolver.solve

        def recording_solve(self, b):
            x = solve(self, b)
            master.append(float(x[0]))
            return x

        monkeypatch.setattr(quasigw.spectral._BandSolver, "solve", recording_solve)
        pair = perron(p, band=band)
        assert master == [0.0]
        assert pair.iterations == 1
        assert pair.method == "secular Newton (stationary limit)"
        assert pair.lam == 1.0
        assert pair.residual <= 1e-12

    @pytest.mark.parametrize("kappa,q,ell", [(2, 0.5, 521), (2, 0.5, 600), (2, 0.5, 1100),
                                             (3, 2 / 3, 300), (4, 0.75, 40)])
    def test_theta_zero_is_the_stationary_law(self, kappa, q, ell):
        """theta = 1 - q kappa / (kappa - 1) = 0: every row of M is the
        stationary law pi, so rho = pi and lam = 1 + (sigma - 1) pi_0, with no
        elimination."""
        p = ModelParams(sigma=3.0, ell=ell, kappa=kappa, q=q)
        pair = perron(p)
        pi = binom.pmf(np.arange(ell + 1), ell, (kappa - 1) / kappa)
        assert pair.method == "closed form (theta = 0)" and pair.iterations == 0
        assert np.abs(pair.rho - pi).sum() < 1e-14
        assert pair.lam == 1.0 + 2.0 * pair.rho[0] and pair.lam >= 1.0
        assert pair.residual <= 1e-12 * pair.lam
        with pytest.raises(ConvergenceError) as err:
            perron(p, tol=1e-300)
        assert err.value.iterations == 0 and err.value.residual == pair.residual

    def test_theta_zero_checks_the_band(self):
        """The closed form is checked against the band it is given: a band of
        another q, where the rows are not pi, fails the residual test."""
        p = ModelParams(sigma=3.0, ell=4, kappa=2, q=0.5)
        with pytest.raises(ConvergenceError):
            perron(p, band=kernel_band(dataclasses.replace(p, q=0.1)))

    @pytest.mark.parametrize("sigma,kappa,q,ell", [
        (2.0, 2, 0.9, 200), (2.0, 2, 0.9, 521), (2.0, 2, 0.5, 521), (2.0, 2, 0.5, 600),
        (2.0, 2, 0.5, 1100), (2.0, 3, 0.5, 600), (2.0, 3, 0.9, 600), (2.0, 2, 0.7, 800)])
    def test_root_is_never_below_one(self, sigma, kappa, q, ell):
        """W >= M entrywise and M is stochastic, so lam >= 1, also where
        rounding leaves the row sums of the band just below 1."""
        assert perron(ModelParams(sigma=sigma, ell=ell, kappa=kappa, q=q)).lam >= 1.0

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


def mpmath_head(sigma, ell, kappa, q, k_max, dps=40):
    """mu = lam - 1 and rho_0..rho_k_max from the head series in dps-digit
    arithmetic: rho_k = pi_k + mu sum_n lam^-n (M^n(0, k) - pi_k) with
    M^n(0, k) the Binomial(ell, (1 - 1/kappa)(1 - theta^n)) pmf, summed
    until ten terms in a row fall below 10^-(dps + 5) of pi_k / mu plus the
    sum, and lam the root of (sigma - 1) x_0 = 1 found by bisection in
    log mu, then the secant method."""
    import mpmath

    with mpmath.workdps(dps):
        sigma, q = mpmath.mpf(sigma), mpmath.mpf(q)
        p_inf = 1 - mpmath.mpf(1) / kappa
        theta = 1 - q * kappa / (kappa - 1)
        ks = range(k_max + 1)
        binom_ell = [mpmath.binomial(ell, k) for k in ks]
        pi = [binom_ell[k] * p_inf**k * (1 - p_inf) ** (ell - k) for k in ks]
        small = mpmath.mpf(10) ** -(dps + 5)
        diffs = []

        def head(mu, k):
            total, n, quiet = mpmath.mpf(0), 0, 0
            while quiet < 10 or n < 30:
                n += 1
                if n > len(diffs):
                    p = p_inf * (1 - theta**n)
                    diffs.append([binom_ell[j] * p**j * (1 - p) ** (ell - j) - pi[j] for j in ks])
                term = (1 + mu) ** -n * diffs[n - 1][k]
                total += term
                quiet = quiet + 1 if abs(term) <= small * (pi[k] / mu + abs(total)) else 0
            return pi[k] + mu * total

        def h(t):
            mu = mpmath.exp(t)
            return mpmath.log((sigma - 1) * head(mu, 0) / mu)

        lo = mpmath.log(sigma - 1) + mpmath.log(pi[0]) - mpmath.log(1 + sigma)
        hi = mpmath.log(sigma - 1)
        while hi - lo > 1e-6:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if h(mid) > 0 else (lo, mid)
        mu = mpmath.exp(mpmath.findroot(h, (lo, hi), solver="secant"))
        return mu, [head(mu, k) for k in ks]


class TestPerronHead:
    """The closed-form head against 40-digit arithmetic and against ``perron``."""

    @EXTENDED_LONG_DOUBLE
    @pytest.mark.parametrize("ell", [10**3, 10**5, 10**7])
    @pytest.mark.parametrize("sigma,a", [(4.0, LN2), (2.0, LN2 - 0.005)])
    def test_matches_mpmath(self, sigma, a, ell):
        """rho_0..rho_10 within 1e-14 relative of the 40-digit sum, far from
        the threshold and at sigma e^-a = e^0.005, 0.5% above it."""
        pytest.importorskip("mpmath")
        p = ModelParams(sigma=sigma, ell=ell, kappa=2, q=a / ell)
        head = perron_head(p, k_max=10)
        mu, rho = mpmath_head(sigma, ell, 2, p.q, 10)
        assert head.rho.size == 11 and head.residual <= 1e-15
        assert abs(head.mu / float(mu) - 1.0) <= 1e-14
        np.testing.assert_allclose(head.rho, [float(x) for x in rho], rtol=1e-14, atol=0.0)
        assert head.lam == 1.0 + head.mu

    @EXTENDED_LONG_DOUBLE
    def test_root_far_below_the_spacing_at_one(self):
        """sigma = 2, a = ln 2, kappa = 4, ell = 400: lam - 1 = 3.77e-238, where
        the closed-form root in mu, from below 1e-230, stayed at its lower end."""
        pytest.importorskip("mpmath")
        p = ModelParams(sigma=2.0, ell=400, kappa=4, q=LN2 / 400)
        head = perron_head(p, k_max=5)
        mu, rho = mpmath_head(2.0, 400, 4, p.q, 5)
        assert head.lam == 1.0 and 3.7e-238 < head.mu < 3.8e-238
        # the root is ill-conditioned here: pi_0 is 4e-4 of rho_0
        assert abs(head.mu / float(mu) - 1.0) <= 1e-12
        np.testing.assert_allclose(head.rho, [float(x) for x in rho], rtol=1e-12, atol=0.0)
        assert head.rho[0] == pytest.approx(head.mu / (2.0 - 1.0), rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        sigma=st.floats(min_value=1.5, max_value=8.0),
        ell=st.integers(min_value=1, max_value=10**4),
        kappa=st.sampled_from([2, 3, 4]),
        ordered=st.booleans(),
        u=st.floats(min_value=0.0, max_value=1.0),
        q=st.none() | st.floats(min_value=0.01, max_value=0.95),
    )
    # theta < 0, disordered
    @example(sigma=3.0, ell=30, kappa=2, ordered=False, u=0.0, q=0.8)
    @example(sigma=5.0, ell=10, kappa=3, ordered=False, u=0.0, q=0.9)
    # theta = 0 at kappa = 4
    @example(sigma=3.0, ell=40, kappa=4, ordered=False, u=0.0, q=0.75)
    def test_agrees_with_perron(self, sigma, ell, kappa, ordered, u, q):
        """Within 1e-13 relative of the band solver in both regimes, away
        from the threshold where both lose digits: a from sigma e^-a in
        [1.2, 0.95 sigma] (ordered) or [0.1, 0.8] (disordered) by u, or a
        given q, which reaches theta < 0.  perron's elimination is accurate
        to rounding against the whole vector, not each small class, so the
        bound is 1e-13 relative or 1e-13 of the largest class of rho
        (``test_small_classes_match_mpmath`` checks the head's own)."""
        if q is None:
            ratio = 1.2 + u * (0.95 * sigma - 1.2) if ordered else 0.1 + 0.7 * u
            q = (math.log(sigma) - math.log(ratio)) / ell
            assume(q < 0.95)
        else:
            assume(ell <= 300)   # fixed q is deep in the disordered regime
        p = ModelParams(sigma=sigma, ell=ell, kappa=kappa, q=q)
        head = perron_head(p, k_max=10)
        pair = perron(p)
        assert abs(head.lam - pair.lam) <= 1e-13 * pair.lam
        np.testing.assert_allclose(head.rho, pair.rho[: head.rho.size], rtol=1e-13,
                                   atol=1e-13 * pair.rho.max())
        assert head.residual <= 1e-12

    @EXTENDED_LONG_DOUBLE
    @pytest.mark.parametrize("sigma,ell,kappa,q", [
        (5.521646815469769, 51, 2, 0.040053670283987625),
        (4.999641225049429, 31, 3, 0.07946515219986013),
        (5.510360131288365, 11, 4, 0.010133695484744269)])
    def test_small_classes_match_mpmath(self, sigma, ell, kappa, q):
        """Classes far below the largest, to 1e-14 relative of 40-digit
        arithmetic, where perron's rho_0 is off by 1.9e-5, 3.6e-8 and 0
        relative; at ell = 11, kappa = 4 rho_10 = 6.7e-15 against pi_10 =
        0.16, which the form pi_k + mu sum_n lam^-n (M^n(0, k) - pi_k) would
        take as a difference."""
        pytest.importorskip("mpmath")
        head = perron_head(ModelParams(sigma=sigma, ell=ell, kappa=kappa, q=q), k_max=10)
        mu, rho = mpmath_head(sigma, ell, kappa, q, 10)
        assert abs(head.mu / float(mu) - 1.0) <= 1e-14
        np.testing.assert_allclose(head.rho, [float(x) for x in rho], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("sigma,q,lam,method", [
        (3.0, 0.0, 3.0, "closed form"), (1.0, 0.0, 1.0, "closed form"),
        (1.0, 1e-300, 1.0, "closed form"), (2.0, 0.5, None, "closed form (theta = 0)"),
        (1.0, 0.15, 1.0, "closed form")])
    def test_closed_forms_need_no_solve(self, sigma, q, lam, method):
        """theta rounding to 1: lam = sigma, rho = e_0; theta = 0: rho = pi
        and lam = 1 + (sigma - 1) pi_0; sigma = 1: (1, pi)."""
        p = ModelParams(sigma=sigma, ell=20, kappa=2, q=q)
        head = perron_head(p, k_max=20)
        pi = binom.pmf(np.arange(21), 20, 0.5)
        assert head.method == method and head.iterations == 0 and head.terms == 0
        if q * 2 == 1.0 or (sigma == 1.0 and q > 1e-200):
            np.testing.assert_allclose(head.rho, pi, rtol=1e-14)
            assert head.lam == 1.0 + (sigma - 1.0) * head.rho[0]
        else:
            assert np.array_equal(head.rho, np.eye(21)[0]) and head.lam == lam

    def test_reports_too_slow_a_series(self):
        """sigma and q near 1 and 0: the terms fall by a factor of about
        1 - 1e-5 per step, and the series of the classes k >= 1 gives up
        past its term budget.  Class 0 and lam come from the spectral
        expansion, which has no tail, and agree with perron."""
        p = ModelParams(sigma=1.00001, ell=5, kappa=4, q=3e-6)
        with pytest.raises(SlowSeriesError, match="terms"):
            perron_head(p)
        head, pair = perron_head(p, k_max=0), perron(p)
        assert head.terms == 0 and pair.iterations == 1
        assert head.lam == pytest.approx(pair.lam, rel=1e-15)
        assert head.rho[0] == pytest.approx(pair.rho[0], rel=1e-9)

    @pytest.mark.parametrize("sigma,ell,kappa,q", [(1.00001, 5, 4, 3e-6),
                                                   (1.00001, 2000, 2, 1e-8)])
    def test_gives_up_before_summing_to_the_budget(self, sigma, ell, kappa, q, monkeypatch):
        """A series that cannot meet its tail bound by _HEAD_MAX_TERMS terms
        is given up at _HEAD_SLOW terms: the classes k >= 1 after a spectral
        lam solve, and class 0 in the lam solve at ell > 1000."""
        reached = []
        add = quasigw.spectral._HeadSeries._add

        def recording_add(self, n0, n1, ks, rate, acc):
            reached.append(n1 - 1)
            return add(self, n0, n1, ks, rate, acc)

        monkeypatch.setattr(quasigw.spectral._HeadSeries, "_add", recording_add)
        with pytest.raises(SlowSeriesError, match="terms"):
            perron_head(ModelParams(sigma=sigma, ell=ell, kappa=kappa, q=q))
        assert max(reached) == quasigw.spectral._HEAD_SLOW

    def test_step_budget(self):
        p = ModelParams(sigma=3.0, ell=30, kappa=2, q=0.8)
        assert perron_head(p).iterations > 2
        with pytest.raises(ConvergenceError, match="2 steps") as exc:
            perron_head(p, max_iter=2)
        assert exc.value.iterations == 2 and exc.value.residual > 1e-12


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


    @pytest.mark.parametrize("ell,a,edges", [
        (20, 0.69, [0, 21]), (300, 2.0 * LN2, [0, 101, 202, 301]), (1000, LN2, None)])
    def test_a_short_last_block_joins_the_one_before(self, ell, a, edges):
        """Blocks are half_width (at least _MIN_BLOCK) rows wide, and a
        remainder shorter than _MIN_BLOCK joins the last block: at ell = 20
        the band is the whole matrix, one block, not blocks of 20 and 1 rows."""
        band = kernel_band(ModelParams(sigma=2.0, ell=ell, kappa=2, q=a / ell))
        got = quasigw.spectral._BandSolver(band).edges
        width = max(band.half_width, quasigw.spectral._MIN_BLOCK)
        sizes = np.diff(got)
        assert got[0] == 0 and got[-1] == band.n
        assert np.all(sizes[:-1] == width)
        assert quasigw.spectral._MIN_BLOCK <= sizes[-1] < width + quasigw.spectral._MIN_BLOCK
        if edges is not None:
            assert got == edges

    @pytest.mark.parametrize("sides", ["1", "n+1", "2n"])
    @pytest.mark.parametrize("n", [20, 99, 100, 250])
    def test_solve_with_a_wide_m_matrix(self, n, sides):
        """Each of _solve's branches, one numpy.linalg.solve up to _MAX_INV
        rows with fewer than 2n sides and _inverse(t) @ b otherwise, on the
        shapes a sweep gives it: n + 1 sides for a pivot block with its
        coupling block, 1 for the last block."""
        rng = np.random.default_rng(1)
        m = rng.random((n, n))
        m /= m.sum(axis=1, keepdims=True)
        t = 1.01 * np.eye(n) - 0.9 * np.diag(rng.random(n)) @ m
        b = rng.random((n, {"1": 1, "n+1": n + 1, "2n": 2 * n}[sides]))
        assert np.max(np.abs(t @ _solve(t, b) - b)) < 1e-12

    def test_no_extinction_solve_reaches_100_rows(self, monkeypatch):
        """sigma=2, ell=2000, q=0.1: the band, and so each pivot block, is over 600 wide."""
        p = ModelParams(sigma=2.0, ell=2000, kappa=2, q=0.1)
        sizes = []
        for name in ("solve", "inv"):
            def recording(a, *args, _fn=getattr(np.linalg, name)):
                sizes.append(a.shape[0])
                return _fn(a, *args)

            monkeypatch.setattr(np.linalg, name, recording)
        s = extinction_probabilities(p, max_iter=1, tol=1.0).s
        assert sizes and max(sizes) <= 99
        assert np.all((s >= 0.0) & (s <= 1.0))


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
        # sets u = 1 - s to 0 exactly and takes no Newton step, so s is exactly 1
        p = ModelParams(sigma=1.0, ell=3, kappa=2, q=0.2)
        report = extinction_probabilities(p, tol=1e-10, max_iter=10**6)
        assert np.all(report.s == 1.0)
        assert report.method == "certain extinction"
        assert (report.iterations, report.extrapolations, report.residual) == (0, 0, 0.0)

    def test_q_zero_master_class_matches_scalar_oracle(self):
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.0)
        s = extinction_probabilities(p, tol=1e-10, max_iter=10**6).s
        oracle = scalar_master_extinction(2.0)
        assert oracle == pytest.approx(0.2031878699799799, abs=1e-12)
        assert s[0] == pytest.approx(oracle, abs=1e-6)

    def test_q_zero_other_classes_go_extinct(self):
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.0)
        s = extinction_probabilities(p, tol=1e-10, max_iter=10**6).s
        assert np.all(s[1:] > 1.0 - 5e-5)
        assert np.all(s[1:] <= 1.0)

    def test_supercritical_survival_from_every_class(self):
        p = ModelParams(sigma=4.0, ell=3, kappa=2, q=0.1)
        s = extinction_probabilities(p).s
        assert np.all(s > 0.0)
        assert np.all(s < 1.0)

    def test_stronger_selection_lowers_extinction(self):
        weak = extinction_probabilities(ModelParams(sigma=2.0, ell=3, kappa=2, q=0.1)).s
        strong = extinction_probabilities(ModelParams(sigma=4.0, ell=3, kappa=2, q=0.1)).s
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
        s = extinction_probabilities(p).s
        assert np.all(s < 1.0)

    def test_fixed_point_residual(self):
        p = ModelParams(sigma=2.0, ell=5, kappa=2, q=0.15)
        m = lumped_kernel_matrix(p)
        a = fitness_vector(p)
        s = extinction_probabilities(p, tol=1e-13).s
        assert np.max(np.abs(np.exp(a * (m @ s - 1.0)) - s)) < 1e-12

    def test_nonconvergence_raises(self):
        p = ModelParams(sigma=2.0, ell=10, kappa=2, q=0.05)
        with pytest.raises(ConvergenceError) as err:
            extinction_probabilities(p, tol=1e-12, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 1e-12

    def test_q_zero_critical_classes_are_exact(self):
        # classes k >= 1 cannot reach the master class at q = 0
        s = extinction_probabilities(ModelParams(sigma=2.0, ell=2, kappa=2, q=0.0)).s
        assert s[0] == pytest.approx(scalar_master_extinction(2.0), abs=1e-15)
        assert np.all(s[1:] == 1.0)

    @pytest.mark.parametrize("sigma,ell,a", [(2.0, 100, 0.69), (2.0, 200, 0.1), (4.0, 200, LN2)])
    def test_near_critical_classes_at_defaults(self, sigma, ell, a):
        """Instances the fixed-point iteration could not finish in 10^5 steps."""
        p = ModelParams(sigma=sigma, ell=ell, kappa=2, q=a / ell)
        m = lumped_kernel_matrix(p)
        s = extinction_probabilities(p, band=kernel_band(p)).s
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
        s = extinction_probabilities(p, band=kernel_band(p)).s
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
        s = extinction_probabilities(p, band=kernel_band(p)).s
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert np.max(np.abs(np.exp(a * (m @ s - 1.0)) - s)) <= 1e-12
        # the fixed-point iterates from 0 increase to the minimal fixed point
        lower = np.zeros(ell + 1)
        for _ in range(200):
            lower = np.exp(a * (m @ lower - 1.0))
        assert np.all(s >= lower - 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        sigma=st.floats(min_value=1.0, max_value=10.0),
        ell=st.integers(min_value=1, max_value=60),
        kappa=st.sampled_from([2, 3]),
        q=st.just(0.0) | st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_matches_dense_newton_property(self, sigma, ell, kappa, q):
        """The solve lands within tol of dense-LU Newton run to 1e-14, wherever
        the band search and the dense search find the same classes.  The two
        stop at different iterates (extrapolated steps), each within tol of
        the root, so tol is the bound both meet."""
        p = ModelParams(sigma=sigma, ell=ell, kappa=kappa, q=q)
        band = kernel_band(p)
        oracle, reach = dense_newton_extinction(p, tol=1e-14, max_iter=300)
        assume(np.array_equal(reach, np.sort(_classes_reaching_master(band))))
        assert np.max(np.abs(extinction_probabilities(p, band=band).s - oracle)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        sigma=st.floats(min_value=1.01, max_value=10.0),
        ell=st.integers(min_value=1, max_value=60),
        kappa=st.sampled_from([2, 3]),
        depth=st.floats(min_value=0.0, max_value=8.0),
    )
    @example(sigma=3.9258382478028717, ell=30, kappa=3, depth=2.041644971012189)
    def test_supercritical_master_class_survives_property(self, sigma, ell, kappa, depth):
        """Where sigma e^-a > 1 (a = ln(sigma) (1 - 10^-depth)), u_0 is not 0.

        Near the crossover u_0 can be tiny: the @example has u_0 = 1.2e-9,
        where extrapolated points that dip below the root by 1e-15 in F
        (far more than 1e-3 u_0 max(u)) led Newton to u = 0.  Where plain
        Newton finds u_0 below 1e-10, 0 is within tol of it, and the
        instance is left out.  So are the rare instances where the root is
        too ill-conditioned for either solve to meet tol: its steps stall
        at about eps / (lambda - 1) (sigma=3.11, ell=60, depth=5.24 has
        lambda - 1 = 3.8e-5, and plain banded Newton raises there too)."""
        a = math.log(sigma) * (1.0 - 10.0**-depth)
        assume(sigma * math.exp(-a) > 1.0 and a / ell < 0.5)
        p = ModelParams(sigma=sigma, ell=ell, kappa=kappa, q=a / ell)
        try:
            plain, _ = dense_newton_extinction(p)
            u_0 = 1.0 - extinction_probabilities(p).s[0]
        except ConvergenceError:
            reject()
        assume(1.0 - plain[0] > 1e-10)
        assert u_0 > 0.5 * (1.0 - plain[0])   # the root plain Newton finds, not u = 0

    def test_extrapolation_keeps_the_master_root(self):
        """sigma=2, a=0.69, ell=20: extrapolating wherever the step ratio is
        steady, with neither guard, converges to u = 0 with step and residual
        below tol, though u_0 = 0.0476.  The guarded solve keeps the root."""
        p = ModelParams(sigma=2.0, ell=20, kappa=2, q=0.69 / 20)
        plain, _ = dense_newton_extinction(p)
        report = extinction_probabilities(p)
        assert 1.0 - plain[0] == pytest.approx(0.0476, abs=1e-4)
        assert abs(report.s[0] - plain[0]) <= 1e-12

    def test_undoes_an_extrapolated_step(self):
        """sigma=5.88, kappa=3, ell=56: an extrapolated step takes the far
        classes to ~1e-17, and the Newton step from there takes them below 0.
        Clamped, they would hold the residual at 1.7e-12 for good; the solve
        goes back to the plain point instead, and converges."""
        p = ModelParams(sigma=5.8806297367344005, ell=56, kappa=3, q=1.6877176385629673 / 56)
        report = extinction_probabilities(p)
        oracle, _ = dense_newton_extinction(p, tol=1e-14, max_iter=300)
        assert report.method.startswith("extrapolated Newton, ")
        assert report.method.endswith(" undone")
        assert report.residual <= 1e-12
        assert np.max(np.abs(report.s - oracle)) <= 1e-12

    def test_report(self):
        p = ModelParams(sigma=2.0, ell=200, kappa=2, q=0.1 / 200)
        report = extinction_probabilities(p)
        assert report.method == "extrapolated Newton"
        assert 0 < report.extrapolations < report.iterations
        assert report.residual <= 1e-12
        u = 1.0 - report.s   # u to rounding: the solve keeps u, and s = 1 - u
        f = u + np.expm1(-fitness_vector(p) * kernel_band(p).matvec(u))
        assert report.residual == pytest.approx(np.max(np.abs(f)), abs=1e-15)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.iterations = 0

    @pytest.mark.parametrize("sigma,ell,a,steps", [
        (2.0, 20, 0.69, 17), (2.0, 100, 0.69, 25), (2.0, 200, 0.1, 14), (4.0, 1000, LN2, 17)])
    def test_newton_step_counts(self, monkeypatch, sigma, ell, a, steps):
        """The benchmark's instances: 17 / 47 / 40 / 40 plain Newton steps,
        fewer where extrapolated steps skip the halving of near-critical classes."""
        calls = []
        solve_right = quasigw.spectral._BandSolver.solve_right

        def counting(self, *args):
            calls.append(1)
            return solve_right(self, *args)

        monkeypatch.setattr(quasigw.spectral._BandSolver, "solve_right", counting)
        report = extinction_probabilities(ModelParams(sigma=sigma, ell=ell, kappa=2, q=a / ell))
        assert len(calls) == report.iterations == steps

    def test_band_search_sets_unreachable_classes_to_certain_extinction(self):
        """Every route to class 0 passes through an entry below BAND_FLOOR: at
        kappa=2, q=0.5, ell=600, M(b, 0) = 2^-600; at q=1e-300 every step down
        has probability about 1e-300.  Those classes get s = 1 exactly."""
        s = extinction_probabilities(ModelParams(sigma=2.0, ell=600, kappa=2, q=0.5)).s
        assert np.all(s == 1.0)
        s = extinction_probabilities(ModelParams(sigma=2.0, ell=30, kappa=2, q=1e-300)).s
        assert np.all(s[1:] == 1.0)
        assert s[0] == pytest.approx(scalar_master_extinction(2.0), abs=1e-12)

    @pytest.mark.parametrize("ell,kappa,q", [
        (100, 2, 0.0069), (600, 2, 0.5), (1100, 2, 0.5), (1000, 3, 0.9), (300, 2, 0.99),
        (60, 2, 1e-300), (200, 3, 0.2), (50, 4, 0.0), (2000, 2, 0.1)])
    def test_band_search_matches_graph_search(self, ell, kappa, q):
        """The frontier search finds what scipy's breadth-first search finds on
        the same graph: an edge c -> b for every band entry M(b, c) >= BAND_FLOOR."""
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import breadth_first_order

        band = kernel_band(ModelParams(sigma=2.0, ell=ell, kappa=kappa, q=q))
        rows, j = np.nonzero(band.values >= BAND_FLOOR)
        graph = csr_array((np.ones(rows.size), (band.offsets[rows] + j, rows)),
                          shape=(band.n, band.n))
        expected = np.sort(breadth_first_order(graph, 0, return_predecessors=False))
        assert np.array_equal(np.sort(_classes_reaching_master(band)), expected)

    def test_rejects_a_band_of_another_length(self):
        with pytest.raises(ValueError, match="kernel band must have 11 rows"):
            extinction_probabilities(ModelParams(sigma=2.0, ell=10, kappa=2, q=0.1),
                                     band=kernel_band(ModelParams(sigma=2.0, ell=12, kappa=2, q=0.1)))
