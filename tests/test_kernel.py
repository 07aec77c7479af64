"""Tests for the genotype-level mutation law and its class-level lumping."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from quasigw.kernel import (
    BAND_FLOOR,
    KernelBand,
    _binom_logpmf,
    _binom_window_pmfs,
    _binom_windows,
    _leading_columns,
    _log_factorials,
    kernel_band,
)
from quasigw import (
    ModelParams,
    class_size,
    fitness_class,
    fitness_genotype,
    genotypes,
    hamming_class,
    hamming_distance,
    lumped_kernel_entry,
    lumped_kernel_matrix,
    master_sequence,
    mutation_prob_genotype,
)
from quasigw.spectral import _BandSolver

LN2 = math.log(2.0)


def brute_force_class_row(u, params):
    """Class-transition row computed by summing the genotype law over classes.

    Independent oracle for the lumped kernel: enumerate every child genotype,
    look up its exact per-locus product probability, and accumulate by the
    child's Hamming class.  Only usable for kappa**ell in the thousands.
    """
    row = np.zeros(params.ell + 1)
    for v in genotypes(params.ell, params.kappa):
        row[hamming_class(v)] += mutation_prob_genotype(u, v, params)
    return row


def full_length_binom_pmf(n, p):
    """Binomial(n, p) pmf on 0..n with no window: the package's saddle point
    (``_binom_logpmf``) at each 0 < k < n, (1 - p)^n and p^n at the ends.
    Accurate to about |log P(k)| ulps, which is 1e-13 relative at 1e-150."""
    if n == 0:
        return np.ones(1)
    if p == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    out = np.empty(n + 1)
    out[0], out[n] = math.exp(n * math.log1p(-p)), p**n
    out[1:n] = np.exp(_binom_logpmf(n, np.arange(1, n), p))
    return out


def full_length_pmfs(b, params):
    """Full-length gain and loss pmfs of row b."""
    gain = full_length_binom_pmf(params.ell - b, params.q)
    loss = full_length_binom_pmf(b, params.q / (params.kappa - 1))
    return gain, loss


def log_factorial_pmfs(b, params, log_fact):
    """Full-length gain and loss pmfs of row b from differences of log_fact =
    ``_log_factorials(ell)``: accurate to about log(ell!) ulps, which is
    plenty to compare entries with BAND_FLOOR, and cheap."""
    def pmf(n, p):
        k = np.arange(n + 1)
        if p == 0.0:
            return (k == 0).astype(float)
        return np.exp(log_fact[n] - log_fact[k] - log_fact[n - k]
                      + k * math.log(p) + (n - k) * math.log1p(-p))

    return pmf(params.ell - b, params.q), pmf(b, params.q / (params.kappa - 1))


def full_length_kernel_row(b, params):
    """Row b of the class kernel built from full-length pmfs.

    Oracle for lumped_kernel_matrix: the same convolution over every
    0..n, so it costs O(ell^2) per row and O(ell^3) per matrix.
    """
    gain, loss = full_length_pmfs(b, params)
    return np.convolve(gain, loss[::-1])


def convolution_factors(gain, loss, b, c):
    """The factors of the products P(G = k) P(L = k + b - c) that entry
    (b, c) of row b's convolution sums, as two arrays."""
    k = np.arange(max(0, c - b), min(gain.size - 1, c) + 1)
    return gain[k], loss[k + b - c]


def exact_convolution_entry(b, c, params):
    """Entry (b, c) of the full-length convolution, summed exactly.

    The products of the float pmf values are summed as fractions and
    rounded once, so no summation order enters.
    """
    gain, loss = convolution_factors(*full_length_pmfs(b, params), b, c)
    return float(sum(Fraction(float(g)) * Fraction(float(l)) for g, l in zip(gain, loss)))


def scipy_binom_kernel(params):
    """Independent dense reference: scipy.stats.binom.pmf rows, convolved."""
    ell, kappa, q = params.ell, params.kappa, params.q
    m = np.empty((ell + 1, ell + 1))
    for b in range(ell + 1):
        gain = binom.pmf(np.arange(ell - b + 1), ell - b, q)
        loss = binom.pmf(np.arange(b + 1), b, q / (kappa - 1))
        m[b] = np.convolve(gain, loss[::-1])
    return m


class TestModelParams:
    def test_valid_construction(self):
        p = ModelParams(sigma=4.0, ell=3, kappa=2, q=0.2)
        assert p.sigma == 4.0
        assert p.ell == 3
        assert p.kappa == 2
        assert p.q == 0.2

    def test_a_is_expected_mutation_count(self):
        p = ModelParams(sigma=2.0, ell=50, kappa=2, q=0.01)
        assert p.a == pytest.approx(0.5, rel=1e-15)

    def test_q_zero_allowed(self):
        assert ModelParams(sigma=2.0, ell=2, kappa=2, q=0.0).q == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=0.5, ell=2, kappa=2, q=0.1),
            dict(sigma=math.inf, ell=2, kappa=2, q=0.1),
            dict(sigma=math.nan, ell=2, kappa=2, q=0.1),
            dict(sigma=2.0, ell=0, kappa=2, q=0.1),
            dict(sigma=2.0, ell=2, kappa=1, q=0.1),
            dict(sigma=2.0, ell=2, kappa=2, q=1.0),
            dict(sigma=2.0, ell=2, kappa=2, q=-0.1),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestHamming:
    def test_distance_to_self_is_zero(self):
        u = (0, 1, 1, 0, 2)
        assert hamming_distance(u, u) == 0

    def test_direct_count(self):
        assert hamming_distance((0, 0, 0, 0), (1, 0, 1, 0)) == 2

    def test_symmetry_random_pairs(self):
        """d(u,v) = d(v,u), checked against a digit-by-digit numpy count."""
        rng = np.random.default_rng(20240915)
        for _ in range(100):
            ell = int(rng.integers(1, 12))
            kappa = int(rng.integers(2, 5))
            u = tuple(rng.integers(0, kappa, size=ell).tolist())
            v = tuple(rng.integers(0, kappa, size=ell).tolist())
            d = hamming_distance(u, v)
            assert d == hamming_distance(v, u)
            assert d == int(np.count_nonzero(np.array(u) != np.array(v)))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            hamming_distance((0, 1), (0, 1, 0))

    def test_class_is_distance_to_master(self):
        for u in genotypes(4, 3):
            assert hamming_class(u) == hamming_distance(u, master_sequence(4))


class TestClassSizes:
    @pytest.mark.parametrize("ell,kappa", [(3, 2), (4, 2), (3, 3), (2, 4)])
    def test_sizes_match_enumeration(self, ell, kappa):
        counts = [0] * (ell + 1)
        for u in genotypes(ell, kappa):
            counts[hamming_class(u)] += 1
        for k in range(ell + 1):
            assert counts[k] == class_size(ell, kappa, k)
            assert class_size(ell, kappa, k) == math.comb(ell, k) * (kappa - 1) ** k
        assert sum(counts) == kappa**ell

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            class_size(3, 2, 4)
        with pytest.raises(ValueError):
            class_size(3, 2, -1)


class TestFitness:
    def test_master_class_gets_sigma(self):
        p = ModelParams(sigma=4.0, ell=10, kappa=2, q=0.1)
        assert fitness_class(0, p) == 4.0

    def test_other_classes_get_one(self):
        p = ModelParams(sigma=4.0, ell=10, kappa=2, q=0.1)
        assert fitness_class(7, p) == 1.0

    def test_neutral_landscape(self):
        p = ModelParams(sigma=1.0, ell=5, kappa=2, q=0.1)
        assert all(fitness_class(k, p) == 1.0 for k in range(6))

    def test_out_of_range(self):
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.1)
        with pytest.raises(ValueError):
            fitness_class(4, p)
        with pytest.raises(ValueError):
            fitness_class(-1, p)

    def test_genotype_fitness_matches_class_fitness(self):
        p = ModelParams(sigma=3.0, ell=3, kappa=3, q=0.2)
        w = master_sequence(3)
        for u in genotypes(3, 3):
            assert fitness_genotype(u, p) == fitness_class(
                0 if hamming_distance(u, w) == 0 else 1, p
            )

    def test_genotype_length_checked(self):
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.1)
        with pytest.raises(ValueError):
            fitness_genotype((0, 0), p)


class TestMutationProbGenotype:
    def test_faithful_copying_at_q_zero(self):
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.0)
        for u in genotypes(3, 2):
            for v in genotypes(3, 2):
                expected = 1.0 if u == v else 0.0
                assert mutation_prob_genotype(u, v, p) == expected

    def test_hand_value_single_flip(self):
        # ell=2, kappa=2, q=0.25: P((0,0) -> (0,1)) = 0.75 * 0.25
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.25)
        assert mutation_prob_genotype((0, 0), (0, 1), p) == pytest.approx(0.1875, abs=1e-15)

    def test_sums_to_one_exhaustive(self):
        p = ModelParams(sigma=2.0, ell=3, kappa=3, q=0.4)
        for u in genotypes(3, 3):
            total = math.fsum(mutation_prob_genotype(u, v, p) for v in genotypes(3, 3))
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_depends_only_on_distance(self):
        p = ModelParams(sigma=2.0, ell=4, kappa=3, q=0.3)
        u1, v1 = (0, 0, 0, 0), (1, 2, 0, 0)
        u2, v2 = (2, 1, 2, 1), (2, 1, 1, 2)
        assert hamming_distance(u1, v1) == hamming_distance(u2, v2) == 2
        assert mutation_prob_genotype(u1, v1, p) == pytest.approx(
            mutation_prob_genotype(u2, v2, p), rel=1e-15
        )


class TestLumpedKernelEntry:
    def test_q_zero_is_identity(self):
        p = ModelParams(sigma=2.0, ell=4, kappa=2, q=0.0)
        for b in range(5):
            for c in range(5):
                assert lumped_kernel_entry(b, c, p) == (1.0 if b == c else 0.0)

    def test_master_row_is_binomial_hand_value(self):
        # From class 0 the child class counts flipped loci: Binomial(ell, q).
        p = ModelParams(sigma=2.0, ell=2, kappa=2, q=0.5)
        row = [lumped_kernel_entry(0, c, p) for c in range(3)]
        assert row == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_master_row_is_binomial_general(self):
        p = ModelParams(sigma=2.0, ell=7, kappa=3, q=0.3)
        for c in range(8):
            expected = math.comb(7, c) * 0.3**c * 0.7 ** (7 - c)
            assert lumped_kernel_entry(0, c, p) == pytest.approx(expected, rel=1e-13)

    def test_out_of_range_classes(self):
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.1)
        with pytest.raises(ValueError):
            lumped_kernel_entry(4, 0, p)
        with pytest.raises(ValueError):
            lumped_kernel_entry(0, -1, p)

    def test_agrees_with_brute_force_small_instance(self):
        """Every class-b genotype induces the same class row, equal to the entry."""
        p = ModelParams(sigma=2.0, ell=3, kappa=2, q=0.2)
        for u in genotypes(3, 2):
            b = hamming_class(u)
            row = brute_force_class_row(u, p)
            for c in range(4):
                assert row[c] == pytest.approx(
                    lumped_kernel_entry(b, c, p), abs=1e-12
                )

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("ell,kappa", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)])
    def test_lumping_consistency_grid(self, ell, kappa, q):
        """The genotype law really does lump by Hamming class on every small instance."""
        p = ModelParams(sigma=2.0, ell=ell, kappa=kappa, q=q)
        for u in genotypes(ell, kappa):
            b = hamming_class(u)
            row = brute_force_class_row(u, p)
            for c in range(ell + 1):
                assert abs(row[c] - lumped_kernel_entry(b, c, p)) < 1e-12


class TestLumpedKernelMatrix:
    def test_matches_entrywise_construction(self):
        for p in [
            ModelParams(sigma=2.0, ell=5, kappa=2, q=0.2),
            ModelParams(sigma=2.0, ell=8, kappa=4, q=0.45),
            ModelParams(sigma=2.0, ell=60, kappa=3, q=0.07),
        ]:
            m = lumped_kernel_matrix(p)
            for b in range(p.ell + 1):
                for c in range(p.ell + 1):
                    assert m[b, c] == pytest.approx(
                        lumped_kernel_entry(b, c, p), abs=1e-14, rel=1e-12
                    )

    def test_q_zero_identity_matrix(self):
        p = ModelParams(sigma=2.0, ell=6, kappa=2, q=0.0)
        assert np.array_equal(lumped_kernel_matrix(p), np.eye(7))

    def test_ell_one_closed_forms(self):
        q = 0.3
        m2 = lumped_kernel_matrix(ModelParams(sigma=2.0, ell=1, kappa=2, q=q))
        assert m2 == pytest.approx(np.array([[1 - q, q], [q, 1 - q]]), abs=1e-15)
        m3 = lumped_kernel_matrix(ModelParams(sigma=2.0, ell=1, kappa=3, q=q))
        assert m3 == pytest.approx(
            np.array([[1 - q, q], [q / 2, 1 - q / 2]]), abs=1e-15
        )

    def test_row_stochastic_long_sequences(self):
        for ell, q in [(10, 0.5), (100, 0.31), (500, 0.001), (2000, 0.01)]:
            p = ModelParams(sigma=2.0, ell=ell, kappa=2, q=q)
            m = lumped_kernel_matrix(p)
            assert np.all(m >= 0.0)
            assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-10

    def test_strictly_positive_inside_open_interval(self):
        p = ModelParams(sigma=2.0, ell=6, kappa=2, q=0.4)
        assert np.all(lumped_kernel_matrix(p) > 0.0)


def band_slack(params):
    """Bound on the terms the band leaves out of one entry: each has a
    factor below BAND_FLOOR / (ell + 1), and each pmf sums to 1."""
    return 2 * BAND_FLOOR / (params.ell + 1)


def assert_matches_full_length_rows(m, rows, params, rtol=1e-12):
    """Rows of m equal the full-length oracle rows up to the terms the band
    leaves out: each entry within rtol (the oracle's pmfs are accurate to
    about 1e-13 relative in their tails, the band's to a few ulps) plus
    band_slack, or at least as close to the exactly summed value as the
    oracle is, plus band_slack (both round ~10^3-term sums); and every zero
    of m is below BAND_FLOOR."""
    slack = band_slack(params)
    for b in rows:
        ref = full_length_kernel_row(b, params)
        assert np.all(ref[m[b] == 0.0] < BAND_FLOOR), f"row {b} drops an entry >= BAND_FLOOR"
        for c in np.flatnonzero(np.abs(m[b] - ref) > rtol * ref + slack):
            exact = exact_convolution_entry(b, c, params)
            assert abs(m[b, c] - exact) <= abs(ref[c] - exact) + slack, (b, c, m[b, c], ref[c])


# The window ends are placed by log-factorial differences, accurate to about
# log(ell!) ulps: a pmf value this close to the window level may fall either side.
WINDOW_RTOL = 1e-9


def window_pmf(n, p, params):
    """Binomial(n, p) pmf on its window at level BAND_FLOOR / (ell + 1),
    evaluated as one row of ``_binom_window_pmfs``: (lo, values)."""
    log_min = math.log(BAND_FLOOR) - math.log(params.ell + 1)
    lo, hi = _binom_windows(np.array([n]), p, _log_factorials(params.ell), log_min)
    return int(lo[0]), _binom_window_pmfs(np.array([n]), p, lo, hi)[0, : hi[0] - lo[0] + 1]


def assert_window_keeps_every_term_above_the_level(n, p, params):
    """The window of Binomial(n, p) drops only terms below BAND_FLOOR / (ell + 1),
    and its values agree with the full-length oracle's within 1e-12 (the
    oracle's tails are accurate to about 1e-13)."""
    level = BAND_FLOOR / (params.ell + 1)
    lo, values = window_pmf(n, p, params)
    full = full_length_binom_pmf(n, p)
    inside = np.zeros(n + 1, dtype=bool)
    inside[lo : lo + values.size] = True
    assert np.all(full[~inside] < level * (1 + WINDOW_RTOL)), (n, p)
    assert np.all(full[inside] >= level * (1 - WINDOW_RTOL)), (n, p)
    assert np.allclose(values, full[inside], rtol=1e-12, atol=0.0), (n, p)


class TestKernelWindows:
    """The windowed build against the full-length construction it replaces."""

    @pytest.mark.parametrize("q", [1e-4, 1e-2, 0.1, 0.5])
    @pytest.mark.parametrize("ell", [10, 100, 500, 2000])
    def test_acceptance_grid_matches_full_length_build(self, ell, q):
        p = ModelParams(sigma=2.0, ell=ell, kappa=2, q=q)
        assert_matches_full_length_rows(lumped_kernel_matrix(p), range(ell + 1), p)

    def test_long_sequence_rows_match_full_length_build(self):
        ell = 5000
        p = ModelParams(sigma=4.0, ell=ell, kappa=2, q=LN2 / ell)
        rows = np.random.default_rng(5000).choice(ell + 1, size=18, replace=False)
        assert_matches_full_length_rows(lumped_kernel_matrix(p), [0, ell, *rows.tolist()], p)

    @pytest.mark.parametrize("q", [0.5, 0.1, 0.01])
    @pytest.mark.parametrize("ell", [300, 1000, 2000])
    def test_end_rows_are_the_binomial_pmfs_bit_for_bit(self, ell, q):
        """Rows 0 and ell convolve with a point mass, so they are the gain and
        loss pmfs on their windows bit for bit, and 0 elsewhere; the windows
        drop only terms below BAND_FLOOR / (ell + 1)."""
        p = ModelParams(sigma=2.0, ell=ell, kappa=3, q=q)
        m = lumped_kernel_matrix(p)
        for row, n, prob in ((m[0], ell, q), (m[ell][::-1], ell, q / 2)):
            lo, values = window_pmf(n, prob, p)
            expected = np.zeros(ell + 1)
            expected[lo : lo + values.size] = values
            assert np.array_equal(row, expected)
            assert_window_keeps_every_term_above_the_level(n, prob, p)

    @pytest.mark.parametrize("kappa,q", [(2, 0.99), (4, 0.99), (3, 0.7)])
    def test_high_mutation_rates_match_full_length_build(self, kappa, q):
        p = ModelParams(sigma=2.0, ell=300, kappa=kappa, q=q)
        assert_matches_full_length_rows(lumped_kernel_matrix(p), range(301), p)

    @settings(max_examples=40, deadline=None)
    @given(
        ell=st.integers(min_value=1, max_value=400),
        kappa=st.sampled_from([2, 3, 4]),
        # scipy's binom.pmf raises OverflowError for some q near 1e-308
        q=st.just(0.0) | st.floats(min_value=1e-300, max_value=0.99),
    )
    def test_matches_scipy_binomial_reference(self, ell, kappa, q):
        p = ModelParams(sigma=2.0, ell=ell, kappa=kappa, q=q)
        m = lumped_kernel_matrix(p)
        ref = scipy_binom_kernel(p)
        assert np.all(np.abs(m - ref) <= 1e-11 * ref + band_slack(p))
        assert np.all(ref[m == 0.0] < BAND_FLOOR * (1 + 1e-11))


def mpmath_binom_pmf(mpmath, n, k, p):
    """Binomial(n, p) pmf at k in 40-digit arithmetic, p taken exactly."""
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        return mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k)


class TestPmfAccuracy:
    """The pmf windows and the rows built from them, to relative accuracy."""

    @pytest.mark.parametrize("ell,q", [(1000, LN2 / 1000), (5000, LN2 / 5000),
                                       (20000, LN2 / 20000), (2000, 0.1), (2000, 0.5)])
    def test_window_pmfs_match_mpmath(self, ell, q):
        """Every entry of the gain and loss windows of a spread of rows is
        within 1e-13 relative of the pmf in 40-digit arithmetic (log-factorial
        differences are off by up to 2e-11 at ell = 20000)."""
        mpmath = pytest.importorskip("mpmath")
        p = ModelParams(sigma=2.0, ell=ell, kappa=3, q=q)
        worst = 0.0
        for b in (0, 1, ell // 3, ell // 2, ell - 7, ell):
            for n, prob in ((ell - b, q), (b, q / 2)):
                lo, values = window_pmf(n, prob, p)
                for k, value in enumerate(values.tolist(), start=lo):
                    ref = mpmath_binom_pmf(mpmath, n, k, prob)
                    worst = max(worst, abs(float((value - ref) / ref)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("n,p", [(1, 0.3), (12, 0.25), (60, 0.1), (300, 0.5), (1000, 0.01)])
    def test_binom_logpmf_matches_math_comb(self, n, p):
        """The log pmf at every 0 <= k <= n, the ends included (n log(1 - p)
        at k = 0, n log p at k = n, no NaN), against the exact
        C(n, k) p^k (1 - p)^(n - k) in rational arithmetic, p taken exactly."""
        got = _binom_logpmf(n, np.arange(n + 1), p)
        f = Fraction(p)
        for k in range(n + 1):
            exact = math.comb(n, k) * f**k * (1 - f) ** (n - k)
            e = exact.numerator.bit_length() - exact.denominator.bit_length()
            ref = math.log(exact / Fraction(2) ** e) + e * LN2
            assert abs(got[k] - ref) <= 1e-14 + 8 * np.finfo(float).eps * abs(ref), k

    @pytest.mark.parametrize("ell,q", [(ell, q) for ell in (10, 100, 500, 2000)
                                       for q in (1e-4, 1e-2, 0.1, 0.5)]
                             + [(20000, LN2 / 20000)])
    def test_rows_sum_to_one_to_rounding(self, ell, q):
        """On acceptance 02's grid and at ell = 20000 every row of the band
        sums to 1 within 1e-14, summed exactly (math.fsum)."""
        band = kernel_band(ModelParams(sigma=2.0, ell=ell, kappa=2, q=q))
        assert max(abs(math.fsum(row) - 1.0) for row in band.values.tolist()) <= 1e-14


def scattered_rows(band):
    """The dense matrix built one row at a time from the band: values[b] at
    columns offsets[b] .. offsets[b] + width - 1, zeros elsewhere."""
    n, width = band.values.shape
    dense = np.zeros((n, n))
    for b, c0 in enumerate(band.offsets.tolist()):
        dense[b, c0 : c0 + width] = band.values[b]
    return dense


def assert_dense_is_the_band_scattered(p):
    """The dense build is the band's rows scattered into zeros, bit for bit
    (``scattered_rows``), every window lies inside 0..ell and starts at
    b - half_width where it can, and the full-length entries next to each
    window are below BAND_FLOOR (rows are log-concave, so the entries
    further out are too).  The band solver's block products give M x and
    x M (``_BandSolver.product``, and on ``transposed``)."""
    m = lumped_kernel_matrix(p)
    band = kernel_band(p)
    n, width = band.values.shape
    assert n == p.ell + 1 and width == min(2 * band.half_width + 1, n)
    assert np.all((band.offsets >= 0) & (band.offsets + width <= n))
    assert np.array_equal(band.offsets, np.clip(np.arange(n) - band.half_width, 0, n - width))
    assert m.tobytes() == scattered_rows(band).tobytes()
    log_fact = _log_factorials(p.ell)
    for b, c0 in enumerate(band.offsets.tolist()):
        pmfs = log_factorial_pmfs(b, p, log_fact)
        for c in (c0 - 1, c0 + width):
            if 0 <= c < n:
                assert np.dot(*convolution_factors(*pmfs, b, c)) < BAND_FLOOR, (b, c)
    x = np.random.default_rng(p.ell).random(n)
    solver = _BandSolver(band)
    for got, want in ((solver.transposed().product(x), x @ m), (solver.product(x), m @ x)):
        assert np.allclose(got, want, rtol=1e-13, atol=BAND_FLOOR * x.sum())


class TestKernelBand:
    """The band the Perron solver eliminates in, built from the pmf windows."""

    @pytest.mark.parametrize("q", [1e-4, 1e-2, 0.1, 0.5])
    @pytest.mark.parametrize("ell", [10, 100, 500, 2000])
    def test_covers_every_entry_above_the_floor(self, ell, q):
        assert_dense_is_the_band_scattered(ModelParams(sigma=2.0, ell=ell, kappa=2, q=q))

    def test_long_sequence_band_matches_dense_build(self):
        assert_dense_is_the_band_scattered(ModelParams(sigma=4.0, ell=5000, kappa=2, q=LN2 / 5000))

    @settings(max_examples=40, deadline=None)
    @given(
        ell=st.integers(min_value=1, max_value=300),
        kappa=st.sampled_from([2, 3, 4]),
        q=st.just(0.0) | st.floats(min_value=1e-300, max_value=0.99),
    )
    def test_matches_dense_build_property(self, ell, kappa, q):
        assert_dense_is_the_band_scattered(ModelParams(sigma=2.0, ell=ell, kappa=kappa, q=q))

    @pytest.mark.parametrize("r0,r1,c0,c1", [
        (0, 120, 0, 101),    # rows past n
        (0, 101, 0, 120),    # columns past n
        (-1, 101, 0, 101),   # a negative row
        (0, 101, -5, 10),    # a negative column
        (60, 50, 0, 101),    # rows in descending order
        (0, 101, 30, 20),    # columns in descending order
    ])
    def test_block_rejects_ranges_outside_the_matrix(self, r0, r1, c0, c1):
        """At ell = 100 (n = 101) a range past 0..n raises a ValueError that
        names it, not a broadcast error or a block padded with zeros."""
        band = kernel_band(ModelParams(sigma=2.0, ell=100, kappa=2, q=LN2 / 100))
        with pytest.raises(ValueError, match=rf"rows {r0}:{r1} and columns {c0}:{c1} .* 0:101"):
            band.block(r0, r1, c0, c1)
        assert band.block(0, 0, 101, 101).shape == (0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        ell=st.integers(min_value=1, max_value=300),
        kappa=st.sampled_from([2, 3, 4]),
        q=st.just(0.0) | st.floats(min_value=1e-300, max_value=0.99),
    )
    def test_matvec_matches_dense_product(self, ell, kappa, q):
        p = ModelParams(sigma=2.0, ell=ell, kappa=kappa, q=q)
        x = np.random.default_rng(ell).random(ell + 1)
        got = kernel_band(p).matvec(x)
        assert np.allclose(got, lumped_kernel_matrix(p) @ x, rtol=1e-13, atol=BAND_FLOOR * x.sum())

    def test_matvec_rejects_a_vector_of_another_length(self):
        band = kernel_band(ModelParams(sigma=2.0, ell=50, kappa=2, q=0.02))
        with pytest.raises(ValueError, match=r"x must have shape \(51,\)"):
            band.matvec(np.ones(40))

    @pytest.mark.parametrize("values,half_width", [
        (np.zeros((9, 3)), 2), (np.zeros((9, 5), dtype=np.float32), 2),
        (np.zeros((5, 9)).T, 2), (np.zeros(9), 0)])
    def test_rejects_values_that_break_the_layout(self, values, half_width):
        with pytest.raises(ValueError, match="values must be"):
            KernelBand(values=values, half_width=half_width)

    def test_band_is_narrow_at_fixed_mutation_pressure(self):
        """At a = ln 2 the band stays about +-90 wide as ell grows, and its
        storage one column per diagonal, under 200 columns."""
        for ell in (1000, 5000):
            band = kernel_band(ModelParams(sigma=4.0, ell=ell, kappa=2, q=LN2 / ell))
            assert band.half_width < 100
            assert band.values.shape == (ell + 1, 2 * band.half_width + 1)

    def test_reflected_rows_are_within_4_ulps_at_fixed_mutation_pressure(self):
        """At a = ln 2 the rows the build fills by reflection differ from
        their direct convolutions by at most 4 ulps relative, entry by entry."""
        p = ModelParams(sigma=4.0, ell=1000, kappa=2, q=LN2 / 1000)
        band = kernel_band(p)
        direct, _, _ = per_row_band(p, reflect=False)
        stored = direct != 0.0
        rel = np.abs(band.values - direct)[stored] / direct[stored]
        assert np.all(band.values[~stored] == 0.0)
        assert rel.max() <= 4 * np.finfo(float).eps

    @settings(max_examples=40, deadline=None)
    @given(
        ell=st.integers(min_value=1, max_value=300),
        kappa=st.sampled_from([2, 3, 4]),
        q=st.sampled_from([0.0, 1e-300]) | st.floats(min_value=1e-300, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(ell=300, kappa=2, q=0.5, seed=0)    # the widest bands: width = ell + 1
    @example(ell=124, kappa=2, q=0.52, seed=1)
    @example(ell=299, kappa=3, q=0.3, seed=2)
    @example(ell=200, kappa=2, q=1e-300, seed=3)
    def test_layout_property(self, ell, kappa, q, seed):
        """``block`` on random rectangles is the row-by-row scatter
        (``scattered_rows``) bit for bit; the storage is never larger than
        the dense matrix; at kappa = 2 the band equals its reflection bit for
        bit, and each reflected row is within the rounding of its direct
        convolution: both sum the same k products, in two orders, so they
        differ by at most k eps relative, k the row's longest sum."""
        p = ModelParams(sigma=2.0, ell=ell, kappa=kappa, q=q)
        band = kernel_band(p)
        dense = scattered_rows(band)
        n = ell + 1
        assert band.values.size <= n * n
        rng = np.random.default_rng(seed)
        for _ in range(8):
            (r0, r1), (c0, c1) = np.sort(rng.integers(0, n + 1, (2, 2)), axis=1).tolist()
            assert band.block(r0, r1, c0, c1).tobytes() == dense[r0:r1, c0:c1].tobytes()
        if kappa == 2:
            assert np.array_equal(band.values, band.values[::-1, ::-1])
            direct, _, _ = per_row_band(p, reflect=False)
            terms = per_row_terms(p)
            gap = np.abs(band.values - direct)
            assert np.all(gap <= terms[:, None] * np.finfo(float).eps * direct)

    @settings(max_examples=60, deadline=None)
    @given(
        ell=st.integers(min_value=1, max_value=400),
        kappa=st.sampled_from([2, 3, 4]),
        q=st.sampled_from([0.0, 1e-300, 0.99]) | st.floats(min_value=1e-300, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(ell=400, kappa=2, q=0.5, seed=0)    # width = ell + 1: no middle rows
    @example(ell=400, kappa=3, q=0.01, seed=1)   # a narrow band: long middle run
    @example(ell=1, kappa=4, q=0.99, seed=2)
    def test_block_is_the_row_by_row_scatter_property(self, ell, kappa, q, seed):
        """``block`` on random ranges, empty, single-row and single-column
        ones among them, and ``lumped_kernel_matrix`` equal, bit for bit, the
        dense matrix built one row at a time: values[b] at columns
        offsets[b] .. offsets[b] + width - 1, zeros elsewhere."""
        p = ModelParams(sigma=2.0, ell=ell, kappa=kappa, q=q)
        band = kernel_band(p)
        n = band.n
        dense = scattered_rows(band)
        m = lumped_kernel_matrix(p, band)
        assert m.shape == (n, n) and m.tobytes() == dense.tobytes()
        rng = np.random.default_rng(seed)
        for _ in range(12):
            (r0, c0), (r_len, c_len) = rng.integers(0, n + 1, 2), rng.choice(
                [0, 1, int(rng.integers(0, n + 1))], 2)
            r1, c1 = min(r0 + r_len, n), min(c0 + c_len, n)
            got = band.block(r0, r1, c0, c1)
            assert got.shape == (r1 - r0, c1 - c0) and got.flags.c_contiguous
            assert got.tobytes() == dense[r0:r1, c0:c1].tobytes(), (r0, r1, c0, c1)

    @settings(max_examples=60, deadline=None)
    @given(
        ell=st.integers(min_value=1, max_value=3000),
        kappa=st.sampled_from([2, 3, 4]),
        q=st.sampled_from([0.0, 1e-300, 0.99]) | st.floats(min_value=1e-300, max_value=0.99),
        k=st.integers(min_value=0, max_value=25),
    )
    @example(ell=7, kappa=2, q=0.1, k=25)      # every row read, rows 4..7 reflected
    @example(ell=30, kappa=2, q=0.3, k=20)     # reflected rows among the rows read
    @example(ell=247, kappa=2, q=0.0865, k=10)  # and the rows read stop before ell
    @example(ell=300, kappa=4, q=0.9, k=10)    # row 0's support starts at class 76, past k
    @example(ell=3000, kappa=2, q=LN2 / 3000, k=10)
    def test_leading_columns_are_the_bands_property(self, ell, kappa, q, k):
        """``_leading_columns`` builds the rows that reach columns 0..k and
        gives ``block(0, r, 0, k + 1)`` of the whole band bit for bit, for
        its r >= k + 1 rows; every row past r is 0 in those columns."""
        p = ModelParams(sigma=2.0, ell=ell, kappa=kappa, q=q)
        n_cols = min(k, ell) + 1
        got = _leading_columns(p, n_cols)
        band = kernel_band(p)
        r = got.shape[0]
        assert n_cols <= r <= band.n and got.shape == (r, n_cols) and got.flags.c_contiguous
        assert got.tobytes() == band.block(0, r, 0, n_cols).tobytes()
        assert not band.block(r, band.n, 0, n_cols).any()

    def test_q_zero_band_is_the_diagonal(self):
        band = kernel_band(ModelParams(sigma=2.0, ell=7, kappa=2, q=0.0))
        assert np.array_equal(band.values, np.ones((8, 1)))
        assert np.array_equal(band.offsets, np.arange(8)) and band.half_width == 0


def per_row_band(p, reflect=True):
    """The band built one row at a time: each pmf on its window, evaluated
    as a one-row array (``window_pmf``), then np.convolve, each row stored
    from column clip(b - half_width, 0, ell + 1 - width) on.  With reflect,
    at kappa = 2 the rows from ceil((ell + 1) / 2) on are the earlier rows
    reversed, as the build does; without, every row is convolved."""
    ell = p.ell
    q_back = p.q / (p.kappa - 1)
    lo, rows = [], []
    for b in range(ell + 1):
        g_lo, gain = window_pmf(ell - b, p.q, p)
        l_lo, loss = window_pmf(b, q_back, p)
        lo.append(b + g_lo - (l_lo + loss.size - 1))
        rows.append(np.convolve(gain, loss[::-1]))
    lo = np.array(lo)
    hi = lo + np.array([row.size for row in rows]) - 1
    classes = np.arange(ell + 1)
    half_width = int(max(np.max(classes - lo), np.max(hi - classes)))
    width = min(2 * half_width + 1, ell + 1)
    offsets = np.clip(classes - half_width, 0, ell + 1 - width)
    values = np.zeros((ell + 1, width))
    for b, row in enumerate(rows):
        values[b, lo[b] - offsets[b] : lo[b] - offsets[b] + row.size] = row
    if reflect and q_back == p.q:
        for b in range((ell + 2) // 2, ell + 1):
            values[b] = values[ell - b, ::-1]
    return values, offsets, half_width


def per_row_terms(p):
    """Per row, the most products any entry of its convolution sums: the
    shorter of its two pmf windows."""
    q_back = p.q / (p.kappa - 1)
    return np.array([min(window_pmf(p.ell - b, p.q, p)[1].size, window_pmf(b, q_back, p)[1].size)
                     for b in range(p.ell + 1)])


class TestOnePassWindows:
    """The band build evaluates every row's pmf windows in one pass; each
    row equals the per-row evaluation bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        ell=st.integers(min_value=1, max_value=300),
        kappa=st.sampled_from([2, 3, 4]),
        q=st.just(0.0) | st.floats(min_value=1e-300, max_value=0.99),
    )
    # q / (kappa - 1) rounds to 0: a point-mass loss pmf beside a gain pmf
    @example(ell=50, kappa=3, q=5e-324)
    @example(ell=200, kappa=2, q=1e-300)
    @example(ell=1100, kappa=2, q=0.5)
    def test_builds_match_per_row_evaluation(self, ell, kappa, q):
        p = ModelParams(sigma=2.0, ell=ell, kappa=kappa, q=q)
        band = kernel_band(p)
        values, offsets, half_width = per_row_band(p)
        assert np.array_equal(band.values, values)
        assert np.array_equal(band.offsets, offsets)
        assert band.half_width == half_width


class TestLimitKernel:
    def test_finite_kernel_converges_to_limit(self):
        """With q = a/ell the class kernel approaches its long-sequence limit as
        ell grows: back-mutations vanish, and a class-i parent begets a class-k
        child with the Poisson(a) weight at k - i."""
        a = LN2
        limit = np.array([[math.exp(-a) * a ** (k - i) / math.factorial(k - i) if k >= i else 0.0
                           for k in range(6)] for i in range(6)])
        gaps = {}
        for ell in (100, 10_000):
            p = ModelParams(sigma=2.0, ell=ell, kappa=2, q=a / ell)
            kernel = np.array([[lumped_kernel_entry(i, k, p) for k in range(6)] for i in range(6)])
            gaps[ell] = np.abs(kernel - limit)
        assert np.all(gaps[10_000] < gaps[100] + 1e-15)
        assert np.max(gaps[10_000]) < 1e-3
