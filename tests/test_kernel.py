"""Tests for the genotype-level mutation law and its class-level lumping."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import binom

from quasigw.kernel import _LOG_UNDERFLOW, _PAD, BAND_FLOOR, _binom_windows, kernel_band
from quasigw import (
    ModelParams,
    class_size,
    fitness_class,
    fitness_genotype,
    genotypes,
    hamming_class,
    hamming_distance,
    limit_kernel,
    lumped_kernel_entry,
    lumped_kernel_matrix,
    master_sequence,
    mutation_prob_genotype,
)

LN2 = math.log(2.0)
EPS = np.finfo(float).eps


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
    """Binomial(n, p) pmf on 0..n through log-gamma, with no window."""
    if n == 0:
        return np.ones(1)
    if p == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    k = np.arange(n + 1)
    logpmf = (
        gammaln(n + 1)
        - gammaln(k + 1)
        - gammaln(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    return np.exp(logpmf)


def full_length_pmfs(b, params):
    """Full-length gain and loss pmfs of row b."""
    gain = full_length_binom_pmf(params.ell - b, params.q)
    loss = full_length_binom_pmf(b, params.q / (params.kappa - 1))
    return gain, loss


def full_length_kernel_row(b, params):
    """Row b of the class kernel built from full-length pmfs.

    Oracle for lumped_kernel_matrix: the same convolution over every
    0..n, so it costs O(ell^2) per row and O(ell^3) per matrix.
    """
    gain, loss = full_length_pmfs(b, params)
    return np.convolve(gain, loss[::-1])


def exact_convolution_entry(b, c, params):
    """Entry (b, c) of the full-length convolution, summed exactly.

    The products of the float pmf values are summed as fractions and
    rounded once, so no summation order enters.
    """
    gain, loss = full_length_pmfs(b, params)
    total = sum(
        Fraction(float(gain[k])) * Fraction(float(loss[k + b - c]))
        for k in range(max(0, c - b), min(params.ell - b, c) + 1)
    )
    return float(total)


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


def assert_matches_full_length_rows(m, rows, params, rtol=1e-15):
    """Rows of m equal the full-length oracle rows: same zero pattern, and
    each nonzero entry within rtol, or at least as close to the exactly
    summed value as the oracle is (both round ~10^3-term sums)."""
    for b in rows:
        ref = full_length_kernel_row(b, params)
        assert np.array_equal(m[b] == 0.0, ref == 0.0), f"zero pattern differs in row {b}"
        nz = np.flatnonzero(ref)
        rel = np.abs(m[b, nz] - ref[nz]) / ref[nz]
        for c in nz[rel > rtol]:
            exact = exact_convolution_entry(b, c, params)
            assert abs(m[b, c] - exact) <= abs(ref[c] - exact), (b, c, m[b, c], ref[c], exact)


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
        loss pmfs themselves, down to the last subnormal before underflow."""
        p = ModelParams(sigma=2.0, ell=ell, kappa=3, q=q)
        m = lumped_kernel_matrix(p)
        assert np.array_equal(m[0], full_length_binom_pmf(ell, q))
        assert np.array_equal(m[ell], full_length_binom_pmf(ell, q / 2)[::-1])

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
        big = ref > 1e-300
        assert np.all(np.abs(m[big] - ref[big]) <= 1e-11 * ref[big])
        assert np.all(ref[m == 0.0] < 1e-300)
        assert np.all(m[ref == 0.0] < 1e-300)


def assert_band_matches_dense(p):
    """Every stored entry within 4 eps relative plus BAND_FLOOR absolute of the
    dense build, every entry left out below BAND_FLOOR, no row wider than ell + 1."""
    m = lumped_kernel_matrix(p)
    band = kernel_band(p)
    n, width = band.values.shape
    assert n == p.ell + 1 and 1 <= width <= n
    assert np.all((band.offsets >= 0) & (band.offsets + width <= n))
    stored = m[np.arange(n)[:, None], band.offsets[:, None] + np.arange(width)]
    assert np.all(np.abs(band.values - stored) <= 4 * EPS * stored + BAND_FLOOR)
    full = band.block(0, n, 0, n)
    assert np.all(np.abs(full - m) <= 4 * EPS * m + BAND_FLOOR)
    x = np.random.default_rng(p.ell).random(n)
    assert np.allclose(band.rmatvec(x), x @ m, rtol=1e-13, atol=BAND_FLOOR * x.sum())


class TestKernelBand:
    """The band the Perron solver eliminates in, built from the pmf windows."""

    @pytest.mark.parametrize("q", [1e-4, 1e-2, 0.1, 0.5])
    @pytest.mark.parametrize("ell", [10, 100, 500, 2000])
    def test_covers_every_entry_above_the_floor(self, ell, q):
        assert_band_matches_dense(ModelParams(sigma=2.0, ell=ell, kappa=2, q=q))

    def test_long_sequence_band_matches_dense_build(self):
        assert_band_matches_dense(ModelParams(sigma=4.0, ell=5000, kappa=2, q=LN2 / 5000))

    @settings(max_examples=40, deadline=None)
    @given(
        ell=st.integers(min_value=1, max_value=300),
        kappa=st.sampled_from([2, 3, 4]),
        q=st.just(0.0) | st.floats(min_value=1e-300, max_value=0.99),
    )
    def test_matches_dense_build_property(self, ell, kappa, q):
        assert_band_matches_dense(ModelParams(sigma=2.0, ell=ell, kappa=kappa, q=q))

    def test_band_is_narrow_at_fixed_mutation_pressure(self):
        """At a = ln 2 the band stays about +-90 wide as ell grows, and its
        storage about 160 columns."""
        for ell in (1000, 5000):
            band = kernel_band(ModelParams(sigma=4.0, ell=ell, kappa=2, q=LN2 / ell))
            assert band.half_width < 100
            assert band.values.shape[1] < 170

    def test_q_zero_band_is_the_diagonal(self):
        band = kernel_band(ModelParams(sigma=2.0, ell=7, kappa=2, q=0.0))
        assert np.array_equal(band.values, np.ones((8, 1)))
        assert np.array_equal(band.offsets, np.arange(8)) and band.half_width == 0


def per_row_kernel_rows(p, log_min, pad):
    """Row starts and rows of the kernel, one row at a time: each pmf on its
    window (``_binom_windows``) through log-gamma, then np.convolve."""
    ell = p.ell
    q_back = p.q / (p.kappa - 1)
    log_fact = gammaln(np.arange(ell + 1) + 1)
    classes = np.arange(ell + 1)
    g_lo, g_hi = _binom_windows(ell - classes, p.q, log_fact, log_min, pad)
    l_lo, l_hi = _binom_windows(classes, q_back, log_fact, log_min, pad)

    def window_pmf(n, prob, lo, hi):
        k = np.arange(lo, hi + 1)
        if prob == 0.0:
            return (k == 0).astype(float)
        logpmf = (
            log_fact[n]
            - log_fact[lo : hi + 1]
            - log_fact[n - hi : n - lo + 1][::-1]
            + k * math.log(prob)
            + (n - k) * math.log1p(-prob)
        )
        return np.exp(logpmf)

    rows = [np.convolve(window_pmf(ell - b, p.q, g_lo[b], g_hi[b]),
                        window_pmf(b, q_back, l_lo[b], l_hi[b])[::-1]) for b in classes]
    return classes + g_lo - l_hi, rows


def per_row_dense(p):
    lo, rows = per_row_kernel_rows(p, _LOG_UNDERFLOW, _PAD)
    m = np.zeros((p.ell + 1, p.ell + 1))
    for b, row in enumerate(rows):
        m[b, lo[b] : lo[b] + row.size] = row
    return m


def per_row_band(p):
    ell = p.ell
    lo, rows = per_row_kernel_rows(p, math.log(BAND_FLOOR) - math.log(ell + 1), 0)
    hi = lo + np.array([row.size for row in rows]) - 1
    width = int(np.max(hi - lo)) + 1
    offsets = np.minimum(lo, ell + 1 - width)
    values = np.zeros((ell + 1, width))
    for b, row in enumerate(rows):
        values[b, lo[b] - offsets[b] : lo[b] - offsets[b] + row.size] = row
    classes = np.arange(ell + 1)
    return values, offsets, int(max(np.max(classes - lo), np.max(hi - classes)))


class TestOnePassWindows:
    """Both builds evaluate every row's pmf windows in one pass; each row
    equals the per-row evaluation bit for bit."""

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
        assert np.array_equal(lumped_kernel_matrix(p), per_row_dense(p))
        band = kernel_band(p)
        values, offsets, half_width = per_row_band(p)
        assert np.array_equal(band.values, values)
        assert np.array_equal(band.offsets, offsets)
        assert band.half_width == half_width


class TestLimitKernel:
    def test_no_move_weight(self):
        for i in range(4):
            assert limit_kernel(i, i, 0.7) == pytest.approx(math.exp(-0.7), rel=1e-15)

    def test_a_zero_indicator(self):
        assert limit_kernel(2, 2, 0.0) == 1.0
        assert limit_kernel(2, 3, 0.0) == 0.0

    def test_hand_value(self):
        assert limit_kernel(0, 1, LN2) == pytest.approx(LN2 / 2.0, rel=1e-15)

    def test_downward_moves_forbidden(self):
        assert limit_kernel(3, 1, 0.5) == 0.0

    def test_rows_sum_to_one(self):
        for i in (0, 2, 5):
            total = math.fsum(limit_kernel(i, k, 1.3) for k in range(i, i + 80))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            limit_kernel(-1, 0, 0.5)
        with pytest.raises(ValueError):
            limit_kernel(0, 0, -0.5)

    def test_finite_kernel_converges_to_limit(self):
        """With q = a/ell the class kernel approaches the limit as ell grows."""
        a = LN2
        gaps = {}
        for ell in (100, 10_000):
            p = ModelParams(sigma=2.0, ell=ell, kappa=2, q=a / ell)
            gaps[ell] = np.array(
                [
                    [abs(lumped_kernel_entry(i, k, p) - limit_kernel(i, k, a)) for k in range(6)]
                    for i in range(6)
                ]
            )
        assert np.all(gaps[10_000] < gaps[100] + 1e-15)
        assert np.max(gaps[10_000]) < 1e-3
