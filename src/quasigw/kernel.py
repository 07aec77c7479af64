"""Fitness and mutation kernels for the sharp peak model.

Genotypes are length-``ell`` tuples over the alphabet ``{0, ..., kappa-1}``;
the all-zeros tuple plays the role of the master sequence.  The Hamming
class of a genotype is its Hamming distance to the master sequence.
Mutation acts independently per locus: with probability ``q`` the letter
is replaced by one of the ``kappa - 1`` other letters, chosen uniformly.

The class-level ("lumped") kernel gives the probability that a child of
a class-``b`` parent lands in class ``c``.  It depends on the parent only
through ``b``, which is what makes the process of class counts a
branching process in its own right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "master_sequence",
    "genotypes",
    "hamming_distance",
    "hamming_class",
    "class_size",
    "fitness_class",
    "fitness_genotype",
    "mutation_prob_genotype",
    "lumped_kernel_entry",
    "lumped_kernel_matrix",
    "KernelBand",
    "kernel_band",
]

Genotype = tuple


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the sharp peak model.

    sigma : fitness of the master sequence; every other genotype has fitness 1
    ell   : sequence length
    kappa : alphabet size; a mutating locus picks one of the kappa - 1 other letters
    q     : per-locus mutation probability

    q = 0 is the faithful-replication degenerate and is allowed; q = 1 is not.
    """

    sigma: float
    ell: int
    kappa: int
    q: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma) or self.sigma < 1:
            raise ValueError(f"sigma must be finite and >= 1, got {self.sigma}")
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")
        if self.kappa < 2:
            raise ValueError(f"kappa must be >= 2, got {self.kappa}")
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q must lie in [0, 1), got {self.q}")

    @property
    def a(self) -> float:
        """Expected number of mutated loci per replication, ell * q."""
        return self.ell * self.q


def master_sequence(ell: int) -> Genotype:
    """The all-zeros genotype of length ell."""
    return (0,) * ell


def genotypes(ell: int, kappa: int) -> Iterator[Genotype]:
    """Iterate over all kappa**ell genotypes.  Only sensible for small instances."""
    return product(range(kappa), repeat=ell)


def hamming_distance(u: Sequence[int], v: Sequence[int]) -> int:
    """Number of loci at which u and v differ."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(1 for x, y in zip(u, v) if x != y)


def hamming_class(u: Sequence[int]) -> int:
    """Hamming distance from u to the master sequence (all zeros)."""
    return sum(1 for x in u if x != 0)


def class_size(ell: int, kappa: int, k: int) -> int:
    """Number of genotypes in Hamming class k: C(ell, k) * (kappa - 1)**k."""
    if not 0 <= k <= ell:
        raise ValueError(f"class index {k} outside [0, {ell}]")
    return math.comb(ell, k) * (kappa - 1) ** k


def fitness_class(k: int, params: ModelParams) -> float:
    """Reproduction rate of class k: sigma for the master class, 1 otherwise."""
    if not 0 <= k <= params.ell:
        raise ValueError(f"class index {k} outside [0, {params.ell}]")
    return params.sigma if k == 0 else 1.0


def fitness_genotype(u: Sequence[int], params: ModelParams) -> float:
    """Reproduction rate of genotype u."""
    if len(u) != params.ell:
        raise ValueError(f"genotype length {len(u)} != ell {params.ell}")
    return fitness_class(0 if hamming_class(u) == 0 else 1, params)


def mutation_prob_genotype(u: Sequence[int], v: Sequence[int], params: ModelParams) -> float:
    """Probability that a child of u is exactly v.

    Per-locus independence gives (1-q)^(matches) * (q/(kappa-1))^(mismatches);
    the product only depends on the number of mismatched loci.
    """
    if len(u) != params.ell or len(v) != params.ell:
        raise ValueError("genotype length does not match params.ell")
    d = hamming_distance(u, v)
    q = params.q
    return (1.0 - q) ** (params.ell - d) * (q / (params.kappa - 1)) ** d


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def lumped_kernel_entry(b: int, c: int, params: ModelParams) -> float:
    """Probability that a child of a class-b parent lies in class c.

    Sums over l back-mutations (mutated locus reverting to the master
    letter) and k = c - b + l forward moves (correct locus leaving the
    master letter).  Each term is evaluated in log space and the terms
    are combined with a max-shifted exponential sum, so the entry stays
    accurate for sequence lengths well beyond 10**4.
    """
    ell, kappa, q = params.ell, params.kappa, params.q
    if not 0 <= b <= ell:
        raise ValueError(f"class index {b} outside [0, {ell}]")
    if not 0 <= c <= ell:
        raise ValueError(f"class index {c} outside [0, {ell}]")
    if q == 0.0:
        return 1.0 if b == c else 0.0

    q_back = q / (kappa - 1)
    log_q = math.log(q)
    log_stay = math.log1p(-q)
    log_back = math.log(q_back)
    log_keep = math.log1p(-q_back)

    lo = max(0, b - c)
    hi = min(b, ell - c)
    terms = []
    for l in range(lo, hi + 1):
        k = c - b + l
        t = (
            _log_binom(ell - b, k)
            + k * log_q
            + (ell - b - k) * log_stay
            + _log_binom(b, l)
            + l * log_back
            + (b - l) * log_keep
        )
        terms.append(t)
    m = max(terms)
    if m == -math.inf:
        return 0.0
    return math.exp(m) * math.fsum(math.exp(t - m) for t in terms)


# Kernel entries below this (the square root of the smallest normal float)
# are left out of the band: products of two of them are subnormal or zero.
BAND_FLOOR = math.sqrt(np.finfo(float).tiny)


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)^n) at n = 0..15, where its
# asymptotic series is not yet accurate (Loader 2000, as in R's dbinom).
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) - log(sqrt(2 pi n) (n / e)^n) at integers n >= 0: the table below
    16, its asymptotic series 1/12n - 1/360n^3 + ... from 16 on."""
    r = 1.0 / np.maximum(n, 16.0)
    r2 = r * r
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r2 / 1188) * r2) * r2) * r2) * r
    return np.where(n < 16, _STIRLERR[np.minimum(n, 15).astype(np.intp)], series)


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x log(x / m) + m - x for x, m > 0, without its cancellation near x = m.

    There (|x - m| < (x + m) / 10) it is summed as the series
    (x - m) v + 2 x (v^3 / 3 + v^5 / 5 + ...) in v = (x - m) / (x + m),
    whose terms fall by v^2 < 1/100 each (Loader 2000); elsewhere it is
    x log1p((x - m) / m) - (x - m), accurate to a few ulps of x log(x / m).
    """
    d = x - m
    v = d / (x + m)
    v2 = v * v
    odd = 1 / 3 + v2 * (1 / 5 + v2 * (1 / 7 + v2 * (1 / 9 + v2 * (1 / 11 + v2 * (
        1 / 13 + v2 * (1 / 15 + v2 / 17))))))
    series = d * v + 2.0 * x * v * v2 * odd
    return np.where(np.abs(d) < 0.1 * (x + m), series, x * np.log1p(d / m) - d)


def _binom_logpmf(n: np.ndarray, k: np.ndarray, p: float) -> np.ndarray:
    """log of the Binomial(n, p) pmf at 0 <= k <= n, for 0 < p < 1.

    For 0 < k < n, by Loader's saddle point: log pmf = stirlerr(n)
    - stirlerr(k) - stirlerr(n - k) - bd0(k, n p) - bd0(n - k, n (1 - p))
    - log(2 pi k (n - k) / n)/2 (Loader 2000, the method of R's dbinom).
    No term is a difference of large numbers, so the result is accurate to
    a few ulps of its largest term: near the mode the pmf comes out to a
    few ulps relative, where a difference of log-factorials loses about
    log(n!) ulps.  The ends are exact: n log(1 - p) at k = 0, n log p at
    k = n.
    """
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):   # the ends, replaced below
        inner = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
                 - _bd0(k, n * p) - _bd0(n - k, n * (1.0 - p))
                 - 0.5 * np.log(2.0 * math.pi * k * (n - k) / n))
    return np.where(k == 0, n * math.log1p(-p), np.where(k == n, n * math.log(p), inner))


def _log_factorials(n: int) -> np.ndarray:
    """log(j!) for j = 0..n, each within a few ulps (``math.lgamma``)."""
    return np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)


def _binom_mode(n: np.ndarray, p: float) -> np.ndarray:
    """A mode of Binomial(n[i], p): min(floor((n + 1) p), n)."""
    return np.minimum(np.floor((n + 1) * p).astype(n.dtype), n)


def _binom_windows(n: np.ndarray, p: float, log_fact: np.ndarray, log_min: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Ends lo, hi of the windows where the Binomial(n[i], p) logpmf >= log_min.

    log_min must lie below the log of the pmf at the mode, which is at least
    -log(n + 1).  The pmf is unimodal, so each window is an interval around
    the mode, and each end is found by bisection on its monotone side, for
    all rows at once.  The test only places the ends: it takes the log pmf
    as a difference of log-factorials (log_fact, from ``_log_factorials``),
    which is cheap and accurate to about log(n!) ulps, so an end can be off
    by one where the pmf lies within that of exp(log_min).
    """
    if p == 0.0:
        return np.zeros_like(n), np.zeros_like(n)
    log_odds = math.log(p) - math.log1p(-p)
    log_n_fact_p0 = log_fact[n] + n * math.log1p(-p)   # log n! + log P(0)

    def inside(k):
        return log_n_fact_p0 - log_fact[k] - log_fact[n - k] + k * log_odds >= log_min

    def bisect(inner, outer, round_up):
        # inner is inside, outer is not (or past the end); each step halves
        # |outer - inner|, and rows already at 1 probe mid = inner and stay put.
        for _ in range(int(np.max(np.abs(outer - inner)) - 1).bit_length()):
            mid = (inner + outer + round_up) // 2
            keep = inside(mid)
            inner, outer = np.where(keep, mid, inner), np.where(keep, outer, mid)
        return inner

    mode = _binom_mode(n, p)
    return bisect(mode, np.full_like(n, -1), 1), bisect(mode, n + 1, 0)


def _binom_window_pmfs(n: np.ndarray, p: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Binomial(n[i], p) pmfs on the windows lo[i]..hi[i], to a few ulps relative.

    Returns a (rows, widest window) array whose row i holds P(lo[i] + j) in
    column j for j <= hi[i] - lo[i]; the columns past that hold values of
    no use.  Each row is one pass of cumulative products of the ratios
    P(k) / P(k - 1) = (n - k + 1) / k * p / (1 - p), scaled to the pmf at the
    mode m (``_binom_mode``), which lies in every window: (1 - p)^n at
    m = 0 (where lo = 0) and p^n at m = n, both accurate since their logs
    are at most about 1 in size, and Loader's saddle point
    (``_binom_logpmf``) in between.  Anchored at the mode, an entry
    carries only the rounding of the ratios between it and the mode, a
    random walk of a few ulps, not the |log P| ulps of the exp of a log
    far in the tail.  The rounding
    error delta of p / (1 - p) is common to all ratios and would grow
    linearly along the window, so column j is corrected by
    (1 + delta)^-j ~ 1 - j delta, delta from exact integer arithmetic.
    """
    if p == 0.0:
        return np.ones((n.size, 1))
    width = int(np.max(hi - lo)) + 1
    pmfs = np.empty((n.size, width))
    mode = _binom_mode(n, p)
    up = np.flatnonzero(mode)   # rows whose mode, and so anchor, is above 0
    pmfs[:, 0] = np.exp(n * math.log1p(-p))   # P(0) = P(lo) where the mode is 0
    pmfs[up, 0] = 1.0
    columns = np.arange(1.0, width)
    k = lo[:, None] + columns
    ratios = pmfs[:, 1:]
    np.subtract((n + 1)[:, None], k, out=ratios)
    ratios /= k
    del k
    odds = p / (1.0 - p)
    ratios *= odds
    np.cumprod(pmfs, axis=1, out=pmfs)
    p_num, p_den = p.as_integer_ratio()
    o_num, o_den = odds.as_integer_ratio()
    delta = (o_num * (p_den - p_num) - o_den * p_num) / (o_den * p_num)   # odds (1 - p) / p - 1
    if delta:
        pmfs[:, 1:] *= 1.0 - delta * columns
    if up.size:
        n_up, m_up = n[up], mode[up]
        at_mode = p ** n_up
        inner = np.flatnonzero(m_up < n_up)
        at_mode[inner] = np.exp(_binom_logpmf(n_up[inner], m_up[inner], p))
        pmfs[up] *= (at_mode / pmfs[up, m_up - lo[up]])[:, None]
    return pmfs


def _log_stationary_law(params: ModelParams, k_max: int | None = None) -> np.ndarray:
    """Log pmf of Binomial(ell, 1 - 1/kappa), the stationary law of the class
    kernel, at classes 0..k_max (all ell + 1 classes by default).

    p_j = kappa^-ell C(ell, j) (kappa - 1)^j.  Where kappa^-ell is a normal
    float (ell log kappa < 708: ell <= 1022 at kappa = 2) every p_j is one
    too, and the p_j are the cumulative products of kappa^-ell and the
    ratios (ell - j + 1) / j (kappa - 1), a random walk of a few ulps
    relative.  This is the recurrence of ``_binom_window_pmfs`` on one full
    row, specialised to odds kappa - 1, an exact integer, so neither the
    mode anchor nor the odds correction is needed; the general routine
    costs about 0.1 ms more per call.  Beyond that range, log p_j comes
    from Loader's saddle point (``_binom_logpmf``) and the ends from their
    closed forms.  Either way log p_j is within a few ulps of |log p_j|
    (plus a few 1e-14) of its exact value wherever p_j is a normal float,
    and the classes 0..k_max cost O(k_max), the same values as in the full
    law.
    """
    ell, kappa = params.ell, params.kappa
    top = ell if k_max is None else min(k_max, ell)
    p_0 = float(kappa) ** -ell
    if p_0 >= np.finfo(float).tiny:
        law = np.empty(top + 1)
        law[0] = p_0
        j = np.arange(1.0, top + 1)
        np.divide(ell - j + 1.0, j, out=law[1:])
        if kappa > 2:
            law[1:] *= kappa - 1
        return np.log(np.cumprod(law, out=law), out=law)
    log_p = _binom_logpmf(ell, np.arange(top + 1), 1.0 - 1.0 / kappa)
    log_p[0] = -ell * math.log(kappa)
    if top == ell:
        log_p[ell] = ell * math.log1p(-1.0 / kappa)
    return log_p


def _middle_rows(n: int, width: int, half_width: int) -> tuple[int, int]:
    """Rows s1..s2-1 of a band of n classes (``KernelBand``), whose windows
    start at b - half_width; the rows before them start at column 0 and
    those after at n - width."""
    s1 = min(half_width + 1, n)
    return s1, max(n - width + half_width, s1)


def _scatter(values: np.ndarray, n: int, half_width: int, r0: int, r1: int, c0: int, c1: int
             ) -> np.ndarray:
    """M[r0:r1, c0:c1] from the rows of a band of n classes stored as in
    ``KernelBand`` (``KernelBand.block``); values may hold only the band's
    first rows, if rows 0..r1-1 are among them."""
    width = values.shape[1]
    h = half_width
    b0, b1 = max(r0, c0 - h), min(r1, c1 + h)
    if b0 >= b1:
        return np.zeros((r1 - r0, c1 - c0))
    lo = min(c0, min(max(b0 - h, 0), n - width))            # offsets[b0]
    hi = max(c1, min(max(b1 - 1 - h, 0), n - width) + width)   # offsets[b1 - 1] + width
    out = np.zeros((r1 - r0, hi - lo))
    s1, s2 = _middle_rows(n, width, h)
    if b0 < min(b1, s1):
        out[b0 - r0 : min(b1, s1) - r0, -lo : width - lo] = values[b0 : min(b1, s1)]
    if max(b0, s2) < b1:
        out[max(b0, s2) - r0 : b1 - r0, n - width - lo : n - lo] = values[max(b0, s2) : b1]
    m0, m1 = max(b0, s1), min(b1, s2)
    if m0 < m1:
        step, cols = out.itemsize, hi - lo
        start = ((m0 - r0) * cols + m0 - h - lo) * step
        windows = np.ndarray((m1 - m0, width), float, out, start, ((cols + 1) * step, step))
        windows[:] = values[m0:m1]
    return np.ascontiguousarray(out[:, c0 - lo : c1 - lo])


@dataclass(frozen=True, eq=False)
class KernelBand:
    """The class kernel M on its band, stored by diagonal: M(b, offsets[b] + j) = values[b, j].

    values is (ell + 1) x width with width = min(2 half_width + 1, ell + 1),
    and row b's window starts at offsets[b] = clip(b - half_width, 0,
    ell + 1 - width): away from the ends values[b, half_width + d] =
    M(b, b + d), so column j holds diagonal j - half_width (the DIA layout
    of Saad, Iterative Methods for Sparse Linear Systems, 2003, sec. 3.4),
    and the first and last half_width rows keep the window clipped to
    0..ell.  So the storage is never larger than the dense matrix; at
    a = ln 2 it is 185 columns, 7.4 MB at ell = 5000 and 148 MB at
    ell = 10^5.  half_width bounds |c - b| over the row supports.  Entries
    of M outside the windows are below BAND_FLOOR and count as 0; entries
    inside them but outside the row's support are stored as 0.  ``matvec``
    gives M x and ``block`` dense pieces of M, both on strided views of
    values without forming M: the Perron and extinction solves run on these
    alone.
    """

    values: np.ndarray
    half_width: int

    def __post_init__(self) -> None:
        # the products and blocks read values through strided views
        v = self.values
        if not (isinstance(v, np.ndarray) and v.ndim == 2 and v.dtype == np.float64
                and v.flags.c_contiguous and self.half_width >= 0
                and v.shape[1] == min(2 * self.half_width + 1, v.shape[0])):
            raise ValueError("values must be a C-contiguous float64 (ell + 1) x "
                             "min(2 half_width + 1, ell + 1) array")

    @property
    def n(self) -> int:
        """Number of classes, ell + 1."""
        return self.values.shape[0]

    @property
    def offsets(self) -> np.ndarray:
        """Column of M at which each row's window starts."""
        n, width = self.values.shape
        return np.clip(np.arange(n) - self.half_width, 0, n - width)

    def _windows(self, x: np.ndarray, r0: int, r1: int) -> list:
        """Rows r0..r1-1 in at most three runs (b0, b1, windows), windows[i]
        the view x[offsets[b] : offsets[b] + width] for row b = b0 + i, or
        one such view (1-D) shared by the run's rows; x is contiguous."""
        n, width = self.values.shape
        s1, s2 = _middle_rows(n, width, self.half_width)
        runs = []
        if r0 < min(r1, s1):
            runs.append((r0, min(r1, s1), x[:width]))
        b0, b1 = max(r0, s1), min(r1, s2)
        if b0 < b1:
            step = x.itemsize
            start = (b0 - self.half_width) * step
            runs.append((b0, b1, np.ndarray((b1 - b0, width), x.dtype, x, start, (step, step))))
        if max(r0, s2) < r1:
            runs.append((max(r0, s2), r1, x[n - width :]))
        return runs

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """M[r0:r1, c0:c1] as a dense array, C-contiguous.

        The rows b0..b1-1 that can reach columns c0..c1-1 (|c - b| <=
        half_width) are scattered into zeros over the columns their windows
        and c0..c1-1 span: the clipped first and last rows as slices, the
        middle rows through one strided view whose rows step one column
        right per row.  The result is that cut to c0..c1-1, so each stored
        entry is the band's value bit for bit and every other entry is 0.
        ValueError where the ranges do not lie in 0..ell.
        """
        n = self.n
        if not (0 <= r0 <= r1 <= n and 0 <= c0 <= c1 <= n):
            raise ValueError(f"block rows {r0}:{r1} and columns {c0}:{c1} must be "
                             f"ascending ranges in 0:{n}")
        return _scatter(self.values, n, self.half_width, r0, r1, c0, c1)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M @ x, in O(ell x width); ValueError where x is not a vector of length ell + 1."""
        n = self.n
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"x must have shape ({n},), got {x.shape}")
        out = np.empty(n)
        for b0, b1, windows in self._windows(x, 0, n):
            np.vecdot(self.values[b0:b1], windows, out=out[b0:b1])
        return out


def kernel_band(params: ModelParams) -> KernelBand:
    """The class kernel M on the band that holds every entry >= BAND_FLOOR.

    Row b is the law of b + G - L where G ~ Binomial(ell-b, q) counts
    correct loci that mutate away and L ~ Binomial(b, q/(kappa-1)) counts
    mutated loci that revert: the convolution of the two pmfs, term for term
    the sum of lumped_kernel_entry.  M(b, c) sums at most ell + 1 products
    P(G = k) P(L = l) with k - l = c - b, so an entry >= BAND_FLOOR has a
    term >= BAND_FLOOR / (ell + 1), and both its factors are at least that.
    So each pmf is kept on its window at that level (``_binom_windows``, for
    all rows at once in ``_kernel_windows``), the windows of all rows are
    evaluated in one pass (``_binom_window_pmfs``, to a few ulps relative),
    and row b is the convolution of its two windows (``_kernel_rows``, which
    also builds a leading run of rows alone, bit for bit the same:
    ``_leading_columns``); so the rows sum to 1 within a few ulps
    (max |fsum - 1| <= 1.1e-15 on acceptance 02's grid and at a = ln 2 up
    to ell = 10^5).  The terms left out sum to at most
    2 BAND_FLOOR / (ell + 1) per entry, and every entry outside the rows'
    supports is below BAND_FLOOR and counts as 0.

    At kappa = 2 the kernel is symmetric under b -> ell - b: G in row b and
    L in row ell - b are both Binomial(ell - b, q), so M(ell - b, ell - c) =
    M(b, c), and so are the windows.  Then only rows 0 .. ceil((ell+1)/2) - 1
    are convolved, and the rest are their reflections, values[ell - b] =
    values[b, ::-1], which the storage rule of ``KernelBand`` keeps.  The
    middle row at even ell convolves a pmf with its own reverse, an
    autocorrelation: its entries at lags d and -d sum the same products in
    the same order, so it is symmetric as convolved.  A reflected row is
    the direct one summed in another order, within a few ulps.

    The storage is (ell + 1) x min(2 half_width + 1, ell + 1) floats, never
    more than the dense matrix.  At fixed a = ell q the support stays
    bounded as ell grows (half width about 92 at a = ln 2, so 185 columns),
    and the band takes O(ell) memory and time where the dense matrix takes
    O(ell^2): about 148 MB at ell = 10^5 against 80 GB.
    """
    windows = _kernel_windows(params)
    return KernelBand(values=_kernel_rows(params, windows, params.ell + 1),
                      half_width=windows.half_width)


@dataclass(frozen=True, eq=False)
class _KernelWindows:
    """Where each row of M lies: in row b, G is kept on g_lo[b]..g_hi[b], L on
    l_lo[b]..l_hi[b], and M(b, .) starts at column lo[b] = b + g_lo[b] - l_hi[b];
    half_width is the band's (``KernelBand``)."""

    g_lo: np.ndarray
    g_hi: np.ndarray
    l_lo: np.ndarray
    l_hi: np.ndarray
    lo: np.ndarray
    half_width: int


def _kernel_windows(params: ModelParams) -> _KernelWindows:
    """The pmf windows of every row (``_binom_windows``, all rows at once), at
    the level of ``kernel_band``; at kappa = 2 the windows of L are those of G
    reversed, L in row b being G in row ell - b."""
    ell, kappa, q = params.ell, params.kappa, params.q
    q_back = q / (kappa - 1)
    log_fact = _log_factorials(ell)
    log_min = math.log(BAND_FLOOR) - math.log(ell + 1)
    classes = np.arange(ell + 1)
    g_lo, g_hi = _binom_windows(ell - classes, q, log_fact, log_min)
    if q_back == q:   # kappa = 2 (or q = 0)
        l_lo, l_hi = g_lo[::-1], g_hi[::-1]
    else:
        l_lo, l_hi = _binom_windows(classes, q_back, log_fact, log_min)
    # conv(gain, loss[::-1])[j] = sum P(G=k) P(L=l) over k - l = j + g_lo - l_hi,
    # which lands in class c = b + k - l: row b's support is lo..hi.
    lo, hi = classes + g_lo - l_hi, classes + g_hi - l_lo
    half_width = int(max(np.max(classes - lo), np.max(hi - classes)))
    return _KernelWindows(g_lo, g_hi, l_lo, l_hi, lo, half_width)


def _kernel_rows(params: ModelParams, windows: _KernelWindows, n_rows: int) -> np.ndarray:
    """Rows 0..n_rows-1 of ``kernel_band(params).values``, bit for bit.

    Each direct row is its two pmfs on their windows (``_binom_window_pmfs``,
    the rows' pmfs in one pass) and one ``np.convolve``; at kappa = 2 the
    rows from (ell + 2) // 2 on are their mirror rows ell - b reversed, which
    lie before them.  A row's pmfs are the same bits whichever rows share
    the pass, so any leading run of rows is the band's.
    """
    ell, q = params.ell, params.q
    q_back = q / (params.kappa - 1)
    h = windows.half_width
    width = min(2 * h + 1, ell + 1)
    n_direct = min(n_rows, (ell + 2) // 2 if q_back == q else ell + 1)
    direct = np.arange(n_direct)
    g_lo, g_hi = windows.g_lo[:n_direct], windows.g_hi[:n_direct]
    l_lo, l_hi = windows.l_lo[:n_direct], windows.l_hi[:n_direct]
    gains = _binom_window_pmfs(ell - direct, q, g_lo, g_hi)
    losses = _binom_window_pmfs(direct, q_back, l_lo, l_hi)
    starts = windows.lo[:n_direct] - np.clip(direct - h, 0, ell + 1 - width)
    values = np.zeros((n_rows, width))
    bounds = zip(starts.tolist(), (g_hi - g_lo + 1).tolist(), (l_hi - l_lo + 1).tolist())
    for b, (start, g_size, l_size) in enumerate(bounds):
        row = np.convolve(gains[b, :g_size], losses[b, l_size - 1 :: -1])
        values[b, start : start + row.size] = row
    values[n_direct:] = values[ell + 1 - n_rows : ell + 1 - n_direct][::-1, ::-1]
    return values


def _leading_columns(params: ModelParams, n_cols: int) -> np.ndarray:
    """M[0:r, 0:n_cols] for 1 <= n_cols <= ell + 1, bit for bit
    ``kernel_band(params).block(0, r, 0, n_cols)``: r covers every row whose
    support starts below column n_cols, and at least n_cols rows, so the rows
    past r are 0 there.  Only those r rows are built (``_kernel_rows``) and
    scattered (``_scatter``), beside the windows of all ell + 1 rows: at
    a = ln 2 and n_cols = 11 that is 54 rows at ell = 5000 and 43 at
    ell = 10^5, where the band has ell + 1.
    """
    windows = _kernel_windows(params)
    reach = np.flatnonzero(windows.lo < n_cols)
    r = max(n_cols, int(reach[-1]) + 1 if reach.size else 0)
    values = _kernel_rows(params, windows, r)
    return _scatter(values, params.ell + 1, windows.half_width, 0, r, 0, n_cols)


def _band_for(params: ModelParams, band: KernelBand | None) -> KernelBand:
    """band, or kernel_band(params) where it is None; ValueError where it has
    other than ell + 1 rows, so it cannot be the kernel of params."""
    band = kernel_band(params) if band is None else band
    if band.n != params.ell + 1:
        raise ValueError(f"kernel band must have {params.ell + 1} rows, got {band.n}")
    return band


def lumped_kernel_matrix(params: ModelParams, band: KernelBand | None = None) -> np.ndarray:
    """Dense (ell+1) x (ell+1) class transition matrix M, row b = parent class.

    ``KernelBand.block`` over the whole matrix, the rows of ``kernel_band``
    scattered into zeros: each stored entry is the band's value bit for
    bit, and the entries the band leaves out (all below BAND_FLOOR) are
    exact zeros, so this is the M the Perron and extinction solves run on.
    It takes O(ell^2) memory where the band takes O(ell) at fixed
    a = ell q.  Pass band = kernel_band(params) to reuse a band already
    built.
    """
    band = _band_for(params, band)
    return band.block(0, band.n, 0, band.n)

