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
from scipy.special import gammaln

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
    "limit_kernel",
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


def _binom_windows(n: np.ndarray, p: float, log_fact: np.ndarray, log_min: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Ends lo, hi of the windows where the Binomial(n[i], p) logpmf >= log_min.

    log_min must lie below the log of the pmf at the mode, which is at least
    -log(n + 1).  The pmf is unimodal, so each window is an interval around
    the mode, and each end is found by bisection on its monotone side, for
    all rows at once.
    """
    if p == 0.0:
        return np.zeros_like(n), np.zeros_like(n)
    log_p, log_1mp = math.log(p), math.log1p(-p)

    def inside(k):
        logpmf = log_fact[n] - log_fact[k] - log_fact[n - k] + k * log_p + (n - k) * log_1mp
        return logpmf >= log_min

    mode = np.minimum(np.floor((n + 1) * p).astype(n.dtype), n)
    # Invariant: hi is inside, out > hi is not (out = n + 1 is past the end).
    # Finished rows (out = hi + 1) probe mid = hi and stay put; likewise below.
    hi, out = mode, n + 1
    while np.any(out - hi > 1):
        mid = (hi + out) // 2
        keep = inside(mid)
        hi, out = np.where(keep, mid, hi), np.where(keep, out, mid)
    lo, out = mode, np.full_like(n, -1)
    while np.any(lo - out > 1):
        mid = (lo + out + 1) // 2
        keep = inside(mid)
        lo, out = np.where(keep, mid, lo), np.where(keep, out, mid)
    return lo, hi


def _binom_window_pmfs(n: np.ndarray, p: float, lo: np.ndarray, hi: np.ndarray,
                       log_fact: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binomial(n[i], p) pmfs on lo[i]..hi[i], concatenated end to end: values, starts, ends.

    All windows are evaluated in one pass, from the log-factorial table
    log_fact; pmf i is values[starts[i]:ends[i]].
    """
    size = hi - lo + 1
    ends = np.cumsum(size)
    # k steps by 1 inside a window and jumps from hi[i-1] to lo[i] between
    # windows; int32 (k <= ell) keeps the index arrays at half the size.
    k = np.ones(ends[-1], dtype=np.int32)
    k[0] = lo[0]
    k[ends[:-1]] = lo[1:] - hi[:-1]
    np.cumsum(k, out=k)
    if p == 0.0:
        return (k == 0).astype(float), ends - size, ends
    n_k = np.repeat(n.astype(np.int32), size)
    n_k -= k
    # log_fact[j] = gammaln(j + 1); with the terms added in this order the
    # values equal a full-length gammaln evaluation of each pmf bit for bit.
    logpmf = np.repeat(log_fact[n], size)
    logpmf -= log_fact[k]
    logpmf -= log_fact[n_k]
    logpmf += k * math.log(p)
    logpmf += n_k * math.log1p(-p)
    return np.exp(logpmf, out=logpmf), ends - size, ends


@dataclass(frozen=True, eq=False)
class KernelBand:
    """The class kernel M on its band: M(b, offsets[b] + j) = values[b, j].

    values is (ell + 1) x width, width <= ell + 1, and every window
    offsets[b] .. offsets[b] + width - 1 lies inside 0..ell.  Entries of M
    outside the windows are below BAND_FLOOR and count as 0; entries inside
    them but outside the row's support are stored as 0.  half_width bounds
    |c - b| over the row supports.  ``matvec`` and ``rmatvec`` give M x and
    x M, and ``block`` dense pieces of M, all without forming M: the
    Perron and extinction solves run on these alone.
    """

    values: np.ndarray
    offsets: np.ndarray
    half_width: int

    @property
    def n(self) -> int:
        """Number of classes, ell + 1."""
        return self.values.shape[0]

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """M[r0:r1, c0:c1] as a dense array."""
        width = self.values.shape[1]
        j = np.arange(c0, c1) - self.offsets[r0:r1, None]
        inside = (j >= 0) & (j < width)
        got = np.take_along_axis(self.values[r0:r1], np.clip(j, 0, width - 1), axis=1)
        return np.where(inside, got, 0.0)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M @ x, in O(ell x width)."""
        x = np.ascontiguousarray(x, dtype=float)
        n, width = self.values.shape
        if x.shape != (n,):
            raise ValueError(f"x must have shape ({n},), got {x.shape}")
        # row k of windows is the view x[k : k + width]
        windows = np.ndarray((n - width + 1, width), float, x, 0, (x.itemsize, x.itemsize))
        return np.einsum("ij,ij->i", self.values, windows[self.offsets])

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """x @ M, in O(ell x width)."""
        out = np.zeros(self.n)
        for j in range(self.values.shape[1]):
            out += np.bincount(self.offsets + j, weights=x * self.values[:, j], minlength=self.n)
        return out


def kernel_band(params: ModelParams) -> KernelBand:
    """The class kernel M on the band that holds every entry >= BAND_FLOOR.

    Row b is the law of b + G - L where G ~ Binomial(ell-b, q) counts
    correct loci that mutate away and L ~ Binomial(b, q/(kappa-1)) counts
    mutated loci that revert: the convolution of the two pmfs, term for term
    the sum of lumped_kernel_entry.  M(b, c) sums at most ell + 1 products
    P(G = k) P(L = l) with k - l = c - b, so an entry >= BAND_FLOOR has a
    term >= BAND_FLOOR / (ell + 1), and both its factors are at least that.
    So each pmf is kept on its window at that level (``_binom_windows``),
    the windows of all rows are evaluated in one pass
    (``_binom_window_pmfs``), and row b is the convolution of its two
    windows.  The terms left out sum to at most 2 BAND_FLOOR / (ell + 1)
    per entry, and every entry outside the rows' supports is below
    BAND_FLOOR and counts as 0.  Row b is stored on the window of its
    support, shifted left to end by column ell; the storage is (ell + 1) x
    (largest support), never more than the dense matrix.  At fixed a = ell q
    the support stays bounded as ell grows (about 160 columns at a = ln 2),
    so the band takes O(ell) memory and time where the dense matrix takes
    O(ell^2): about 130 MB at ell = 10^5 against 80 GB.
    """
    ell, kappa, q = params.ell, params.kappa, params.q
    q_back = q / (kappa - 1)
    log_fact = gammaln(np.arange(ell + 1) + 1)
    log_min = math.log(BAND_FLOOR) - math.log(ell + 1)
    classes = np.arange(ell + 1)
    g_lo, g_hi = _binom_windows(ell - classes, q, log_fact, log_min)
    gains, g_starts, g_ends = _binom_window_pmfs(ell - classes, q, g_lo, g_hi, log_fact)
    if q_back == q:
        # kappa = 2 (or q = 0): L in row b is G in row ell - b, window and pmf alike.
        l_lo, l_hi, losses = g_lo[::-1], g_hi[::-1], gains
        l_starts, l_ends = g_starts[::-1], g_ends[::-1]
    else:
        l_lo, l_hi = _binom_windows(classes, q_back, log_fact, log_min)
        losses, l_starts, l_ends = _binom_window_pmfs(classes, q_back, l_lo, l_hi, log_fact)
    # conv(gain, loss[::-1])[j] = sum P(G=k) P(L=l) over k - l = j + g_lo - l_hi,
    # which lands in class c = b + k - l: row b's support is lo[b]..hi[b].
    lo, hi = classes + g_lo - l_hi, classes + g_hi - l_lo
    width = int(np.max(hi - lo)) + 1
    offsets = np.minimum(lo, ell + 1 - width)
    values = np.zeros((ell + 1, width))
    bounds = zip((lo - offsets).tolist(), g_starts.tolist(), g_ends.tolist(),
                 l_starts.tolist(), l_ends.tolist())
    for b, (start, g0, g1, l0, l1) in enumerate(bounds):
        row = np.convolve(gains[g0:g1], losses[l0:l1][::-1])
        values[b, start : start + row.size] = row
    half_width = int(max(np.max(classes - lo), np.max(hi - classes)))
    return KernelBand(values=values, offsets=offsets, half_width=half_width)


def lumped_kernel_matrix(params: ModelParams) -> np.ndarray:
    """Dense (ell+1) x (ell+1) class transition matrix M, row b = parent class.

    The rows of ``kernel_band`` scattered into zeros: each stored entry is
    the band's value bit for bit, and the entries the band leaves out (all
    below BAND_FLOOR) are exact zeros, so this is the M the Perron and
    extinction solves run on.  It takes O(ell^2) memory where the band
    takes O(ell) at fixed a = ell q.
    """
    band = kernel_band(params)
    width = band.values.shape[1]
    m = np.zeros((band.n, band.n))
    for b, (c0, row) in enumerate(zip(band.offsets.tolist(), band.values)):
        m[b, c0 : c0 + width] = row
    return m


def limit_kernel(i: int, k: int, a: float) -> float:
    """Long-sequence limit of the class kernel with q = a / ell.

    Back-mutations vanish in the limit, so a class-i parent begets a
    class-k child with the Poisson(a) weight at k - i, and never moves
    down in class.
    """
    if i < 0 or k < 0:
        raise ValueError("class indices must be nonnegative")
    if not (math.isfinite(a) and a >= 0):
        raise ValueError(f"a must be finite and >= 0, got {a}")
    if k < i:
        return 0.0
    d = k - i
    if a == 0.0:
        return 1.0 if d == 0 else 0.0
    return math.exp(-a + d * math.log(a) - math.lgamma(d + 1))
