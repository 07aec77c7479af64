"""Mean matrix of the class-level branching process and derived quantities.

The mean matrix W(i, j) = A(i) * M(i, j) combines the class fitness A
(sigma for class 0, else 1) with the lumped mutation kernel M.  Its
Perron eigenvalue is the mean growth factor of the population, and the
left Perron eigenvector, normalized to total mass one, is the asymptotic
class-frequency profile on survival.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernel import (BAND_FLOOR, KernelBand, ModelParams, _log_stationary_law, kernel_band,
                     lumped_kernel_matrix)

__all__ = [
    "ConvergenceError",
    "SlowSeriesError",
    "PerronPair",
    "PerronHead",
    "ExtinctionReport",
    "BoundsRow",
    "BoundsReport",
    "fitness_vector",
    "mean_matrix",
    "perron",
    "perron_head",
    "perron_bounds_check",
    "extinction_probabilities",
]


# Smallest block of the banded elimination: fewer, larger blocks when the
# band is narrow (q near 0).
_MIN_BLOCK = 16
# Largest matrix handed to numpy.linalg.inv or numpy.linalg.solve.  From 100
# rows on, OpenBLAS factors through its threaded LU, which can stall for
# 10-300 ms; larger pivot blocks go through a 2 x 2 block split.
_MAX_INV = 99
# lam is kept this many ulps of 1 above the Perron root of the class kernel.
_FLOOR_ULPS = 16
_EPS = float(np.finfo(float).eps)
# Extinction Newton: a class's step is extrapolated once the ratio r of its
# steps lies in (_RATIO_LO, _RATIO_HI) and agrees with the last ratio to
# _RATIO_AGREE relative; the extrapolated point u may have F_k down to
# -_DIP * u_k * max(u).
_RATIO_LO, _RATIO_HI, _RATIO_AGREE = 0.3, 0.9, 0.05
_DIP = 1e-3
# Closed-form head: the series is summed to a length doubling from
# _HEAD_CHUNK terms, at most _HEAD_MAX_TERMS, until the part left out is
# below exp(_LOG_HEAD_EPS) of each class; from _HEAD_SLOW terms on, it is
# given up where a class cannot get there within _HEAD_MAX_TERMS.
_HEAD_CHUNK = 64
_HEAD_MAX_TERMS = 1 << 18
_HEAD_SLOW = 1 << 12
_HEAD_BLOCK = 1 << 18   # terms times classes summed at a time
_LOG_HEAD_EPS = math.log(_EPS / 4)
_LOG_TINY = math.log(np.finfo(float).smallest_subnormal)
_CLASS_0 = np.zeros(1, dtype=np.int64)
# The lam solve sums x_0 from M's spectral expansion, ell + 1 terms, up to
# this ell (theta > 0), and from the series above it.  Its weights are
# products of at most this many mantissas in [1/2, 1), so they stay normal
# floats even where long double is a double.
_SPECTRAL_MAX_ELL = 1000


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations before meeting its tolerance."""

    def __init__(self, message: str, residual: float | None = None, iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SlowSeriesError(ConvergenceError):
    """``perron_head``'s series needs more than its term budget (sigma and q
    near 1 and 0); ``perron`` on the band solves such an instance."""


@dataclass(frozen=True)
class PerronPair:
    """Perron eigenvalue and left eigenvector (unit total mass)."""

    lam: float
    rho: np.ndarray
    residual: float
    iterations: int
    method: str


@dataclass(frozen=True)
class PerronHead:
    """Perron eigenvalue lam = 1 + mu (mu to full relative accuracy, also
    where lam rounds to 1) and the head rho_0..rho_K of the left
    eigenvector (unit total mass over all classes), with how the solve got
    them: steps of the lam solve (``iterations``), series terms (``terms``,
    the most any class took; 0 where none took the series) and the
    secular residual |(sigma - 1) x_0(lam) - 1|."""

    lam: float
    mu: float
    rho: np.ndarray
    iterations: int
    terms: int
    residual: float
    method: str


@dataclass(frozen=True)
class ExtinctionReport:
    """Extinction probability s per starting class, and how the solve got it:
    Newton steps (``iterations``), how many of them were extrapolated, and
    the residual max|F(1 - s)| at the end."""

    s: np.ndarray
    iterations: int
    extrapolations: int
    residual: float
    method: str


def fitness_vector(params: ModelParams) -> np.ndarray:
    """Per-class reproduction rates (sigma, 1, ..., 1)."""
    a = np.ones(params.ell + 1)
    a[0] = params.sigma
    return a


def mean_matrix(params: ModelParams, band: KernelBand | None = None) -> np.ndarray:
    """Dense mean matrix W(i, j) = A(i) * M(i, j): ``lumped_kernel_matrix``,
    the scattered band, with row 0 scaled by sigma.

    The entries the band leaves out, all below BAND_FLOOR, are exact zeros.
    Pass band = kernel_band(params) to reuse a band already built.
    """
    w = lumped_kernel_matrix(params, band=band)
    w[0] *= params.sigma
    return w


class _HeadSeries:
    """Terms of the closed-form head series, for ``perron_head``, in numpy's
    long double (see ``perron_head`` for what that is per platform).

    Loci mutate independently, so M^n(0, k) is the Binomial(ell, p_n) pmf
    at k, with p_n = (1 - 1/kappa)(1 - theta^n) and theta = 1 - q kappa /
    (kappa - 1) (p_1 = q exactly).  Each pmf is taken in log space as
    log C(ell, k) + k log p_n + (ell - k) log(1 - p_n), log C(ell, k) the
    sum of the logs of (ell - i) / (i + 1), i < k.  The first two terms
    are each up to k log ell in size, and cancel for small p_n; in 80-bit
    long double that costs ~1e-17 relative at k = 10, where a double would
    lose ~1e-14.  The exp of each log term is taken in double, to an ulp
    of a double at a tenth of the cost, but for class 0, whose sum the lam
    solve rests on (``x_0``).
    """

    def __init__(self, params: ModelParams, k_top: int):
        self.params, kappa = params, params.kappa
        c = np.longdouble(params.q) * kappa / (kappa - 1)
        self.theta = float(1 - c)
        # log|theta| and 1 - |theta| without cancellation
        self.log_abs_theta = np.log1p(-c) if c < 1 else np.log(c - 1)
        self.gap = float(c if c < 1 else 2 - c)
        self.k = np.arange(k_top + 1)
        i = self.k[:-1].astype(np.longdouble)
        self.log_binom = np.concatenate(([0], np.cumsum(np.log((params.ell - i) / (i + 1)))))
        # the stationary law, pi_k = C(ell, k) (kappa - 1)^k / kappa^ell, k <= k_top
        self.log_pi = (self.log_binom + self.k * np.log(np.longdouble(kappa - 1))
                       - params.ell * np.log(np.longdouble(kappa)))
        self.n_terms = _HEAD_CHUNK
        self._columns = {}
        self.spectral = self.theta > 0.0 and params.ell <= _SPECTRAL_MAX_ELL   # see x_0
        if self.spectral:
            ell, q = params.ell, np.longdouble(params.q)
            i = np.arange(ell, dtype=np.longdouble)
            ratios = (ell - i) / (i + 1) * ((kappa - 1) * (1 - c))   # b_j / b_(j - 1)
            mant, expo = np.frexp(np.concatenate(([1], ratios)))
            expo = np.cumsum(expo)
            b = np.ldexp(np.cumprod(mant), expo - expo.max())
            # (1 - q)^ell b_j for j >= 1 over exp(_scale), and 1 - theta^j
            self._scale = ell * np.log1p(-q) - np.log(b.sum())
            self._weights, self._drops = b[1:], -np.expm1((i + 1) * self.log_abs_theta)

    def x_0(self, t: np.longdouble) -> tuple[np.ndarray, ...]:
        """``sums`` for class 0 alone, for the lam solve.  Where theta > 0
        and ell <= _SPECTRAL_MAX_ELL, from M's spectral expansion instead of
        the series:
        M^n(0, 0) = (1 - p_n)^ell = ((1 + (kappa - 1) theta^n) / kappa)^ell =
        sum_j w_j theta^(jn), w_j = C(ell, j) (kappa - 1)^j / kappa^ell and
        w_0 = pi_0, so

            x_0 = pi_0 / mu + sum_{1 <= j <= ell} w_j theta^j / (lam - theta^j),

        ell + 1 positive terms, with no tail to bound: O(ell) per step
        however slowly the series falls.  The pole is pi_0 / mu (N = 0).
        w_j theta^j = (1 - q)^ell b_j, b the Binomial(ell, s) pmf with
        s / (1 - s) = (kappa - 1) theta, is taken as the cumulative products
        of the ratios b_j / b_(j - 1), normalized by their sum, with powers
        of 2 split off (exactly) to keep them in range: a few ulps each,
        where the logs of C(ell, j), up to ell log 2 in size, would carry
        that many ulps of it."""
        if not self.spectral:
            return self.sums(_CLASS_0, t)
        scale, w, drop = self._scale, self._weights, self._drops
        log_pi_0, mu = self.log_pi[0], np.exp(t)
        g = w / (mu + drop)                    # w_j theta^j / (lam - theta^j), over exp(scale)
        total = g.sum()
        with np.errstate(divide="ignore"):     # every w_j theta^j underflows: only the pole
            c = max(scale + np.log(total), log_pi_0 - t)
        shrink = np.exp(scale - c)
        rest, pole = total * shrink, np.exp(log_pi_0 - t - c)
        # the rest's slope, mu sum_j w_j theta^j / (lam - theta^j)^2, is moment mu / lam
        moment = (1 + mu) * (g / (mu + drop)).sum() * shrink
        return ((c,), (rest,), (moment,), (pole,), (log_pi_0,), (c + np.log(pole + rest),),
                (0,))

    def log_terms(self, n0: int, n1: int, ks: np.ndarray, rate: np.longdouble
                  ) -> tuple[np.ndarray, float]:
        """log lam^-n M^n(0, k) = log C(ell, k) + k log(p_n / (1 - p_n)) +
        ell log(1 - p_n) - n log lam, lam = exp(rate), for n0 <= n < n1 and
        the classes ks, as a (ks.size, n1 - n0) array, and p_{n1 - 1}.  The
        two logs in p_n are kept per block, as the lam solve asks for the
        same blocks at every step."""
        if (n0, n1) not in self._columns:
            self._columns[n0, n1] = self._log_probs(n0, n1)
        log_odds, log_keep, p_last = self._columns[n0, n1]
        k = ks[:, None]
        return self.log_binom[k] + k * log_odds + (log_keep - np.arange(n0, n1) * rate), p_last

    def _log_probs(self, n0: int, n1: int) -> tuple[np.ndarray, np.ndarray, float]:
        """log(p_n / (1 - p_n)) and ell log(1 - p_n) for n0 <= n < n1, and
        p_{n1 - 1}."""
        kappa, q = self.params.kappa, np.longdouble(self.params.q)
        n = np.arange(n0, n1)
        e = n * self.log_abs_theta                             # log|theta^n|
        p_inf = 1 - np.longdouble(1) / kappa
        if self.theta > 0.0:
            p = -p_inf * np.expm1(e)
            log_keep = np.log1p(-p)
        else:
            neg = n % 2 == 1
            z = np.where(neg, -np.exp(e), np.exp(e))              # theta^n
            p = p_inf * np.where(neg, 1 - z, -np.expm1(e))
            # log(1 - p_n) = log(1/kappa + (1 - 1/kappa) theta^n)
            log_keep = np.where(neg, np.log1p((kappa - 1) * z) - np.log(np.longdouble(kappa)),
                                np.log1p(-p))
        if n0 == 1:
            p[0], log_keep[0] = q, np.log1p(-q)
        return np.log(p) - log_keep, self.params.ell * log_keep, float(p[-1])

    def tail_ok(self, n: int, ks: np.ndarray, log_m_last: np.ndarray, p_last: float,
                log_x: np.ndarray, t: float) -> np.ndarray:
        """For each class k in ks, whether sum_{j > n} lam^-j |d_j(k)|, d_j(k)
        = M^j(0, k) - pi_k, is below exp(_LOG_HEAD_EPS) of x_k = rho_k / mu at
        mu = exp(t), given log M^n(0, k), p_n and log x_k; or, for a class
        whose rho_k underflows, of the smallest float over mu.

        |d_j(k)| <= 1, so the sum is at most lam^-n / mu.  It is also bounded
        by lam^-n |d_n(k)| times r / (1 - r), r = |theta| / lam, in these
        cases.  For class 0 and theta > 0: d_n(0) = sum_j pi_j theta^(jn)
        falls by at least theta per step.  For a class k > 0 and theta > 0,
        once p_n has passed k / ell, the pmf's mode in p, from where d_n(k)
        falls toward 0.  For theta < 0, where d_n swings in sign, with
        |d_n(k)| taken as g_k(|theta|^n) - pi_k, g_k(w) = pi_k (1 + w)^k
        (1 + (kappa - 1) w)^(ell - k) the polynomial of the absolute values of
        d_n(k)'s coefficients in theta^n, which falls by at least |theta| per
        step.
        """
        ell, kappa = self.params.ell, self.params.kappa
        mu = math.exp(t)
        log_pi = self.log_pi[ks].astype(float)
        if self.theta > 0.0:
            log_m = log_m_last.astype(float)
            hi = np.maximum(log_m, log_pi)
            with np.errstate(divide="ignore"):             # d_n(k) = 0 exactly
                log_d = hi + np.log(-np.expm1(np.minimum(log_m, log_pi) - hi))
            past = (ks >= ell * (1.0 - 1.0 / kappa)) | (ell * p_last >= ks)
        else:
            w = math.exp(n * float(self.log_abs_theta))
            with np.errstate(over="ignore", divide="ignore"):
                log_d = log_pi + np.log(np.expm1(ks * math.log1p(w)
                                                 + (ell - ks) * math.log1p((kappa - 1) * w)))
            past = True
        decay = -n * math.log1p(mu)
        geometric = log_d + decay + float(self.log_abs_theta) - math.log(mu + self.gap)
        level = _LOG_HEAD_EPS + np.maximum(log_x.astype(float), _LOG_TINY - t)
        return (past & (geometric <= level)) | (decay - t <= level)

    def within_budget(self, ks: np.ndarray, t: float) -> bool:
        """Whether every class in ks meets ``tail_ok`` at n = _HEAD_MAX_TERMS
        with the most lenient level a class can have, that of x_k = 1 / mu
        (sum x = 1 / mu): the bound only falls with n, so a class that
        fails this fails at every n up to the budget."""
        n = _HEAD_MAX_TERMS
        log_m, p_last = self.log_terms(n, n + 1, ks, np.longdouble(0))
        return bool(self.tail_ok(n, ks, log_m[:, 0], p_last, np.full(ks.size, -t), t).all())

    def _add(self, n0: int, n1: int, ks: np.ndarray, rate: np.longdouble, acc: tuple) -> tuple:
        """acc = (c_k, s_k, m_k) for the classes ks, with the terms lam^-n
        M^n(0, k), n0 <= n < n1, added: their sum is exp(c_k) s_k and, for
        class 0, that of n times them exp(c_k) m_k, c_k the log of the
        largest.  Also log M^(n1 - 1)(0, k) and p_(n1 - 1).  In blocks of at
        most _HEAD_BLOCK terms in all."""
        c, s, m = acc
        width = max(1, _HEAD_BLOCK // ks.size)
        for b0 in range(n0, n1, width):
            n = np.arange(b0, min(b0 + width, n1))
            a, p_last = self.log_terms(b0, b0 + n.size, ks, rate)
            log_m_last = a[:, -1] + n[-1] * rate
            top = np.maximum(c, a.max(axis=1))
            a -= top[:, None]
            # exp in double, to an ulp of a double, a tenth of the cost in
            # long double; class 0, which the lam solve rests on, in long double
            scaled = np.exp(a.astype(float)).astype(np.longdouble)
            shrink = np.exp(c - top)
            if ks[0] == 0:
                scaled[0] = np.exp(a[0])
                m[0] = m[0] * shrink[0] + scaled[0] @ n
            s, c = s * shrink + scaled.sum(axis=1), top
        return (c, s, m), log_m_last, p_last

    def sums(self, ks: np.ndarray, t: np.longdouble) -> tuple[np.ndarray, ...]:
        """x_k = rho_k / mu at mu = exp(t) for the classes ks (ascending),
        class k summed to n = N_k as

            x_k = sum_{n <= N_k} lam^-n M^n(0, k) + pi_k lam^-N_k / mu,

        the series with every term from N_k on taken at M^n(0, k) = pi_k,
        the limit it tends to: every term is positive, and the rest,
        sum_{n > N_k} lam^-n d_n(k), is what ``tail_ok`` bounds.  N_k
        doubles from _HEAD_CHUNK, checked from ``n_terms``, class 0's last,
        on, up to _HEAD_MAX_TERMS for the classes whose rest is not yet
        small enough (SlowSeriesError past that, or from _HEAD_SLOW on
        where ``within_budget`` says it will be).  In log space, as terms
        and sums may underflow or overflow: returns c_k, the log of the
        largest term; divided by exp(c_k), the sum of the terms lam^-n
        M^n(0, k), of n times them (for class 0, which the lam solve's
        slope needs) and the last one, pi_k lam^-N_k / mu; then log(pi_k
        lam^-N_k), log x_k and N_k.  No exponent as large as log mu enters a
        term but the last.
        """
        rate = np.log1p(np.exp(t))
        c = np.full(ks.size, -np.inf, dtype=np.longdouble)
        s, m, log_x = np.zeros((3, ks.size), dtype=np.longdouble)
        n = np.zeros(ks.size, dtype=np.int64)
        live, done, size = np.arange(ks.size), 0, _HEAD_CHUNK   # positions in ks
        while live.size:
            acc = (c[live], s[live], m[live])
            (c[live], s[live], m[live]), log_m_last, p_last = self._add(
                done + 1, size + 1, ks[live], rate, acc)
            n[live] = size
            if size < self.n_terms:   # known to fall short: the blocks stay on one grid
                done, size = size, 2 * size
                continue
            log_tail = self.log_pi[ks[live]] - size * rate
            top = np.maximum(c[live], log_tail - t)
            log_x[live] = top + np.log(s[live] * np.exp(c[live] - top)
                                       + np.exp(log_tail - t - top))
            live = live[~self.tail_ok(size, ks[live], log_m_last, p_last, log_x[live],
                                      float(t))]
            if live.size and (size >= _HEAD_MAX_TERMS or size >= _HEAD_SLOW
                              and not self.within_budget(ks[live], float(t))):
                raise SlowSeriesError(f"closed-form Perron series cannot converge in "
                                      f"{_HEAD_MAX_TERMS} terms")
            done, size = size, min(2 * size, _HEAD_MAX_TERMS)
        if ks.size and ks[0] == 0:
            self.n_terms = int(n[0])
        log_tail = self.log_pi[ks] - n * rate
        top = np.maximum(c, log_tail - t)
        scale = np.exp(c - top)
        return top, s * scale, m * scale, np.exp(log_tail - t - top), log_tail, log_x, n


def perron_head(params: ModelParams, k_max: int = 10, tol: float = 1e-12,
                max_iter: int = 100) -> PerronHead:
    """Perron eigenvalue lam = 1 + mu of W and the head rho_0..rho_K
    (K = min(k_max, ell)) of its left eigenvector, in closed form.

    W = M + (sigma - 1) e_0 r with r = M(0, :), so rho is proportional to
    x = r (lam I - M)^-1 = sum_{n >= 1} lam^-n M^n(0, :); M is stochastic,
    so sum x = 1 / mu and rho = mu x exactly.  Loci mutate independently,
    so M^n(0, k) is the Binomial(ell, p_n) pmf at k with p_n = (1 - 1/kappa)
    (1 - theta^n), theta = 1 - q kappa / (kappa - 1) (``_HeadSeries``).
    Every term is positive for every theta >= -1 / (kappa - 1), the whole
    range of q.  The terms tend to pi_k lam^-n, pi the stationary law
    (``_log_stationary_law``), so the series is summed to n = N and every
    term past N is taken at that limit:

        x_k = sum_{n <= N} lam^-n M^n(0, k) + pi_k lam^-N / mu,

    all terms positive, also where rho_k is far below pi_k, and the form
    holds where lam - 1 lies far below the spacing of floats at 1.  N
    doubles from _HEAD_CHUNK until the part left out, sum_{n > N} lam^-n
    (M^n(0, k) - pi_k), is below eps / 4 of each x_k, or of the smallest
    float where rho_k underflows (``_HeadSeries.tail_ok``); ``terms`` is
    the largest N of the classes the series sums.  Where both mu and
    1 - |theta| are tiny (sigma near 1 and q near 0) that part falls by
    only about a factor 1 - mu - (1 - |theta|) per term, and where it
    cannot meet that bound by _HEAD_MAX_TERMS terms the solve raises
    SlowSeriesError, from _HEAD_SLOW terms on; ``perron`` on the band
    solves such an instance.  The cost is O(K N), with no ell-sized
    array: no band and no elimination.

    lam solves the secular equation (sigma - 1) x_0(lam) = 1, x_0
    decreasing in lam, in t = log mu, so mu keeps its relative accuracy
    down to the smallest float and below.  Where theta > 0 and ell <=
    _SPECTRAL_MAX_ELL, x_0 comes from M's spectral expansion instead of
    the series (``_HeadSeries.x_0``): ell + 1 positive terms with no tail,
    cheaper than the series at small ell, and exact however slowly the
    series falls; rho_0 = mu x_0 is reported from it, with K = 0 summing
    no series at all.  Its pole is pi_0 / mu (N = 0).

    The solve starts at lam = sigma M(0, 0), the root for the first term
    alone, where that is above 1, and at lam = sigma otherwise, and keeps
    a bracket, [(sigma - 1) pi_0 / (sigma + 1), sigma - 1] in mu at first
    (x_0 >= pi_0 / (mu (2 + mu)) from the even terms).  Where the pole
    pi_0 lam^-N / mu moves x_0 more than the rest D_0 does, a step is
    Newton on x_0 in 1 / mu, exact for x_0 = pi_0 / mu + const; elsewhere
    Newton on 1 / x_0 in mu, exact for a geometric series, or else the root
    of the pole with D_0 held, which jumps from where D_0 is flat to where
    the pole counts.  A step that leaves the bracket gives way to the next,
    and to the bracket's midpoint.  The solve stops once a step is at most
    tol in t (relative in mu), or too small to change t; max_iter bounds
    the steps (``iterations``), and running out raises ConvergenceError.
    ``residual`` is the secular residual |(sigma - 1) x_0(lam) - 1| at
    the end.  Near the threshold the root is ill-conditioned (at sigma =
    2, sigma e^-a = 1.01, one ulp of x_0 moves mu by 50 ulps), so t and
    the sums are kept in numpy's long double.  That is 80-bit extended
    precision on x86 (Linux, and macOS on Intel), where mu and rho come
    out within a few ulps of 40-digit arithmetic.  Where long double is a
    plain double (Windows, macOS on arm64) about a decimal digit of mu is
    lost near the threshold; on aarch64 Linux it is quad precision done in
    software, more accurate and slower.

    Closed forms with no solve (``iterations`` 0): where theta rounds to 1
    (q = 0, or nearly) M is the identity, so lam = sigma and rho = e_0 (at
    sigma = 1 too, the limit as sigma falls to 1); at theta = 0 every row
    of M is pi, so rho = pi and lam = 1 + (sigma - 1) pi_0 (method
    "closed form (theta = 0)"); at sigma = 1, W = M and (lam, rho) =
    (1, pi).
    """
    sigma, kappa = params.sigma, params.kappa
    log_pi = _log_stationary_law(params, k_max)
    theta = 1.0 - params.q * kappa / (kappa - 1)
    if theta == 1.0:
        return PerronHead(lam=sigma, mu=sigma - 1.0, rho=np.eye(1, log_pi.size)[0],
                          iterations=0, terms=0, residual=0.0, method="closed form")
    if theta == 0.0 or sigma == 1.0:
        pi = np.exp(log_pi)
        mu = (sigma - 1.0) * float(pi[0])
        method = "closed form (theta = 0)" if theta == 0.0 else "closed form"
        return PerronHead(lam=1.0 + mu, mu=mu, rho=pi, iterations=0, terms=0, residual=0.0,
                          method=method)
    series = _HeadSeries(params, log_pi.size - 1)
    log_sm1 = np.log(np.longdouble(sigma) - 1)
    log_pi_0 = series.log_pi[0]

    def secular(t):
        """h(t) = log((sigma - 1) x_0), h'(t), whether the pole term
        pi_0 lam^-N / mu of x_0 (N its terms) moves more with t than the
        rest D_0 does, and the root in t of the pole with D_0 held."""
        (c,), (rest,), (moment,), (pole,), (log_tail,), (log_x,), (n,) = series.x_0(t)
        mu = np.exp(t)
        # x_0 = exp(c) (pole + rest), dx_0/dt = -exp(c) (pole (1 + N mu / lam) + slope)
        slope = moment * (mu / (1 + mu))
        dh = -(pole * (1 + n * mu / (1 + mu)) + slope) / (pole + rest)
        with np.errstate(divide="ignore", invalid="ignore"):   # none where (sigma - 1) D_0 >= 1
            t_pole = log_tail + log_sm1 - np.log(-np.expm1(log_sm1 + c + np.log(rest)))
        return log_sm1 + log_x, dh, pole > slope, t_pole

    t_hi = log_sm1
    t_lo = log_sm1 + log_pi_0 - np.log1p(np.longdouble(sigma))
    # start at lam = sigma M(0, 0), the root of the series' first term, where
    # that lies above 1; at lam = sigma otherwise
    guess = sigma * math.exp(params.ell * math.log1p(-params.q)) - 1.0
    t = np.log(np.longdouble(guess)) if guess > 0.0 else t_hi
    it = 0
    while True:
        h, dh, pole_led, t_pole = secular(t)
        if it == max_iter:
            residual = float(abs(np.expm1(h)))
            raise ConvergenceError(
                f"closed-form Perron solve did not converge in {max_iter} steps "
                f"(secular residual {residual:.3e})", residual=residual, iterations=it)
        it += 1
        if h > 0:
            t_lo = t
        else:
            t_hi = t
        # the first of the docstring's steps that stays in the bracket
        with np.errstate(all="ignore"):   # a step that overflows fails the test below
            pole_step = -np.log1p(-np.expm1(-h) / dh)
            steps = ((pole_step,) if pole_led else
                     (np.log1p(-np.expm1(h) / dh), t_pole - t, pole_step))
        new = (t_lo + t_hi) / 2
        for step in steps:
            if t_lo <= t + step <= t_hi:   # a nan step fails this test
                new = t + step
                break
        done = abs(new - t) <= tol or new == t
        t = new
        if done:
            break
    # class 0 from the spectral expansion where the lam solve used it
    first = 1 if series.spectral else 0
    c, terms, _, _, log_tail, log_x, n = series.sums(np.arange(first, log_pi.size), t)
    rho = np.exp(t + c) * terms + np.exp(log_tail)
    if first:
        (log_x_0,) = series.x_0(t)[5]
        rho = np.concatenate(([np.exp(t + log_x_0)], rho))
    else:
        log_x_0 = log_x[0]
    mu = np.exp(t)
    return PerronHead(lam=float(1 + mu), mu=float(mu), rho=rho.astype(float), iterations=it,
                      terms=int(n.max(initial=0)),
                      residual=float(abs(np.expm1(log_sm1 + log_x_0))), method="closed form")


def _inverse(t: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular M-matrix t, with no numpy.linalg.inv call above _MAX_INV rows.

    Larger t is split as [[A, B], [C, D]] and inverted through A^-1 and the
    inverse of the Schur complement S = D - C A^-1 B.  The leading block and
    the Schur complement of an M-matrix are M-matrices, so the split needs
    no pivoting.
    """
    n = t.shape[0]
    if n <= _MAX_INV:
        return np.linalg.inv(t)
    h = n // 2
    a_inv = _inverse(t[:h, :h])
    a_inv_b = a_inv @ t[:h, h:]
    c_a_inv = t[h:, :h] @ a_inv
    s_inv = _inverse(t[h:, h:] - t[h:, :h] @ a_inv_b)
    out = np.empty_like(t)
    out[h:, h:] = s_inv
    out[:h, h:] = -a_inv_b @ s_inv
    out[h:, :h] = -s_inv @ c_a_inv
    out[:h, :h] = a_inv - out[:h, h:] @ c_a_inv
    return out


def _solve(t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with t x = b (b of shape (n, k)), t a nonsingular M-matrix.

    Up to _MAX_INV rows with fewer than 2n right-hand sides this is one
    numpy.linalg.solve; otherwise it is _inverse(t) @ b, which keeps every
    numpy.linalg call at or below _MAX_INV rows.  OpenBLAS inverts and
    multiplies faster than it solves with many sides (2-vCPU host: 33
    against 65 us at 20 rows and 82 sides, even at 50 rows and 51), and
    above _MAX_INV rows faster than a split solve with a sweep's n + 1
    sides (257 against 342 us at 107 rows, 1.9 against 3.2 ms at 250); with
    the one side of a sweep's last block it is about 1.6 times slower.
    """
    if t.shape[0] <= _MAX_INV and b.shape[1] < 2 * t.shape[0]:
        return np.linalg.solve(t, b)
    return _inverse(t) @ b


def _flush(a: np.ndarray) -> None:
    """Set the entries of a below BAND_FLOOR in magnitude to 0, in place: as
    for the kernel's entries, products of two of them are subnormal or zero,
    and slow to form."""
    a[np.abs(a) < BAND_FLOOR] = 0.0


class _BandSolver:
    """Solves with A = c I - diag(d) M, M the class kernel on its band.

    A is block tridiagonal for blocks as wide as the band's half width
    (``KernelBand.half_width``), at least _MIN_BLOCK; a remainder shorter
    than _MIN_BLOCK joins the last block.  The blocks of M next to the
    diagonal are copied once from strided views of the band
    (``KernelBand.block``), and those on it once per
    factorisation or, for ``solve_right``, once in all; their entries below
    BAND_FLOOR are set to 0, as are those of the blocks the eliminations
    store (``_flush``).  With the band itself that is O(ell x band width)
    floats in all.  Two eliminations run on them, both without pivoting
    across blocks and with no pivot block above _MAX_INV rows reaching
    numpy.linalg unsplit:

    * ``factor(c)`` then ``solve(b)``, for d = 1 (Perron: c = 1 + mu):
      block LU that keeps the inverse pivot blocks (``_inverse``), so that
      each left solve x A = b costs two sweeps of block products.
    * ``solve_right(d, f)``, for c = 1 (extinction: d = A exp(-A M u)): one
      block Thomas sweep for A x = f, one solve per pivot block with the
      coupling block as extra right-hand sides, O(ell x width^2) flops and
      O(ell x width) floats.
    """

    def __init__(self, band: KernelBand):
        width = max(band.half_width, _MIN_BLOCK)
        self.n = band.n
        self.edges = list(range(0, self.n, width))
        if len(self.edges) > 1 and self.n - self.edges[-1] < _MIN_BLOCK:
            self.edges.pop()   # a short last block joins the one before it
        self.edges.append(self.n)
        self.band = band
        n_blocks = len(self.edges) - 1
        self.upper = [self.block(i, i + 1) for i in range(n_blocks - 1)]   # M(i, i+1)
        self.lower = [self.block(i + 1, i) for i in range(n_blocks - 1)]   # M(i+1, i)
        self.inv: list[np.ndarray] = []
        self.row_excess = band.values.sum(axis=1) - 1.0

    def block(self, i: int, k: int) -> np.ndarray:
        """Block (i, k) of M with entries below BAND_FLOOR set to 0."""
        e = self.edges
        b = self.band.block(e[i], e[i + 1], e[k], e[k + 1])
        b[b < BAND_FLOOR] = 0.0
        return b

    @cached_property
    def diag(self) -> list[np.ndarray]:
        """The blocks M(i, i), formed on first use: ``solve_right`` takes them
        at every Newton step, ``factor`` forms its own once per factorisation."""
        return [self.block(i, i) for i in range(len(self.edges) - 1)]

    def factor(self, c: float) -> None:
        """Factor A = c I - M for ``solve``."""
        self.inv = []
        for i in range(len(self.edges) - 1):
            t = -self.block(i, i)
            t.flat[:: t.shape[0] + 1] += c
            if i:
                t -= self.lower[i - 1] @ (self.inv[-1] @ self.upper[i - 1])
            inv = _inverse(t)
            _flush(inv)
            self.inv.append(inv)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with x A = b, from the last factor()."""
        e, n_blocks = self.edges, len(self.edges) - 1
        x = np.empty(self.n)
        v = np.zeros(0)
        for i in range(n_blocks):
            rhs = b[e[i] : e[i + 1]].copy()
            if i:
                rhs += v @ self.upper[i - 1]   # A(i-1, i) = -M(i-1, i)
            v = rhs @ self.inv[i]
            x[e[i] : e[i + 1]] = v
        for i in range(n_blocks - 2, -1, -1):
            below = x[e[i + 1] : e[i + 2]] @ self.lower[i]
            x[e[i] : e[i + 1]] += below @ self.inv[i]
        return x

    def solve_right(self, d: np.ndarray, f: np.ndarray) -> np.ndarray:
        """x with A x = f for A = I - diag(d) M.

        The sweep runs from the last block up.  Pivot block i is
        T_i = I - D_i (M(i, i) + M(i, i+1) G_{i+1}), and one solve gives
        [G_i | g_i] = T_i^-1 [D_i M(i, i-1) | f_i + D_i M(i, i+1) g_{i+1}];
        then x_0 = g_0 and x_i = g_i + G_i x_{i-1}.
        """
        e = self.edges
        sweeps = []
        for i in range(len(self.diag) - 1, -1, -1):
            d_i = d[e[i] : e[i + 1], None]
            k, rhs = self.diag[i], f[e[i] : e[i + 1], None]
            if sweeps:
                p = self.upper[i] @ sweeps[-1]
                k = k + p[:, :-1]
                rhs = rhs + d_i * p[:, -1:]
            t = -d_i * k
            t.flat[:: t.shape[0] + 1] += 1.0
            if i:
                rhs = np.concatenate((d_i * self.lower[i - 1], rhs), axis=1)
            sweep = _solve(t, rhs)
            _flush(sweep[:, :-1])
            sweeps.append(sweep)
        x = np.empty(self.n)
        v = sweeps[-1][:, 0]
        x[: e[1]] = v
        for i, sweep in enumerate(reversed(sweeps[:-1]), start=1):
            v = sweep[:, -1] + sweep[:, :-1] @ v
            x[e[i] : e[i + 1]] = v
        return x


def perron(
    params: ModelParams,
    band: KernelBand | None = None,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> PerronPair:
    """Perron eigenvalue and the whole left eigenvector of the mean matrix W,
    on the numerical kernel: the full-vector solver, and the oracle that
    ``perron_head``'s closed form is tested against.

    W = M + (sigma - 1) e_0 r with r = M(0, :) and M the stochastic class
    kernel, so from rho W = lam rho, rho is proportional to
    x = r (lam I - M)^-1 and lam is the root in (1, sigma] of the secular
    equation f(lam) = (sigma - 1) x_0 - 1 = 0 (Golub 1973).  f decreases
    in lam, and its root does not get harder to find as the spectral gap
    closes near the threshold sigma e^-a = 1.

    At theta = 1 - q kappa / (kappa - 1) = 0 every locus forgets its
    letter, so every row of M is the stationary law pi (``iterations`` 0,
    method "closed form (theta = 0)"): then rho = pi and
    lam = 1 + (sigma - 1) pi_0 directly, with no elimination.

    Otherwise lam starts at the closed-form root (``perron_head``, for
    every theta), or at sigma where its series converges too slowly
    (sigma near 1 and q near 0).  Newton steps on the numerical kernel
    refine it: each factors lam I - M once by banded
    block elimination (``_BandSolver``) and gives x and
    y = x (lam I - M)^-1 = -dx/dlam; the step is delta = f x_0 / y_0
    (Newton on 1 / x_0), kept inside the bracket the signs of f give
    (bisection otherwise), and the new pair is lam + delta with rho
    proportional to x - delta y.

    lam is kept above a floor, 1 + pole plus a few ulps: pole = pi (s - 1)
    (s the row sums) is the first-order shift of M's Perron root from 1 by
    the rounding of the rows, a few ulps, and is not allowed below 0,
    since M is stochastic.  So lam is never reported below 1.  Above the
    floor lam I - M is a nonsingular M-matrix, so elimination without
    pivoting is stable.
    In the disordered regime lam - 1 can lie far below the spacing of
    floats at 1, and the root below the floor (method "secular Newton
    (stationary limit)").  Then x, from the elimination at the floor, is
    (sum x) pi + T with T the transient, and the secular equation at the
    true lam fixes how much of T is left: rho = pi + k T with
    k = (sigma - 1) pi_0 / (1 - (sigma - 1) T_0), which matters only in
    the lowest classes, where pi is as small as k T.  pi comes from the
    closed form (``_log_stationary_law``), so every class is accurate
    relative to its own size, and lam from the identity
    lam = (Perron root of M) + (sigma - 1) rho_0.  Where theta rounds to
    1 (q = 0, or nearly), M is the identity to rounding and x stands for
    pi: at sigma = 1 that gives rho = e_0, the limit of W's Perron vector
    as sigma falls to 1.

    Newton stops once |delta| <= tol * lam, |delta| ||y||_1 <= ||x||_1 / 2
    (the step stays within half the distance to the pole of x, about
    ||x|| / ||y||, where x - delta y is a first-order update), and the
    residual ||rho W - lam rho||_1 is at most tol * lam; a step too small
    to change lam in floating point also ends the solve.  The closed form
    and the stationary limit are only checked against the band: on every
    path, a residual above tol * lam raises ConvergenceError.
    ``iterations`` counts the eliminations (one per Newton step, and the
    one at the floor for the stationary limit), and max_iter bounds it.

    Everything runs on M's band (``kernel_band``; pass band =
    kernel_band(params) to reuse it): r is its row 0, the elimination
    blocks are formed from it, and the residual is the banded product
    rho W = rho M + (sigma - 1) rho_0 r, taken against the band.  The
    entries of M the band leaves out are below BAND_FLOOR and move rho W by
    less than 1e-150.  No dense matrix is built: the working set is the
    band, (ell + 1) x (2 half width + 1) floats, plus about 3 (ell + 1) x
    half width floats of blocks, O(ell x band width) in all.  At ell = 10^5
    and a = ln 2 that is about 150 + 220 MB, where W alone would take 80 GB.
    """
    band = kernel_band(params) if band is None else band
    if band.n != params.ell + 1:
        raise ValueError(f"kernel band must have {params.ell + 1} rows, got {band.n}")
    sigma = params.sigma

    def residual_of(v, lam):
        rho = v / v.sum()
        weight = rho.copy()
        weight[0] *= sigma   # W = M with row 0 scaled by sigma
        return rho, float(np.abs(band.rmatvec(weight) - lam * rho).sum())

    def checked(v, lam, iterations, method):
        rho, residual = residual_of(v, lam)
        if residual > tol * lam:
            raise ConvergenceError(f"{method} misses the band (residual {residual:.3e})",
                                   residual=residual, iterations=iterations)
        return PerronPair(lam=lam, rho=rho, residual=residual, iterations=iterations,
                          method=method)

    log_pi = _log_stationary_law(params)
    pi = np.exp(log_pi)
    kappa = params.kappa
    theta = 1.0 - params.q * kappa / (kappa - 1)
    if theta == 0.0:
        return checked(pi, 1.0 + (sigma - 1.0) * float(pi[0] / pi.sum()), 0,
                       "closed form (theta = 0)")
    solver = _BandSolver(band)
    # M is stochastic, so its Perron root is 1; pole, its first-order shift by
    # the row sums' rounding, may come out below 0, and is kept at 0 or above
    pole = max(float(pi @ solver.row_excess), 0.0)
    margin = _FLOOR_ULPS * _EPS
    floor = lo = pole + margin
    hi = max(sigma - 1.0, lo)
    try:
        start = perron_head(params, k_max=0).mu
    except ConvergenceError:   # the closed-form series converges too slowly
        start = hi
    # the closed form's pole is at mu = 0, the numerical kernel's at pole
    mu = min(pole + max(start, margin), hi)
    r = band.block(0, 1, 0, band.n)[0]
    step = residual = np.inf
    it = 0

    while it < max_iter:
        it += 1
        lam_x = 1.0 + mu
        solver.factor(lam_x)
        x = solver.solve(r)
        f = (sigma - 1.0) * float(x[0]) - 1.0
        if f > 0.0:
            lo = mu
        else:
            hi = mu
        if hi == floor:   # the root lies below the floor: the stationary limit
            if theta == 1.0:
                pi = x / x.sum()
            t = x - x.sum() * pi
            k = (sigma - 1.0) * pi[0] / (1.0 - (sigma - 1.0) * t[0])
            rho = np.maximum(pi + k * t, 0.0)
            return checked(rho, 1.0 + pole + (sigma - 1.0) * float(rho[0]), it,
                           "secular Newton (stationary limit)")
        y = solver.solve(x)
        new = mu + f * float(x[0] / y[0])
        if new <= lo and lo == floor:
            new = floor
        elif not lo <= new <= hi:
            new = pole + math.sqrt((lo - pole) * (hi - pole))
        step = new - mu
        lam = 1.0 + new
        residual = np.inf
        # Within half the distance to the pole of x (about ||x|| / ||y||),
        # x - step y is x at the new lam to first order, >= 0 up to rounding
        # in entries far below the largest.
        if abs(step) <= tol * lam and 2.0 * abs(step) * y.sum() <= x.sum():
            rho, residual = residual_of(np.maximum(x - step * y, 0.0), lam)
            if residual <= tol * lam:
                return PerronPair(lam=lam, rho=rho, residual=residual, iterations=it,
                                  method="secular Newton")
        if lam == lam_x:
            break   # the next elimination would repeat this one
        mu = new
    if it and math.isinf(residual):
        residual = residual_of(x, lam_x)[1]
    raise ConvergenceError(
        f"Perron Newton iteration did not converge in {it} steps "
        f"(last residual {residual:.3e}, last step {step:.3e})",
        residual=residual,
        iterations=it,
    )


@dataclass(frozen=True)
class BoundsRow:
    k: int
    lower: float
    value: float
    upper: float
    ok: bool


@dataclass(frozen=True)
class BoundsReport:
    rows: list[BoundsRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def perron_bounds_check(
    pair: PerronPair | PerronHead,
    params: ModelParams,
    band: KernelBand | None = None,
    k_max: int = 10,
    rtol: float = 1e-11,
) -> BoundsReport:
    """Sandwich check on the eigenvalue equations, for the pair's lam and
    rho_0..rho_k_max (a ``PerronHead`` of at least k_max + 1 classes will do).

    For each class k, the eigenvalue equation lam * rho(k) =
    sigma rho(0) M(0,k) + sum_{i>=1} rho(i) M(i,k) is bracketed by
    dropping the i > k terms (lower bound) and by replacing them with
    max_{i>k} M(i,k) (upper bound, since the dropped rho mass is < 1).
    For q = 0 the brackets collapse to equalities, so the comparison
    allows a small slack proportional to lam.

    The columns W(:, k) = M(:, k), with W(0,k) = sigma M(0,k), are read
    from M's band (entries below BAND_FLOOR count as 0); pass
    band = kernel_band(params) to reuse the band the Perron pair came from.
    """
    band = kernel_band(params) if band is None else band
    lam = pair.lam
    rho = np.asarray(pair.rho, dtype=float)
    slack = rtol * max(1.0, lam)
    k_top = min(k_max, params.ell)
    # rows past k_top + half_width have no entry in columns 0..k_top
    w = band.block(0, min(band.n, k_top + 1 + band.half_width), 0, k_top + 1)
    w[0] *= params.sigma
    rows = []
    for k in range(k_top + 1):
        lower = rho[0] * w[0, k] + float(rho[1 : k + 1] @ w[1 : k + 1, k])
        above = w[k + 1 :, k]
        upper = lower + (float(above.max()) if above.size else 0.0)
        value = lam * rho[k]
        ok = (lower - slack <= value) and (value <= upper + slack)
        rows.append(BoundsRow(k=k, lower=lower, value=value, upper=upper, ok=ok))
    return BoundsReport(rows=rows)


def _classes_reaching_master(band: KernelBand) -> np.ndarray:
    """Classes from which class 0 can be reached through entries of M >= BAND_FLOOR.

    A breadth-first search from class 0 against the direction of M's
    edges: class b joins the next frontier once some M(b, c) >= BAND_FLOOR
    has c in this one.  Such b lie within half_width of c, so each level
    scans only the band rows within half_width of its frontier, each
    against the view of the frontier mask its window covers.  Class 0
    itself is always returned.
    """
    n, h = band.n, band.half_width
    found = np.zeros(n, dtype=bool)
    found[0] = True
    marked = np.zeros(n, dtype=bool)   # the frontier, as a mask
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        lo = max(int(frontier[0]) - h, 0)
        hi = min(int(frontier[-1]) + h + 1, n)
        marked[frontier] = True
        hit = np.zeros(hi - lo, dtype=bool)
        for b0, b1, windows in band._windows(marked, lo, hi):
            hit[b0 - lo : b1 - lo] = ((band.values[b0:b1] >= BAND_FLOOR) & windows).any(axis=1)
        hit &= ~found[lo:hi]
        marked[frontier] = False
        frontier = np.flatnonzero(hit) + lo
        found[frontier] = True
    return np.flatnonzero(found)


def _residual(band: KernelBand, a: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M u and F(u) = u + expm1(-a M u), for ``extinction_probabilities``."""
    mu = band.matvec(u)
    return mu, u + np.expm1(-a * mu)


def _extrapolated(band, a, u, delta, r, ratio, live):
    """The extrapolated point of ``extinction_probabilities``, with M u and F
    there, from the Newton step delta at u and the step ratios r and ratio
    before it; None where no class is steady or a guard fails."""
    steady = (r > _RATIO_LO) & (r < _RATIO_HI) & (np.abs(r - ratio) <= _RATIO_AGREE * r)
    if not steady.any():
        return None
    trial = u - np.where(steady, delta / (1.0 - r), delta)
    if not np.all(trial[live] > 0.0):
        return None
    floor = -_DIP * float(np.max(trial)) * trial
    if live[0]:   # class 0 first, from its own row: an overshoot usually shows there
        mu_0 = float(band.values[0] @ trial[: band.values.shape[1]])
        if trial[0] + math.expm1(-a[0] * mu_0) < floor[0]:
            return None
    mu, f = _residual(band, a, trial)
    if not np.all((f >= floor)[live]):
        return None
    return trial, mu, f


def extinction_probabilities(
    params: ModelParams,
    tol: float = 1e-12,
    max_iter: int = 100,
    band: KernelBand | None = None,
) -> ExtinctionReport:
    """Extinction probability per starting class, with how the solve got it.

    The generating function of the class-k offspring vector is
    f_k(s) = exp(A(k) * (sum_l M(k,l) s(l) - 1)), and the extinction
    vector s is its minimal fixed point.  It is computed through the
    survival probabilities u = 1 - s, the maximal root in [0, 1] of

        F(u) = u + expm1(-A * (M u)) = 0,

    by Newton's method from u = 1: each step solves
    (I - diag(A exp(-A M u)) M) delta = F(u) by one banded block Thomas
    sweep (``_BandSolver.solve_right``), O(ell x w^2) flops for a band of
    half width w.  F is convex and its Jacobian an M-matrix above the
    root, so plain Newton steps from above the root stay above it, and
    the number of steps does not grow with closeness to criticality the
    way a fixed-point iteration's does (Hautphenne, Latouche & Remiche
    2008).

    Near-critical classes make the root nearly singular, and there Newton
    converges only linearly, its steps shrinking by a steady ratio r
    (1/2 at a simple singular root; Decker, Keller & Kelley 1983).  Where
    r, the ratio of a class's Newton step to its last one, lies in
    (0.3, 0.9) and agrees to 5% with the ratio one step before, the step
    is extrapolated: u - delta / (1 - r), the limit of the geometric
    series the remaining steps would sum to (Griewank 1985); other classes
    take the plain step.  After an extrapolated step the ratios start
    afresh.  Two guards keep the iteration on the right root:

    * The extrapolated point is kept only if every live class stays above
      0 and has F_k >= -1e-3 u_k max(u).  F < 0 means u has passed below
      the root, and from far below it Newton runs to the trivial root
      u = 0.  Just below the root a plain step lands back above it, by
      convexity, so a small dip is allowed; near a nearly singular root
      F ~ (c / 2) u (u - u*) with c of order 1, so the bound keeps the dip
      to a fraction of about 2e-3 / c of the root, where the Jacobian
      turns singular only about halfway down to 0.  The check costs one
      banded product, which the next step reuses when the point is kept;
      class 0, where an overshoot usually shows, is checked first from its
      own row, so most points turned down cost no product.
    * Where extrapolation has taken near-critical classes down to the
      level of rounding, the Newton step from there can take them below 0,
      and clamping would then end their solve with a residual above tol.
      If the step from an extrapolated point takes any live class below
      0, the solve goes back to the plain point the extrapolation replaced,
      and the ratios start afresh (method "..., k undone").  That step is
      lost, and counted.

    A class from which class 0 cannot be reached (at q = 0, every class
    but class 0), and every class when sigma = 1, starts a critical
    process that dies out surely: its u is 0 exactly, set before the
    first step and never solved for (Etessami & Yannakakis 2009).  The
    classes that reach class 0 are found by a search of the band's entries
    >= BAND_FLOOR (``_classes_reaching_master``), the entries the
    elimination keeps.  Where every route to class 0 passes through a
    smaller entry (at kappa = 2, q = 0.5 from ell ~ 512 on, where M(b, 0) =
    2^-ell; at q = 1e-300) the true survival probability is below ~1e-150,
    and u is 0.  At sigma = 1 no class is left to solve for, and s is 1
    with no Newton step (method "certain extinction").
    Plain steps are clamped at 0, which removes only rounding on classes
    whose survival probability is far below tol, and each step solves
    only for the classes where u > 0 (the others get d = 0 and F = 0).

    Stops once both the last step and the residual max|F(u)| are at most
    tol, absolute in u; max_iter bounds the number of Newton steps
    (``iterations``; ``extrapolations`` counts the extrapolated points
    kept).  Survival probabilities are accurate to about tol in
    absolute terms, so one below tol is not resolved: far classes are
    near-critical, and their u, of order tol when the solve stops, may be
    far larger than the true value.

    Everything runs on M's band (``kernel_band``; pass band =
    kernel_band(params) to reuse it), with M u from ``KernelBand.matvec``:
    no dense matrix is built, and the working set is the band plus about
    4 (ell + 1) x w floats of blocks.
    """
    band = kernel_band(params) if band is None else band
    if band.n != params.ell + 1:
        raise ValueError(f"kernel band must have {params.ell + 1} rows, got {band.n}")
    a = fitness_vector(params)
    u = np.zeros(band.n)
    if params.sigma > 1.0:
        u[_classes_reaching_master(band)] = 1.0
    if not u.any():
        return ExtinctionReport(s=np.ones(band.n), iterations=0, extrapolations=0,
                                residual=0.0, method="certain extinction")

    solver = _BandSolver(band)
    mu, f = _residual(band, a, u)
    step = np.inf
    extrapolations = undone = 0
    last = ratio = None   # per class: the last Newton step, and its ratio to the one before
    fallback = None       # the plain point the last extrapolated point replaced
    for it in range(max_iter + 1):
        if step <= tol and (residual := float(np.max(np.abs(f)))) <= tol:
            method = "extrapolated Newton" if extrapolations else "Newton"
            if undone:
                method += f", {undone} undone"
            return ExtinctionReport(s=1.0 - u, iterations=it, extrapolations=extrapolations,
                                    residual=residual, method=method)
        if it == max_iter:
            break
        live = u > 0.0
        delta = solver.solve_right(a * np.exp(-a * mu) * live, f * live)
        if fallback is not None:
            if np.any((u - delta < 0.0) & live):
                u, step, fallback = fallback, np.inf, None
                mu, f = _residual(band, a, u)
                extrapolations -= 1
                undone += 1
                continue
            fallback = None
        extrapolated = None
        if last is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                r = delta / last
                if ratio is not None:
                    extrapolated = _extrapolated(band, a, u, delta, r, ratio, live)
            ratio = r
        last = delta
        plain = np.maximum(u - delta, 0.0) * live
        if extrapolated is None:
            new = plain
            mu, f = _residual(band, a, new)
        else:
            new, mu, f = extrapolated
            fallback, last, ratio = plain, None, None
            extrapolations += 1
        step = float(np.max(np.abs(new - u)))
        u = new
    residual = float(np.max(np.abs(f)))
    raise ConvergenceError(
        f"extinction Newton iteration did not converge in {max_iter} steps "
        f"(last residual {residual:.3e}, last step {step:.3e})",
        residual=residual,
        iterations=max_iter,
    )
