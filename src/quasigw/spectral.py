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
    "PerronPair",
    "ExtinctionReport",
    "BoundsRow",
    "BoundsReport",
    "fitness_vector",
    "mean_matrix",
    "perron",
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


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations before meeting its tolerance."""

    def __init__(self, message: str, residual: float | None = None, iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class PerronPair:
    """Perron eigenvalue and left eigenvector (unit total mass)."""

    lam: float
    rho: np.ndarray
    residual: float
    iterations: int
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


def _secular_root(params: ModelParams, log_p: np.ndarray, lo: float, hi: float) -> float:
    """Root mu = lam - 1 in [lo, hi] of the closed-form secular equation.

    Loci mutate independently, so (M^n)(0,0) = (1/kappa + (1 - 1/kappa)
    theta^n)^ell with theta = 1 - q kappa / (kappa - 1), and

        [r (lam I - M)^-1]_0 = sum_j p_j theta^j / (1 + mu - theta^j),

    p_j = exp(log_p[j]) the stationary law.  For theta > 0, the only case
    this is called for, every term is positive and the sum phi(mu)
    decreases from +inf at mu = 0; lam solves (sigma - 1) phi = 1.  Newton
    runs on 1 / phi - (sigma - 1), which the pole at mu = 0 makes nearly
    linear, inside the bracket [lo, hi] (bisection when a step leaves it).
    Returns lo when the root lies at or below lo.  Costs O(ell) per step.
    """
    kappa, q, sigma = params.kappa, params.q, params.sigma
    jt = np.arange(1, params.ell + 1) * math.log1p(-q * kappa / (kappa - 1))
    weight = np.exp(log_p[1:] + jt)            # p_j theta^j, j >= 1
    gap = -np.expm1(jt)                        # 1 - theta^j

    def excess(mu):  # 1 / phi - (sigma - 1) and its derivative; increasing in mu
        d = mu + gap
        pole = math.exp(log_p[0] - math.log(mu))
        phi = pole + float(np.sum(weight / d))
        if phi == 0.0:  # every term underflows: the root lies far below mu
            return math.inf, 1.0
        slope = pole / mu + float(np.sum(weight / (d * d)))
        return 1.0 / phi - (sigma - 1.0), slope / phi / phi

    mu = lo
    g, dg = excess(mu)
    if g >= 0.0:
        return lo
    for _ in range(200):
        if g < 0.0:
            lo = mu
        else:
            hi = mu
        new = mu - g / dg
        if not lo <= new <= hi:
            new = math.sqrt(lo * hi)
        if abs(new - mu) <= 4 * _EPS * new:
            return new
        mu = new
        g, dg = excess(mu)
    return mu


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
    """Perron eigenvalue and left eigenvector of the mean matrix W.

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

    Otherwise lam starts at the root of the closed-form secular equation
    (``_secular_root``); for q > (kappa - 1) / kappa its terms alternate
    in sign and lam starts at sigma instead.  Newton steps on the
    numerical kernel refine it: each factors lam I - M once by banded
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
    if params.q * kappa < kappa - 1:
        # the closed form's pole is at mu = 0, the numerical kernel's at pole
        mu = min(pole + _secular_root(params, log_pi, margin, hi - pole), hi)
    else:
        mu = hi
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
        mid = pole + math.sqrt((lo - pole) * (hi - pole))
        if y[0] == 0.0:
            new = mid   # M(0, 0) underflows, so x_0 = y_0 = 0 and Newton's step is 0/0
        else:
            new = mu + f * float(x[0] / y[0])
        if new <= lo and lo == floor:
            new = floor
        elif not lo <= new <= hi:
            new = mid
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
    pair: PerronPair,
    params: ModelParams,
    band: KernelBand | None = None,
    k_max: int = 10,
    rtol: float = 1e-11,
) -> BoundsReport:
    """Sandwich check on the eigenvalue equations.

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
