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

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order
from scipy.special import gammaln

from .kernel import BAND_FLOOR, KernelBand, ModelParams, kernel_band, lumped_kernel_matrix

__all__ = [
    "ConvergenceError",
    "PerronPair",
    "BoundsRow",
    "BoundsReport",
    "fitness_vector",
    "mean_matrix",
    "perron",
    "power_iteration",
    "perron_bounds_check",
    "extinction_probabilities",
]


# Smallest block of the banded elimination: fewer, larger blocks when the
# band is narrow (q near 0).
_MIN_BLOCK = 16
# Largest matrix handed to numpy.linalg.inv.  From 100 rows on, OpenBLAS
# inverts through its threaded LU, which can stall for 10-300 ms; larger
# pivot blocks are inverted through a 2 x 2 block split.
_MAX_INV = 99
# lam is kept this many ulps of 1 above the Perron root of the class kernel.
_FLOOR_ULPS = 16
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


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


def fitness_vector(params: ModelParams) -> np.ndarray:
    """Per-class reproduction rates (sigma, 1, ..., 1)."""
    a = np.ones(params.ell + 1)
    a[0] = params.sigma
    return a


def mean_matrix(params: ModelParams, kernel: np.ndarray | None = None) -> np.ndarray:
    """W(i, j) = A(i) * M(i, j); pass a precomputed kernel to skip rebuilding it.

    A kernel built here is scaled in place; a kernel passed in is copied and
    left unchanged.
    """
    w = lumped_kernel_matrix(params) if kernel is None else np.array(kernel, dtype=float)
    w[0] *= params.sigma
    return w


def power_iteration(w: np.ndarray, tol: float = 1e-12, max_iter: int = 10**6) -> PerronPair:
    """Left power iteration for the Perron eigenpair of a nonnegative matrix.

    Starts from the uniform distribution, renormalizes in 1-norm each
    step, and stops once both the change in the eigenvalue estimate and
    the residual ||rho W - lam rho||_1 drop below tol (relative to lam).
    The number of steps grows like 1 / log(lam / |lam_2|), so near the
    survival threshold it takes thousands; ``perron`` is the solver for
    the model's mean matrix, and this generic one is kept as its oracle.
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


def _log_stationary_law(params: ModelParams) -> np.ndarray:
    """Log pmf of Binomial(ell, 1 - 1/kappa), the stationary law of the class kernel."""
    ell, kappa = params.ell, params.kappa
    j = np.arange(ell + 1)
    log_fact = gammaln(j + 1.0)
    return (log_fact[ell] - log_fact - log_fact[::-1]
            + j * math.log(kappa - 1) - ell * math.log(kappa))


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


class _BandSolver:
    """Solves x A = b for A = (1 + mu) I - M, M the class kernel on its band.

    A is block tridiagonal for blocks as wide as the band's half width
    (``KernelBand.half_width``).  ``factor`` runs block LU without pivoting
    across blocks (``_inverse`` inverts each pivot block) and keeps the
    inverse pivot blocks; ``solve`` then costs two sweeps of block
    products.  The off-diagonal blocks are formed once from the band, the
    diagonal ones in each ``factor``: with the band itself that is
    O(ell x band width) floats in all.  Kernel entries below BAND_FLOOR are
    set to 0 in the blocks: their products are subnormal or zero and slow
    to form.
    """

    def __init__(self, band: KernelBand):
        width = max(band.half_width, _MIN_BLOCK)
        self.n = band.n
        self.edges = list(range(0, self.n, width)) + [self.n]
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

    def factor(self, mu: float) -> None:
        self.inv = []
        for i in range(len(self.edges) - 1):
            t = -self.block(i, i)
            t.flat[:: t.shape[0] + 1] += 1.0 + mu
            if i:
                t -= self.lower[i - 1] @ (self.inv[-1] @ self.upper[i - 1])
            inv = _inverse(t)
            inv[np.abs(inv) < BAND_FLOOR] = 0.0
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

    lam starts at the root of the closed-form secular equation
    (``_secular_root``); for q >= (kappa - 1) / kappa its terms alternate
    in sign and lam starts at sigma instead.  Newton steps on the
    numerical kernel refine it: each factors lam I - M once by banded
    block elimination (``_BandSolver``) and gives x and
    y = x (lam I - M)^-1 = -dx/dlam; the step is delta = f x_0 / y_0
    (Newton on 1 / x_0), kept inside the bracket the signs of f give
    (bisection otherwise), and the new pair is lam + delta with rho
    proportional to x - delta y.

    lam is kept above a floor: the Perron root of M, 1 + pi (s - 1) to
    first order (pi the stationary law, s the row sums, which rounding
    leaves off 1 by up to ~1e-11), plus a few ulps.  Above it lam I - M
    is a nonsingular M-matrix, so elimination without pivoting is stable.
    In the disordered regime lam - 1 can lie far below the spacing of
    floats at 1, and the root below the floor; then rho comes from
    inverse iteration at the floor (``_below_floor``) and lam from the
    identity lam = (Perron root of M) + (sigma - 1) rho_0.

    Stops once |delta| <= tol * lam, |delta| ||y||_1 <= ||x||_1 / 2 (the
    step stays within half the distance to the pole of x, about
    ||x|| / ||y||, where x - delta y is a first-order update), and the
    residual ||rho W - lam rho||_1 is at most tol * lam.  ``iterations``
    counts the Newton steps (one elimination each) plus the
    inverse-iteration solves of the disordered regime, and max_iter bounds
    that count; a step too small to change lam in floating point also ends
    the solve.

    Everything runs on M's band (``kernel_band``; pass band =
    kernel_band(params) to reuse it): r is its row 0, the elimination
    blocks are formed from it, and the residual is the banded product
    rho W = rho M + (sigma - 1) rho_0 r, taken against the band.  The
    entries of M the band leaves out are below BAND_FLOOR and move rho W by
    less than 1e-150.  No dense matrix is built: the working set is the
    band plus about 3 (ell + 1) x half width floats of blocks, O(ell x band
    width) in all.  At ell = 10^5 and a = ln 2 that is about 350 MB, where
    W alone would take 80 GB.
    """
    band = kernel_band(params) if band is None else band
    if band.n != params.ell + 1:
        raise ValueError(f"kernel band must have {params.ell + 1} rows, got {band.n}")
    sigma = params.sigma
    solver = _BandSolver(band)
    log_pi = _log_stationary_law(params)
    pole = float(np.exp(log_pi) @ solver.row_excess)
    margin = _FLOOR_ULPS * _EPS
    floor = lo = pole + margin
    hi = max(sigma - 1.0, lo)
    if params.q * params.kappa < params.kappa - 1:
        # the closed form's pole is at mu = 0, the numerical kernel's at pole
        mu = min(pole + _secular_root(params, log_pi, margin, hi - pole), hi)
    else:
        mu = hi
    r = band.block(0, 1, 0, band.n)[0]
    step = residual = np.inf
    it = 0
    reason = ""   # set when the stationary limit would overrun max_iter

    def residual_of(v, lam):
        rho = v / v.sum()
        weight = rho.copy()
        weight[0] *= sigma   # W = M with row 0 scaled by sigma
        return rho, float(np.abs(band.rmatvec(weight) - lam * rho).sum())

    while it < max_iter:
        it += 1
        solver.factor(mu)
        lam_x = 1.0 + mu
        x = solver.solve(r)
        y = solver.solve(x)
        f = (sigma - 1.0) * float(x[0]) - 1.0
        if f > 0.0:
            lo = mu
        else:
            hi = mu
        if hi == floor:
            n_solves = _inverse_solves(params, margin)
            if it + n_solves > max_iter:
                reason = f"the stationary limit needs {n_solves} more inverse-iteration solves"
                break
            rho = _below_floor(solver, x, y, params, n_solves)
            it += n_solves
            lam = 1.0 + pole + (sigma - 1.0) * float(rho[0])
            rho, residual = residual_of(rho, lam)
            if residual <= tol * lam:
                return PerronPair(lam=lam, rho=rho, residual=residual, iterations=it,
                                  method="secular Newton (stationary limit)")
            break
        mid = pole + math.sqrt((lo - pole) * (hi - pole))
        if sigma == 1.0:
            new = floor
        elif y[0] == 0.0:
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
        f"(last residual {residual:.3e}, {reason or f'last step {step:.3e}'})",
        residual=residual,
        iterations=it,
    )


def _inverse_solves(params: ModelParams, margin: float) -> float:
    """Inverse-iteration solves ``_below_floor`` needs at a floor margin above M's Perron root.

    Each solve multiplies the transient's share by at most margin / gap,
    gap = 1 - |theta| the spectral gap of M; enough of them take it below
    the smallest normal float.  0 when gap = 0 (M = I), inf when the
    gap is too small for the solves to separate anything.
    """
    kappa = params.kappa
    gap = 1.0 - abs(1.0 - params.q * kappa / (kappa - 1))
    if gap <= 0.0:
        return 0
    ratio = margin / gap
    return math.ceil(math.log(_TINY) / math.log(ratio)) if ratio < 0.5 else math.inf


def _below_floor(solver: _BandSolver, x: np.ndarray, y: np.ndarray, params: ModelParams,
                 n_solves: int) -> np.ndarray:
    """Perron vector of W when lam lies within the floor's margin of M's Perron root.

    band is factored at the floor, where x = c pi + T: pi the Perron vector
    of M, c = 1 / (floor - its root) = 1 / margin, T the transient, which
    sums to about 0.  At the true lam, c is far larger still.  n_solves
    steps of inverse iteration from y (``_inverse_solves``) give pi.  The
    secular equation (sigma - 1) x_0 = 1 at the true lam then fixes how
    much transient is left: rho = pi + k T with
    k = (sigma - 1) pi_0 / (1 - (sigma - 1) T_0), which matters only in
    the lowest classes, where pi is as small as k T.
    """
    sigma = params.sigma
    pi = y / y.sum()
    for _ in range(n_solves):   # none when M = I, where pi = e_0 already
        pi = solver.solve(pi)
        pi /= pi.sum()
    t = x - x.sum() * pi
    k = (sigma - 1.0) * pi[0] / (1.0 - (sigma - 1.0) * t[0])
    return np.maximum(pi + k * t, 0.0)


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
    w = band.block(0, band.n, 0, k_top + 1)
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


def extinction_probabilities(
    params: ModelParams,
    tol: float = 1e-12,
    max_iter: int = 100,
    kernel: np.ndarray | None = None,
) -> np.ndarray:
    """Extinction probability per starting class.

    The generating function of the class-k offspring vector is
    f_k(s) = exp(A(k) * (sum_l M(k,l) s(l) - 1)), and the extinction
    vector s is its minimal fixed point.  It is computed through the
    survival probabilities u = 1 - s, the maximal root in [0, 1] of

        F(u) = u + expm1(-A * (M u)) = 0,

    by Newton's method from u = 1: each step solves
    (I - diag(A exp(-A M u)) M) delta = F(u) with one dense LU.  F is
    convex and its Jacobian an M-matrix above the root, so the exact
    iterates decrease monotonically to it and the number of steps does
    not grow with closeness to criticality the way a fixed-point
    iteration's does (Hautphenne, Latouche & Remiche 2008).

    A class from which class 0 cannot be reached (at q = 0, every class
    but class 0), and every class when sigma = 1, starts a critical
    process that dies out surely: its u is 0 exactly, set before the
    first step and never solved for (Etessami & Yannakakis 2009).  The
    classes that reach class 0 are found by a search of the built kernel,
    not by the rule "all of them for q > 0": from ell = 1076 at q = 0.5,
    kappa = 2, every M(b, 0) = 2^-ell underflows to 0, and no other class
    reaches class 0 in floating point.
    Iterates are clamped at 0, which removes only LU rounding on classes
    whose survival probability is far below tol, and each step solves
    only for the classes where u > 0.

    Stops once both the last Newton step and the residual max|F(u)| are
    at most tol, absolute in u; max_iter bounds the number of Newton
    steps.  A survival probability below tol is an upper bound, not a
    value: far classes are near-critical, where Newton converges only
    linearly, and the solve stops while they still sit near tol.
    """
    m = lumped_kernel_matrix(params) if kernel is None else np.asarray(kernel, dtype=float)
    a = fitness_vector(params)
    u = np.zeros(params.ell + 1)
    if params.sigma > 1.0:
        u[breadth_first_order(csr_array(m.T), 0, return_predecessors=False)] = 1.0
    step = residual = np.inf
    for it in range(max_iter + 1):
        mu = m @ u
        f = u + np.expm1(-a * mu)
        residual = float(np.max(np.abs(f)))
        if residual <= tol and step <= tol:
            return 1.0 - u
        if it == max_iter:
            break
        live = np.flatnonzero(u)
        # a plain copy is several times faster than the gather when all are live
        jac = m.copy() if live.size == u.size else m[np.ix_(live, live)]
        jac *= -(a[live] * np.exp(-a[live] * mu[live]))[:, None]
        jac.flat[:: live.size + 1] += 1.0
        u_live = np.maximum(u[live] - np.linalg.solve(jac, f[live]), 0.0)
        step = float(np.max(np.abs(u_live - u[live]), initial=0.0))
        u[live] = u_live
    raise ConvergenceError(
        f"extinction Newton iteration did not converge in {max_iter} steps "
        f"(last residual {residual:.3e}, last step {step:.3e})",
        residual=residual,
        iterations=max_iter,
    )
