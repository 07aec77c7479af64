"""Mean matrix of the class-level branching process and derived quantities.

The mean matrix W(i, j) = A(i) * M(i, j) combines the class fitness A
(sigma for class 0, else 1) with the lumped mutation kernel M.  Its
Perron eigenvalue is the mean growth factor of the population, and the
left Perron eigenvector, normalized to total mass one, is the asymptotic
class-frequency profile on survival.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order

from .kernel import ModelParams, lumped_kernel_matrix

__all__ = [
    "ConvergenceError",
    "PerronPair",
    "BoundsRow",
    "BoundsReport",
    "fitness_vector",
    "mean_matrix",
    "perron",
    "perron_bounds_check",
    "extinction_probabilities",
]


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


def perron(w: np.ndarray, tol: float = 1e-12, max_iter: int = 10**6) -> PerronPair:
    """Left power iteration for the Perron eigenpair of a nonnegative matrix.

    Starts from the uniform distribution, renormalizes in 1-norm each
    step, and stops once both the change in the eigenvalue estimate and
    the residual ||rho W - lam rho||_1 drop below tol (relative to lam).
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
            return PerronPair(lam=lam, rho=v, residual=residual, iterations=it)
        lam_prev = lam
        v = y / lam
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual=residual,
        iterations=max_iter,
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
    mean: np.ndarray | None = None,
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

    Pass mean = mean_matrix(params) to reuse the matrix the Perron pair
    came from; W(0,k) = sigma M(0,k) and W(i,k) = M(i,k) for i >= 1.
    """
    w = mean_matrix(params) if mean is None else np.asarray(mean, dtype=float)
    lam = pair.lam
    rho = np.asarray(pair.rho, dtype=float)
    slack = rtol * max(1.0, lam)
    rows = []
    for k in range(min(k_max, params.ell) + 1):
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
    first step and never solved for (Etessami & Yannakakis 2009).
    Iterates are clamped at 0, which removes only LU rounding on classes
    whose survival probability is far below tol, and each step solves
    only for the classes where u > 0.

    Stops once both the last Newton step and the residual max|F(u)| are
    at most tol, absolute in u; max_iter bounds the number of Newton
    steps.  Survival probabilities much smaller than tol are accurate to
    tol in absolute terms only.
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
