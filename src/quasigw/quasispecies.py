"""Limiting class distribution in the long-sequence regime.

With q = a / ell and ell growing, the model is governed by the two
numbers sigma (master fitness) and a (expected mutations per
replication).  When sigma * exp(-a) > 1 the surviving population
organizes around the master class with class probabilities

    pmf(k) = (sigma e^{-a} - 1) * (a^k / k!) * sum_{i >= 1} i^k / sigma^i,

a proper distribution on the nonnegative integers.  At or below the
threshold sigma * exp(-a) = 1 the mass of every fixed class vanishes
and the limiting pmf is identically zero ("disordered").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Regime",
    "QuasispeciesParams",
    "classify_regime",
    "power_sigma_series",
    "qs_pmf",
    "qs_pmf_by_recurrence",
    "qs_normalization_check",
]


class Regime(enum.Enum):
    DISORDERED = "disordered"
    QUASISPECIES = "quasispecies"


@dataclass(frozen=True)
class QuasispeciesParams:
    """Limit parameters: master fitness sigma > 1 and mutation pressure a >= 0."""

    sigma: float
    a: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma) or self.sigma <= 1.0:
            raise ValueError(f"sigma must be finite and > 1, got {self.sigma}")
        if not math.isfinite(self.a) or self.a < 0.0:
            raise ValueError(f"a must be finite and >= 0, got {self.a}")

    @property
    def threshold(self) -> float:
        """sigma * exp(-a); the population survives selection iff this exceeds 1."""
        return self.sigma * math.exp(-self.a)


def classify_regime(params: QuasispeciesParams) -> Regime:
    """Quasispecies iff sigma * exp(-a) > 1; the boundary counts as disordered."""
    return Regime.QUASISPECIES if params.threshold > 1.0 else Regime.DISORDERED


def _log_power_series(n, log_base):
    """log of sum_{i >= 1} i^n * x^i with x = exp(-log_base), for log_base > 0.

    Uses the closed form x * A_n(x) / (1 - x)^(n+1), where A_n is the
    Eulerian polynomial, sum_m A(n, m) x^m over m < n (A_0 = 1).  The
    Eulerian numbers come row by row from

        A(j, m) = (m+1) A(j-1, m) + (j-m) A(j-1, m-1),

    in log space so that n > 170 does not overflow.  With the symmetry
    A(j-1, m-1) = A(j-1, j-1-m), the second term is the first one read
    backwards.  Every term is positive, so nothing cancels, and the cost
    is O(n^2) whatever the base; a direct sum would need about
    n / log_base terms, which grows without bound as the base nears 1.

    n and log_base may also be arrays, broadcast together: the rows do not
    depend on the base, so one pass over the triangle, up to the largest
    order, gives the array of the values of every (order, base) pair, each
    equal bit for bit to its own call, since every row is built and summed
    the same way.
    """
    orders, bases = np.broadcast_arrays(np.asarray(n, dtype=int), np.asarray(log_base, dtype=float))
    if (bases <= 0.0).any():
        raise ValueError("series requires log_base > 0")
    pairs = list(zip(orders.ravel().tolist(), bases.ravel().tolist()))
    size = max([1, *orders.ravel().tolist()])
    log_m1 = np.log(np.arange(1, size + 1))  # log(m + 1) for m = 0..size-1
    row = np.zeros(size)  # log A(1, 0) in row[:1]; also stands for A_0 = 1
    grown = np.full(size, -np.inf)  # log((m+1) A(j-1, m)), -inf at m = j-1
    wanted, values = {}, {}
    for j, base in pairs:
        wanted.setdefault(j, set()).add(base)
    for j in range(size + 1):
        if j >= 2:
            np.add(log_m1[: j - 1], row[: j - 1], out=grown[: j - 1])
            np.logaddexp(grown[:j], grown[j - 1 :: -1], out=row[:j])
        for base in wanted.get(j, ()):
            width = max(j, 1)
            terms = row[:width] - base * np.arange(width)
            top = float(terms.max())
            log_eulerian = top + math.log(float(np.exp(terms - top).sum()))
            log_one_minus_x = math.log(-math.expm1(-base))
            values[j, base] = -base + log_eulerian - (j + 1) * log_one_minus_x
    if orders.ndim == 0:
        return values[pairs[0]]
    return np.array([values[pair] for pair in pairs]).reshape(orders.shape)


def power_sigma_series(k: int, sigma: float) -> float:
    """sum_{i >= 1} i^k / sigma^i for sigma > 1, in closed form."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not sigma > 1.0:
        raise ValueError(f"series diverges unless sigma > 1, got {sigma}")
    return math.exp(_log_power_series(k, math.log(sigma)))


def qs_pmf(params: QuasispeciesParams, k):
    """Limiting probability of class k, or the array of them for a sequence k.

    Returns 0 for every k in the disordered regime.  The Poisson-like
    factor a^k / k! and the power series are combined in log space, so
    large k and near-threshold parameters pose no overflow problem.  A
    sequence of classes takes one pass over the series' Eulerian triangle,
    O(K^2) for all classes up to K, and each value equals its own call bit
    for bit.
    """
    classes = [int(j) for j in np.atleast_1d(k)]
    if min(classes, default=0) < 0:
        raise ValueError(f"k must be >= 0, got {min(classes)}")
    if classify_regime(params) is Regime.DISORDERED:
        values = [0.0] * len(classes)
    elif params.a == 0.0:
        values = [1.0 if j == 0 else 0.0 for j in classes]
    else:
        values = _pmf(params, classes,
                      _log_power_series(classes, math.log(params.sigma)).tolist())
    return values[0] if np.ndim(k) == 0 else np.array(values)


def _pmf(params: QuasispeciesParams, classes, log_series: list) -> list:
    """pmf(k) for the classes, above the threshold with a > 0, given log
    sum_i i^k / sigma^i for each (``_log_power_series``)."""
    log_mass, log_a = math.log(params.threshold - 1.0), math.log(params.a)
    return [math.exp(log_mass + j * log_a - math.lgamma(j + 1) + s)
            for j, s in zip(classes, log_series)]


def qs_pmf_by_recurrence(params: QuasispeciesParams, k_max: int) -> np.ndarray:
    """Classes 0..k_max via the self-consistency recurrence.

    The limiting pmf satisfies, for each k,

        sigma e^{-a} pmf(k) = sigma pmf(0) e^{-a} a^k / k!
                              + sum_{i=1}^{k} pmf(i) e^{-a} a^{k-i} / (k-i)!

    Moving the i = k term to the left and dividing by e^{-a} gives

        pmf(k) = (sigma pmf(0) w(k) + sum_{i=1}^{k-1} pmf(i) w(k-i)) / (sigma - 1)

    with w(j) = a^j / j!, seeded by pmf(0) = (sigma e^{-a} - 1) / (sigma - 1).
    Entirely independent of the series evaluation in qs_pmf, which makes
    the two routes useful cross-checks.

    Raises ValueError in the disordered regime, where no such pmf exists.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if classify_regime(params) is Regime.DISORDERED:
        raise ValueError(
            "recurrence is only defined above the threshold sigma * exp(-a) > 1; "
            "the disordered limit has no class distribution"
        )
    sigma, a = params.sigma, params.a
    pmf = np.zeros(k_max + 1)
    pmf[0] = (params.threshold - 1.0) / (sigma - 1.0)
    w = np.zeros(k_max + 1)
    w[0] = 1.0
    for j in range(1, k_max + 1):
        w[j] = w[j - 1] * a / j
    for k in range(1, k_max + 1):
        # sum_{i=1}^{k-1} pmf(i) w(k-i), as one dot product
        acc = sigma * pmf[0] * w[k] + np.dot(pmf[1:k], w[k - 1 : 0 : -1])
        pmf[k] = acc / (sigma - 1.0)
    return pmf


def qs_normalization_check(params: QuasispeciesParams, k_max: int) -> tuple[float, float]:
    """(partial sum of the pmf up to k_max, analytic bound on the missing tail).

    Writing the tail as (sigma e^{-a} - 1) sum_i (sigma e^{-a})^{-i}
    P(Poisson(a i) > K), two valid bounds are combined:

    * replacing the Poisson tail by (a i)^{K+1} / (K+1)! e^{a i}, which
      turns the sum into the k = K+1 power series at base sigma e^{-a}
      (sharp when a is small against log(sigma e^{-a}));
    * a Chernoff bound e^{-a i} (e a i / (K+1))^{K+1} on the Poisson
      tail for i up to i0 ~ (K+1) / (2a), plus the trivial bound 1 and a
      geometric remainder beyond i0.

    The minimum of the two is returned.  It may still exceed the true
    missing mass by a wide margin close to the threshold; it is reported
    as computed, not clipped.  One pass over the Eulerian triangle gives
    the series of the pmf and of both bounds.
    """
    if classify_regime(params) is Regime.DISORDERED:
        raise ValueError("normalization check applies to the quasispecies regime only")
    if params.a == 0.0:
        return math.fsum(qs_pmf(params, np.arange(k_max + 1)).tolist()), 0.0
    a, thr = params.a, params.threshold
    n = k_max + 1
    log_sigma = math.log(params.sigma)
    *log_series, log_plain_series, log_chernoff_series = _log_power_series(
        [*range(n), n, n], [log_sigma] * n + [math.log(thr), log_sigma]).tolist()
    partial = math.fsum(_pmf(params, range(n), log_series))
    log_plain = (
        math.log(thr - 1.0)
        + n * math.log(a)
        - math.lgamma(n + 1)
        + log_plain_series
    )
    plain = math.exp(log_plain) if log_plain < 700.0 else math.inf
    i0 = max(1, math.floor(n / (2.0 * a)))
    log_chernoff = (
        math.log(thr - 1.0)
        + n * (1.0 + math.log(a) - math.log(n))
        + log_chernoff_series
    )
    chernoff = (math.exp(log_chernoff) if log_chernoff < 700.0 else math.inf) + thr**-i0
    return partial, min(plain, chernoff)
