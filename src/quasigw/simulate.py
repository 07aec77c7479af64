"""Monte Carlo simulation of the genotype-level and class-level process.

Two samplers are provided.  ``step_genotype`` advances a population of
explicit genotypes (a dict mapping genotype tuples to counts) by one
generation: Poisson offspring numbers followed by independent per-locus
mutation.  ``step_occupancy`` advances only class counts, for one
population or a batch of them: each class-k individual leaves Poisson
children in class l with mean A(k) M(k, l) = W(k, l), independently, so
a sum of independent Poissons makes the class-l offspring of a whole
population z one Poisson count with mean (z W)(l), independent across
l.  This one draw per class is the package's only class-count sampler;
trajectories, survivor-conditioned frequencies, extinction Monte Carlo
and the class route of ``lumping_equivalence_test`` all step through it.

Randomness comes from numpy Generators.  ``RngSpec(master_seed, stream)``
derives statistically independent, byte-reproducible streams.  A replica
batch shares one stream, so a fixed seed reproduces the same bytes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2_contingency

from .kernel import ModelParams, fitness_genotype, hamming_class
from .spectral import mean_matrix

__all__ = [
    "ResourceLimitError",
    "AllExtinctError",
    "RngSpec",
    "occupancy_of",
    "step_genotype",
    "step_occupancy",
    "Trajectory",
    "run_trajectory",
    "FrequencyEstimate",
    "conditioned_frequencies",
    "LumpingReport",
    "lumping_equivalence_test",
    "ExtinctionMCReport",
    "extinction_mc",
]

_GENOTYPE_ENUM_LIMIT = 10**6
_POISSON_MEAN_LIMIT = 1e15


class ResourceLimitError(RuntimeError):
    """The requested simulation would exceed a sanity guard."""


class AllExtinctError(RuntimeError):
    """Every replica died before the horizon; nothing to condition on."""


@dataclass(frozen=True)
class RngSpec:
    """Reproducible RNG stream: (master seed, stream index)."""

    master_seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)


def occupancy_of(pop: dict, ell: int) -> np.ndarray:
    """Class-count vector of a genotype population."""
    z = np.zeros(ell + 1, dtype=np.int64)
    for u, n in pop.items():
        if n < 0:
            raise ValueError("negative genotype count")
        z[hamming_class(u)] += n
    return z


def step_genotype(pop: dict, params: ModelParams, rng: np.random.Generator) -> dict:
    """One generation of the explicit genotype process.

    Each individual independently leaves Poisson(A(u)) children, each a
    per-locus mutant of its parent.  The n carriers of a genotype are
    pooled into a single Poisson(n * A(u)) draw, which has the same law.
    Guarded to small instances; this sampler exists for exactness tests,
    not for production runs.
    """
    total = sum(pop.values())
    if any(n < 0 for n in pop.values()):
        raise ValueError("negative genotype count")
    if params.kappa**params.ell > _GENOTYPE_ENUM_LIMIT and total > _GENOTYPE_ENUM_LIMIT:
        raise ResourceLimitError(
            "genotype-level stepping needs kappa**ell or the population "
            f"to stay below {_GENOTYPE_ENUM_LIMIT}"
        )
    blocks = []
    for u, n in sorted(pop.items()):
        if n == 0:
            continue
        n_children = int(rng.poisson(n * fitness_genotype(u, params)))
        if n_children == 0:
            continue
        blocks.append(np.tile(np.asarray(u, dtype=np.int64), (n_children, 1)))
    if not blocks:
        return {}
    kids = np.concatenate(blocks, axis=0)
    flips = rng.random(kids.shape) < params.q
    n_flips = int(flips.sum())
    if n_flips:
        # uniform over the other kappa-1 letters
        offsets = rng.integers(1, params.kappa, size=n_flips)
        kids[flips] = (kids[flips] + offsets) % params.kappa
    out = {}
    uniq, cnt = np.unique(kids, axis=0, return_counts=True)
    for row, c in zip(uniq, cnt):
        out[tuple(int(x) for x in row)] = int(c)
    return out


def step_occupancy(
    z: np.ndarray,
    params: ModelParams,
    rng: np.random.Generator,
    mean: np.ndarray | None = None,
) -> np.ndarray:
    """One generation of the class-count process: Poisson(z W) per class.

    z is one population's class counts, shape (ell+1,), or a batch of
    them, shape (R, ell+1); the result is an int64 array of the same
    shape.  The class-l offspring of population z form a single Poisson
    count with mean (z W)(l), independent across l, which is the
    per-individual offspring law summed over the population.  An empty
    row stays empty and consumes no random numbers.  Pass
    mean = mean_matrix(params) to amortize the kernel build across many
    steps.
    """
    z = np.asarray(z)
    if z.ndim not in (1, 2) or z.shape[-1] != params.ell + 1:
        raise ValueError(
            f"occupancy must have shape ({params.ell + 1},) or (R, {params.ell + 1}), "
            f"got {z.shape}"
        )
    if np.any(z < 0):
        raise ValueError("occupancy counts must be nonnegative")
    w = mean_matrix(params) if mean is None else mean
    lam = z @ w
    if float(lam.max(initial=0.0)) > _POISSON_MEAN_LIMIT:
        raise ResourceLimitError(
            f"Poisson mean {lam.max():.3e} beyond the sampler's safe range"
        )
    return rng.poisson(lam)


@dataclass(frozen=True)
class Trajectory:
    """Recorded class counts, one row per generation starting at 0."""

    counts: np.ndarray
    extinct_at: int | None
    capped_at: int | None
    requested_generations: int

    @property
    def totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def extinct(self) -> bool:
        return self.extinct_at is not None

    @property
    def capped(self) -> bool:
        return self.capped_at is not None

    @property
    def frequencies(self) -> np.ndarray:
        tot = self.totals.astype(float)
        out = np.zeros(self.counts.shape, dtype=float)
        alive = tot > 0
        out[alive] = self.counts[alive] / tot[alive, None]
        return out


def _start_counts(z0: np.ndarray, params: ModelParams, n_gens: int) -> np.ndarray:
    """Validated int64 copy of a starting class-count vector."""
    if n_gens < 0:
        raise ValueError(f"n_gens must be >= 0, got {n_gens}")
    z = np.array(z0, dtype=np.int64)
    if z.shape != (params.ell + 1,):
        raise ValueError(f"z0 must have shape ({params.ell + 1},)")
    if np.any(z < 0):
        raise ValueError("z0 must be nonnegative")
    return z


def run_trajectory(
    z0: np.ndarray,
    params: ModelParams,
    n_gens: int,
    rng: np.random.Generator,
    pop_cap: int = 10**12,
    mean: np.ndarray | None = None,
) -> Trajectory:
    """Run the class-count process for n_gens generations.

    Stops early when the population dies out (extinct_at records the
    generation) or when the total exceeds pop_cap (capped_at set, the
    offending generation is still recorded; no silent truncation).
    """
    z = _start_counts(z0, params, n_gens)
    w = mean_matrix(params) if mean is None else mean
    records = [z.copy()]
    extinct_at = 0 if int(z.sum()) == 0 else None
    capped_at = 0 if int(z.sum()) > pop_cap else None
    g = 0
    while g < n_gens and extinct_at is None and capped_at is None:
        z = step_occupancy(z, params, rng, mean=w)
        g += 1
        records.append(z.copy())
        total = int(z.sum())
        if total == 0:
            extinct_at = g
        elif total > pop_cap:
            capped_at = g
    return Trajectory(
        counts=np.stack(records),
        extinct_at=extinct_at,
        capped_at=capped_at,
        requested_generations=n_gens,
    )


@dataclass(frozen=True)
class FrequencyEstimate:
    """Survivor-averaged class frequencies with per-class standard errors.

    n_capped counts the surviving replicas that stopped early because
    their population exceeded pop_cap.
    """

    mean: np.ndarray
    se: np.ndarray
    n_survivors: int
    n_replicas: int
    n_generations: int
    n_capped: int


def conditioned_frequencies(
    params: ModelParams,
    z0: np.ndarray,
    n_gens: int,
    n_replicas: int,
    seed: int = 0,
    pop_cap: int = 10**12,
) -> FrequencyEstimate:
    """Class frequencies at the horizon, averaged over surviving replicas.

    All replicas start from z0 and advance as one (n_replicas, ell+1)
    batch on the stream RngSpec(seed, 0), so the estimate is
    reproducible.  Each generation steps only the live rows; a row
    retires when it dies out (extinct) or when its total exceeds pop_cap
    (capped, keeping the counts of the generation that crossed the cap;
    no silent truncation).  A replica counts as surviving when it is not
    extinct by n_gens, and a capped replica contributes the frequencies
    of its last generation.  Raises AllExtinctError when no replica
    survives (use a larger starting population or more replicas).
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    z = np.tile(_start_counts(z0, params, n_gens), (n_replicas, 1))
    w = mean_matrix(params)
    rng = RngSpec(seed, 0).generator()
    totals = z.sum(axis=1)
    for _ in range(n_gens):
        live = np.flatnonzero((totals > 0) & (totals <= pop_cap))
        if live.size == 0:
            break
        nxt = step_occupancy(z[live], params, rng, mean=w)
        z[live] = nxt
        totals[live] = nxt.sum(axis=1)

    survived = totals > 0
    n = int(survived.sum())
    if n == 0:
        raise AllExtinctError(
            f"all {n_replicas} replicas extinct by generation {n_gens}; "
            "increase the starting population or the number of replicas"
        )
    freq = z[survived] / totals[survived, None]
    se = freq.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.full(freq.shape[1], np.nan)
    return FrequencyEstimate(
        mean=freq.mean(axis=0),
        se=se,
        n_survivors=n,
        n_replicas=n_replicas,
        n_generations=n_gens,
        n_capped=int((totals[survived] > pop_cap).sum()),
    )


@dataclass(frozen=True)
class LumpingReport:
    """Two-sample comparison of genotype-level vs class-level stepping."""

    tv_distance: float
    chi2: float
    p_value: float
    n_samples: int
    n_categories: int


def lumping_equivalence_test(
    params: ModelParams,
    n_samples: int,
    seed: int = 0,
    start_class: int = 0,
) -> LumpingReport:
    """Empirical one-generation comparison of the two samplers.

    From a single class-b individual, draws n_samples one-generation
    class-count vectors through step_genotype (mapping children to
    classes afterwards) and another n_samples through step_occupancy,
    then reports the total-variation distance between the two empirical
    laws and a two-sample chi-square p-value (outcome cells pooled so
    every expected count is at least 5).
    """
    if params.ell > 3 or params.kappa > 3:
        raise ResourceLimitError("equivalence test is meant for ell <= 3, kappa <= 3")
    if not 0 <= start_class <= params.ell:
        raise ValueError("start_class outside [0, ell]")
    u0 = (1,) * start_class + (0,) * (params.ell - start_class)
    pop = {u0: 1}
    rng_g = RngSpec(seed, 0).generator()
    rng_z = RngSpec(seed, 1).generator()

    counts_g: Counter = Counter()
    for _ in range(n_samples):
        child = step_genotype(pop, params, rng_g)
        counts_g[tuple(occupancy_of(child, params.ell))] += 1

    z = np.zeros((n_samples, params.ell + 1), dtype=np.int64)
    z[:, start_class] = 1
    draws = step_occupancy(z, params, rng_z)
    counts_z: Counter = Counter()
    for row in draws:
        counts_z[tuple(int(x) for x in row)] += 1

    cats = sorted(set(counts_g) | set(counts_z))
    na = np.array([counts_g.get(c, 0) for c in cats], dtype=float)
    nb = np.array([counts_z.get(c, 0) for c in cats], dtype=float)
    tv = 0.5 * float(np.abs(na / na.sum() - nb / nb.sum()).sum())

    # pool sparse outcomes so each cell's expected count is >= 5 per sample
    pooled = na + nb
    keep = pooled >= 10
    fa = list(na[keep])
    fb = list(nb[keep])
    rest_a, rest_b = float(na[~keep].sum()), float(nb[~keep].sum())
    if rest_a + rest_b > 0:
        fa.append(rest_a)
        fb.append(rest_b)
    table = np.array([fa, fb])
    if table.shape[1] < 2:
        chi2, p = 0.0, 1.0
    else:
        chi2, p = chi2_contingency(table, correction=False)[:2]
    return LumpingReport(
        tv_distance=tv,
        chi2=float(chi2),
        p_value=float(p),
        n_samples=n_samples,
        n_categories=len(cats),
    )


@dataclass(frozen=True)
class ExtinctionMCReport:
    """Monte Carlo extinction frequency with a binomial standard error."""

    extinct_fraction: float
    se: float
    n_extinct: int
    n_escaped: int
    n_undecided: int
    n_replicas: int


def extinction_mc(
    params: ModelParams,
    n_replicas: int,
    start_class: int = 0,
    n_gens: int = 100,
    escape_cap: int = 10**6,
    seed: int = 0,
    stream: int = 0,
    mean: np.ndarray | None = None,
) -> ExtinctionMCReport:
    """Fraction of replicas (one class-k founder each) that die out.

    The live replicas advance as one batch through step_occupancy, one
    Poisson draw per (replica, class) and generation.  A replica is
    retired as surviving once its population reaches escape_cap (from
    that size, eventual extinction has negligible probability); replicas
    still undecided at the horizon are counted as survivors and reported.

    Pass mean = mean_matrix(params) to amortize the kernel build across
    calls.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if not 0 <= start_class <= params.ell:
        raise ValueError("start_class outside [0, ell]")
    w = mean_matrix(params) if mean is None else mean
    rng = RngSpec(seed, stream).generator()
    z = np.zeros((n_replicas, params.ell + 1), dtype=np.int64)
    z[:, start_class] = 1
    alive = np.ones(n_replicas, dtype=bool)
    n_extinct = 0
    n_escaped = 0
    for _ in range(n_gens):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        z[idx] = step_occupancy(z[idx], params, rng, mean=w)
        totals = z[idx].sum(axis=1)
        died = totals == 0
        escaped = totals >= escape_cap
        n_extinct += int(died.sum())
        n_escaped += int(escaped.sum())
        alive[idx[died | escaped]] = False
    n_undecided = int(alive.sum())
    frac = n_extinct / n_replicas
    se = float(np.sqrt(frac * (1.0 - frac) / n_replicas))
    return ExtinctionMCReport(
        extinct_fraction=frac,
        se=se,
        n_extinct=n_extinct,
        n_escaped=n_escaped,
        n_undecided=n_undecided,
        n_replicas=n_replicas,
    )
