"""Monte Carlo simulation of the genotype-level and class-level process.

Two samplers are provided.  ``step_genotype`` advances a population of
explicit genotypes (a dict mapping genotype tuples to counts) by one
generation: Poisson offspring numbers followed by independent per-locus
mutation.  ``step_occupancy`` advances only class counts, for one
population or a batch of them: each class-k individual leaves Poisson
children in class l with mean A(k) M(k, l) = W(k, l), independently, so
a sum of independent Poissons makes the class-l offspring of a whole
population z one Poisson count with mean (z W)(l), independent across
l.  This draw is the package's only class-count sampler.  One loop over
generations drives it for trajectories, survivor-conditioned frequencies
and extinction Monte Carlo, and ``lumping_equivalence_test`` draws it once.

Randomness comes from numpy Generators.  ``RngSpec(master_seed, stream)``
derives statistically independent, byte-reproducible streams.  A replica
batch shares one stream, so a fixed seed reproduces the same bytes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

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
    per-individual offspring law summed over the population.  W is
    ``mean_matrix``, the scattered kernel band: the entries the band
    leaves out, all below BAND_FLOOR, are exact zeros there.  A zero mean
    draws 0 without consuming random numbers, so an empty row stays empty
    and consumes none.  Pass mean = mean_matrix(params) to amortize the
    kernel build across many steps.
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


def _start_counts(z0: np.ndarray, params: ModelParams) -> np.ndarray:
    """Validated int64 copy of a starting class-count vector."""
    z = np.array(z0, dtype=np.int64)
    if z.shape != (params.ell + 1,):
        raise ValueError(f"z0 must have shape ({params.ell + 1},)")
    if np.any(z < 0):
        raise ValueError("z0 must be nonnegative")
    return z


def _founders(params: ModelParams, n: int, start_class: int) -> np.ndarray:
    """Batch of n populations, shape (n, ell+1), each one class-start_class founder."""
    if n < 1:
        raise ValueError(f"need at least one founder, got {n}")
    if not 0 <= start_class <= params.ell:
        raise ValueError("start_class outside [0, ell]")
    z = np.zeros((n, params.ell + 1), dtype=np.int64)
    z[:, start_class] = 1
    return z


def _generations(z: np.ndarray, params: ModelParams, rng: np.random.Generator, n_gens: int,
                 cap: int, mean: np.ndarray | None = None):
    """The one generation loop: advance the batch z, shape (R, ell+1), in
    place and yield after each generation.

    A row is live while 0 < total <= cap, and only live rows are stepped
    through step_occupancy.  A row retires when it dies out or its total
    exceeds cap, and keeps the counts of the generation that retired it.
    Stops after n_gens generations or once no row is live.
    """
    if n_gens < 0:
        raise ValueError(f"n_gens must be >= 0, got {n_gens}")
    w = mean_matrix(params) if mean is None else mean
    totals = z.sum(axis=1)
    live = np.flatnonzero((totals > 0) & (totals <= cap))
    for _ in range(n_gens):
        if live.size == 0:
            return
        nxt = step_occupancy(z[live], params, rng, w)
        z[live] = nxt
        totals = nxt.sum(axis=1)
        # the live set only shrinks, so retired rows are never looked at again
        live = live[(totals > 0) & (totals <= cap)]
        yield


def run_trajectory(
    z0: np.ndarray,
    params: ModelParams,
    n_gens: int,
    rng: np.random.Generator,
    pop_cap: int = 10**12,
) -> Trajectory:
    """Run the class-count process for n_gens generations, as a batch of one
    through the shared generation loop, recording every generation.  Stops
    early when the population dies out (extinct_at records the generation)
    or its total exceeds pop_cap (capped_at set, the offending generation
    still recorded; no silent truncation).  pop_cap must be >= 1.
    """
    if pop_cap < 1:
        raise ValueError(f"pop_cap must be >= 1, got {pop_cap}")
    z = _start_counts(z0, params)[None, :]
    records = [z[0].copy()]
    for _ in _generations(z, params, rng, n_gens, pop_cap):
        records.append(z[0].copy())
    last, total = len(records) - 1, int(z.sum())
    return Trajectory(
        counts=np.stack(records),
        extinct_at=last if total == 0 else None,
        capped_at=last if total > pop_cap else None,
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

    All replicas start from z0 and advance through the shared generation
    loop as one (n_replicas, ell+1) batch on the stream RngSpec(seed, 0),
    so the estimate is reproducible.  A replica retires when it dies out
    (extinct) or its total exceeds pop_cap (capped, with the counts of the
    generation that crossed the cap).  It counts as surviving when it is
    not extinct by n_gens; a capped survivor contributes the frequencies of
    its last generation.  Raises AllExtinctError when no replica survives
    (use a larger starting population or more replicas).  pop_cap must be
    >= 1.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if pop_cap < 1:
        raise ValueError(f"pop_cap must be >= 1, got {pop_cap}")
    z = np.tile(_start_counts(z0, params), (n_replicas, 1))
    for _ in _generations(z, params, RngSpec(seed, 0).generator(), n_gens, pop_cap):
        pass
    totals = z.sum(axis=1)
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
    # scipy.stats is half of the CLI's start-up, and no subcommand needs it
    from scipy.stats import chi2_contingency

    if params.ell > 3 or params.kappa > 3:
        raise ResourceLimitError("equivalence test is meant for ell <= 3, kappa <= 3")
    founders = _founders(params, n_samples, start_class)
    u0 = (1,) * start_class + (0,) * (params.ell - start_class)
    pop = {u0: 1}
    rng_g = RngSpec(seed, 0).generator()
    rng_z = RngSpec(seed, 1).generator()

    counts_g: Counter = Counter()
    for _ in range(n_samples):
        child = step_genotype(pop, params, rng_g)
        counts_g[tuple(occupancy_of(child, params.ell))] += 1

    draws = step_occupancy(founders, params, rng_z)
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

    The replicas advance through the shared generation loop as one batch
    with cap escape_cap - 1: a replica retires as extinct when it dies out
    and as escaped once its total reaches escape_cap >= 2 (from that size,
    eventual extinction has negligible probability).  Replicas still live
    at the horizon are reported as undecided.  Pass mean =
    mean_matrix(params) to amortize the kernel build across calls.
    """
    if escape_cap < 2:
        raise ValueError(f"escape_cap must be >= 2, got {escape_cap}")
    z = _founders(params, n_replicas, start_class)
    rng = RngSpec(seed, stream).generator()
    for _ in _generations(z, params, rng, n_gens, escape_cap - 1, mean):
        pass
    totals = z.sum(axis=1)
    n_extinct = int(np.count_nonzero(totals == 0))
    n_escaped = int(np.count_nonzero(totals >= escape_cap))
    frac = n_extinct / n_replicas
    se = float(np.sqrt(frac * (1.0 - frac) / n_replicas))
    return ExtinctionMCReport(
        extinct_fraction=frac,
        se=se,
        n_extinct=n_extinct,
        n_escaped=n_escaped,
        n_undecided=n_replicas - n_extinct - n_escaped,
        n_replicas=n_replicas,
    )
