"""Branching-process quasispecies toolkit.

A population of fixed-length sequences reproduces by independent
Poisson offspring numbers (sharp-peak fitness: one master sequence
replicates faster than everything else) with independent per-locus
mutation.  Grouping genotypes by Hamming distance to the master
sequence turns the process into a branching process on distance
classes.  This package provides the class-level mutation kernel, the
Perron eigenpair and extinction probabilities of the mean matrix, the
limiting quasispecies distribution, and Monte Carlo simulation of both
the genotype-level and the class-level process.
"""

__version__ = "0.1.0"

from .kernel import (
    KernelBand,
    ModelParams,
    class_size,
    fitness_class,
    fitness_genotype,
    genotypes,
    hamming_class,
    hamming_distance,
    kernel_band,
    limit_kernel,
    lumped_kernel_entry,
    lumped_kernel_matrix,
    master_sequence,
    mutation_prob_genotype,
)
from .spectral import (
    BoundsReport,
    ConvergenceError,
    ExtinctionReport,
    PerronPair,
    extinction_probabilities,
    fitness_vector,
    mean_matrix,
    perron,
    perron_bounds_check,
    power_iteration,
)
from .quasispecies import (
    QuasispeciesParams,
    Regime,
    classify_regime,
    power_sigma_series,
    qs_normalization_check,
    qs_pmf,
    qs_pmf_by_recurrence,
)
from .simulate import (
    AllExtinctError,
    ExtinctionMCReport,
    FrequencyEstimate,
    LumpingReport,
    ResourceLimitError,
    RngSpec,
    Trajectory,
    conditioned_frequencies,
    extinction_mc,
    lumping_equivalence_test,
    occupancy_of,
    run_trajectory,
    step_genotype,
    step_occupancy,
)

__all__ = [
    "__version__",
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
    "ConvergenceError",
    "PerronPair",
    "ExtinctionReport",
    "BoundsReport",
    "fitness_vector",
    "mean_matrix",
    "perron",
    "power_iteration",
    "perron_bounds_check",
    "extinction_probabilities",
    "QuasispeciesParams",
    "Regime",
    "classify_regime",
    "power_sigma_series",
    "qs_pmf",
    "qs_pmf_by_recurrence",
    "qs_normalization_check",
    "RngSpec",
    "ResourceLimitError",
    "AllExtinctError",
    "Trajectory",
    "FrequencyEstimate",
    "LumpingReport",
    "ExtinctionMCReport",
    "occupancy_of",
    "step_genotype",
    "step_occupancy",
    "run_trajectory",
    "conditioned_frequencies",
    "lumping_equivalence_test",
    "extinction_mc",
]
