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

from . import kernel, quasispecies, simulate, spectral
from .kernel import *
from .quasispecies import *
from .simulate import *
from .spectral import *

__all__ = ["__version__", *kernel.__all__, *spectral.__all__, *quasispecies.__all__,
           *simulate.__all__]
