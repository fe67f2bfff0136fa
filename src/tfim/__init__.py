"""Simulation and verification toolkit for the transverse-field Ising model
via its continuous-time graphical representations.

The package estimates correlation functions and magnetization through the
space-time spin and random-parity representations, analyzes percolation in
the coupled double-labelling measure, and verifies the exact identities of
the representations (switching, local modifications, the infrared bound)
against exhaustive enumeration and an exact-diagonalization oracle.
"""

from .geometry import (Box, DualLattice, EdgeSet, Holes, SpaceTimeRegion,
                       graph_laplacian_ft, l1_norm)
from .poisson import (Carrier, PointSet, rn_add_or_delete, rn_add_two_if_empty,
                      rn_delete_all, verify_modification_identity)
from .randomparity import (CoupledConfiguration, Labelling, build_labelling,
                           connectivity, constant_A, constant_B,
                           correlation_difference_bound,
                           estimate_rpr_correlation, event_probability_identity,
                           holes_identity_check, sample_coupled,
                           verify_switching)
from .spectral import (SpectralModel, E_function, build, build_for_region,
                       irb_check, oracle_correlation, schwinger,
                       schwinger_fourier, thermal_expectation)
from .spinrep import (SpinConfiguration, TrotterSampler, estimate_correlation,
                      sample_apriori)
from .stats import Check, Estimate
from .rng import chain_generator

__all__ = [
    "Box", "Carrier", "Check", "CoupledConfiguration",
    "DualLattice", "E_function", "EdgeSet", "Estimate", "Holes",
    "Labelling", "PointSet", "SpaceTimeRegion",
    "SpectralModel", "SpinConfiguration", "TrotterSampler",
    "build", "build_for_region", "build_labelling", "chain_generator",
    "connectivity", "constant_A", "constant_B",
    "correlation_difference_bound", "estimate_correlation",
    "estimate_rpr_correlation", "event_probability_identity", "graph_laplacian_ft",
    "holes_identity_check", "irb_check", "l1_norm", "oracle_correlation",
    "rn_add_or_delete", "rn_add_two_if_empty", "rn_delete_all",
    "sample_apriori", "sample_coupled", "schwinger", "schwinger_fourier",
    "thermal_expectation", "verify_modification_identity", "verify_switching",
]

__version__ = "0.1.0"
