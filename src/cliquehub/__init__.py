"""Sparse graph ensembles with clique and hub structure.

Variational descriptions of upper-tail behavior (planar problems over clique
and hub amplitudes), exponential tilts of sparse random graphs with Gibbs
sampling, finite-n mean-field bounds, structure detection, and stability
checks for product-measure inequalities.
"""

__version__ = "0.1.0"

from .errors import CapabilityError, CliqueHubError, DegeneracyError, DomainError
from .motifs import Motif, WeightTable, hom_density, motif_from_name
from .planar import PlanarProgram, phi_solve
from .hamiltonian import EdgeFModel, HamiltonianSpec, edge_f_solve, psi_solve
from .nmf import NmfProblem, nmf_solve, overlay_matrix, phi_np_solve
from .sampler import ErgmChain, detect_structure, run_experiment
from .finner import ProductInstance, finner_integral, recover_factors
