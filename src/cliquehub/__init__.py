"""Sparse graph ensembles with clique and hub structure.

Variational descriptions of upper-tail behavior (planar problems over clique
and hub amplitudes), exponential tilts of sparse random graphs with Gibbs
sampling, finite-n mean-field bounds, structure detection, and stability
checks for product-measure inequalities.

Each public name loads its module on first access, so `import cliquehub`
loads neither numpy nor any solver module.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "CapabilityError": "errors", "CliqueHubError": "errors",
    "DegeneracyError": "errors", "DomainError": "errors",
    "Motif": "motifs", "WeightTable": "motifs", "hom_density": "motifs",
    "motif_from_name": "motifs",
    "PlanarProgram": "planar", "overlay_matrix": "planar",
    "phi_solve": "planar",
    "EdgeFModel": "hamiltonian", "HamiltonianSpec": "hamiltonian",
    "edge_f_solve": "hamiltonian", "psi_solve": "hamiltonian",
    "NmfProblem": "nmf", "nmf_solve": "nmf", "phi_np_solve": "nmf",
    "ErgmChain": "sampler", "detect_structure": "sampler",
    "run_experiment": "sampler",
    "ProductInstance": "finner", "finner_integral": "finner",
    "recover_factors": "finner",
}
__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + home, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
