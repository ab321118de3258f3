"""Desk-scale emulator of a quantum pipeline for protein normal-mode dynamics.

Read-in (network models, loader circuits, pseudo-random state prep),
evolution (harmonic, forced, Langevin), and read-out (energies, modes,
density of states, correlations, LQR control).

Submodules are imported lazily so that the command-line front end can cap
BLAS thread pools before any numerical library loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "errors", "structure", "network", "circuits", "stateprep",
    "connectivity", "dynamics", "observables", "control", "cli",
)

_EXPORTS = {
    # errors
    "GnmqsimError": "errors", "ParseError": "errors",
    "EmptyStructureError": "errors", "EncodingError": "errors",
    "NumericalError": "errors",
    # structure
    "Atom": "structure", "ProteinStructure": "structure",
    "parse_pdb": "structure", "synthetic_chain": "structure",
    "load_bundled_structure": "structure",
    "dump_structure_json": "structure", "load_structure_json": "structure",
    # network
    "NetworkModel": "network", "build_gnm": "network", "build_anm": "network",
    "mass_weight": "network",
    "model_from_matrices": "network", "condition_diagnostics": "network",
    # circuits
    "Circuit": "circuits",
    "build_decoder": "circuits", "build_data_loader": "circuits",
    "build_qrom": "circuits", "build_sparse_index_oracle": "circuits",
    "build_position_oracle": "circuits", "resources": "circuits",
    # stateprep
    "cbrng": "stateprep", "uniforms": "stateprep",
    "standard_normals": "stateprep", "rademacher": "stateprep",
    "prepare_gaussian_state": "stateprep",
    "prepare_ensemble_state": "stateprep",
    "EncodedState": "stateprep", "encode_initial_conditions": "stateprep",
    # connectivity
    "ConnectivityStore": "connectivity", "ModificationReport": "connectivity",
    # dynamics
    "EmbeddedHamiltonian": "dynamics", "embed": "dynamics",
    "evolve_harmonic": "dynamics", "decode_state": "dynamics",
    "HistoryState": "dynamics", "evolve_inhomogeneous": "dynamics",
    "LangevinParams": "dynamics", "evolve_langevin_covariance": "dynamics",
    "monte_carlo_langevin": "dynamics", "monte_carlo_encoded": "dynamics",
    # observables
    "kinetic_potential": "observables",
    "energy_from_displacement": "observables",
    "ModeSet": "observables", "low_modes": "observables",
    "spectral_bound": "observables", "MomentSet": "observables",
    "chebyshev_moments_exact": "observables",
    "chebyshev_moments_stochastic": "observables",
    "jackson_coefficients": "observables",
    "reconstruct_dos": "observables", "DosCurve": "observables",
    "dos_bin_masses": "observables", "dos_histogram_l1": "observables",
    "displacement_stats": "observables",
    # control
    "ControlProblem": "control", "FeedbackLaw": "control",
    "solve_lqr": "control", "simulate_controlled": "control",
}

__all__ = ["__version__", *_SUBMODULES, *sorted(_EXPORTS)]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(__all__) | set(globals()))
