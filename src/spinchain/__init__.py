"""Spin-chain state-transfer toolkit.

Design, reconstruct and verify linear chains for perfect and quasi-perfect
quantum state transfer in the single-excitation subspace: forward dynamics,
pinched-spectrum tools, persymmetric inverse reconstruction, a genetic
optimizer over on-site energies, and particle-in-a-potential diagnostics.
"""

from .chain import (
    ChainSpec,
    EigenSystem,
    build_hamiltonian,
    check_mirror_symmetry,
    diagonalize_chain,
    eigendecompose,
    eigenstate_parity,
    mirror_operator,
)
from .dynamics import (
    FidelityTrace,
    average_fidelity,
    propagate,
    revival_peaks,
    trace,
    transfer_fidelity,
    transition_amplitude,
)
from .errors import NumericalError
from .ga import GAConfig, GAIndividual, GAReport, evolve, fitness, mutation_rate, q_factor, sigma_lambda
from .reconstruct import compute_weights, reconstruct, reconstruct_with_error, roundtrip_error
from .spectra import (
    PinchSpec,
    PstCheck,
    Spectrum,
    check_pst_condition,
    pinched_spectrum,
    snap_to_pst,
    spectral_symmetry_check,
)
from .sweep import christandl_chain, coupling_statistics, deviation_sweep

__version__ = "0.1.0"

__all__ = [
    "ChainSpec", "EigenSystem", "build_hamiltonian", "check_mirror_symmetry",
    "diagonalize_chain", "eigendecompose", "eigenstate_parity", "mirror_operator",
    "FidelityTrace", "average_fidelity", "propagate", "revival_peaks", "trace",
    "transfer_fidelity", "transition_amplitude",
    "NumericalError",
    "GAConfig", "GAIndividual", "GAReport", "evolve", "fitness", "mutation_rate",
    "q_factor", "sigma_lambda",
    "compute_weights", "reconstruct", "reconstruct_with_error", "roundtrip_error",
    "PinchSpec", "PstCheck", "Spectrum", "check_pst_condition", "pinched_spectrum",
    "snap_to_pst", "spectral_symmetry_check",
    "christandl_chain", "coupling_statistics", "deviation_sweep",
    "__version__",
]
