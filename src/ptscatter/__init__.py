"""One-dimensional quantum scattering from complex local and separable non-local potentials."""

from .core import (
    DEFAULT_TOL,
    AsymptoticAmplitudes,
    ScatteringCoefficients,
    TransferMatrix,
    WaveNumber,
    as_wavenumber,
    coefficients_from_amplitudes,
    compose_transfer,
    shift_transfer,
    smatrix_from_transfer,
    transfer_from_smatrix,
    wronskian_residual,
)
from .current import (
    AsymptoticCurrent,
    CurrentProfile,
    asymptotic_current,
    hermitian_current,
    phase_relation_residual,
    pt_current,
)
from .numeric import (
    IntegrationConfig,
    LocalPotential,
    WavefunctionGrid,
    integrate_batch,
    integrate_two_solutions,
    numeric_coefficients,
    sampled_potential,
    wavefunction_on_grid,
)
from .potentials import (
    CentrifugalParams,
    LatticeParams,
    ScarfParams,
    SquareWellParams,
    centrifugal_amplitudes,
    centrifugal_coefficients,
    centrifugal_potential,
    centrifugal_pt_phase,
    lattice_potential,
    lattice_tmatrix,
    multi_well_coefficients,
    multi_well_transfer,
    scarf_amplitudes,
    scarf_coefficients,
    scarf_potential,
    square_well_coefficients,
    square_well_potential,
    square_well_transfer,
    square_well_transfer_interfaces,
)
from .separable import (
    NonlocalIntermediates,
    SeparableKernel,
    compute_n,
    green_function,
    kernel_symmetry_class,
    nonlocal_coefficients,
    nonlocal_intermediates,
    nonlocal_wavefunction,
)
from .specfun import GammaRatio, complex_log_gamma, gamma_ratio
from .symmetry import (
    ExactPtResult,
    RelationRecord,
    RelationReport,
    SymmetryClass,
    check_s_relations,
    classify_local_potential,
    exact_asymptotic_pt_check,
)

__version__ = "0.1.0"
