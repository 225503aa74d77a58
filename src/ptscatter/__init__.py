"""One-dimensional quantum scattering from complex local and separable non-local potentials.

The names below and the submodules load on first use (PEP 562), so that a
program importing one module, such as the command line, runs only the
modules it calls.
"""

import sys

_EXPORTS = {
    "core": ("AsymptoticAmplitudes", "ScatteringCoefficients", "coefficients_from_amplitudes",
             "wronskian_residual"),
    "current": ("AsymptoticCurrent", "CurrentProfile", "asymptotic_current", "hermitian_current",
                "phase_relation_residual", "pt_current"),
    "numeric": ("IntegrationConfig", "LocalPotential", "WavefunctionGrid", "integrate_batch",
                "numeric_coefficients", "sampled_potential", "wavefunction_on_grid"),
    "potentials": ("CentrifugalParams", "LatticeParams", "ScarfParams", "SquareWellParams",
                   "centrifugal_amplitudes", "centrifugal_coefficients", "centrifugal_potential",
                   "centrifugal_pt_phase", "lattice_potential", "multi_well_coefficients",
                   "scarf_amplitudes", "scarf_coefficients", "scarf_potential",
                   "square_well_coefficients", "square_well_potential", "square_well_transfer"),
    "separable": ("NonlocalIntermediates", "SeparableKernel", "kernel_symmetry_class",
                  "nonlocal_coefficients", "nonlocal_intermediates", "nonlocal_wavefunction"),
    "specfun": ("complex_log_gamma",),
    "symmetry": ("ExactPtResult", "RelationRecord", "RelationReport", "SymmetryClass",
                 "check_s_relations", "classify_local_potential", "exact_asymptotic_pt_check"),
}
_MODULES = ("cli", "core", "current", "errors", "numeric", "potentials", "separable", "specfun",
            "symmetry")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    module = _ORIGIN.get(name, name if name in _MODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, which ``python -X importtime`` times
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name in _ORIGIN:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN) | set(_MODULES))
