"""Quantum spectra, phases and wavefunctions on the Minkowski plane.

The error classes are imported with the package.  Every other public name
is imported from its submodule on first access (PEP 562), so that
``import minkqm`` loads neither numpy nor the Gamma and Kummer code.
"""

import importlib

from . import errors
from .errors import (
    BracketError,
    ConsistencyError,
    ConvergenceError,
    DomainError,
    FitQualityError,
    InsufficientRootsError,
    MinkqmError,
    PoleError,
)

# submodule: the public names it defines
_LAZY = {
    "model": (
        "Branch", "Coulomb", "DualityMap", "Free", "NATURAL_UNITS", "Oscillator",
        "PhysicalParams", "ScaledCoulomb", "SpectrumEntry", "SystemKind",
        "coulomb_closed_spectrum", "coulomb_scaling", "deep_ladder", "duality_forward",
        "effective_potential", "oscillator_closed_spectrum", "potential",
        "radial_coefficient", "shallow_spectrum", "solve_quantized_spectrum",
    ),
    "oracle": (
        "RadialSolution", "ShootingConfig", "inward_phase", "integrate_radial",
        "ode_residual", "scaled_config", "shoot_eigenvalues",
    ),
    "specfun": ("KummerParams", "kummer_m", "ln_gamma"),
    "spectra": (
        "ReflectionPhase", "coulomb_third", "coulomb_third_asymptotic", "coulomb_u1",
        "coulomb_u1_asymptotic", "coulomb_u2", "gamma_phase", "oscillator_quantized_spectrum",
        "oscillator_wavefunction", "quantization_f",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([n for n in dir(errors) if n.endswith("Error")] + ["errors", *_LAZY, *_HOME])


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
