"""Quantum spectra, phases and wavefunctions on the Minkowski plane."""

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
from .model import (
    Coulomb,
    Free,
    NATURAL_UNITS,
    Oscillator,
    PhysicalParams,
    SystemKind,
    effective_potential,
    potential,
    radial_coefficient,
)
from .oracle import (
    RadialSolution,
    ShootingConfig,
    inward_phase,
    integrate_radial,
    ode_residual,
    scaled_config,
    shoot_eigenvalues,
)
from .specfun import KummerParams, kummer_m, ln_gamma
from .spectra import (
    Branch,
    DualityMap,
    ReflectionPhase,
    ScaledCoulomb,
    SpectrumEntry,
    coulomb_closed_spectrum,
    coulomb_scaling,
    coulomb_third,
    coulomb_third_asymptotic,
    coulomb_u1,
    coulomb_u1_asymptotic,
    coulomb_u2,
    deep_ladder,
    duality_forward,
    gamma_phase,
    oscillator_closed_spectrum,
    oscillator_quantized_spectrum,
    oscillator_wavefunction,
    quantization_f,
    shallow_spectrum,
    solve_quantized_spectrum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
