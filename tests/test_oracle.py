import math

import numpy as np
import pytest

from minkqm.errors import DomainError, FitQualityError, InsufficientRootsError
from minkqm.model import Coulomb, Free, NATURAL_UNITS, PhysicalParams
from minkqm.oracle import (
    RadialSolution,
    ShootingConfig,
    bound_state_length,
    integrate_radial,
    inward_phase,
    ode_residual,
    scaled_config,
    shoot_eigenvalues,
)
from minkqm.spectra import coulomb_scaling, coulomb_u1

PP = NATURAL_UNITS


class TestIntegrateRadial:
    def test_ground_state_cross_check(self):
        # outward integration from analytic start stays on the analytic curve;
        # the log-spaced transformed scheme handles the singular origin
        energy = -2.0
        sc = coulomb_scaling(PP, 1.0, energy)
        cfg = ShootingConfig(0.05 * sc.r0, 30.0 * sc.r0, steps=12000)
        r = np.exp(np.linspace(math.log(cfg.r_min), math.log(cfg.r_max), cfg.steps))
        start = (
            coulomb_u1(0.5, 0.0, float(r[0] / sc.r0)),
            coulomb_u1(0.5, 0.0, float(r[1] / sc.r0)),
        )
        sol = integrate_radial(
            Coulomb(1.0), PP, 0.0, energy, cfg, "outward", start, spacing="log"
        )
        exact = np.array([coulomb_u1(0.5, 0.0, float(ri / sc.r0)) for ri in r])
        dev = float(np.max(np.abs(sol.u_values - exact)) / np.max(np.abs(exact)))
        assert dev < 1e-6
        assert sol.decay_ratio() < 1e-4

    def test_log_spacing_matches_linear(self):
        energy = -2.0
        cfg = ShootingConfig(0.1, 5.0, steps=8000)
        r_log = np.exp(np.linspace(math.log(0.1), math.log(5.0), cfg.steps))
        start = (
            coulomb_u1(0.5, 0.0, float(r_log[-1] / 0.25)),
            coulomb_u1(0.5, 0.0, float(r_log[-2] / 0.25)),
        )
        sol = integrate_radial(Coulomb(1.0), PP, 0.0, energy, cfg, "inward", start, spacing="log")
        exact = np.array([coulomb_u1(0.5, 0.0, float(ri / 0.25)) for ri in r_log])
        dev = float(np.max(np.abs(sol.u_values - exact)) / np.max(np.abs(exact)))
        assert dev < 1e-6

    def test_renormalization_bookkeeping(self):
        # growing solution overflows the guard; samples stay finite and the
        # accumulated log scale is recorded
        cfg = ShootingConfig(1.0, 500.0, steps=200000)
        sol = integrate_radial(
            Free(), PP, 0.0, -1.0, cfg, "outward",
            (1e90, 1e90 * math.exp(500.0 / 199999 * 1.0)),
            q_func=lambda rr: -np.ones_like(rr),
        )
        assert sol.log_scale > 0.0
        assert np.all(np.isfinite(sol.u_values.view(float)))

    def test_grid_too_coarse_rejected(self):
        cfg = ShootingConfig(0.001, 100.0, steps=1000)
        with pytest.raises(DomainError, match="steps"):
            integrate_radial(Free(), PP, 5.0, -50.0, cfg, "outward", (1.0, 1.0))

    def test_bad_direction_rejected(self):
        cfg = ShootingConfig(1.0, 2.0, steps=1000)
        with pytest.raises(DomainError):
            integrate_radial(Free(), PP, 0.0, -1.0, cfg, "sideways", (1.0, 1.0))


class TestRadialSolution:
    def test_validation(self):
        with pytest.raises(DomainError):
            RadialSolution(np.array([1.0, 2.0]), np.array([1.0, 2.0]), -1.0, 0.0, Free())
        with pytest.raises(DomainError):
            RadialSolution(
                np.array([1.0, 0.5, 2.0]), np.array([1.0, 2.0, 3.0]), -1.0, 0.0, Free()
            )


class TestOdeResidual:
    def test_generic_function_fails(self):
        r = np.linspace(0.5, 10.0, 2000)
        u = np.exp(-((r - 3) ** 2))  # not a solution
        sol = RadialSolution(r, u, -1.0, 1.0, Free())
        assert ode_residual(sol, PP) > 0.1


class TestInwardPhase:
    def test_m_negation_mirrors_phase(self):
        energy = -1.0
        cfg = scaled_config(PP, energy, min_factor=1e-6)
        bp = inward_phase(Coulomb(1.0), PP, 1.0, energy, cfg)
        bm = inward_phase(Coulomb(1.0), PP, -1.0, energy, cfg)
        d = math.fmod(bp + bm, math.pi)
        assert min(abs(d), math.pi - abs(d)) < 1e-6

    def test_fit_quality_error_when_window_too_far_out(self):
        energy = -1.0
        r0 = bound_state_length(PP, energy)
        cfg = ShootingConfig(0.8 * r0, 50.0 * r0, steps=6000)
        with pytest.raises(FitQualityError):
            inward_phase(Coulomb(1.0), PP, 1.0, energy, cfg)

    def test_m_zero_rejected(self):
        with pytest.raises(DomainError):
            inward_phase(Free(), PP, 0.0, -1.0, scaled_config(PP, -1.0))


class TestShootEigenvalues:
    def test_free_particle_exact_ratios(self):
        cfg = scaled_config(PP, -1.0, min_factor=1e-5, steps=6000)
        shot = shoot_eigenvalues(Free(), PP, 1.0, (-1e9, -1.0), 2, cfg, tol=1e-9)
        tgt = math.exp(2 * math.pi)
        assert shot[0] / -1.0 == pytest.approx(tgt, rel=1e-6)
        assert shot[1] / shot[0] == pytest.approx(tgt, rel=1e-6)

    def test_deep_coulomb_ratios(self):
        cfg = scaled_config(PP, -1e6, min_factor=1e-5, steps=6000)
        shot = shoot_eigenvalues(Coulomb(1.0), PP, 1.0, (-1e12, -1e6), 2, cfg, tol=1e-7)
        assert shot[1] / shot[0] == pytest.approx(math.exp(2 * math.pi), rel=1e-3)

    def test_insufficient_roots(self):
        cfg = scaled_config(PP, -1.0, min_factor=1e-5, steps=6000)
        with pytest.raises(InsufficientRootsError):
            shoot_eigenvalues(Free(), PP, 1.0, (-10.0, -1.0), 2, cfg)

    def test_window_validation(self):
        cfg = scaled_config(PP, -1.0)
        with pytest.raises(DomainError):
            shoot_eigenvalues(Free(), PP, 1.0, (-1.0, -10.0), 1, cfg)
