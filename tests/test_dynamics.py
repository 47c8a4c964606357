import numpy as np
import pytest
from numpy.testing import assert_allclose

from casqed.errors import ConvergenceError, DegenerateSteadyState, IntegrationError
from casqed.dynamics import (
    LiouvillianAction,
    integrate,
    spectral_gap,
    steady_state_longtime,
    steady_state_nullspace,
)
from casqed.linalg import dagger
from casqed.metrics import fef_fidelity
from casqed.reduced import (
    MatchedDrive,
    analytic_steady_state,
    dark_state,
    initial_ground_state,
    liouvillian_action,
    liouvillian_apply,
)


def rand_herm(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def zero_action(dim=4):
    return LiouvillianAction(dim=dim, matvec=np.zeros_like, rate_scale=1.0)


class TestIntegrate:
    def test_zero_generator_is_constant(self):
        rho0 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        traj = integrate(zero_action(), rho0, np.linspace(0, 10, 5))
        for state in traj.states:
            assert_allclose(state, rho0, atol=1e-15)

    def test_relaxation_to_dark_state(self):
        action = liouvillian_action(MatchedDrive(2.0, 1.0, 1.0).params())
        traj = integrate(action, initial_ground_state(), np.linspace(0.0, 40.0, 41))
        fid = fef_fidelity(traj.final())
        assert abs(fid - 0.9) < 1e-6
        psi = dark_state(2.0, 1.0)
        assert np.abs(traj.final() - np.outer(psi, psi.conj())).max() < 1e-6

    def test_single_atom_exponential_decay(self):
        # a=1, b=0, eps=0: excited population decays at rate 2|a|^2 under
        # the factor-2 dissipator; <sigma_z> = 2 e^{-2t} - 1 per atom
        action = liouvillian_action(MatchedDrive(1.0, 0.0, 0.0).params())
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0  # |1 1>
        times = np.linspace(0.0, 3.0, 16)
        traj = integrate(action, rho0, times, rel_tol=1e-10, abs_tol=1e-14)
        sz = np.diag([1.0, -1.0]).astype(complex)
        sz1 = np.kron(sz, np.eye(2))
        for t, state in zip(times, traj.states):
            expect = 2.0 * np.exp(-2.0 * t) - 1.0
            assert abs(np.real(np.trace(state @ sz1)) - expect) < 1e-6

    def test_trajectory_state_quality(self):
        action = liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params())
        traj = integrate(action, initial_ground_state(), np.linspace(0.0, 20.0, 50))
        for state in traj.states:
            assert abs(np.trace(state).real - 1.0) <= 1e-9
            assert np.abs(state - dagger(state)).max() <= 1e-9
            assert np.linalg.eigvalsh(state).min() >= -1e-7

    def test_tolerance_halving_sanity(self):
        action = liouvillian_action(MatchedDrive(1.8, 1.0, 0.9).params())
        times = np.array([0.0, 5.0])
        loose = integrate(action, initial_ground_state(), times, rel_tol=2e-6, abs_tol=1e-12)
        tight = integrate(action, initial_ground_state(), times, rel_tol=1e-6, abs_tol=1e-12)
        diff = np.abs(loose.final() - tight.final()).max()
        assert diff <= 10 * 1e-6

    def test_linearity_of_action(self):
        rng = np.random.default_rng(51)
        p = MatchedDrive(1.3, 0.7, 0.8).params()
        action = liouvillian_action(p)
        for _ in range(20):
            r1, r2 = rand_herm(rng), rand_herm(rng)
            al, be = rng.normal(), rng.normal()
            lhs = action.apply(al * r1 + be * r2)
            rhs = al * action.apply(r1) + be * action.apply(r2)
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_rejects_bad_initial_state(self):
        action = zero_action()
        with pytest.raises(IntegrationError):
            integrate(action, np.eye(4, dtype=complex), [0.0, 1.0])  # trace 4
        with pytest.raises(IntegrationError):
            integrate(action, np.eye(4, dtype=complex) / 4, [1.0, 0.0])  # descending


class TestSteadyStateNullspace:
    def test_matches_analytic(self):
        m = MatchedDrive(2.0, 1.0, 0.98)
        rho = steady_state_nullspace(liouvillian_action(m.params()))
        assert np.abs(rho - analytic_steady_state(m)).max() <= 1e-10

    def test_degenerate_point_detected(self):
        with pytest.raises(DegenerateSteadyState):
            steady_state_nullspace(liouvillian_action(MatchedDrive(1.0, 1.0, 1.0).params()))

    def test_agrees_with_longtime(self):
        m = MatchedDrive(1.6, 1.0, 0.9)
        action = liouvillian_action(m.params())
        ns = steady_state_nullspace(action)
        lt = steady_state_longtime(action, initial_ground_state(), tol=1e-10)
        assert np.linalg.norm(ns - lt.rho) <= 1e-6


class TestMatvecIsTheGenerator:
    def test_solvers_call_a_reassigned_matvec(self):
        # every view of the generator goes through ``matvec``, so wrapping
        # it (as a profiler or a counter would) sees every application
        action = liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params())
        inner = action.matvec
        calls = []

        def counted(v):
            calls.append(1)
            return inner(v)

        action.matvec = counted
        integrate(action, initial_ground_state(), [0.0, 1.0])
        after_integrate = len(calls)
        assert after_integrate > 0
        steady_state_nullspace(action)
        assert len(calls) > after_integrate
        action.apply(initial_ground_state())
        assert len(calls) > after_integrate + 1


class TestSteadyStateLongtime:
    def test_ideal_coupling_reaches_dark_state(self):
        result = steady_state_longtime(
            liouvillian_action(MatchedDrive(2.0, 1.0, 1.0).params()),
            initial_ground_state(),
            tol=1e-9,
        )
        psi = dark_state(2.0, 1.0)
        assert np.abs(result.rho - np.outer(psi, psi.conj())).max() <= 1e-6
        assert result.elapsed > 0.0

    def test_uncoupled_product_state(self):
        m = MatchedDrive(2.0, 1.0, 0.0)
        result = steady_state_longtime(
            liouvillian_action(m.params()), initial_ground_state(), tol=1e-9
        )
        assert np.abs(result.rho - analytic_steady_state(m)).max() <= 1e-6

    def test_critical_slowdown_reported(self):
        # a/b -> 1 at ideal coupling: relaxation slows as (a/b-1)^-2
        action = liouvillian_action(MatchedDrive(1.001, 1.0, 1.0).params())
        with pytest.raises(ConvergenceError):
            steady_state_longtime(
                action, initial_ground_state(), tol=1e-10, max_time=5.0
            )

    def test_relaxation_time_scales_with_inverse_square_gap(self):
        # elapsed model time grows roughly as (a/b - 1)^-2
        times = []
        for ratio in (1.4, 1.2):
            b = np.sqrt(5.0 / (1 + ratio**2))
            action = liouvillian_action(MatchedDrive(ratio * b, b, 1.0).params())
            res = steady_state_longtime(action, initial_ground_state(), tol=1e-8)
            times.append(res.elapsed)
        assert times[1] > 1.8 * times[0]


class TestSpectralGap:
    def test_slope_of_gap_vs_drive_ratio(self):
        ratios = [1.05, 1.1, 1.2, 1.4]
        gaps = []
        for r in ratios:
            b = np.sqrt(5.0 / (1 + r * r))
            gaps.append(spectral_gap(liouvillian_action(MatchedDrive(r * b, b, 1.0).params())))
        slope = np.polyfit(np.log(np.array(ratios) - 1.0), np.log(gaps), 1)[0]
        assert abs(slope - 2.0) <= 0.2

    def test_pure_decay_gap_matches_convention(self):
        # a, b=0: slowest nonzero mode is the coherence decay at |a|^2
        for a in (1.0, 1.7):
            gap = spectral_gap(liouvillian_action(MatchedDrive(a, 0.0, 0.5).params()))
            assert abs(gap - a * a) < 1e-8

    def test_quadratic_scaling_in_drive(self):
        base = spectral_gap(liouvillian_action(MatchedDrive(1.7, 1.0, 0.9).params()))
        scaled = spectral_gap(liouvillian_action(MatchedDrive(3.4, 2.0, 0.9).params()))
        assert abs(scaled - 4.0 * base) < 1e-8 * max(1.0, scaled)

    def test_degenerate_zero_detected(self):
        with pytest.raises(DegenerateSteadyState):
            spectral_gap(liouvillian_action(MatchedDrive(1.0, 1.0, 1.0).params()))
