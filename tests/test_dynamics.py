import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from casqed import dynamics
from casqed.errors import ConvergenceError, DegenerateSteadyState, IntegrationError, ParityError
from casqed.dynamics import (
    _PROBE_LIMIT,
    _SYLVESTER_LEAF,
    LiouvillianAction,
    _BorderedSectors,
    _error_norm,
    integrate,
    liouvillian_from_operators,
    steady_state_longtime,
    steady_state_nullspace,
    triangular_sylvester,
)
from casqed.linalg import dagger
from casqed.metrics import fef_fidelity
from casqed.reduced import (
    MatchedDrive,
    analytic_steady_state,
    dark_state,
    initial_ground_state,
    jump_operators,
    liouvillian_action,
)
from oracles import liouvillian_matrix


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

    @pytest.mark.parametrize("times", [[0.0], [0.0, 0.0, 0.0], [2.0, 2.0]])
    def test_zero_span_returns_rho0_without_the_generator(self, times):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho0 = a @ a.conj().T
        rho0 = (rho0 + rho0.conj().T) / (2.0 * np.trace(rho0).real)   # both sectors occupied
        action = liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params())
        inner, calls = action.matvec, []
        action.matvec = lambda v: calls.append(1) or inner(v)
        traj = integrate(action, rho0, times)
        assert not calls
        assert len(traj.states) == len(times)
        for state in traj.states:
            assert np.array_equal(state, rho0)

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

    def test_hand_built_and_parity_free_generators_take_one_path(self):
        # without a declared parity there is one sector: integrate hands matvec
        # all d^2 real coordinates, for a hand-built action as for a built one
        declared = liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params())
        plain = liouvillian_from_operators(*declared.meta["operators"], declared.rate_scale)
        for action in (zero_action(), plain):
            inner, seen = action.matvec, []

            def counted(v, inner=inner, seen=seen):
                seen.append((v.dtype, v.size))
                return inner(v)

            action.matvec = counted
            traj = integrate(action, initial_ground_state(), np.linspace(0.0, 1.0, 3))
            assert seen and set(seen) == {(np.dtype(float), 16)}
            assert all(np.array_equal(state, dagger(state)) for state in traj.states)

    @pytest.mark.parametrize("sectors", ["even", "both"])
    def test_error_norm_is_the_rms_over_every_entry(self, sectors):
        # the norm on coordinates is the RMS over all d^2 column-stacked
        # entries of the matrices they stand for, so integrate takes the
        # steps it would take on the full state
        act = liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params())
        coords, d = act.coordinates, act.dim
        rng = np.random.default_rng(71)
        n = coords.sizes[0] if sectors == "even" else d * d
        e, y, y5 = (rng.normal(size=n) * 10.0 ** rng.integers(-9, 1, size=n) for _ in range(3))
        abs_tol, rel_tol = 1e-8, 1e-6
        ev, yv, y5v = (np.abs(coords.vec(x)) for x in (e, y, y5))
        ref = np.sqrt(np.mean((ev / (abs_tol + rel_tol * np.maximum(yv, y5v))) ** 2))
        got = _error_norm(e, y, y5, d, abs_tol, rel_tol)
        assert abs(got - ref) <= 1e-14 * ref

    def test_exhausted_krylov_space_is_the_exact_exponential(self):
        # the reduced generator's occupied sector is shorter than a Krylov
        # basis, so every step spans an invariant space and is exact
        p = MatchedDrive(2.0, 1.0, 0.98).params()
        rho0 = initial_ground_state()
        times = np.linspace(0.0, 1000.0, 11)
        traj = integrate(liouvillian_action(p), rho0, times)
        gen = liouvillian_matrix(p)
        for t, rho in zip(times, traj.states):
            exact = scipy.linalg.expm(gen * t) @ rho0.reshape(-1, order="F")
            assert np.linalg.norm(rho - exact.reshape((4, 4), order="F")) <= 1e-12

    @pytest.mark.parametrize("bad_call", [1, 5])
    def test_non_finite_generator_raises(self, bad_call):
        # a NaN from the generator, at a step's first call or inside its
        # Krylov basis, ends the run instead of shrinking the step forever
        action = liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params())
        inner, calls = action.matvec, []

        def poisoned(v):
            calls.append(1)
            return inner(v) * (np.nan if len(calls) == bad_call else 1.0)

        action.matvec = poisoned
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate(action, initial_ground_state(), [0.0, 1.0])
        assert len(calls) == bad_call

    def test_rejects_bad_initial_state(self):
        action = zero_action()
        with pytest.raises(IntegrationError):
            integrate(action, np.eye(4, dtype=complex), [0.0, 1.0])  # trace 4
        with pytest.raises(IntegrationError):
            integrate(action, np.eye(4, dtype=complex) / 4, [1.0, 0.0])  # descending

    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.nan], [0.0, np.inf]])
    def test_rejects_non_finite_times(self, times):
        # a NaN compares false with everything, so "no descending step" held
        # for [0, nan], and rho0 came back labelled t = nan
        action = liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params())
        with pytest.raises(IntegrationError, match="finite"):
            integrate(action, initial_ground_state(), times)


class TestSteadyStateNullspace:
    def test_matches_analytic(self):
        m = MatchedDrive(2.0, 1.0, 0.98)
        rho = steady_state_nullspace(liouvillian_action(m.params()))
        assert np.abs(rho - analytic_steady_state(m)).max() <= 1e-10

    def test_degenerate_point_detected(self):
        with pytest.raises(DegenerateSteadyState):
            steady_state_nullspace(liouvillian_action(MatchedDrive(1.0, 1.0, 1.0).params()))

    def test_only_a_kept_state_is_probed_and_returned(self):
        # a state keep rejects comes back as None, unprobed; one it keeps is
        # probed, so a degenerate generator still raises
        action = liouvillian_action(MatchedDrive(1.0, 1.0, 1.0).params())
        seen = []
        assert steady_state_nullspace(action, keep=lambda rho: seen.append(rho) or False) is None
        assert len(seen) == 1 and seen[0].shape == (4, 4) and abs(np.trace(seen[0]) - 1.0) <= 1e-12
        with pytest.raises(DegenerateSteadyState):
            steady_state_nullspace(action, keep=lambda rho: True)
        m = MatchedDrive(2.0, 1.0, 0.98)
        kept = steady_state_nullspace(liouvillian_action(m.params()), keep=lambda rho: True)
        assert np.array_equal(kept, steady_state_nullspace(liouvillian_action(m.params())))

    def test_overflow_raises(self):
        # the generator grows as b^2: at b = 1e80 the solve overflows, and
        # must raise rather than return a state of NaNs
        with pytest.raises(ConvergenceError, match="overflowed"):
            steady_state_nullspace(liouvillian_action(MatchedDrive(2e80, 1e80, 0.98).params()))

    def test_target_below_the_rounding_floor_accepts_a_backward_stable_state(self, monkeypatch):
        # no solve reaches a relative residual of 1e-18: GMRES stops short of
        # it, and the state is accepted on its normwise backward error
        act = liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params())
        ref = steady_state_nullspace(act)
        errors = []
        backward_error = _BorderedSectors.backward_error

        def recorded(self, x, b):
            errors.append(backward_error(self, x, b))
            return errors[-1]

        monkeypatch.setattr(_BorderedSectors, "backward_error", recorded)
        monkeypatch.setattr(dynamics, "_GMRES_RTOL", 1e-18)
        rho = steady_state_nullspace(act)
        assert len(errors) == 1 and errors[0] <= dynamics._BACKWARD_TOL
        assert np.abs(rho - ref).max() <= 1e-13

    def test_unconverged_solve_reports_its_iterations(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_GMRES_RESTART", 3)
        monkeypatch.setattr(dynamics, "_GMRES_CYCLES", 1)
        with pytest.raises(ConvergenceError, match="in 3 iterations"):
            steady_state_nullspace(liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params()))

    def test_agrees_with_longtime(self):
        m = MatchedDrive(1.6, 1.0, 0.9)
        action = liouvillian_action(m.params())
        ns = steady_state_nullspace(action)
        lt = steady_state_longtime(action, initial_ground_state(), tol=1e-10)
        assert np.linalg.norm(ns - lt.rho) <= 1e-6


class TestParity:
    def test_broken_parity_raises(self):
        r1, r2 = jump_operators(MatchedDrive(2.0, 1.0, 0.98).params())   # both odd
        par = {"parity": np.kron([-1.0, 1.0], [-1.0, 1.0])}
        zero = np.zeros((4, 4), dtype=complex)
        cascade = (0.5, r1, r2)
        liouvillian_from_operators(zero, [(1.0, r1)], cascade, 1.0, meta=par)
        with pytest.raises(ParityError):   # odd Hamiltonian: K not block-diagonal
            liouvillian_from_operators(r1 + dagger(r1), [(1.0, r1)], cascade, 1.0, meta=par)
        with pytest.raises(ParityError):   # a jump with even and odd parts
            liouvillian_from_operators(zero, [(1.0, r1 + np.eye(4))], cascade, 1.0, meta=par)
        with pytest.raises(ParityError):   # cascade pair of opposite parity
            liouvillian_from_operators(zero, [(1.0, r1)], (0.5, r1, r1 @ r2), 1.0, meta=par)
        # undeclared: all even, which every operator is
        act = liouvillian_from_operators(r1 + dagger(r1), [(1.0, r1 + np.eye(4))], cascade, 1.0)
        assert np.array_equal(act.meta["parity"], np.ones(4))

    def test_undeclared_parity_gives_the_same_state(self):
        declared = liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params())
        ops = declared.meta["operators"]
        plain = liouvillian_from_operators(*ops, rate_scale=declared.rate_scale)
        assert _BorderedSectors(plain).size["odd"] == 0
        rho = steady_state_nullspace(plain)
        assert np.abs(rho - steady_state_nullspace(declared)).max() <= 1e-13

    def test_odd_sector_degeneracy_detected(self):
        # D[sigma_x] on a qubit with P = sigma_z: the even sector relaxes to
        # I/2, but sigma_x (odd) is a second steady state
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        act = liouvillian_from_operators(zero, [(1.0, sx)], (0.0, zero, zero), 1.0,
                                         meta={"parity": np.array([1.0, -1.0])})
        sectors = _BorderedSectors(act)
        assert sectors.probe("even")[0] < 1e-6 * _PROBE_LIMIT
        assert sectors.probe("odd")[0] > _PROBE_LIMIT
        with pytest.raises(DegenerateSteadyState, match="odd sector"):
            steady_state_nullspace(act)


def _schur_upper(rng, k):
    # the triangular factor of a matrix with spectrum near -2.5, as the
    # shifted no-jump generators have (Re <= -s/2)
    g = (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))) / np.sqrt(2 * k)
    return scipy.linalg.schur(g - 2.5 * np.eye(k), output="complex")[0]


class TestTriangularSylvester:
    @pytest.mark.parametrize("m,n", [
        (7, 12), (_SYLVESTER_LEAF, _SYLVESTER_LEAF), (_SYLVESTER_LEAF + 1, 9),
        (30, 2 * _SYLVESTER_LEAF + 5), (3 * _SYLVESTER_LEAF, 3 * _SYLVESTER_LEAF - 1),
    ])
    def test_matches_trsyl(self, m, n):
        rng = np.random.default_rng(1000 * m + n)
        a, b = _schur_upper(rng, m), _schur_upper(rng, n)
        c = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        (trsyl,) = scipy.linalg.get_lapack_funcs(("trsyl",), (a,))
        ref, scale, info = trsyl(a, b, c, trana="C", tranb="N")
        assert info == 0
        ref = ref / scale
        x = triangular_sylvester(a, b, c)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.linalg.norm(dagger(a) @ x + x @ b - c) <= 1e-13 * np.linalg.norm(c)


class TestOccupiedSectors:
    def _counted(self, action, rho0, times):
        inner, calls = action.matvec, []

        def counted(v):
            calls.append(1)
            return inner(v)

        action.matvec = counted
        return integrate(action, rho0, times), len(calls)

    def test_state_in_both_sectors_matches_the_full_space_path(self):
        # a full-rank state fills both parity sectors; the same generator
        # without a declared parity is one sector, all 16 entries
        action = liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params())
        stripped = liouvillian_from_operators(*action.meta["operators"], action.rate_scale)
        rng = np.random.default_rng(68)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
        times = np.linspace(0.0, 2.0, 5)
        traj, calls = self._counted(action, rho0, times)
        oracle, oracle_calls = self._counted(stripped, rho0, times)
        assert calls == oracle_calls
        for rho, ref in zip(traj.states, oracle.states):
            assert np.linalg.norm(rho - ref) <= 1e-13


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


def spectral_gap(p):
    """Smallest |Re lambda| over the nonzero eigenvalues of the reduced
    generator, with eigenvalues within 1e-10 of the largest |lambda| taken
    as zero; raises DegenerateSteadyState unless exactly one is."""
    w = np.linalg.eigvals(liouvillian_matrix(p))
    zero = np.abs(w) <= 1e-10 * np.abs(w).max()
    if zero.sum() != 1:
        raise DegenerateSteadyState(f"expected exactly one zero eigenvalue, found {zero.sum()}")
    return float(np.min(np.abs(w[~zero].real)))


class TestSpectralGap:
    def test_slope_of_gap_vs_drive_ratio(self):
        ratios = [1.05, 1.1, 1.2, 1.4]
        gaps = []
        for r in ratios:
            b = np.sqrt(5.0 / (1 + r * r))
            gaps.append(spectral_gap(MatchedDrive(r * b, b, 1.0).params()))
        slope = np.polyfit(np.log(np.array(ratios) - 1.0), np.log(gaps), 1)[0]
        assert abs(slope - 2.0) <= 0.2

    def test_pure_decay_gap_matches_convention(self):
        # a, b=0: slowest nonzero mode is the coherence decay at |a|^2
        for a in (1.0, 1.7):
            gap = spectral_gap(MatchedDrive(a, 0.0, 0.5).params())
            assert abs(gap - a * a) < 1e-8

    def test_quadratic_scaling_in_drive(self):
        base = spectral_gap(MatchedDrive(1.7, 1.0, 0.9).params())
        scaled = spectral_gap(MatchedDrive(3.4, 2.0, 0.9).params())
        assert abs(scaled - 4.0 * base) < 1e-8 * max(1.0, scaled)

    def test_degenerate_zero_detected(self):
        with pytest.raises(DegenerateSteadyState):
            spectral_gap(MatchedDrive(1.0, 1.0, 1.0).params())
