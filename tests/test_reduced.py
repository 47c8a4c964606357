import numpy as np
import pytest
from numpy.testing import assert_allclose

from casqed.dynamics import steady_state_nullspace
from casqed.errors import DegenerateParams, DimensionMismatch
from casqed.linalg import dagger, unvec, vec_stack
from casqed.metrics import fef_fidelity, purity
from casqed.reduced import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    MatchedDrive,
    ReducedParams,
    analytic_steady_state,
    bell_states,
    cascade_decomposition,
    dark_state,
    initial_ground_state,
    jump_operators,
    liouvillian_action,
    liouvillian_apply,
    liouvillian_matrix,
    output_flux_operator,
)

I2 = np.eye(2, dtype=complex)


def rand_herm(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def rand_drive(rng):
    a = rng.normal() + 1j * rng.normal()
    b = rng.normal() + 1j * rng.normal()
    eps = rng.uniform(0.0, 1.0)
    return a, b, eps


def matched_denominator(a, b, eps):
    x, y = abs(a) ** 2, abs(b) ** 2
    return (x * x + y * y + 2 * (1 + 2 * eps - 4 * eps * eps) * x * y) * (x + y)


class TestParams:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            ReducedParams(1, 1, 1, 1, epsilon=1.5)
        with pytest.raises(ValueError):
            MatchedDrive(1.0, 1.0, epsilon=-0.1)

    def test_kappa_positive(self):
        with pytest.raises(ValueError):
            ReducedParams(1, 1, 1, 1, kappa1=0.0)

    def test_zero_drive_rejected(self):
        with pytest.raises(ValueError):
            MatchedDrive(0.0, 0.0)


class TestJumpOperators:
    def test_matched_substitution(self):
        r1, r2 = jump_operators(MatchedDrive(2.0, 1.0, 1.0).params())
        assert_allclose(r1, np.kron(2 * SIGMA_MINUS + SIGMA_PLUS, I2))
        assert_allclose(r2, np.kron(I2, 2 * SIGMA_MINUS + SIGMA_PLUS))

    def test_pure_decay(self):
        r1, r2 = jump_operators(MatchedDrive(1.5, 0.0, 1.0).params())
        assert_allclose(r1, 1.5 * np.kron(SIGMA_MINUS, I2))
        assert_allclose(r2, 1.5 * np.kron(I2, SIGMA_MINUS))

    def test_cross_configuration_swaps_roles(self):
        r1, r2 = jump_operators(MatchedDrive(2.0, 1.0, 1.0, cross=True).params())
        assert_allclose(r1, np.kron(2 * SIGMA_MINUS + SIGMA_PLUS, I2))
        assert_allclose(r2, np.kron(I2, SIGMA_MINUS + 2 * SIGMA_PLUS))

    def test_kappa_scaling(self):
        p = ReducedParams(beta_r1=3.0, beta_s1=0.0, beta_r2=0.0, beta_s2=0.0,
                          kappa1=9.0, kappa2=1.0)
        r1, _ = jump_operators(p)
        assert_allclose(r1, np.kron(SIGMA_MINUS, I2))


class TestLiouvillianApply:
    def test_analytic_state_is_stationary(self):
        m = MatchedDrive(2.0, 1.0, 0.98)
        rho = analytic_steady_state(m)
        assert np.abs(liouvillian_apply(m.params(), rho)).max() <= 1e-12

    def test_dark_projector_is_stationary(self):
        psi = dark_state(2.0, 1.0)
        rho = np.outer(psi, psi.conj())
        assert np.abs(liouvillian_apply(MatchedDrive(2.0, 1.0, 1.0).params(), rho)).max() <= 1e-13

    def test_independent_decay_of_maximally_mixed(self):
        # a=1, b=0, eps=0: each atom sees D[sigma-] alone, and
        # D[sigma-](I/2) = 2 s- (I/2) s+ - {s+s-, I/2} = |0><0| - |1><1|
        p = MatchedDrive(1.0, 0.0, 0.0).params()
        got = liouvillian_apply(p, np.eye(4, dtype=complex) / 4)
        single = np.diag([-1.0, 1.0]).astype(complex)  # |0><0|-|1><1| on (|1>,|0>)
        expect = np.kron(single, I2 / 2) + np.kron(I2 / 2, single)
        assert_allclose(got, expect, atol=1e-14)
        # cross-check through the materialized superoperator
        via_matrix = unvec(liouvillian_matrix(p) @ vec_stack(np.eye(4) / 4))
        assert_allclose(got, via_matrix, atol=1e-13)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a, b, eps = rand_drive(rng)
            p = MatchedDrive(a, b, eps).params()
            rho = rand_herm(rng)
            out = liouvillian_apply(p, rho)
            assert abs(np.trace(out)) <= 1e-13 * max(1.0, np.abs(rho).max())
            assert np.abs(out - dagger(out)).max() <= 1e-12 * np.abs(out).max()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            liouvillian_apply(MatchedDrive(1, 1, 0.5).params(), np.eye(3))


class TestLiouvillianMatrix:
    def test_consistent_with_apply(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a, b, eps = rand_drive(rng)
            p = MatchedDrive(a, b, eps).params()
            mat = liouvillian_matrix(p)
            rho = rand_herm(rng)
            assert_allclose(
                unvec(mat @ vec_stack(rho)), liouvillian_apply(p, rho), atol=1e-12
            )

    def test_zero_eigenvalue_exists(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            a, b, eps = rand_drive(rng)
            w = np.linalg.eigvals(liouvillian_matrix(MatchedDrive(a, b, eps).params()))
            assert np.min(np.abs(w)) <= 1e-10 * np.abs(w).max()

    def test_spectrum_in_left_half_plane(self):
        w = np.linalg.eigvals(liouvillian_matrix(MatchedDrive(2.0, 1.0, 0.98).params()))
        nonzero = w[np.abs(w) > 1e-10 * np.abs(w).max()]
        assert np.all(nonzero.real < 0.0)


class TestAnalyticSteadyState:
    def test_ideal_coupling_is_pure_dark_state(self):
        rho = analytic_steady_state(MatchedDrive(2.0, 1.0, 1.0))
        assert_allclose(np.diag(rho).real, [0.2, 0.0, 0.0, 0.8], atol=1e-14)
        assert abs(rho[0, 3] - 0.4) < 1e-14
        psi = dark_state(2.0, 1.0)
        assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-14)

    def test_uncoupled_is_a_product_state(self):
        rho = analytic_steady_state(MatchedDrive(2.0, 1.0, 0.0))
        assert_allclose(np.diag(rho).real, np.array([1, 4, 4, 16]) / 25.0, atol=1e-14)
        assert np.abs(rho - np.diag(np.diag(rho))).max() == 0.0
        single = np.diag([0.2, 0.8]).astype(complex)
        assert_allclose(rho, np.kron(single, single), atol=1e-14)

    def test_degenerate_point_raises(self):
        with pytest.raises(DegenerateParams):
            analytic_steady_state(MatchedDrive(1.0, 1.0, 1.0))

    def test_valid_density_matrix_on_grid(self):
        for r in (1.2, 2.0, 3.5):
            for eps in (0.0, 0.3, 0.7, 0.98, 1.0):
                rho = analytic_steady_state(MatchedDrive(r, 1.0, eps))
                assert abs(np.trace(rho) - 1) < 1e-12
                assert np.abs(rho - dagger(rho)).max() < 1e-12
                assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_sparsity_pattern(self):
        rho = analytic_steady_state(MatchedDrive(1.7 + 0.3j, 1.0 - 0.2j, 0.6))
        structural_zeros = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]
        for i, j in structural_zeros:
            assert abs(rho[i, j]) <= 1e-14


class TestStationarityOracle:
    def test_200_random_parameter_points(self):
        rng = np.random.default_rng(1234)
        tested = 0
        while tested < 200:
            a, b, eps = rand_drive(rng)
            if abs(matched_denominator(a, b, eps)) <= 1e-6:
                continue
            m = MatchedDrive(a, b, eps)
            rho = analytic_steady_state(m)
            resid = np.linalg.norm(liouvillian_apply(m.params(), rho))
            assert resid <= 1e-11 * (abs(a) ** 2 + abs(b) ** 2)
            tested += 1

    def test_cross_drive_matches_null_space(self):
        # cross=True is the standard drive conjugated by X on qubit 2; the
        # numeric route solves the cross-drive generator itself
        rng = np.random.default_rng(4321)
        tested = 0
        while tested < 50:
            a, b, eps = rand_drive(rng)
            if abs(matched_denominator(a, b, eps)) <= 1e-6:
                continue
            m = MatchedDrive(a, b, eps, cross=True)
            numeric = steady_state_nullspace(liouvillian_action(m.params()))
            assert np.abs(analytic_steady_state(m) - numeric).max() <= 1e-9
            tested += 1


class TestIdealCouplingInvariants:
    @pytest.mark.parametrize("ratio", [1.5, 2.0, 3.0])
    def test_purity_and_dark_output(self, ratio):
        m = MatchedDrive(ratio, 1.0, 1.0)
        rho = analytic_steady_state(m)
        assert purity(rho) >= 1.0 - 1e-10
        psi = dark_state(ratio, 1.0)
        assert np.abs(rho - np.outer(psi, psi.conj())).max() <= 1e-10
        flux_op = output_flux_operator(m.params())
        flux = np.real(np.trace(rho @ flux_op))
        assert flux <= 1e-12 * (ratio**2 + 1.0)

    def test_phase_covariance(self):
        base = analytic_steady_state(MatchedDrive(2.0, 1.0, 0.9))
        for theta in (0.3, 1.2):
            ph = np.exp(1j * theta)
            rho = analytic_steady_state(MatchedDrive(2.0 * ph, 1.0 * ph, 0.9))
            # common phase leaves the state invariant (conjugation by identity)
            assert_allclose(rho, base, atol=1e-14)
        # a relative phase conjugates by a diagonal unitary: populations fixed
        rho = analytic_steady_state(MatchedDrive(2.0 * np.exp(0.7j), 1.0, 0.9))
        assert_allclose(np.diag(rho), np.diag(base), atol=1e-14)
        assert abs(abs(rho[0, 3]) - abs(base[0, 3])) < 1e-14

    def test_uncoupled_swap_symmetry(self):
        rho = analytic_steady_state(MatchedDrive(1.8, 1.0, 0.0))
        assert abs(rho[0, 3]) == 0.0
        assert abs(rho[1, 2]) == 0.0
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        assert_allclose(swap @ rho @ swap, rho, atol=1e-14)


class TestDarkAndBellStates:
    def test_dark_state_amplitudes(self):
        psi = dark_state(2.0, 1.0)
        assert_allclose(psi, np.array([1.0, 0, 0, 2.0]) / np.sqrt(5.0))

    def test_bell_limits(self):
        phi_p, phi_m, _, _ = bell_states()
        assert_allclose(dark_state(1.0, 1.0), phi_p)
        assert_allclose(dark_state(1.0, -1.0), phi_m)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            dark_state(0.0, 0.0)

    def test_bell_states_orthonormal_and_maximally_entangled(self):
        states = bell_states()
        for i, u in enumerate(states):
            for j, v in enumerate(states):
                assert abs(np.vdot(u, v) - (1.0 if i == j else 0.0)) < 1e-14
        for u in states:
            assert abs(fef_fidelity(np.outer(u, u.conj())) - 1.0) < 1e-12


class TestCascadeDecomposition:
    def test_reproduces_generator(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            a, b, eps = rand_drive(rng)
            p = MatchedDrive(a, b, eps).params()
            j, j_res, h_c = cascade_decomposition(p)
            assert np.abs(h_c - dagger(h_c)).max() <= 1e-12 * max(1.0, np.abs(h_c).max())
            rho = rand_herm(rng)

            def diss(c):
                cd = dagger(c)
                return 2 * c @ rho @ cd - cd @ c @ rho - rho @ cd @ c

            recomposed = -1j * (h_c @ rho - rho @ h_c) + diss(j) + diss(j_res)
            direct = liouvillian_apply(p, rho)
            scale = max(1.0, np.abs(direct).max())
            assert np.abs(recomposed - direct).max() <= 1e-12 * scale

    def test_dark_state_is_dark(self):
        p = MatchedDrive(2.0, 1.0, 1.0).params()
        j, _, h_c = cascade_decomposition(p)
        psi = dark_state(2.0, 1.0)
        assert np.abs(j @ psi).max() <= 1e-13
        assert np.abs(h_c @ psi).max() <= 1e-13

    def test_uncoupled_limit(self):
        p = MatchedDrive(2.0, 1.0, 0.0).params()
        j, j_res, h_c = cascade_decomposition(p)
        _, r2 = jump_operators(p)
        r1, _ = jump_operators(p)
        assert_allclose(j, -r2, atol=1e-14)
        assert_allclose(j_res, r1, atol=1e-14)
        assert np.abs(h_c).max() == 0.0

    def test_dark_output_flux(self):
        m = MatchedDrive(2.0, 1.0, 1.0)
        rho = analytic_steady_state(m)
        j, _, _ = cascade_decomposition(m.params())
        assert np.real(np.trace(rho @ dagger(j) @ j)) <= 1e-12 * 5.0

    def test_nonideal_flux_strictly_positive(self):
        m = MatchedDrive(2.0, 1.0, 0.98)
        rho = analytic_steady_state(m)
        flux = np.real(np.trace(rho @ output_flux_operator(m.params())))
        assert flux > 1e-6


class TestInitialState:
    def test_ground_state(self):
        rho = initial_ground_state()
        assert rho[3, 3] == 1.0
        assert np.trace(rho) == 1.0
        assert abs(fef_fidelity(rho) - 0.5) < 1e-12
