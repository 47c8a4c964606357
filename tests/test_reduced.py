import numpy as np
import pytest
from numpy.testing import assert_allclose

from dataclasses import replace

from casqed.cavity import PhysicalParams, reduced_params
from casqed.dynamics import steady_state_nullspace
from casqed.errors import DegenerateParams, DimensionMismatch, InvalidParams
from casqed.linalg import dagger, unvec
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
    output_flux_operator,
)
from oracles import analytic_reference, liouvillian_apply, liouvillian_matrix, vec_stack

I2 = np.eye(2, dtype=complex)


def rand_herm(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def rand_drive(rng):
    a = rng.normal() + 1j * rng.normal()
    b = rng.normal() + 1j * rng.normal()
    eps = rng.uniform(0.0, 1.0)
    return a, b, eps


def stacked(drives):
    """The drives of a list of one-drive MatchedDrive, as one MatchedDrive of arrays."""
    return MatchedDrive(np.array([complex(d.a) for d in drives], dtype=complex),
                        np.array([complex(d.b) for d in drives], dtype=complex),
                        np.array([d.epsilon for d in drives], dtype=float),
                        np.array([d.cross for d in drives], dtype=bool))


def matched_denominator(a, b, eps):
    x, y = abs(a) ** 2, abs(b) ** 2
    return (x * x + y * y + 2 * (1 + 2 * eps - 4 * eps * eps) * x * y) * (x + y)


class TestParams:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            ReducedParams(1, 1, 1, 1, epsilon=1.5)
        with pytest.raises(ValueError):
            MatchedDrive(1.0, 1.0, epsilon=-0.1)

    def test_zero_drive_rejected(self):
        with pytest.raises(ValueError):
            MatchedDrive(0.0, 0.0)

    def test_amplitude_whose_square_overflows_rejected(self):
        with pytest.raises(InvalidParams, match="not a finite float"):
            MatchedDrive(2e200, 1e200)
        with pytest.raises(InvalidParams, match="not a finite float"):
            ReducedParams(1e200, 1, 1, 1)


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
        # the cavity decay enters the jump operators through the bridge
        # alone: kappa1 -> 4 kappa1 halves R_1 and leaves R_2 as it was
        base = PhysicalParams.symmetric(
            g=110, kappa=14.2, gamma=5.2, Delta=8000, Omega_r=200.0, Omega_s=100.0, epsilon=0.98
        )
        rp = reduced_params(base)
        r1, r2 = jump_operators(rp)
        assert_allclose(r1, np.kron(rp.r1 * SIGMA_MINUS + rp.s1 * SIGMA_PLUS, I2))
        q1, q2 = jump_operators(reduced_params(replace(base, kappa1=4 * base.kappa1)))
        assert_allclose(q1, r1 / 2, rtol=1e-14)
        assert_allclose(q2, r2, rtol=1e-14)


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

    def test_scale_free(self):
        # the formula depends on a/b only; 1e150 cubed would overflow unscaled
        for eps in (0.0, 0.8, 0.98):
            big = analytic_steady_state(MatchedDrive(2e150, 1e150j, eps))
            assert np.abs(big - analytic_steady_state(MatchedDrive(2.0, 1j, eps))).max() <= 1e-12
        unit = analytic_steady_state(MatchedDrive(3.0, 1.0, 0.9, cross=True))
        for b in (1e-150, 1e100, 2.0**500):
            big = analytic_steady_state(MatchedDrive(3 * b, b, 0.9, cross=True))
            assert np.abs(big - unit).max() <= 1e-12

    def test_stack_is_each_drive_alone(self):
        rng = np.random.default_rng(41)
        drives = [MatchedDrive(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)),
                               rng.uniform(), cross=bool(k % 3 == 0)) for k in range(30)]
        stack = analytic_steady_state(stacked(drives))
        assert stack.shape == (30, 4, 4)
        assert np.array_equal(stack, [analytic_steady_state(d) for d in drives])
        assert analytic_steady_state(stacked(drives[:0])).shape == (0, 4, 4)

    def test_stack_names_its_first_degenerate_drive(self):
        drives = [MatchedDrive(2.0, 1.0, 1.0), MatchedDrive(1.5, 1.5, 1.0), MatchedDrive(1.0, 1.0, 1.0)]
        with pytest.raises(DegenerateParams) as alone:
            analytic_steady_state(drives[1])
        with pytest.raises(DegenerateParams) as together:
            analytic_steady_state(stacked(drives))
        assert str(together.value) == str(alone.value)
        assert "|a|=1.5, |b|=1.5, eps=1" in str(alone.value)

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


def bits(rho):
    """The float bits of a state or stack, a zero of either sign read as +0:
    Python's mixed float-complex arithmetic signs its zeros differently
    from one version to the next."""
    return (np.asarray(rho) + 0.0).view(np.uint64)


def random_drives(rng, n, log10_scale=3.0):
    scale = 10.0 ** rng.uniform(-log10_scale, log10_scale, size=(2, n))
    a = (rng.normal(size=n) + 1j * rng.normal(size=n)) * scale[0]
    b = (rng.normal(size=n) + 1j * rng.normal(size=n)) * scale[1]
    eps = rng.uniform(0.0, 1.0, size=n)
    eps[::7], eps[3::11] = 0.0, 1.0
    return a, b, eps


class TestArrayPassBits:
    """The array pass against the drive-by-drive Python-float reference."""

    def assert_same_bits(self, drives):
        stack = analytic_steady_state(stacked(drives))
        assert np.array_equal(bits(stack), bits(analytic_reference(drives)))
        return stack

    @pytest.mark.parametrize("cross", [False, True, "mixed"])
    def test_seeded_random_complex_drives(self, cross):
        rng = np.random.default_rng(1901)
        a, b, eps = random_drives(rng, 3000)
        flags = rng.random(3000) < 0.5 if cross == "mixed" else np.full(3000, cross)
        self.assert_same_bits([MatchedDrive(*d) for d in zip(a, b, eps, flags)])

    def test_real_drive_arrays(self):
        # the physical block hands the pass float arrays
        rng = np.random.default_rng(1902)
        a, b, eps = random_drives(rng, 2000)
        a, b = a.real, -b.real
        stack = analytic_steady_state(MatchedDrive(a, b, eps))
        ref = analytic_reference([MatchedDrive(*d) for d in zip(a, b, eps)])
        assert np.array_equal(bits(stack), bits(ref))

    def test_grid_drives(self):
        # the bare sweep's a = (a/b) b with a complex b, as arrays and one by one
        ratios = np.repeat(np.linspace(0.3, 7.0, 60), 5)
        eps = np.tile([0.0, 0.25, 0.7, 0.98, 1.0], 60)
        b = 0.6 - 1.3j
        stack = analytic_steady_state(MatchedDrive(ratios * b, b, eps, True))
        ref = analytic_reference([MatchedDrive(r * b, b, e, True) for r, e in zip(ratios, eps)])
        assert np.array_equal(bits(stack), bits(ref))

    def test_rescale_edges(self):
        # max(|a|, |b|) at, just inside and just outside 2^-128 and 2^128,
        # and far beyond, where the power-of-two rescale is or is not taken
        drives = []
        for edge in (2.0**-128, 2.0**128):
            for m in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf),
                      edge * 2.0**-40, edge * 2.0**40):
                for ratio in (1.0 / 3.0, 3.0, 0.7j):
                    for eps in (0.0, 0.55, 1.0):
                        drives.append(MatchedDrive(m, m * ratio, eps))
                        drives.append(MatchedDrive(m * ratio * (0.6 + 0.8j), -m, eps, cross=True))
        for m in (1e-150, 1e150, 2.0**500, 2.0**-500):
            drives += [MatchedDrive(m, 2.5 * m, 0.9), MatchedDrive(2j * m, m, 0.0), MatchedDrive(m, 0.0, 1.0)]
        self.assert_same_bits(drives)

    def test_epsilon_zero_and_one(self):
        rng = np.random.default_rng(1903)
        a, b, _ = random_drives(rng, 500)
        for eps in (0.0, 1.0):
            self.assert_same_bits([MatchedDrive(x, y, eps) for x, y in zip(a, b)])

    def test_degenerate_drive_in_a_block_gets_its_own_error(self):
        rng = np.random.default_rng(1904)
        a, b, eps = random_drives(rng, 64)
        drives = [MatchedDrive(*d) for d in zip(a, b, eps)]
        drives[40] = MatchedDrive(0.8 - 0.6j, 1.0, 1.0)   # |a|/|b| = 1 at eps = 1
        with pytest.raises(DegenerateParams) as ref:
            analytic_reference(drives)
        with pytest.raises(DegenerateParams) as got:
            analytic_steady_state(stacked(drives))
        assert str(got.value) == str(ref.value)
        with pytest.raises(DegenerateParams) as alone:
            analytic_steady_state(drives[40])
        assert str(alone.value) == str(ref.value)
        rest = drives[:40] + drives[41:]
        assert np.array_equal(bits(analytic_steady_state(stacked(rest))), bits(analytic_reference(rest)))


class TestDriveArrays:
    def test_invalid_drive_raises_its_own_error(self):
        # elementwise checks name the first failing drive as MatchedDrive would
        for a, b, eps in [(2e200, 1.0, 0.5), (1.0, 1e200j, 0.5), (0.0, 0.0, 0.5), (1.0, 1.0, np.nan),
                          (1.0, 1.0, 1.5)]:
            with pytest.raises(InvalidParams) as alone:
                MatchedDrive(a, b, eps)
            with pytest.raises(InvalidParams) as together:
                MatchedDrive([1.0, a, 3e200], [2.0, b, 1.0], [0.3, eps, 0.3])
            assert str(together.value) == str(alone.value)

    def test_scalars_broadcast_over_the_drives(self):
        drives = MatchedDrive(np.arange(1.0, 6.0), 1.0, 0.5, cross=True)
        assert len(drives) == 5
        assert np.array_equal(analytic_steady_state(drives)[3],
                              analytic_steady_state(MatchedDrive(4.0, 1.0, 0.5, cross=True)))


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
