import numpy as np
import pytest
from numpy.testing import assert_allclose

from casqed.errors import DimensionMismatch, InvalidDensityMatrix
from casqed.experiments import TierModel, metric_row
from casqed.metrics import (
    MAGIC_BASIS,
    METRIC_COLUMNS,
    concurrence,
    fef_fidelity,
    output_flux,
    purity,
    vn_entropy,
)
from casqed.reduced import MatchedDrive, analytic_steady_state, bell_states, dark_state
from oracles import fef_oracle


def proj(psi):
    return np.outer(psi, psi.conj())


def rand_state(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def rand_unitary(rng, n=2):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dark_fef(a, b):
    # pure-state identity: (|a|+|b|)^2 / (2(|a|^2+|b|^2))
    return (abs(a) + abs(b)) ** 2 / (2 * (abs(a) ** 2 + abs(b) ** 2))


def dark_concurrence(a, b):
    return 2 * abs(a * b) / (abs(a) ** 2 + abs(b) ** 2)


class TestMagicBasis:
    def test_orthonormal(self):
        assert_allclose(MAGIC_BASIS.conj().T @ MAGIC_BASIS, np.eye(4), atol=1e-14)

    def test_columns_maximally_entangled(self):
        for k in range(4):
            rho = proj(MAGIC_BASIS[:, k])
            assert abs(fef_fidelity(rho) - 1.0) < 1e-12


class TestFefFidelity:
    def test_bell(self):
        phi_p, *_ = bell_states()
        assert abs(fef_fidelity(proj(phi_p)) - 1.0) < 1e-12

    def test_maximally_mixed_floor(self):
        assert abs(fef_fidelity(np.eye(4) / 4) - 0.25) < 1e-12

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (3.0, 1.0), (1.5, 1.0)])
    def test_dark_state_values(self, a, b):
        rho = proj(dark_state(a, b))
        assert abs(fef_fidelity(rho) - dark_fef(a, b)) < 1e-10

    def test_product_state_alignment_oracle(self):
        # independent closed form for product states: the maximum overlap
        # is half the sorted-eigenvalue alignment of the two marginals
        rho_a = np.diag([0.2, 0.8]).astype(complex)
        rho = np.kron(rho_a, rho_a)
        expect = (0.8 * 0.8 + 0.2 * 0.2) / 2
        assert abs(fef_fidelity(rho) - expect) < 1e-12
        assert abs(fef_oracle(rho, samples=4000, seed=1) - expect) < 1e-3

    def test_matches_oracle_on_random_states(self):
        rng = np.random.default_rng(21)
        for k in range(6):
            rho = rand_state(rng)
            fef = fef_fidelity(rho)
            low = fef_oracle(rho, samples=3000, seed=k)
            assert low <= fef + 1e-9
            assert fef - low <= 1e-3

    def test_rejects_invalid(self):
        with pytest.raises(InvalidDensityMatrix):
            fef_fidelity(np.eye(4))  # trace 4
        with pytest.raises(InvalidDensityMatrix):
            fef_fidelity(np.diag([1.5, -0.5, 0, 0]).astype(complex))
        for bad in ((0, 0), (1, 2)):   # NaN on and off the diagonal
            rho = np.diag([1.0, 0, 0, 0]).astype(complex)
            rho[bad] = np.nan
            with pytest.raises(InvalidDensityMatrix):
                fef_fidelity(rho)

    def test_stack_matches_each_state_bit_for_bit(self):
        rng = np.random.default_rng(40)
        r, e, c = np.meshgrid((1.3, 2.0, 3.7), (0.0, 0.8, 1.0), (False, True), indexing="ij")
        drives = MatchedDrive(r.ravel(), 1.0, e.ravel(), cross=c.ravel())
        stack = np.concatenate([analytic_steady_state(drives), [rand_state(rng) for _ in range(20)]])
        fids = fef_fidelity(stack)
        assert fids.shape == (len(stack),)
        assert fids.tolist() == [fef_fidelity(rho) for rho in stack]
        assert fef_fidelity(stack[:0]).shape == (0,)

    @pytest.mark.parametrize("entry, value", [
        pytest.param((0, 0), 1.25, id="trace"),
        pytest.param((1, 2), np.nan, id="nan"),
        pytest.param((1, 2), 0.5, id="negative-eigenvalue"),
        pytest.param((0, 3), 1e-6, id="non-hermitian"),
    ])
    def test_stack_raises_the_message_of_its_invalid_matrix(self, entry, value):
        bad = np.eye(4, dtype=complex) / 4
        bad[entry] = value
        if entry != (0, 3):
            bad[entry[::-1]] = value
        with pytest.raises(InvalidDensityMatrix) as alone:
            fef_fidelity(bad)
        stack = np.array([np.eye(4) / 4] * 5, dtype=complex)
        stack[2] = bad
        # a later matrix that fails the trace check does not mask it
        stack[4, 0, 0] = 2.0
        with pytest.raises(InvalidDensityMatrix) as stacked:
            fef_fidelity(stack)
        assert str(stacked.value) == str(alone.value)


class TestFefOracle:
    def test_bell_near_saturation(self):
        phi_p, *_ = bell_states()
        assert fef_oracle(proj(phi_p), samples=10_000, seed=0) >= 0.999

    def test_maximally_mixed_exact(self):
        # every candidate overlap is 0.25 up to the norm roundoff of |phi_U>
        assert abs(fef_oracle(np.eye(4) / 4, samples=50, seed=0) - 0.25) < 1e-12

    def test_werner_state(self):
        phi_p, *_ = bell_states()
        rho = 0.5 * proj(phi_p) + 0.5 * np.eye(4) / 4
        assert abs(fef_oracle(rho, samples=10_000, seed=0) - 0.625) < 1e-3

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        rho = rand_state(rng)
        assert fef_oracle(rho, samples=500, seed=9) == fef_oracle(rho, samples=500, seed=9)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            fef_oracle(np.eye(4) / 4, samples=0)


class TestConcurrence:
    def test_bell(self):
        phi_p, *_ = bell_states()
        assert abs(concurrence(proj(phi_p)) - 1.0) < 1e-12

    def test_separable(self):
        assert concurrence(np.eye(4) / 4) == 0.0

    def test_dark_state(self):
        assert abs(concurrence(proj(dark_state(2.0, 1.0))) - 0.8) < 1e-10

    def test_pure_state_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            rho = proj(dark_state(a, b))
            assert abs(concurrence(rho) - dark_concurrence(a, b)) < 1e-10


class TestEntropyPurity:
    def test_pure(self):
        phi_p, *_ = bell_states()
        rho = proj(phi_p)
        assert abs(vn_entropy(rho)) < 1e-10
        assert abs(purity(rho) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(vn_entropy(np.eye(4) / 4) - 2.0) < 1e-12
        assert abs(purity(np.eye(4) / 4) - 0.25) < 1e-12

    def test_uncoupled_steady_state_entropy(self):
        # eps = 0 steady state is a product of diag(1/5, 4/5) marginals:
        # entropy = 2 H2(4/5)
        h2 = -(0.8 * np.log2(0.8) + 0.2 * np.log2(0.2))
        rho = analytic_steady_state(MatchedDrive(2.0, 1.0, 0.0))
        assert abs(vn_entropy(rho) - 2 * h2) < 1e-10
        assert abs(vn_entropy(rho) - 1.44385618977) < 1e-8


class TestInvariance:
    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = rand_state(rng)
            u = np.kron(rand_unitary(rng), rand_unitary(rng))
            rho2 = u @ rho @ u.conj().T
            assert abs(fef_fidelity(rho2) - fef_fidelity(rho)) < 1e-10
            assert abs(concurrence(rho2) - concurrence(rho)) < 1e-10
            assert abs(vn_entropy(rho2) - vn_entropy(rho)) < 1e-10
            assert abs(purity(rho2) - purity(rho)) < 1e-10

    def test_werner_mixing_linearity(self):
        rng = np.random.default_rng(24)
        eye4 = np.eye(4) / 4
        for _ in range(10):
            rho = rand_state(rng)
            f = fef_fidelity(rho)
            for p in (0.25, 0.5, 0.9):
                mixed = p * rho + (1 - p) * eye4
                assert abs(fef_fidelity(mixed) - (p * f + (1 - p) / 4)) < 1e-10


class TestFluxAndReport:
    def test_vacuum_flux(self):
        op = np.diag([0.0, 2.0, 4.0]).astype(complex)
        vac = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert output_flux(vac, op) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            output_flux(np.eye(4) / 4, np.eye(3))

    def test_report_columns(self):
        assert METRIC_COLUMNS == ("fidelity", "concurrence", "entropy_bits", "purity", "flux_per_us")
        # a two-qubit model with flux operator I/2: tr(I/4 I/2) = 0.5
        model = TierModel(None, None, np.eye(4) / 2, None)
        row = metric_row(model, np.eye(4) / 4)
        assert_allclose(row, [0.25, 0.0, 2.0, 0.25, 0.5], atol=1e-12)
