import numpy as np
import pytest
from numpy.testing import assert_allclose

from casqed.errors import DimensionMismatch, NonHermitianInput
from casqed.linalg import (
    TensorSpace,
    dagger,
    embed_at,
    hermitian_eigen,
    partial_trace,
    read_dm,
    unvec,
    vec_stack,
    write_dm,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def rand_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def rand_herm(rng, n):
    a = rand_complex(rng, (n, n))
    return (a + a.conj().T) / 2


def rand_psd(rng, n):
    a = rand_complex(rng, (n, n))
    m = a @ a.conj().T
    return m / np.trace(m)


class TestTensorSpace:
    def test_dim(self):
        assert TensorSpace((2, 2)).dim == 4
        assert TensorSpace((5, 5, 3, 3)).dim == 225

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            TensorSpace((2, 0))
        with pytest.raises(DimensionMismatch):
            TensorSpace(())


class TestKron:
    def test_sigma_z_with_identity(self):
        assert_allclose(np.kron(SZ, I2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_identity(self):
        assert_allclose(np.kron(I2, I2), np.eye(4))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(7)
        a = rand_complex(rng, (3, 3))
        b = rand_complex(rng, (3, 3))
        assert_allclose(np.trace(np.kron(a, b)), np.trace(a) * np.trace(b))

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(8)
        a, b, c, d = (rand_complex(rng, (2, 2)) for _ in range(4))
        assert_allclose(np.kron(a, b) @ np.kron(c, d), np.kron(a @ c, b @ d), atol=1e-13)

    def test_associative_bit_identical(self):
        # integer-valued entries keep every float product exact, so the
        # two association orders must agree bit for bit (layout check)
        rng = np.random.default_rng(9)
        mats = [
            rng.integers(-8, 9, size=(n, n)) + 1j * rng.integers(-8, 9, size=(n, n))
            for n in (2, 3, 2)
        ]
        a, b, c = (m.astype(complex) for m in mats)
        left = np.kron(np.kron(a, b), c)
        right = np.kron(a, np.kron(b, c))
        assert np.array_equal(left, right)


class TestDagger:
    def test_basis_flip(self):
        op = np.zeros((2, 2), complex)
        op[0, 1] = 1.0  # |0><1| in some labeling
        assert_allclose(dagger(op), op.T)

    def test_hermitian_fixed_point(self):
        rng = np.random.default_rng(3)
        h = rand_herm(rng, 4)
        assert_allclose(dagger(h), h)

    def test_anti_linear(self):
        assert_allclose(dagger(1j * I2), -1j * I2)

    def test_involution(self):
        rng = np.random.default_rng(4)
        a = rand_complex(rng, (3, 3))
        assert np.array_equal(dagger(dagger(a)), a)


class TestEmbedAt:
    def test_first_site(self):
        assert_allclose(embed_at(SX, 0, TensorSpace((2, 2))).toarray(), np.kron(SX, I2))

    def test_fock_site(self):
        space = TensorSpace((2, 2, 3, 3))
        a = np.diag(np.sqrt([1.0, 2.0]), 1).astype(complex)
        lifted = embed_at(a, 2, space).toarray()
        expect = np.kron(np.kron(np.kron(I2, I2), a), np.eye(3))
        assert_allclose(lifted, expect)

    def test_identity_embeds_to_identity(self):
        space = TensorSpace((2, 3, 2))
        assert_allclose(embed_at(np.eye(3), 1, space).toarray(), np.eye(12))

    def test_disjoint_supports_commute(self):
        rng = np.random.default_rng(5)
        space = TensorSpace((2, 2))
        a = embed_at(rand_complex(rng, (2, 2)), 0, space).toarray()
        b = embed_at(rand_complex(rng, (2, 2)), 1, space).toarray()
        assert_allclose(a @ b, b @ a, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            embed_at(np.eye(3), 0, TensorSpace((2, 2)))


class TestPartialTrace:
    def test_bell_marginal(self):
        phi = np.zeros(4, complex)
        phi[[0, 3]] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        assert_allclose(partial_trace(rho, TensorSpace((2, 2)), keep={0}), I2 / 2, atol=1e-14)

    def test_product_state(self):
        rng = np.random.default_rng(6)
        ra = rand_psd(rng, 2)
        rb = rand_psd(rng, 3)
        got = partial_trace(np.kron(ra, rb), TensorSpace((2, 3)), keep=[0])
        assert_allclose(got, ra, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        space = TensorSpace((2, 2, 3))
        rho = rand_psd(rng, space.dim)
        for keep in ([0], [1, 2], [0, 2]):
            out = partial_trace(rho, space, keep)
            assert abs(np.trace(out) - np.trace(rho)) <= 1e-12

    def test_errors(self):
        space = TensorSpace((2, 2))
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(3), space, [0])
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), space, [])


class TestHermitianEigen:
    def test_sigma_z(self):
        w, _ = hermitian_eigen(SZ)
        assert_allclose(w, [-1.0, 1.0])

    def test_degenerate_identity(self):
        w, v = hermitian_eigen(np.eye(4) / 4)
        assert_allclose(w, [0.25] * 4)
        assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("n", [4, 16])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            a = rand_herm(rng, n)
            w, v = hermitian_eigen(a)
            resid = np.linalg.norm(a - v @ np.diag(w) @ v.conj().T)
            assert resid <= 1e-10 * np.linalg.norm(a)
            assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-10
            assert np.all(np.diff(w) >= -1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestVec:
    def test_vec_identity(self):
        assert_allclose(vec_stack(I2), [1, 0, 0, 1])

    def test_round_trip_exact(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 64, 256):
            rho = rand_complex(rng, (n, n))
            assert np.array_equal(unvec(vec_stack(rho)), rho)

    def test_sandwich_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a, rho, b = (rand_complex(rng, (2, 2)) for _ in range(3))
            lhs = vec_stack(a @ rho @ b)
            rhs = np.kron(b.T, a) @ vec_stack(rho)
            assert_allclose(lhs, rhs, atol=1e-13)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            vec_stack(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            unvec(np.ones(5))


class TestDmFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        rho = rand_complex(rng, (6, 6))
        path = tmp_path / "state.dm"
        write_dm(path, rho)
        back = read_dm(path)
        assert np.array_equal(back, rho)  # %.17g round-trips doubles exactly

    def test_header(self, tmp_path):
        path = tmp_path / "state.dm"
        write_dm(path, np.eye(2, dtype=complex))
        first = path.read_text().splitlines()[0]
        assert first == "dm 2"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.dm"
        path.write_text("not a dm\n")
        with pytest.raises(DimensionMismatch):
            read_dm(path)
