import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from casqed.errors import DimensionMismatch, InvalidDensityMatrix
from casqed.experiments import TierModel, metric_row
from casqed.linalg import eigvalsh_min
from casqed.metrics import (
    _NEG_TOL,
    MAGIC_BASIS,
    METRIC_COLUMNS,
    _concurrence_svd,
    _fef_eigh,
    _gate,
    concurrence,
    fef_fidelity,
    output_flux,
    purity,
    vn_entropy,
)
from casqed.reduced import MatchedDrive, analytic_steady_state, bell_states, dark_state
from oracles import OFF_X, fef_oracle


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


def x_state(pops, coh_ab=0.0, coh_cd=0.0):
    """The X-state with the populations (aa, bb, cc, dd) of the parity pairs
    (a, b) = (|11>, |00>) and (c, d) = (|10>, |01>), and the coherences
    <11|rho|00> and <10|rho|01>."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[3, 3], rho[1, 1], rho[2, 2] = pops
    rho[0, 3], rho[1, 2] = coh_ab, coh_cd
    rho[3, 0], rho[2, 1] = np.conj(coh_ab), np.conj(coh_cd)
    return rho


def path_of(rho) -> str:
    """"x" or "general": the path of one 4 x 4 matrix, read off its entries."""
    return "general" if np.any(rho[OFF_X]) else "x"


@st.composite
def x_states(draw):
    """Trace-one X-states: each coherence a fraction (1 included: a rank
    deficient block) of the largest its pair's populations allow."""
    weights = np.array([draw(st.floats(0.0, 1.0)) for _ in range(4)])
    assume(weights.sum() > 0.0)
    p = weights / weights.sum()
    fraction = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    phase = st.floats(0.0, 2.0 * np.pi)
    coh = [draw(fraction) * np.sqrt(p[i] * p[i + 1]) * np.exp(1j * draw(phase)) for i in (0, 2)]
    return x_state(p, *coh)


EPS = np.finfo(float).eps
# eigh and eigvalsh are backward stable: their eigenvalues are exact for
# rho + E with ||E||_2 <= c n eps ||rho||_2, so by Weyl's inequality within
# that of the exact ones (c = 4 for n = 4; the closed forms round a few
# times on the same scale).  The SVD route of the concurrence takes square
# roots of eigenvalues known to delta = c n eps ||rho||_2, so of sqrt(rho)
# to sqrt(delta); each singular value lambda_i then moves by at most
# 2 ||sqrt(rho)||_2 sqrt(delta), and C = lambda_1 - ... - lambda_4 by four
# times that: 8 sqrt(c n eps) ||rho||_2, which a rank-deficient state
# reaches in order of magnitude.
EIG_TOL = 4 * 4 * EPS
CONCURRENCE_TOL = 8 * np.sqrt(4 * 4 * EPS)


def assert_routes_agree(rho):
    """The X-state ``rho`` takes the closed forms, and they agree with the
    eigen route within the bounds above."""
    x, pairs, _ = _gate(rho, dim=4)
    assert x.tolist() == [True]
    norm = np.linalg.norm(rho, 2)
    assert abs(fef_fidelity(rho) - _fef_eigh(rho[None])[0]) <= EIG_TOL * norm
    assert abs(pairs.lowest()[0] - eigvalsh_min(rho)) <= EIG_TOL * norm
    assert abs(concurrence(rho) - _concurrence_svd(rho)) <= CONCURRENCE_TOL * norm


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


class TestXStatePath:
    """X-states take the closed forms; every other matrix the eigen route."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rho=x_states())
    def test_closed_forms_match_the_eigen_route(self, rho):
        assert_routes_agree(rho)

    @pytest.mark.parametrize("rho", [
        pytest.param(x_state((0.1, 0.2, 0.3, 0.4)), id="zero-coherences"),
        pytest.param(x_state((0.25,) * 4, 0.1, 0.2j), id="equal-populations"),
        pytest.param(x_state((0.25,) * 4), id="maximally-mixed"),
        *[pytest.param(proj(v), id=f"bell-{k}") for k, v in enumerate(bell_states())],
        pytest.param(analytic_steady_state(MatchedDrive(2.0, 1.0, 1.0)), id="dark-eps-1"),
        pytest.param(proj(dark_state(3.0, 1.0 - 1.0j)), id="dark-complex"),
    ])
    def test_edge_cases(self, rho):
        assert_routes_agree(rho)
        assert fef_oracle(rho, samples=500, seed=0) <= fef_fidelity(rho) + 1e-12

    def test_bell_states(self):
        for psi in bell_states():
            assert abs(fef_fidelity(proj(psi)) - 1.0) <= EIG_TOL
            assert abs(concurrence(proj(psi)) - 1.0) <= EIG_TOL

    def test_oracle_is_a_lower_bound(self):
        rng = np.random.default_rng(51)
        for k in range(4):
            p = rng.dirichlet(np.ones(4))
            rho = x_state(p, rng.uniform() * np.sqrt(p[0] * p[1]) * 1j,
                          -rng.uniform() * np.sqrt(p[2] * p[3]))
            fef, low = fef_fidelity(rho), fef_oracle(rho, samples=2000, seed=k)
            assert low <= fef + 1e-12
            assert fef - low <= 1e-3

    @pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_positivity_gate_at_its_threshold(self, side):
        # the (c, d) block has eigenvalues 0.2 +- |h|: its lower one sits a
        # thousandth of the threshold above or below -_NEG_TOL, and a
        # Hadamard on qubit 1 gives the eigen route the same spectrum
        rho = x_state((0.3, 0.3, 0.2, 0.2), 0.0, 0.2 + side * _NEG_TOL)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        u = np.kron(hadamard, np.eye(2))
        rotated = u @ rho @ u.T
        assert (path_of(rho), path_of(rotated)) == ("x", "general")
        for state in (rho, rotated):
            if side > 1.0:
                with pytest.raises(InvalidDensityMatrix, match="positivity gate"):
                    fef_fidelity(state)
            else:
                assert abs(fef_fidelity(state) - (0.4 + side * _NEG_TOL)) <= EIG_TOL

    def test_path_is_decided_by_the_off_x_entries_alone(self):
        rng = np.random.default_rng(52)
        rho = analytic_steady_state(MatchedDrive(2.0 + 0.5j, 1.0, 0.9))
        tiny = rho.copy()
        tiny[0, 1] = tiny[1, 0] = 1e-300
        nan = rho.copy()
        nan[1, 3] = np.nan
        assert _gate(rho)[0].tolist() == [True]
        assert _gate(tiny)[0].tolist() == [False]
        assert fef_fidelity(tiny) == _fef_eigh(tiny[None])[0]
        assert _gate(np.array([rho, rand_state(rng), tiny]), stack=True)[0].tolist() == [True, False, False]
        assert _gate(np.eye(2) / 2)[0].tolist() == [False]   # not two qubits
        assert path_of(nan) == "general"
        with pytest.raises(InvalidDensityMatrix, match="not hermitian"):
            fef_fidelity(nan)

    def test_mixed_stack_takes_each_state_its_path(self):
        rng = np.random.default_rng(53)
        drives = MatchedDrive(rng.uniform(1.1, 4.0, 12), 1.0, rng.uniform(0.0, 1.0, 12),
                              cross=rng.uniform(size=12) < 0.5)
        general = np.array([rand_state(rng) for _ in range(12)])
        stack = np.empty((24, 4, 4), dtype=complex)
        stack[0::2], stack[1::2] = analytic_steady_state(drives), general
        x, pairs, herm = _gate(stack, stack=True)
        assert x.tolist() == [True, False] * 12
        fids = fef_fidelity(stack)
        assert fids.tolist() == [fef_fidelity(rho) for rho in stack]
        assert fids[0::2].tolist() == pairs.fef().tolist()
        assert fids[1::2].tolist() == _fef_eigh(herm).tolist()

    @pytest.mark.parametrize("first, later", [
        pytest.param("x-negative", "general-trace", id="x-then-eigen"),
        pytest.param("general-negative", "x-trace", id="eigen-then-x"),
        pytest.param("x-trace", "general-negative", id="x-trace-then-eigen"),
        pytest.param("general-hermitian", "x-negative", id="eigen-hermitian-then-x"),
    ])
    def test_stack_raises_its_first_invalid_matrix_across_paths(self, first, later):
        rng = np.random.default_rng(54)
        general_negative = np.eye(4, dtype=complex) / 4
        general_negative[0, 1] = general_negative[1, 0] = 0.5
        general_hermitian = rand_state(rng)
        general_hermitian[0, 2] += 1e-6
        invalid = {
            "x-negative": x_state((0.6, -0.1, 0.25, 0.25)),
            "x-trace": x_state((0.5, 0.25, 0.25, 0.25), 0.1),
            "general-negative": general_negative,
            "general-trace": 1.25 * rand_state(rng),
            "general-hermitian": general_hermitian,
        }
        for name, rho in invalid.items():
            assert path_of(rho) == name.split("-")[0]
        with pytest.raises(InvalidDensityMatrix) as alone:
            fef_fidelity(invalid[first])
        stack = np.array([x_state((0.25,) * 4), invalid[first], rand_state(rng), invalid[later]])
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
