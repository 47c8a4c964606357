"""Two-qubit entanglement and state metrics.

The qubit ordering convention matches the rest of the package: each
qubit's basis is (|1>, |0>) and the joint basis is
{|1 1>, |1 0>, |0 1>, |0 0>}.

Fidelity here means the fully entangled fraction (maximal singlet
fraction): the largest overlap of the state with any maximally
entangled two-qubit state.  It has a closed form -- the largest
eigenvalue of the real part of the state written in the magic basis --
and an independent lower-bound oracle that maximizes the overlap over
sampled maximally entangled states.  If the two ever disagree beyond
tolerance, trust the oracle and investigate; do not patch either one.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidDensityMatrix
from .linalg import dagger, eigvalsh_min, hermitian_eigen

#: CSV column names, in output order.
METRIC_COLUMNS = ("fidelity", "concurrence", "entropy_bits", "purity", "flux_per_us")

# joint basis indices: 0 = |1 1>, 1 = |1 0>, 2 = |0 1>, 3 = |0 0>
_K11, _K10, _K01, _K00 = np.eye(4, dtype=complex)

#: Magic basis: Bell states with phases chosen so that every maximally
#: entangled state is a real combination of the columns.
MAGIC_BASIS = np.stack(
    [
        (_K00 + _K11) / np.sqrt(2.0),
        1j * (_K00 - _K11) / np.sqrt(2.0),
        1j * (_K01 + _K10) / np.sqrt(2.0),
        (_K01 - _K10) / np.sqrt(2.0),
    ],
    axis=1,
)

# sigma_y on the (|1>, |0>) ordered single-qubit basis
_SY = np.array([[0.0, 1j], [-1j, 0.0]])
_SYSY = np.kron(_SY, _SY)

# validity gate thresholds (integrator outputs carry bounded noise)
_TRACE_TOL = 1e-8
_HERM_TOL = 1e-8
_NEG_TOL = 1e-7


def _validated(rho, dim=None) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidDensityMatrix(f"expected a square matrix, got shape {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise InvalidDensityMatrix(f"expected a {dim}x{dim} density matrix, got {rho.shape}")
    # "not <=": a NaN entry makes the trace or the hermiticity defect NaN
    if not abs(np.trace(rho) - 1.0) <= _TRACE_TOL:
        raise InvalidDensityMatrix(f"trace {np.trace(rho)} is not 1 within {_TRACE_TOL}")
    if not np.abs(rho - dagger(rho)).max() <= _HERM_TOL:
        raise InvalidDensityMatrix("matrix is not hermitian within tolerance")
    if eigvalsh_min(rho) < -_NEG_TOL:
        raise InvalidDensityMatrix("matrix has an eigenvalue below the positivity gate")
    return (rho + dagger(rho)) / 2.0


def fef_fidelity(rho) -> float:
    """Fully entangled fraction of a two-qubit state.

    Largest eigenvalue of the real part of rho in the magic basis;
    equal to max_phi <phi|rho|phi> over maximally entangled |phi>.
    """
    rho = _validated(rho, dim=4)
    m = dagger(MAGIC_BASIS) @ rho @ MAGIC_BASIS
    re = (m + m.T).real / 2.0  # m is hermitian, so Re(m) is symmetric
    w, _ = hermitian_eigen(re.astype(complex))
    return float(w[-1])


def _haar_su2(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def _phi_plus() -> np.ndarray:
    return (_K00 + _K11) / np.sqrt(2.0)


def _overlap(rho, u) -> float:
    phi = np.kron(u, np.eye(2)) @ _phi_plus()
    return float(np.real(np.conj(phi) @ rho @ phi))


def fef_oracle(rho, samples: int = 10_000, seed: int = 0) -> float:
    """Lower-bound estimate of the fully entangled fraction by sampling.

    Maximizes <phi_U|rho|phi_U> over |phi_U> = (U x I)|phi+> for
    ``samples`` Haar-random single-qubit unitaries, then refines the
    best candidate with a shrinking random local search.  Every
    candidate is a valid maximally entangled state, so the result never
    exceeds the true maximum.  Deterministic for a given seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rho = _validated(rho, dim=4)
    rng = np.random.default_rng(seed)
    best_u = np.eye(2, dtype=complex)
    best = _overlap(rho, best_u)
    for _ in range(samples):
        u = _haar_su2(rng)
        val = _overlap(rho, u)
        if val > best:
            best, best_u = val, u
    # local refinement: random small rotations with decaying step size
    step = 0.3
    for _ in range(400):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (h + dagger(h)) / 2.0
        w, v = hermitian_eigen(h)
        g = v @ np.diag(np.exp(1j * step * w)) @ dagger(v)
        cand = g @ best_u
        val = _overlap(rho, cand)
        if val > best:
            best, best_u = val, cand
        else:
            step *= 0.97
    return best


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    The usual ingredients are the descending square roots lambda_i of
    the eigenvalues of rho (sy x sy) rho* (sy x sy); those equal the
    singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)), which is
    how they are computed here (no precision loss from square-rooting
    noisy near-zero eigenvalues).
    """
    rho = _validated(rho, dim=4)
    w, v = hermitian_eigen(rho)
    sqrt_rho = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    lam = np.linalg.svd(sqrt_rho @ _SYSY @ np.conj(sqrt_rho), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def vn_entropy(rho) -> float:
    """Von Neumann entropy in bits (0 log 0 = 0); any dimension."""
    rho = _validated(rho)
    w, _ = hermitian_eigen(rho)
    w = np.clip(w, 0.0, None)
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log2(nz)) + 0.0)


def purity(rho) -> float:
    """tr(rho^2)."""
    rho = _validated(rho)
    return float(np.real(np.trace(rho @ rho)))


def output_flux(rho, flux_operator) -> float:
    """Mean photon flux tr(rho c+c) for a given flux operator c+c."""
    rho = np.asarray(rho, dtype=complex)
    op = np.asarray(flux_operator, dtype=complex)
    if rho.shape != op.shape:
        raise DimensionMismatch(f"state {rho.shape} vs flux operator {op.shape}")
    val = float(np.real(np.trace(rho @ op)))
    if val < -1e-12:
        raise InvalidDensityMatrix(f"flux {val} is negative beyond tolerance")
    return val
