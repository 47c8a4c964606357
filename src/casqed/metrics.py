"""Two-qubit entanglement and state metrics.

The qubit ordering convention matches the rest of the package: each
qubit's basis is (|1>, |0>) and the joint basis is
{|1 1>, |1 0>, |0 1>, |0 0>}.

Fidelity here means the fully entangled fraction (maximal singlet
fraction): the largest overlap of the state with any maximally
entangled two-qubit state.  It has a closed form -- the largest
eigenvalue of the real part of the state written in the magic basis.
The tests check it against an independent lower-bound oracle that
maximizes the overlap over sampled maximally entangled states
(``fef_oracle`` in ``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidDensityMatrix
from .linalg import dagger, eigvalsh_min

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


def _validated(rho, dim=None, stack=False) -> np.ndarray:
    """``rho`` made exactly hermitian, after the density-matrix gate.

    It is symmetrized once, here: the gate's eigenvalues and the callers'
    ``np.linalg.eigh`` take it as it is.  With ``stack=True`` ``rho`` may
    also be a stack (k, n, n); the gate then checks each matrix as if alone
    and raises the message of the first one that fails.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in ((2, 3) if stack else (2,)) or rho.shape[-1] != rho.shape[-2]:
        raise InvalidDensityMatrix(f"expected a square matrix, got shape {rho.shape}")
    if dim is not None and rho.shape[-1] != dim:
        raise InvalidDensityMatrix(f"expected a {dim}x{dim} density matrix, got {rho.shape}")
    mats = rho.reshape((-1,) + rho.shape[-2:])
    trace = np.trace(mats, axis1=-2, axis2=-1)
    # "not <=": a NaN entry makes the trace or the hermiticity defect NaN
    bad_trace = ~(abs(trace - 1.0) <= _TRACE_TOL)
    bad = bad_trace | ~(np.abs(mats - dagger(mats)).max(axis=(-2, -1)) <= _HERM_TOL)
    # the eigenvalues of the matrices before the first that fails either check
    n_ok = int(np.argmax(bad)) if bad.any() else len(mats)
    herm = (mats[:n_ok] + dagger(mats[:n_ok])) / 2.0
    if np.any(eigvalsh_min(herm) < -_NEG_TOL):
        raise InvalidDensityMatrix("matrix has an eigenvalue below the positivity gate")
    if n_ok < len(mats):
        if bad_trace[n_ok]:
            raise InvalidDensityMatrix(f"trace {trace[n_ok]} is not 1 within {_TRACE_TOL}")
        raise InvalidDensityMatrix("matrix is not hermitian within tolerance")
    return herm.reshape(rho.shape)


def fef_fidelity(rho):
    """Fully entangled fraction of a two-qubit state.

    Largest eigenvalue of the real part of rho in the magic basis;
    equal to max_phi <phi|rho|phi> over maximally entangled |phi>.
    ``rho`` may be one state (a float is returned) or a stack (k, 4, 4)
    of states (an array of k fidelities, each bit for bit that of its
    state alone).
    """
    rho = _validated(rho, dim=4, stack=True)
    m = dagger(MAGIC_BASIS) @ rho @ MAGIC_BASIS
    re = (m + np.swapaxes(m, -1, -2)).real / 2.0  # m is hermitian, so Re(m) is symmetric
    w, _ = np.linalg.eigh(re.astype(complex))
    return float(w[-1]) if w.ndim == 1 else w[:, -1]


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    The usual ingredients are the descending square roots lambda_i of
    the eigenvalues of rho (sy x sy) rho* (sy x sy); those equal the
    singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)), which is
    how they are computed here (no precision loss from square-rooting
    noisy near-zero eigenvalues).
    """
    rho = _validated(rho, dim=4)
    w, v = np.linalg.eigh(rho)
    sqrt_rho = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    lam = np.linalg.svd(sqrt_rho @ _SYSY @ np.conj(sqrt_rho), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def vn_entropy(rho) -> float:
    """Von Neumann entropy in bits (0 log 0 = 0); any dimension."""
    rho = _validated(rho)
    w, _ = np.linalg.eigh(rho)
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
