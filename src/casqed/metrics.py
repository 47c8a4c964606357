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

Two paths, chosen matrix by matrix from the input alone:

* X-states.  A 4 x 4 matrix whose off-X entries are exactly 0 has only
  its diagonal and the coherences <11|rho|00> and <10|rho|01> (and their
  conjugates).  Every state the CLI measures is one: steady states and
  trajectories from the vacuum ground state are even under the parity
  pi1 pi2 (-1)^(n1+n2), and |0>, |1> have opposite atomic parity.  With
  the parity pairs (a, b) = (|11>, |00>) and (c, d) = (|10>, |01>), and h
  the hermitian part's coherence, the magic-basis real part is two 2 x 2
  blocks (Hill and Wootters, PRL 78, 5022 (1997)), and

      F = max((rho_aa + rho_bb)/2 + |h_ab|, (rho_cc + rho_dd)/2 + |h_cd|),
      C = 2 max(0, |h_ab| - sqrt(rho_cc rho_dd), |h_cd| - sqrt(rho_aa rho_bb))

  (Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007)); the gate's
  smallest eigenvalue is the lower over the pairs (x, y) of
  (rho_xx + rho_yy)/2 - sqrt(((rho_xx - rho_yy)/2)^2 + |h_xy|^2).
  |.| of a complex entry is ``np.hypot`` of its parts: ``np.abs`` on
  complex arrays rounds differently with the SIMD width (see
  :func:`~casqed.reduced.analytic_steady_state`).
* Any other matrix -- a general state, one with a NaN off the X, or
  another dimension -- takes the eigen route: ``eigvalsh`` for the gate,
  ``eigh`` for F and an SVD for C.

Neither path depends on the other matrices of a stack: each state's
result is bit for bit that of the state alone.
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

# flat indices into a 4 x 4 matrix: the X entries, as the populations
# (a, b, c, d), the coherences (ab, cd) and their mirrors (ba, dc); the rest
_X_ENTRIES = np.array([0, 15, 5, 10, 3, 6, 12, 9])
_OFF_X = np.array([1, 2, 4, 7, 8, 11, 13, 14])


class _Pairs:
    """The two parity pairs (a, b) and (c, d) of k X-states.

    ``entries`` (8, k) holds the states' X entries, one row per entry in
    the order of ``_X_ENTRIES``.  The attributes are real: the hermiticity
    defect max |rho - rho^+| (k,), whose entries off the X are 0 - 0 and
    whose diagonal ones are 2 |Im rho_xx|; and per pair (2, k), of the
    hermitian part, the populations' mean and half difference and the
    modulus of the coherence h.
    """

    def __init__(self, entries):
        re, im = entries.real, entries.imag
        self.defect = np.maximum(2.0 * np.abs(im[:4]).max(axis=0),
                                 np.hypot(re[4:6] - re[6:], im[4:6] + im[6:]).max(axis=0))
        self.pop = re[:4]
        half = self.pop / 2.0
        self.mean = half[0::2] + half[1::2]
        self.diff = half[0::2] - half[1::2]
        self.coh = np.hypot((re[4:6] + re[6:]) / 2.0, (im[4:6] - im[6:]) / 2.0)

    def lowest(self) -> np.ndarray:
        """Smallest eigenvalue of each state's hermitian part, the lower of its blocks'."""
        return (self.mean - np.sqrt(self.diff * self.diff + self.coh * self.coh)).min(axis=0)

    def fef(self) -> np.ndarray:
        """Fully entangled fraction: the larger pair's mean population plus coherence."""
        return (self.mean + self.coh).max(axis=0)

    def concurrence(self) -> np.ndarray:
        """2 max(0, |h_ab| - sqrt(rho_cc rho_dd), |h_cd| - sqrt(rho_aa rho_bb)),
        the populations clipped at 0 as the eigen route clips eigenvalues."""
        q = np.maximum(self.pop, 0.0)
        root = np.sqrt(q[0::2] * q[1::2])
        return 2.0 * np.maximum(0.0, (self.coh - root[::-1]).max(axis=0))


def _hermitian(mats) -> np.ndarray:
    return (mats + dagger(mats)) / 2.0


def _gate(rho, dim=None, stack=False):
    """The density-matrix gate: trace 1, hermitian, no eigenvalue below
    ``-_NEG_TOL``, each within its threshold.

    With ``stack=True`` ``rho`` may also be a stack (k, n, n); the gate
    then checks each matrix as if alone and raises the message of the
    first one that fails.  A 4 x 4 matrix whose off-X entries are exactly
    0 takes the closed forms of :class:`_Pairs`; any other takes
    ``eigvalsh`` of its hermitian part.  Returns the mask ``x`` of the
    X-states, their :class:`_Pairs` (None if there is none) and the
    hermitian part of every other matrix, each in stack order.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in ((2, 3) if stack else (2,)) or rho.shape[-1] != rho.shape[-2]:
        raise InvalidDensityMatrix(f"expected a square matrix, got shape {rho.shape}")
    if dim is not None and rho.shape[-1] != dim:
        raise InvalidDensityMatrix(f"expected a {dim}x{dim} density matrix, got {rho.shape}")
    mats = rho.reshape((-1,) + rho.shape[-2:])
    k = len(mats)
    x, pairs = np.zeros(k, dtype=bool), None
    if rho.shape[-1] == 4:
        flat = mats.reshape(k, 16)
        x = ~flat[:, _OFF_X].any(axis=1)
        if x.any():
            entries = flat.T[_X_ENTRIES]   # one row per X entry
            pairs = _Pairs(entries if x.all() else entries[:, x])
    other = mats[~x]
    trace = np.trace(mats, axis1=-2, axis2=-1)
    defect = np.empty(k)
    if pairs is not None:
        defect[x] = pairs.defect
    defect[~x] = np.abs(other - dagger(other)).max(axis=(-2, -1))
    # "not <=": a NaN entry makes the trace or the hermiticity defect NaN
    bad_trace = ~(abs(trace - 1.0) <= _TRACE_TOL)
    bad = bad_trace | ~(defect <= _HERM_TOL)
    # the eigenvalues of the matrices before the first that fails either check
    n_ok = int(np.argmax(bad)) if bad.any() else k
    negative = pairs is not None and np.any(pairs.lowest()[:np.count_nonzero(x[:n_ok])] < -_NEG_TOL)
    herm = _hermitian(mats[:n_ok][~x[:n_ok]])
    if negative or (len(herm) and np.any(eigvalsh_min(herm) < -_NEG_TOL)):
        raise InvalidDensityMatrix("matrix has an eigenvalue below the positivity gate")
    if n_ok < k:
        if bad_trace[n_ok]:
            raise InvalidDensityMatrix(f"trace {trace[n_ok]} is not 1 within {_TRACE_TOL}")
        raise InvalidDensityMatrix("matrix is not hermitian within tolerance")
    return x, pairs, herm


def _validated(rho, dim=None) -> np.ndarray:
    """``rho`` made exactly hermitian, after the density-matrix gate."""
    _gate(rho, dim)
    return _hermitian(np.asarray(rho, dtype=complex))


def _fef_eigh(herm) -> np.ndarray:
    """Fully entangled fraction of each matrix of a hermitian stack
    (k, 4, 4): the largest eigenvalue of its real part in the magic basis."""
    m = dagger(MAGIC_BASIS) @ herm @ MAGIC_BASIS
    re = (m + np.swapaxes(m, -1, -2)).real / 2.0  # m is hermitian, so Re(m) is symmetric
    return np.linalg.eigh(re.astype(complex))[0][:, -1]


def fef_fidelity(rho):
    """Fully entangled fraction of a two-qubit state.

    Largest eigenvalue of the real part of rho in the magic basis;
    equal to max_phi <phi|rho|phi> over maximally entangled |phi>.
    ``rho`` may be one state (a float is returned) or a stack (k, 4, 4)
    of states (an array of k fidelities, each bit for bit that of its
    state alone).

    Each state takes its own path (module docstring): an X-state, whose
    off-X entries are exactly 0, the closed form, the larger over its two
    parity pairs of mean population plus |coherence|; any other matrix
    ``eigh`` of its real part in the magic basis.
    """
    x, pairs, herm = _gate(rho, dim=4, stack=True)
    fef = np.empty(len(x))
    if pairs is not None:
        fef[x] = pairs.fef()
    if len(herm):
        fef[~x] = _fef_eigh(herm)
    return float(fef[0]) if np.ndim(rho) == 2 else fef


def _concurrence_svd(herm) -> float:
    """Wootters concurrence of a hermitian 4 x 4 matrix, by the eigen route.

    The usual ingredients are the descending square roots lambda_i of
    the eigenvalues of rho (sy x sy) rho* (sy x sy); those equal the
    singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)), which is
    how they are computed here (no precision loss from square-rooting
    noisy near-zero eigenvalues).
    """
    w, v = np.linalg.eigh(herm)
    sqrt_rho = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    lam = np.linalg.svd(sqrt_rho @ _SYSY @ np.conj(sqrt_rho), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit state: on an X-state the closed
    form of Yu and Eberly (module docstring), on any other the eigen route
    (:func:`_concurrence_svd`)."""
    x, pairs, herm = _gate(rho, dim=4)
    return float(pairs.concurrence()[0]) if x[0] else _concurrence_svd(herm[0])


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
