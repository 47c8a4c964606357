"""Complex linear algebra over tensor-product spaces.

States and operators on the joint space are plain ``numpy`` complex
arrays: operators are 2-d arrays, state vectors are 1-d arrays, and a
:class:`TensorSpace` records how a joint space factors into subsystems.
The one factor lift, :func:`embed_at`, is sparse: every model builder
assembles its operators from it as CSR matrices.  (Generators act on
the real coordinates of a hermitian state; see :mod:`casqed.dynamics`.)

Vectorization uses the column-stacking convention: :func:`unvec` reads a
d^2-long vector column by column into a d x d matrix, so that
``vec(A @ rho @ B) == kron(B.T, A) @ vec(rho)``.

The hermitian eigensolver is LAPACK's, behind a hermiticity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, NonHermitianInput


@dataclass(frozen=True)
class TensorSpace:
    """Ordered factorization of a joint Hilbert space.

    ``factor_dims`` lists the subsystem dimensions left to right, e.g.
    ``(2, 2)`` for two qubits or ``(5, 5, 3, 3)`` for two five-level
    atoms and two three-state field modes.
    """

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise DimensionMismatch(f"factor dimensions must all be >= 1, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self.factor_dims))


def asmatrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Hermitian conjugate; of each matrix of a stack (..., n, m), whose
    leading axes stay in place."""
    return np.swapaxes(np.conj(np.asarray(a)), -1, -2)


def embed_at(op, site: int, space: TensorSpace) -> sp.csr_matrix:
    """Lift a single-subsystem operator to the joint space, as CSR.

    Acts as ``op`` on factor ``site`` and as the identity on every other
    factor: I_left (x) op (x) I_right, written directly from index
    arithmetic as canonical CSR, with the indices and values of
    ``sp.kron`` chained over the factors.  ``op`` may be dense or sparse; a
    sparse one is never densified.  Each call makes a new matrix;
    :class:`casqed.cavity.ModelSpace` keeps the lifts of its fixed
    operators, once per space and read-only.
    """
    op = (op if sp.issparse(op) else sp.csr_matrix(asmatrix(op))).tocsr()
    dims = space.factor_dims
    if not 0 <= site < len(dims):
        raise DimensionMismatch(f"site {site} out of range for {dims}")
    d = dims[site]
    if op.shape != (d, d):
        raise DimensionMismatch(f"operator shape {op.shape} does not match factor dim {d}")
    if not op.has_canonical_format:
        op = op.copy()
        op.sum_duplicates()
    left, right = int(np.prod(dims[:site])), int(np.prod(dims[site + 1:]))
    # op (x) I_right: row i right + j holds op's row i, each column c as c right + j
    counts = np.repeat(np.diff(op.indptr), right)
    block_ptr = np.concatenate(([0], np.cumsum(counts)))
    entry = (np.repeat(np.repeat(op.indptr[:-1], right) - block_ptr[:-1], counts)
             + np.arange(block_ptr[-1]))
    block_indices = (op.indices.astype(np.int64)[entry] * right
                     + np.repeat(np.tile(np.arange(right), d), counts))
    # I_left (x) that block: left copies down the diagonal
    n, nnz = d * right, left * block_ptr[-1]
    idx = np.int32 if max(left * n, nnz) <= np.iinfo(np.int32).max else np.int64
    indices = (np.arange(left)[:, None] * n + block_indices).astype(idx).ravel()
    indptr = np.concatenate(([0], np.cumsum(np.tile(counts, left)))).astype(idx)
    # times the identity's complex one, as sp.kron does (it sets the sign of zeros)
    data = np.tile(op.data[entry], left) * (1.0 + 0j)
    return sp.csr_matrix((data, indices, indptr), shape=(left * n, left * n))


def partial_trace(rho: np.ndarray, space: TensorSpace, keep) -> np.ndarray:
    """Trace out every factor not listed in ``keep``.

    ``keep`` is an iterable of factor indices; the result is ordered by
    ascending kept index.  The trace of the input is preserved.
    """
    rho = asmatrix(rho)
    dims = space.factor_dims
    n = len(dims)
    d = space.dim
    if rho.shape != (d, d):
        raise DimensionMismatch(f"state shape {rho.shape} does not match space dim {d}")
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise DimensionMismatch("keep set must not be empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise DimensionMismatch(f"keep indices {keep} out of range for {n} factors")

    t = rho.reshape(dims + dims)
    # trace factors from the highest index down so axis numbers stay valid
    nleft = n
    for site in range(n - 1, -1, -1):
        if site in keep:
            continue
        t = np.trace(t, axis1=site, axis2=site + nleft)
        nleft -= 1
    dkeep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(dkeep, dkeep)


# ---------------------------------------------------------------------------
# hermitian eigensolver
# ---------------------------------------------------------------------------

def hermitian_eigen(a: np.ndarray):
    """Eigendecomposition of a hermitian matrix (checked to 1e-10 relative).

    Returns
    -------
    (w, V) : eigenvalues ascending, eigenvectors as the columns of V,
        with ``a == V @ diag(w) @ V.conj().T`` and ``V.conj().T @ V == I``
        to rounding.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"hermitian_eigen needs a square matrix, got shape {a.shape}")
    if np.abs(a - dagger(a)).max() > 1e-10 * np.abs(a).max():
        raise NonHermitianInput("input is not hermitian within 1e-10")
    return np.linalg.eigh((a + dagger(a)) / 2.0)


def eigvalsh_min(a: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of an exactly hermitian matrix, or of each matrix
    of a stack (k, n, n) (validity-gate helper; the caller symmetrizes)."""
    return np.linalg.eigvalsh(a)[..., 0]


# ---------------------------------------------------------------------------
# vectorization (column stacking)
# ---------------------------------------------------------------------------

def unvec(v: np.ndarray) -> np.ndarray:
    """The d x d matrix whose stacked columns are the d^2-long vector
    ``v``; the side length is inferred."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise DimensionMismatch(f"vector length {v.size} is not a perfect square")
    return v.reshape((n, n), order="F")


# ---------------------------------------------------------------------------
# density-matrix text format
# ---------------------------------------------------------------------------
#
# Line 1: "dm <n>"; then n lines of 2n space-separated floats, the
# (re, im) pairs of one row.  %.17g round-trips IEEE doubles exactly.

def write_dm(path, rho: np.ndarray) -> None:
    rho = asmatrix(rho)
    n = rho.shape[0]
    if rho.shape != (n, n):
        raise DimensionMismatch("density-matrix file format requires a square matrix")
    lines = [f"dm {n}"]
    for i in range(n):
        parts = []
        for x in rho[i]:
            parts.append(format(float(x.real), ".17g"))
            parts.append(format(float(x.imag), ".17g"))
        lines.append(" ".join(parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dm(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "dm" or not header[1].isdigit():
            raise DimensionMismatch(f"{path}: missing 'dm <n>' header")
        n = int(header[1])
        rows = []
        for i in range(n):
            vals = fh.readline().split()
            if len(vals) != 2 * n:
                raise DimensionMismatch(f"{path}: row {i} has {len(vals)} fields, expected {2 * n}")
            row = np.array([float(x) for x in vals])
            rows.append(row[0::2] + 1j * row[1::2])
    return np.array(rows, dtype=complex).reshape(n, n)
