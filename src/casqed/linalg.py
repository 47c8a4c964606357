"""Dense complex linear algebra over tensor-product spaces.

States and operators on the joint space are plain ``numpy`` complex
arrays: operators are 2-d arrays, state vectors are 1-d arrays, and a
:class:`TensorSpace` records how a joint space factors into subsystems.
(Generators, which act on dim^2-long vectors, are sparse; see
:mod:`casqed.dynamics`.)

Vectorization uses the column-stacking convention, under which
``vec(A @ rho @ B) == kron(B.T, A) @ vec(rho)``.  That identity is the
single contract the superoperator machinery relies on.

The hermitian eigensolver is LAPACK's, behind a hermiticity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    @property
    def nfactors(self) -> int:
        return len(self.factor_dims)


def asmatrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Hermitian conjugate."""
    return np.conj(np.asarray(a)).T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product of two operators."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(*ops) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def embed_at(op: np.ndarray, site: int, space: TensorSpace) -> np.ndarray:
    """Lift a single-subsystem operator to the joint space.

    Acts as ``op`` on factor ``site`` and as the identity on every other
    factor.
    """
    op = asmatrix(op)
    dims = space.factor_dims
    if not 0 <= site < len(dims):
        raise DimensionMismatch(f"site {site} out of range for {dims}")
    if op.shape != (dims[site], dims[site]):
        raise DimensionMismatch(
            f"operator shape {op.shape} does not match factor dim {dims[site]}"
        )
    factors = [np.eye(d, dtype=complex) for d in dims]
    factors[site] = op
    return kron_all(*factors)


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


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


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
    a = asmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("hermitian_eigen needs a square matrix")
    if np.abs(a - dagger(a)).max() > 1e-10 * np.abs(a).max():
        raise NonHermitianInput("input is not hermitian within 1e-10")
    return np.linalg.eigh((a + dagger(a)) / 2.0)


def eigvalsh_min(a: np.ndarray) -> float:
    """Smallest eigenvalue of a hermitian matrix (validity-gate helper)."""
    return float(np.linalg.eigvalsh((a + dagger(a)) / 2.0)[0])


# ---------------------------------------------------------------------------
# vectorization (column stacking)
# ---------------------------------------------------------------------------

def vec_stack(rho: np.ndarray) -> np.ndarray:
    """Column-stack a square matrix into a vector."""
    rho = asmatrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch("vec_stack needs a square matrix")
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec_stack`; the side length is inferred."""
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
        if len(header) != 2 or header[0] != "dm":
            raise DimensionMismatch(f"{path}: missing 'dm <n>' header")
        n = int(header[1])
        rho = np.empty((n, n), dtype=complex)
        for i in range(n):
            vals = fh.readline().split()
            if len(vals) != 2 * n:
                raise DimensionMismatch(f"{path}: row {i} has {len(vals)} fields, expected {2 * n}")
            row = np.array([float(x) for x in vals])
            rho[i] = row[0::2] + 1j * row[1::2]
    return rho
