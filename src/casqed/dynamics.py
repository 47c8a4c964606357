"""Time evolution and steady-state solvers.

Every tier states its master equation once, as operators: a
Hamiltonian, factor-2 dissipator channels and one cascade term.
:func:`liouvillian_from_operators` writes them as the no-jump operator
K = -iH - sum rate c+ c - q a2+ a1 (:func:`no_jump_generator`) plus one
list of jump terms (w, b, a), so that L(rho) = K rho + rho K+ +
sum w b rho a+.  The steady-state solver's preconditioner inverts the K
part.

The generator acts on real coordinates.  rho is hermitian and L keeps
it so, so in a basis of hermitian operators L is a real matrix R (the
coherence-vector picture: Alicki & Lendi, *Quantum Dynamical Semigroups
and Applications*, LNP 286 (1987)).  The coordinates of rho
(:class:`SectorCoordinates`) are its diagonal and Re rho_ij, Im rho_ij
for i < j, stacked by parity sector (below); R is stored as one real CSR
block per sector, and every application of the generator is one real
sparse product.  Full matrices appear only at the edges: the initial
state, each returned sample or state, and :meth:`LiouvillianAction.apply`.

The integrator takes adaptive Krylov exponential steps on those
coordinates (Hochbruck & Lubich, *SIAM J. Numer. Anal.* 34, 1911 (1997);
Sidje, Expokit, *ACM TOMS* 24, 130 (1998)).  The generator maps each
parity sector into itself, so the steps advance only the sectors rho0
occupies, which are a leading slice of the coordinates (the even sector
alone from the vacuum ground state).  R is linear and time-independent,
so a step is exp(h R) y = y + h phi_1(h R) f with f = R y and
phi_1(z) = (e^z - 1) / z.  Each step runs Arnoldi on f, R V = V H +
h_(k+1,k) v_(k+1) e_k^T with at most ``_KRYLOV_DIM`` vectors, and takes
y + h beta V phi_1(h H) e_1, beta = ||f||; phi_1 and phi_2 come from one
``expm`` of a (k + 2) x (k + 2) augmented matrix.  The step's error
estimate is the next term of that expansion,
h^2 beta h_(k+1,k) [phi_2(h H) e_1]_k v_(k+1), and the step is accepted
when its norm is at most 1.  That norm is the RMS over all d^2 entries of
the column-stacked state of |e_ij| / (abs_tol + rel_tol |rho_ij|), with
the larger |rho_ij| of the step's start and end: an off-diagonal pair
stands for rho_ij and rho_ji, both of modulus hypot(Re, Im), so it counts
twice, and the unoccupied sectors add exact zeros; the steps are those
taken on the full state.  A rejected step keeps its basis and recomputes
only the small exponential at a shorter h.  The Arnoldi space ends early
when the orthogonalized remainder of R v_j is below 64 unit roundoffs of
||R v_j||: the span is then invariant, the step exact at any length, and
a direction of rounding noise never enters the basis.

Every state is hermitian by construction.  Every Krylov vector lies in
the range of R, which is traceless, so the trace is conserved to
rounding; drift beyond 1e-9 is treated as an integrator failure.
Positivity is never projected: violations surface in the returned
states and are the caller's signal that tolerances were too loose.

Strongly detuned models have weakly damped fast oscillations, and no
builder states how fast.  An explicit Runge-Kutta method is held near
h rho(R) ~ 1 by its stability region, at about six generator calls per
radian of the fastest oscillation.  A Krylov step of k vectors resolves
h rho(R) of order k, so the same span costs about one call per radian,
and no stiff scale has to be declared.

Steady states of every tier are solved directly.  Each builder declares
a parity P (a +-1 vector on the basis states) that
:func:`liouvillian_from_operators` checks to be a weak symmetry (K even,
b and a of each jump term of one parity), so the generator maps the even
sector (rho++ + rho--) and the odd sector (rho+- + rho-+) each into
itself, and the steady state is even.  GMRES solves the trace-bordered
generator on the even sector's coordinates alone, in real arithmetic,
right-preconditioned by the inverse of the shifted no-jump part: a
Sylvester equation per parity block, solved by Bartels-Stewart with one
Schur form per block and a recursive blocked triangular solve
(:class:`ShiftedNoJumpInverse`).  Two probes, one per sector, check that
no other eigenvalue sits at zero; a caller that solves several generators
for one answer probes only the one it keeps (see
:func:`steady_state_nullspace`).  Long-time relaxation remains as an
independent check.

The spectral gap is not computed: the probes detect a second zero
eigenvalue at any size, and tests take the gap of the 16 x 16 reduced
generator from ``liouvillian_matrix`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ConvergenceError,
    DegenerateSteadyState,
    DimensionMismatch,
    IntegrationError,
    ParityError,
)
from .linalg import dagger, unvec

#: state dimension up to which perfbench/checks.py, its only reader, bounds
#: an effective-sweep point by a null-space target rather than by the
#: ``ExperimentConfig.ss_tol`` residual; both go when that check is rederived
#: from the bordered residual (see ROADMAP.md)
NULLSPACE_DIM_LIMIT = 64

#: accepted plus rejected steps after which :func:`integrate` gives up
_MAX_STEPS = 50_000_000
#: Krylov dimension of each exponential step in :func:`integrate`, capped at
#: the length of the occupied slice; the basis holds _KRYLOV_DIM + 1 vectors
_KRYLOV_DIM = 30
#: the Arnoldi space ends when the orthogonalized remainder of R v_j is at
#: most this times ||R v_j||: 64 unit roundoffs, so that a direction of
#: rounding noise never enters the basis
_BREAKDOWN = 64 * np.finfo(float).eps / 2
#: a Gram-Schmidt pass that keeps less than this share of the vector's norm
#: is repeated once (Daniel, Gragg, Kaufman & Stewart, *Math. Comp.* 30, 772
#: (1976))
_REORTHOGONALIZE = 1 / np.sqrt(2)


class SectorCoordinates:
    """Real coordinates of the hermitian d x d matrices, by parity sector.

    Each sector of rho -> P rho P (``parity`` holds P's +-1 eigenvalue on
    each basis state) is a run of coordinates: the even sector (p_i p_j = 1)
    first, then the odd one, if P has both signs.  The even sector starts
    with the diagonal rho_00, ..., rho_(d-1)(d-1); after it, each
    off-diagonal pair i < j of a sector holds Re rho_ij and then Im rho_ij,
    the pairs in the column-stacked order of rho_ij.  A hermitian matrix
    has d^2 real coordinates; any complex matrix X has the complex
    coordinates of its hermitian part plus i times those of
    (X - X+) / 2i, so a generator that is real on the coordinates applies
    to every matrix.

    A leading slice of the coordinates (the even sector alone, or all of
    them) holds a matrix that is zero on the sectors after it.
    """

    def __init__(self, dim: int, parity: np.ndarray):
        d = dim
        self.dim = d
        self.parity = parity
        l, k = np.tril_indices(d, -1)   # each pair k < l, in column-stacked order
        even = parity[k] == parity[l]
        order = np.concatenate((np.flatnonzero(even), np.flatnonzero(~even)))
        k, l = k[order], l[order]
        n_even = int(even.sum())
        self.sizes = tuple(s for s in (d + 2 * n_even, 2 * (k.size - n_even)) if s)
        #: column-stacked positions of rho_kl and rho_lk of each pair
        self.upper, self.lower = k + d * l, l + d * k
        #: the coordinate of each column-stacked entry: its diagonal one, or
        #: Re of its pair (Im is the next)
        idx = np.int32 if d * d <= np.iinfo(np.int32).max else np.int64
        position = np.empty(d * d, dtype=idx)
        position[:: d + 1] = np.arange(d)
        slots = d + 2 * np.arange(k.size)
        position[self.upper] = slots
        position[self.lower] = slots
        self.position = position
        for a in (self.parity, self.upper, self.lower, self.position):
            a.setflags(write=False)

    def of(self, rho) -> np.ndarray:
        """The d^2 coordinates of a (d, d) matrix: real when it is hermitian."""
        d = self.dim
        v = np.asarray(rho, dtype=complex).reshape(-1, order="F")
        up, lo = v[self.upper], v[self.lower]
        c = np.empty(d * d, dtype=complex)
        c[:d] = v[:: d + 1]
        c[d::2] = (up + lo) * 0.5
        c[d + 1::2] = (up - lo) * -0.5j
        return c if c.imag.any() else c.real.copy()

    def vec(self, c: np.ndarray) -> np.ndarray:
        """The column-stacked matrix of the leading coordinates ``c``."""
        d = self.dim
        v = np.zeros(d * d, dtype=complex)
        v[:: d + 1] = c[:d]
        re, im = c[d::2], c[d + 1::2]
        n = re.size
        v[self.upper[:n]] = re + 1j * im
        v[self.lower[:n]] = re - 1j * im
        return v

    def occupied(self, c: np.ndarray) -> int:
        """Length of the leading slice that holds every nonzero (or NaN) of ``c``."""
        lead = self.sizes[0]
        return c.size if c[lead:].any() else lead


@functools.lru_cache(maxsize=16)
def _coordinates(dim: int, parity: bytes) -> SectorCoordinates:
    return SectorCoordinates(dim, np.frombuffer(parity).copy())


def sector_coordinates(dim: int, parity=None) -> SectorCoordinates:
    """The :class:`SectorCoordinates` of (dim, parity); all +1 when absent.

    Cached: generators and solvers of one space share one map.
    """
    parity = np.ones(dim) if parity is None else np.asarray(parity, dtype=float)
    return _coordinates(dim, parity.tobytes())


@dataclass
class LiouvillianAction:
    """A master-equation generator as a deterministic map rho -> drho/dt.

    ``matvec`` applies the generator to the coordinates of rho
    (:meth:`coordinates`): a leading slice of them, the even sector alone
    or all d^2, and returns those of drho/dt.  It is the only application
    of the generator, so a wrapper (a profiler, a counter) sees all of
    them.  ``rate_scale`` is the characteristic damping rate used to scale
    residual tolerances.  Generators built by
    :func:`liouvillian_from_operators` keep their operators in
    ``meta["operators"]``, their dense no-jump operator K in
    ``meta["no_jump"]``, their parity in ``meta["parity"]`` and their real
    generator in ``meta["blocks"]``, one CSR block per parity sector;
    ``meta["sparse_superop"]`` assembles the column-stacking superoperator
    on access.
    """

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]
    rate_scale: float = 1.0
    meta: dict = field(default_factory=dict)

    @property
    def coordinates(self) -> SectorCoordinates:
        return sector_coordinates(self.dim, self.meta.get("parity"))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """drho/dt for a (dim, dim) state."""
        rho = np.asarray(rho, dtype=complex)
        d = self.dim
        if rho.shape != (d, d):
            raise DimensionMismatch(f"state shape {rho.shape}, expected ({d}, {d})")
        coords = self.coordinates
        return coords.vec(self.matvec(coords.of(rho))).reshape((d, d), order="F")

    def rhs_flat(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.matvec


def no_jump_generator(h, d2_channels, cascade) -> np.ndarray:
    """K = -iH - sum rate c+ c - q a2+ a1, as a dense matrix.

    ``d2_channels`` and ``cascade`` are those of
    :func:`liouvillian_from_operators`, whose generator is
    L(rho) = K rho + rho K+ + (jump terms).
    """
    k = -1j * sp.csr_matrix(h)
    for rate, c in d2_channels:
        c = sp.csr_matrix(c)
        k = k - rate * (c.conj().T @ c)
    q, a1, a2 = cascade
    k = k - q * (sp.csr_matrix(a2).conj().T @ sp.csr_matrix(a1))
    return k.toarray()


def _jump_terms(d2_channels, cascade) -> list:
    """The (w, b, a) of each jump term w b rho a+: (2 rate, c, c) for each
    channel, and (q, a1, a2) and (q, a2, a1) for the cascade."""
    q, a1, a2 = cascade
    return [(2.0 * rate, c, c) for rate, c in d2_channels] + [(q, a1, a2), (q, a2, a1)]


def _entries(op) -> tuple:
    """(rows, columns, values) of the stored entries of a dense or sparse
    operator, row by row."""
    if sp.issparse(op):
        op = op if op.format == "csr" else sp.csr_matrix(op)
        rows = np.repeat(np.arange(op.shape[0], dtype=op.indices.dtype), np.diff(op.indptr))
        return rows, op.indices, op.data
    op = np.asarray(op)
    rows, cols = np.nonzero(op)
    return rows, cols, op[rows, cols]


def _parities(op, parity: np.ndarray) -> set:
    """The signs p_i p_j over the nonzero entries op_ij: {1} for an even
    operator, {-1} for an odd one, both for a mixed one, none for zero.

    ``parity`` holds P's eigenvalue p_i on each basis state.
    """
    rows, cols, values = _entries(op)
    return set(np.unique((parity[rows] * parity[cols])[values != 0]).tolist())


def liouvillian_from_operators(h, d2_channels, cascade, rate_scale: float,
                               meta=None) -> LiouvillianAction:
    """The generator of a cascaded master equation, from its operators.

    ``h`` is the (dim, dim) Hamiltonian, ``d2_channels`` the (rate, c)
    dissipators, each entering as rate (2 c rho c+ - c+ c rho - rho c+ c),
    and ``cascade`` the (q, a1, a2) coupling, entering as
    -q (a2+ a1 rho + rho a1+ a2 - a1 rho a2+ - a2 rho a1+); dense or
    sparse operators both work.

    The equation is stated once, as the no-jump operator K of
    :func:`no_jump_generator` and one list of jump terms (w, b, a), each
    entering as w b rho a+: (2 rate, c, c) for each channel, and
    (q, a1, a2) and (q, a2, a1) for the cascade.  So
    L(rho) = K rho + rho K+ + sum w b rho a+, and on column-stacked states
    L = I (x) K + conj(K) (x) I + sum w conj(a) (x) b.  The generator is
    stored as R = T^-1 L T, real, on the coordinates of
    :class:`SectorCoordinates` (T maps them to column-stacked rho): all
    terms are summed in one sparse merge per parity sector, straight into
    that sector's real CSR block (see :func:`_real_blocks`), kept in
    ``meta["blocks"]``.  The returned ``matvec`` multiplies a leading
    slice of coordinates by the blocks it covers, skipping a sector that
    is all zero (a NaN counts as nonzero); a complex slice costs two real
    products, R Re v + i R Im v.  ``meta["sparse_superop"]`` assembles the
    whole column-stacked L anew from the operators on each access; it is
    not kept.  The operators are kept in ``meta["operators"]``, and the
    dense K in ``meta["no_jump"]`` for the steady-state solver's
    preconditioner.

    ``meta["parity"]`` declares a parity P as its +-1 eigenvalue on each
    basis state (all +1 when absent).  It is checked to be a weak symmetry,
    which both the sector blocks and the steady-state solver rely on: K
    must be even, and b and a of each jump term must share one definite
    parity, so that rho -> P rho P commutes with L; otherwise
    :class:`ParityError` is raised.
    """
    dim = h.shape[0]
    meta = dict(meta or {})
    parity = meta.setdefault("parity", np.ones(dim))
    k = no_jump_generator(h, d2_channels, cascade)
    jumps = _jump_terms(d2_channels, cascade)
    if -1 in _parities(k, parity):
        raise ParityError("K is not block-diagonal in the declared parity")
    if any(len(_parities(b, parity) | _parities(a, parity)) > 1 for _, b, a in jumps):
        raise ParityError("a jump term b rho a+ needs b and a of one definite parity")
    meta["no_jump"] = k
    meta["operators"] = (h, d2_channels, cascade)
    coords = sector_coordinates(dim, parity)
    blocks = meta["blocks"] = _real_blocks(k, jumps, coords)
    bounds = np.cumsum((0,) + coords.sizes)
    lead = coords.sizes[0]

    def matvec(v):
        v = np.asarray(v)
        if v.size == lead:
            return _real_product(blocks[0], v)
        if v.size != dim * dim:
            raise DimensionMismatch(f"{v.size} coordinates, expected {lead} or {dim * dim}")
        out = np.zeros_like(v, dtype=np.result_type(v, float))
        for start, stop, block in zip(bounds[:-1], bounds[1:], blocks):
            part = v[start:stop]
            if part.any():   # a NaN is nonzero
                out[start:stop] = _real_product(block, part)
        return out

    return LiouvillianAction(dim=dim, matvec=matvec, rate_scale=rate_scale,
                             meta=_SuperoperatorMeta(meta))


def _real_product(block: sp.csr_matrix, v: np.ndarray) -> np.ndarray:
    """block @ v for a real block: one real product for a real v, and
    block Re v + i block Im v for a complex one."""
    if not np.iscomplexobj(v):
        return block @ v
    out = np.empty(v.size, dtype=complex)
    out.real = block @ np.ascontiguousarray(v.real)
    out.imag = block @ np.ascontiguousarray(v.imag)
    return out


def _kron_factors(k: np.ndarray, jumps) -> list:
    """(w, A, B) of each term w A (x) B of L, each factor as its
    :func:`_entries`: I (x) K, conj(K) (x) I and w conj(a) (x) b for each
    jump term."""
    diag = np.arange(k.shape[0])
    eye = (diag, diag, np.ones(diag.size, dtype=complex))
    rows, cols, values = _entries(k)
    factors = [(1.0, eye, (rows, cols, values)), (1.0, (rows, cols, values.conj()), eye)]
    for w, b, a in jumps:
        rows, cols, values = _entries(a)
        factors.append((w, (rows, cols, values.conj()), _entries(b)))
    return factors


def _superoperator(k: np.ndarray, jumps) -> sp.csr_matrix:
    """I (x) K + conj(K) (x) I + sum w conj(a) (x) b, as one column-stacking CSR.

    All terms are summed in one sparse merge of the entries of every
    Kronecker product.  That gives the bits of the term-by-term sum
    whenever at most two terms share a position (addition commutes), as in
    every tier: a jump term has i != k and j != l at its entries
    (i + d j, k + d l), which I (x) K (j = l) and conj(K) (x) I (i = k)
    never have, and no two jump terms of a tier share a position.  A zero
    part of an entry ends as +0, as after the term-by-term sum's last
    addition, and entries that sum to zero are dropped.
    """
    d = k.shape[0]
    n = d * d
    idx = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    factors = _kron_factors(k, jumps)
    size = sum(x[0].size * y[0].size for _, x, y in factors)
    rows, cols = np.empty(size, dtype=idx), np.empty(size, dtype=idx)
    values = np.empty(size, dtype=complex)
    start = 0
    for w, (xr, xc, xv), (yr, yc, yv) in factors:
        stop = start + xr.size * yr.size
        rows[start:stop] = ((d * xr.astype(idx))[:, None] + yr).ravel()
        cols[start:stop] = ((d * xc.astype(idx))[:, None] + yc).ravel()
        values[start:stop] = (xv[:, None] * yv).ravel() * w
        start = stop
    lsp = sp.csr_matrix((values, (rows, cols)), shape=(n, n))   # sums duplicate positions
    del rows, cols, values
    lsp.eliminate_zeros()
    lsp.data += 0.0   # a zero part ends as +0
    return lsp


def _real_blocks(k: np.ndarray, jumps, coords: SectorCoordinates) -> list:
    """R = T^-1 L T on the coordinates ``coords``, one real CSR block per sector.

    L maps each sector into itself, so R is the direct sum of its blocks:
    block s acts on the coordinates of sector s, numbered from 0.  An entry
    L_(kl),(ij) (row k + d l, column i + d j) adds v rho_ij to (L rho)_kl.
    Only the rows k <= l are needed, as (L rho)_lk is the conjugate of
    (L rho)_kl and (L rho)_kk is real.  With rho_ij = x + i y for i < j and
    x - i y for i > j (x, y the coordinates of the pair), and the diagonal
    rho_ii = x, v rho_ij adds

        Re v x - side Im v y   to Re (L rho)_kl,
        Im v x + side Re v y   to Im (L rho)_kl (for k < l),

    where side = sign(j - i), and the y terms are absent on the diagonal.
    So an entry of R is +-Re or +-Im of L_(kl),(ij) + L_(kl),(ji), a sum of
    at most two entries of L.

    Each sector is assembled on its own: the entries of every Kronecker
    product in its rows (p_k p_l of its sign, k <= l) become R's entries,
    which one sparse merge sums into the block; only that sector's entries
    are held at a time.  Zero parts are left out before the merge, and sums
    that cancel are dropped after it.  The merge gives the bits of T^-1 L T
    computed from the term-by-term sum whenever at most two nonzero parts
    reach each entry of R.  In every tier they do: terms share a position
    of L only on its diagonal (i = k, j = l: I (x) K and conj(K) (x) I),
    whose partner L_(kl),(lk) would need a jump term with b_kl conj(a_lk)
    nonzero, which no lowering operator has.
    """
    d = coords.dim
    parity, position = coords.parity, coords.position
    idx = position.dtype
    factors = _kron_factors(k, jumps)
    # every term's entries A_lj (x) and B_ki (y), with the term's weight on A's;
    # B's sorted by (term, p_k, k), so that for each A_lj the B_ki of its term
    # with p_k = sign p_l and k <= l are one run
    weight = np.concatenate([np.full(x[0].size, w) for w, x, _ in factors])
    xl, xj, xv = (np.concatenate([x[f] for _, x, _ in factors]) for f in range(3))
    xt = np.repeat(np.arange(len(factors)), [x[0].size for _, x, _ in factors])
    yk, yi, yv = (np.concatenate([y[f] for _, _, y in factors]) for f in range(3))
    yt = np.repeat(np.arange(len(factors)), [y[0].size for _, _, y in factors])
    ykey = (2 * yt + (parity[yk] < 0)) * d + yk
    order = np.argsort(ykey, kind="stable")
    ykey, yk, yi, yv = ykey[order], yk[order].astype(idx), yi[order].astype(idx), yv[order]
    xl, xj = xl.astype(idx), xj.astype(idx)
    blocks, offset = [], 0
    for sign, size in zip((1.0, -1.0), coords.sizes):
        # the run of B entries that meets each A entry in this sector
        group = (2 * xt + (sign * parity[xl] < 0)) * d
        first = np.searchsorted(ykey, group)
        counts = np.searchsorted(ykey, group + xl, side="right") - first
        a = np.repeat(np.arange(xl.size, dtype=idx), counts)
        b = np.repeat((first - np.cumsum(counts) + counts).astype(idx), counts)
        b += np.arange(b.size, dtype=idx)
        values = xv[a] * yv[b]
        values *= weight[a]
        # the L entry at row k + d l, column i + d j
        k_, l_ = yk[b], xl[a]
        off_diag = k_ != l_
        rows = position[k_ + d * l_] - offset
        i_, j_ = yi[b], xj[a]
        side = np.sign(j_ - i_).astype(np.int8)
        cols = position[i_ + d * j_] - offset
        del a, b, k_, l_, i_, j_
        rows, cols, values = _real_parts(rows, cols, off_diag, side, values)
        del off_diag, side
        block = sp.csr_matrix((values, (rows, cols)), shape=(size, size))   # sums duplicates
        del rows, cols, values
        block.eliminate_zeros()
        blocks.append(block)
        offset += size
    return blocks


def _real_parts(rows, cols, off_diag, side, values) -> tuple:
    """The nonzero entries of R (rows, columns, values) from the entries
    ``values`` of L at the coordinates ``rows``, ``cols`` (the diagonal one
    or Re of a pair), given whether each row is off the diagonal and each
    column's side (see :func:`_real_blocks`)."""
    re, im = values.real.copy(), values.imag.copy()
    re_nonzero, im_nonzero, pair = re != 0, im != 0, side != 0
    # (entries, row step, column step, part of v, sign): Re v at (Re, Re),
    # -side Im v at (Re, Im), Im v at (Im, Re) and side Re v at (Im, Im)
    parts = ((re_nonzero, 0, 0, re, None), (pair & im_nonzero, 0, 1, im, -side),
             (off_diag & im_nonzero, 1, 0, im, None),
             (off_diag & pair & re_nonzero, 1, 1, re, side))
    size = sum(np.count_nonzero(keep) for keep, *_ in parts)
    out_rows, out_cols = np.empty(size, rows.dtype), np.empty(size, cols.dtype)
    out_values = np.empty(size)
    start = 0
    for keep, row_step, col_step, part, sign in parts:
        stop = start + np.count_nonzero(keep)
        np.add(rows[keep], row_step, out=out_rows[start:stop])
        np.add(cols[keep], col_step, out=out_cols[start:stop])
        out_values[start:stop] = part[keep] if sign is None else part[keep] * sign[keep]
        start = stop
    return out_rows, out_cols, out_values


class _SuperoperatorMeta(dict):
    """The ``meta`` of a generator stored as real sector blocks.

    ``meta["sparse_superop"]`` assembles the column-stacking superoperator
    from ``meta["no_jump"]`` and ``meta["operators"]`` on each access
    (:func:`_superoperator`).  It is never stored, so the generator keeps
    one matrix, and the caller owns what it gets.
    """

    def __missing__(self, key):
        if key != "sparse_superop":
            raise KeyError(key)
        _, d2_channels, cascade = self["operators"]
        return _superoperator(self["no_jump"], _jump_terms(d2_channels, cascade))


@dataclass
class Trajectory:
    """Density matrices sampled on an ascending time grid (us)."""

    times: np.ndarray
    states: list

    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class SteadyStateResult:
    rho: np.ndarray
    elapsed: float        # model time integrated to reach the residual
    residual: float       # ||drho/dt||_F at the returned state


# ---------------------------------------------------------------------------
# Krylov exponential steps
# ---------------------------------------------------------------------------

def _applied(rhs, v: np.ndarray) -> tuple:
    """(R v, ||R v||); a non-finite result raises :class:`IntegrationError`."""
    w = rhs(v)
    norm = np.linalg.norm(w)
    if not np.isfinite(norm):
        raise IntegrationError("the generator returned a non-finite value")
    return w, norm


def _arnoldi(rhs, basis: np.ndarray, hess: np.ndarray) -> int:
    """The Arnoldi decomposition R V_k = V_k H_k + h_(k+1,k) v_(k+1) e_k^T,
    k <= m, from the unit vector ``basis[0]``; returns k.

    Fills ``basis`` (m + 1, n) with v_1, ..., v_(k+1) and ``hess`` (m + 1, m),
    which must be zero, with H_k and h_(k+1,k).  Each new vector is
    orthogonalized by classical Gram-Schmidt, and once more when the pass
    kept less than _REORTHOGONALIZE of its norm.  The space ends early
    when the remainder of R v_j is at most _BREAKDOWN ||R v_j||: then
    h_(k+1,k) stays 0, the span of V_k is invariant under R to rounding,
    and the step from it is exact at any length.
    """
    m = hess.shape[1]
    for j in range(m):
        w, norm = _applied(rhs, basis[j])
        rest = norm
        for _ in range(2):   # a second pass only after cancellation
            c = basis[:j + 1] @ w
            w = w - c @ basis[:j + 1]
            hess[:j + 1, j] += c
            rest, before = np.linalg.norm(w), rest
            if rest >= _REORTHOGONALIZE * before:
                break
        if rest <= _BREAKDOWN * norm:
            return j + 1
        hess[j + 1, j] = rest
        np.divide(w, rest, out=basis[j + 1])
    return m


def _phi_columns(hess: np.ndarray, h: float) -> tuple:
    """(phi_1(h H) e_1, [phi_2(h H) e_1]_k) from one ``expm`` of the
    augmented (k + 2) x (k + 2) matrix [[h H, e_1, 0], [0, 0, 1], [0, 0, 0]]
    (Sidje, *ACM TOMS* 24, 130 (1998)), whose last two columns above the
    diagonal block are phi_1(h H) e_1 and phi_2(h H) e_1."""
    k = hess.shape[0]
    aug = np.zeros((k + 2, k + 2))
    aug[:k, :k] = h * hess
    aug[0, k] = 1.0
    aug[k, k + 1] = 1.0
    e = scipy.linalg.expm(aug)
    return e[:k, k], e[k - 1, k + 1]


def _check_rho0(rho0: np.ndarray, dim: int) -> np.ndarray:
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise IntegrationError(f"initial state shape {rho0.shape}, expected ({dim}, {dim})")
    if abs(np.trace(rho0) - 1.0) > 1e-8 or np.abs(rho0 - dagger(rho0)).max() > 1e-8:
        raise IntegrationError("initial state is not a unit-trace hermitian matrix")
    return (rho0 + dagger(rho0)) / 2.0


def _error_norm(e, y, y_new, dim: int, abs_tol: float, rel_tol: float) -> float:
    """A step's error norm on leading coordinates: the RMS of
    |e_ij| / (abs_tol + rel_tol max(|y_ij|, |y_new_ij|)) over all d^2 entries
    of the column-stacked state.  An off-diagonal pair stands for rho_ij and
    rho_ji, both of modulus hypot(Re, Im), so it counts twice; entries past
    the slice are zero and add nothing."""
    def mod2(x):   # |rho_ij|^2 of each pair
        return x[dim::2] ** 2 + x[dim + 1::2] ** 2

    w = abs_tol + rel_tol * np.maximum(np.abs(y[:dim]), np.abs(y_new[:dim]))
    total = np.sum((e[:dim] / w) ** 2)
    if e.size > dim:
        w = abs_tol + rel_tol * np.sqrt(np.maximum(mod2(y), mod2(y_new)))
        total += 2.0 * np.sum(mod2(e) / w ** 2)
    return float(np.sqrt(total / (dim * dim)))


def integrate(
    liouvillian: LiouvillianAction,
    rho0: np.ndarray,
    times,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
) -> Trajectory:
    """Propagate a density matrix and sample it at the requested times.

    Adaptive Krylov exponential steps on the real coordinates of the
    occupied sectors (see module docstring): each step builds one Arnoldi
    basis of at most _KRYLOV_DIM vectors from f = R y and takes
    y + h beta V phi_1(h H) e_1, with the error estimate
    h^2 beta h_(k+1,k) [phi_2(h H) e_1]_k v_(k+1) weighted elementwise by
    ``abs_tol + rel_tol * |entry|``.  Entries smaller than ``abs_tol`` are
    kept bounded rather than relatively accurate.  A rejected step keeps
    its basis and only recomputes the small exponential at a shorter h.
    Steps land exactly on the sample times.
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size < 1 or not np.isfinite(times).all()
            or np.any(np.diff(times) < 0)):
        raise IntegrationError("times must be a non-empty ascending 1-d grid of finite values")
    dim = liouvillian.dim
    rho0 = _check_rho0(rho0, dim)
    coords = liouvillian.coordinates
    rhs = liouvillian.rhs_flat()

    t = float(times[0])
    y = coords.of(rho0)   # real: rho0 is hermitian
    trace0 = np.real(np.trace(rho0))

    def sample(x):
        return unvec(coords.vec(x))

    span = times[-1] - times[0]
    # the steps advance the leading sectors rho0 occupies; L keeps the others zero
    y = y[:coords.occupied(y)]
    out = [sample(y)]
    m = min(_KRYLOV_DIM, y.size)

    scale = max(liouvillian.rate_scale, 1e-300)
    h = min(span / 100.0, 0.1 / scale)
    h_min = max(span, 1.0 / scale) * 1e-14

    basis, hess = np.empty((m + 1, y.size)), np.empty((m + 1, m))
    steps = 0
    for t_target in times[1:]:
        while t < t_target:
            f, beta = _applied(rhs, y)
            if beta == 0.0:   # a stationary state: exp(h R) y = y
                t = t_target
                break
            np.divide(f, beta, out=basis[0])
            hess.fill(0.0)
            k = _arnoldi(rhs, basis, hess)
            h_next = hess[k, k - 1]   # 0 for an invariant space
            while True:
                h_use = min(h, t_target - t)
                with np.errstate(over="ignore", invalid="ignore"):
                    phi1, phi2 = _phi_columns(hess[:k, :k], h_use)
                if not (np.isfinite(phi1).all() and np.isfinite(phi2)):
                    err = np.inf   # the small exponential overflowed
                else:
                    y_new = y + (h_use * beta) * (phi1 @ basis[:k])
                    err = 0.0 if h_next == 0.0 else _error_norm(
                        (h_use * h_use * beta * h_next * phi2) * basis[k], y, y_new,
                        dim, abs_tol, rel_tol)
                steps += 1
                if steps > _MAX_STEPS:
                    raise IntegrationError(f"exceeded {_MAX_STEPS} steps before t={times[-1]:g}")
                # the error grows as h^(k+1); an overflowing exponential
                # shrinks h fivefold
                factor = 0.9 * err ** (-1.0 / (k + 1)) if err > 0.0 else np.inf
                if err <= 1.0:
                    break
                h = max(h_use * max(0.2, factor), h_min)
                if h_use <= h_min:
                    raise IntegrationError(
                        f"step-size underflow at t={t:g} (err={err:g}); generator too stiff "
                        "for the requested tolerances"
                    )
            clipped = h_use == t_target - t
            t = t_target if clipped else t + h_use
            y = y_new
            if h_next == 0.0:   # an invariant space: exact at any step
                h = np.inf
            else:
                grown = h_use * min(5.0, factor)
                h = max(h, grown) if clipped else grown
        out.append(sample(y))

    drift = abs(np.real(np.trace(out[-1])) - trace0)
    if drift > 1e-9:
        raise IntegrationError(f"trace drifted by {drift:g} over the run")
    return Trajectory(times=times, states=out)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

#: shift s of the Sylvester preconditioner (A - s)^-1, in units of rate_scale.
#: Smaller shifts resolve the slow Raman dynamics better: at 0.1 GMRES
#: stalls for weakly driven full-tier points; at 1e-3 it takes 15-30
#: iterations on the fig. 3 grid.
_SYLVESTER_SHIFT = 1e-3
#: triangular Sylvester blocks up to this size go to LAPACK ?trsyl whole;
#: larger ones are split (measured: even at 100, 1.6x faster at 200, 2x at 313)
_SYLVESTER_LEAF = 64
#: GMRES stops at ||b - B x|| <= rtol ||b||: _GMRES_RTOL for the state,
#: _PROBE_RTOL for the probes, which only need the size of their solution.
#: A probe is sure to see a near-null direction u of L only when its
#: right-hand side has |<u, r>| > rtol ||r||; below that GMRES may stop
#: without resolving u.  For a random r that component is about
#: ||r|| / sqrt(n), and a sector holds n = 648 (effective, cutoff 2) to
#: about 80,000 (full, cutoff 3) coordinates: 1/sqrt(n) is 3.5e-3 at full
#: cutoff 3, so 1e-2 is unsound, and the margin of 1e-6 shrinks as sqrt(n)
#: with the space (a Gaussian component falls below it with a chance of
#: about 0.8 rtol sqrt(n), 2e-4 at full cutoff 3)
_GMRES_RTOL = 1e-13
_PROBE_RTOL = 1e-6
#: a state GMRES did not bring to _GMRES_RTOL is still accepted when its
#: normwise backward error ||b - B x|| / (||B||_1 ||x|| + ||b||) is at most
#: this: four times the unit roundoff u = eps / 2 (Rigal & Gaches, J. ACM
#: 14, 543 (1967)).  At strong drive the rounding floor u ||B|| ||x|| / ||b||
#: lies above _GMRES_RTOL, and no solve in floating point gets below a
#: backward error of order u; the full-tier fig. 3 grid up to Omega_s 300
#: lands at 0.26 u or below
_BACKWARD_TOL = 4 * np.finfo(float).eps / 2
#: GMRES restart length and number of restart cycles
_GMRES_RESTART = 100
_GMRES_CYCLES = 2
#: seed of the right-hand sides of the degeneracy probes
_PROBE_SEED = 1972
#: a probe's ||x|| / ||r|| beyond _PROBE_LIMIT / rate_scale means a second
#: eigenvalue within 1e-10 rate_scale of zero
_PROBE_LIMIT = 1e10


def triangular_sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X with a+ X + X b = c, for upper triangular a (m, m) and b (n, n).

    Recursive blocked solve (Jonsson & Kagstrom, ACM TOMS 28, 392 (2002)):
    the larger dimension is halved, the leading half solved first and
    folded into the trailing half's right-hand side by one matrix product,
    so most of the work is level-3 BLAS.  Blocks of at most
    ``_SYLVESTER_LEAF`` on both sides go to LAPACK ?trsyl, whose a+ form
    reads ``a`` by columns (twice as fast as the a form at these sizes).
    """
    m, n = c.shape
    if max(m, n) <= _SYLVESTER_LEAF:
        (trsyl,) = scipy.linalg.get_lapack_funcs(("trsyl",), (a, b, c))
        x, scale, _ = trsyl(a, b, c, trana="C", tranb="N")
        return x / scale
    x = np.empty_like(c)
    if m >= n:
        h = m // 2
        x[:h] = triangular_sylvester(a[:h, :h], b, c[:h])
        x[h:] = triangular_sylvester(a[h:, h:], b, c[h:] - a[:h, h:].conj().T @ x[:h])
    else:
        h = n // 2
        x[:, :h] = triangular_sylvester(a, b[:h, :h], c[:, :h])
        x[:, h:] = triangular_sylvester(a, b[h:, h:], c[:, h:] - x[:, :h] @ b[:h, h:])
    return x


#: the (row, column) parity blocks of rho that hold each sector's
#: coordinates; the odd sector's rho-+ is rho+-^H
SECTOR_BLOCKS = {"even": ((0, 0), (1, 1)), "odd": ((0, 1),)}


class ShiftedNoJumpInverse:
    """(A - s)^-1 with A rho = K rho + rho K+, on one parity sector's coordinates.

    ``parity`` is the +-1 vector of a weak symmetry P (see
    :func:`liouvillian_from_operators`), so K is block-diagonal with blocks
    K+ and K- on the P = +1 and P = -1 states.  A sector's coordinates
    (:class:`SectorCoordinates`, numbered from 0 within the sector) are
    those of rho++ and rho-- for ``"even"`` and of rho+- for ``"odd"``,
    where rho-+ = rho+-^H.  Block (i, j) of (A - s) X = Y reads
    (K_i - s/2) X_ij + X_ij (K_j - s/2)+ = Y_ij: Bartels-Stewart with one
    complex Schur form K_i+ - s/2 = U_i T_i U_i+ per parity block, so
    T_i+ Z + Z T_j = U_i+ Y_ij U_j with X_ij = U_i Z U_j+, and the recursive
    triangular solve of :func:`triangular_sylvester`.  A keeps rho
    hermitian, so the odd sector needs X+- alone.  Every eigenvalue of K
    has Re <= 0, so the solve is well posed for s > 0.
    """

    def __init__(self, k: np.ndarray, parity: np.ndarray, s: float):
        d = k.shape[0]
        coords = sector_coordinates(d, parity)
        idx = (np.flatnonzero(parity > 0), np.flatnonzero(parity < 0))
        self.schur = [scipy.linalg.schur(k[np.ix_(i, i)].conj().T - 0.5 * s * np.eye(i.size),
                                          output="complex") for i in idx]
        lead = coords.sizes[0]
        #: number of coordinates in each sector
        self.size = {"even": lead, "odd": d * d - lead}
        offset = {"even": 0, "odd": lead}
        #: per sector, (i, j) and the maps of :func:`_block_maps` of each
        #: parity block it solves
        self.blocks = {sector: [] for sector in SECTOR_BLOCKS}
        for sector, blocks in SECTOR_BLOCKS.items():
            for i, j in blocks:
                rows, cols = idx[i], idx[j]
                if rows.size and cols.size:
                    kk, ll = np.repeat(rows, cols.size), np.tile(cols, rows.size)
                    slot = coords.position[kk + d * ll] - offset[sector]
                    self.blocks[sector].append(
                        (i, j) + _block_maps(slot, np.sign(ll - kk), self.size[sector], i == j))

    def solve(self, c: np.ndarray, sector: str) -> np.ndarray:
        """The coordinates of (A - s)^-1 Y, for the real coordinates ``c`` of
        one sector of Y."""
        out = np.empty(c.size)
        padded = np.append(c, 0.0)   # a diagonal entry's Im
        for i, j, re, im, sign, src_re, dst_re, src_im, dst_im, im_sign in self.blocks[sector]:
            (ti, ui), (tj, uj) = self.schur[i], self.schur[j]
            y = np.empty(re.size, dtype=complex)
            y.real = padded[re]
            y.imag = padded[im] * sign
            y = y.reshape(ui.shape[0], uj.shape[0])
            x = (ui @ triangular_sylvester(ti, tj, ui.conj().T @ y @ uj) @ uj.conj().T).ravel()
            out[dst_re] = x.real[src_re]
            out[dst_im] = x.imag[src_im] * im_sign
        return out


def _block_maps(slot: np.ndarray, side: np.ndarray, size: int, diagonal_block: bool) -> tuple:
    """The index maps between a sector's coordinates and one parity block
    of rho, row-major, given each entry's coordinate ``slot`` (its diagonal
    one or Re of its pair) and ``side`` (0 on the diagonal, +1 above it,
    -1 below it).

    Gather, for Y_ij from the coordinates: (Re slot, Im slot, sign of Im),
    where a diagonal entry's Im slot is ``size``, one past the sector, which
    holds zero.  Scatter, for the coordinates from X_ij: (entries giving the
    Re or diagonal slots, those slots, entries giving the Im slots, those
    slots, sign of Im).  A diagonal block gives each pair through its entry
    above the diagonal; the odd block X+- holds every odd pair once.
    """
    gather = (slot, np.where(side == 0, size, slot + 1), np.where(side < 0, -1.0, 1.0))
    re = np.flatnonzero(side >= 0) if diagonal_block else np.arange(slot.size)
    im = np.flatnonzero(side > 0) if diagonal_block else np.arange(slot.size)
    return gather + (re, slot[re], im, slot[im] + 1, side[im].astype(float))


class _BorderedSectors:
    """GMRES on the parity sectors of the trace-bordered generator
    B x = L x + w tr x, w = (rate_scale / d) I, in real coordinates.

    B maps each sector into itself, because L does and the trace lives on
    the diagonal, which is even; on the odd sector B is L.  GMRES runs on
    one sector's coordinates (see :class:`ShiftedNoJumpInverse`),
    right-preconditioned by the shifted no-jump inverse.  The generator is
    applied through ``liouvillian.matvec``: to the even sector as the
    leading slice, to the odd one inside all-zero full coordinates, whose
    even block ``matvec`` skips.
    """

    def __init__(self, liouvillian: LiouvillianAction):
        self.dim = liouvillian.dim
        self.scale = liouvillian.rate_scale
        self.rhs = liouvillian.rhs_flat()
        self.blocks = liouvillian.meta["blocks"]
        self.inverse = ShiftedNoJumpInverse(
            liouvillian.meta["no_jump"], liouvillian.meta["parity"], _SYLVESTER_SHIFT * self.scale,
        )
        self.size = self.inverse.size

    def bordered(self, sector: str) -> Callable[[np.ndarray], np.ndarray]:
        """x -> B x on one sector's coordinates."""
        d, weight, rhs = self.dim, self.scale / self.dim, self.rhs
        if sector == "even":
            def apply(x):
                out = rhs(x)
                out[:d] += weight * x[:d].sum()
                return out
            return apply
        lead = self.size["even"]
        full = np.zeros(d * d)

        def apply(x):
            full[lead:] = x
            return rhs(full)[lead:]
        return apply

    def solve(self, sector: str, b: np.ndarray, rtol: float):
        """(x, GMRES info, GMRES iterations) for B x = b on one sector."""
        inverse, bordered = self.inverse, self.bordered(sector)
        size = self.size[sector]
        op = spla.LinearOperator((size, size), matvec=lambda y: bordered(inverse.solve(y, sector)),
                                 dtype=float)
        iterations = [0]

        def count(_):
            iterations[0] += 1

        y, info = spla.gmres(op, b, rtol=rtol, atol=0.0, restart=_GMRES_RESTART,
                             maxiter=_GMRES_CYCLES, callback=count, callback_type="pr_norm")
        return inverse.solve(y, sector), info, iterations[0]

    def backward_error(self, x: np.ndarray, b: np.ndarray) -> float:
        """||b - B x|| / (||B||_1 ||x|| + ||b||) on the even sector, with
        ||B||_1 <= ||L_even||_1 + rate_scale (the border adds rate_scale to
        a column)."""
        norm_b = spla.norm(self.blocks[0], 1) + self.scale
        residual = np.linalg.norm(b - self.bordered("even")(x))
        return float(residual / (norm_b * np.linalg.norm(x) + np.linalg.norm(b)))

    def probe(self, sector: str):
        """(||B^-1 r|| rate_scale / ||r||, GMRES info) for a seeded random real
        r on one sector, traceless on the even one; (0, 0) on an empty sector.
        On traceless matrices B^-1 is L^-1, so the growth is large exactly
        when L has another (near-)zero eigenvalue in that sector."""
        size = self.size[sector]
        if size == 0:
            return 0.0, 0
        r = np.random.default_rng(_PROBE_SEED).normal(size=size)
        if sector == "even":
            r[:self.dim] -= r[:self.dim].mean()
        x, info, _ = self.solve(sector, r / np.linalg.norm(r), _PROBE_RTOL)
        return float(np.linalg.norm(x)) * self.scale, info


def steady_state_nullspace(liouvillian: LiouvillianAction,
                           keep: Callable[[np.ndarray], bool] | None = None) -> np.ndarray | None:
    """Unique trace-one state in the generator's null space.

    Solves (L + w tr) rho = w, w = (rate_scale / d) I, from the no-jump
    operator K in ``meta["no_jump"]`` and the parity P in ``meta["parity"]``
    (see :func:`liouvillian_from_operators`).  Tracing the system gives
    tr rho = 1 and then L rho = 0, so the bordered operator B is regular
    exactly when the null space is one-dimensional.

    P is a weak symmetry, so L maps the even sector (rho++ + rho--) and the
    odd sector (rho+- + rho-+) each into itself, and the unique steady state
    (with P rho P, also a steady state) lies in the even one.  GMRES solves
    B on the even sector's real coordinates only, right-preconditioned by
    the shifted no-jump inverse of :class:`ShiftedNoJumpInverse`: one Schur
    form per parity block and a recursive blocked triangular Sylvester
    solve.  It stops at a residual of _GMRES_RTOL relative to w; a solve
    that stops short of it is accepted when its normwise backward error is
    at most _BACKWARD_TOL, and raises :class:`ConvergenceError` otherwise.
    A singular B can still be consistent for w, and a second zero
    eigenvalue may sit in either sector, so one probe per sector solves
    against a fixed random right-hand side (traceless on the even sector):
    its solution is L^-1 r, and it fails or grows past
    _PROBE_LIMIT / rate_scale when L has another (near-)zero eigenvalue in
    that sector; that raises :class:`DegenerateSteadyState`.  A generator
    without a declared parity is all even, with an empty odd sector and no
    odd probe.  The state is hermitian by construction and returned
    normalised.

    ``keep``, when given, sees the solved state before the probes, and a
    state it rejects is dropped unprobed: the call returns None.  So every
    state returned has been probed, and a caller that solves several
    generators for one answer, as the Fock-cutoff escalation does, probes
    only the one it keeps, on the same Schur forms as its solve.
    """
    d = liouvillian.dim
    sectors = _BorderedSectors(liouvillian)
    w = np.zeros(sectors.size["even"])
    w[:d] = liouvillian.rate_scale / d
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow raises below
        rho, info, iterations = sectors.solve("even", w, _GMRES_RTOL)
        backward = sectors.backward_error(rho, w) if info != 0 else 0.0
    if not backward <= _BACKWARD_TOL:
        raise ConvergenceError(
            f"GMRES did not reach the steady state in {iterations} iterations "
            f"(normwise backward error {backward:.1e} > {_BACKWARD_TOL:.1e})"
        )
    # the solution has trace one; GMRES returns zero when its norms overflow
    trace = rho[:d].sum()
    if not (np.isfinite(rho).all() and trace > 0.0):
        raise ConvergenceError(
            f"the steady-state solve overflowed: trace {trace:g} at rate_scale "
            f"{liouvillian.rate_scale:.3g}"
        )
    rho = liouvillian.coordinates.vec(rho / trace).reshape((d, d), order="F")
    if keep is not None and not keep(rho):
        return None
    for sector in SECTOR_BLOCKS:
        growth, info = sectors.probe(sector)
        if info != 0 or growth > _PROBE_LIMIT:
            raise DegenerateSteadyState(
                "zero eigenvalue is degenerate or not separated from the spectrum "
                f"(probe of the {sector} sector ||L^-1 r|| rate_scale / ||r|| = {growth:.1e}"
                + (", no convergence)" if info else ")")
            )
    return rho


def steady_state_longtime(
    liouvillian: LiouvillianAction,
    rho0: np.ndarray,
    tol: float = 1e-8,
    max_time: float | None = None,
) -> SteadyStateResult:
    """Relax toward the steady state until ||drho/dt||_F <= tol * rate_scale.

    The per-chunk horizon grows geometrically, so critically slow
    points (a/b -> 1) fail fast with a :class:`ConvergenceError` once
    ``max_time`` (default 1e5 / rate_scale) is exhausted.  The integration
    tolerances sit a decade (relative) and two decades (absolute) below
    the residual target; they are the accuracy floor the residual can reach.
    """
    scale = max(liouvillian.rate_scale, 1e-300)
    if max_time is None:
        max_time = 1e5 / scale
    rel_tol = max(1e-12, tol / 10.0)
    abs_tol = max(1e-14, tol / 100.0)
    rho = _check_rho0(rho0, liouvillian.dim)
    elapsed = 0.0
    chunk = 2.0 / scale
    while True:
        res = float(np.linalg.norm(liouvillian.apply(rho)))
        if res <= tol * scale:
            return SteadyStateResult(rho=rho, elapsed=elapsed, residual=res)
        if elapsed >= max_time:
            raise ConvergenceError(
                f"no steady state after t={elapsed:g} (residual {res:g} > {tol * scale:g}); "
                "expect relaxation to slow as (a/b - 1)^-2 near matched drive"
            )
        chunk = min(chunk * 1.5, max_time - elapsed, 64.0 / scale)
        traj = integrate(
            liouvillian,
            rho,
            np.array([0.0, chunk]),
            rel_tol=rel_tol,
            abs_tol=abs_tol,
        )
        rho = traj.final()
        elapsed += chunk
