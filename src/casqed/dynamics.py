"""Time evolution and steady-state solvers.

Every tier states its master equation once, as operators: a
Hamiltonian, factor-2 dissipator channels and one cascade term.
:func:`liouvillian_from_operators` writes them as the no-jump operator
K = -iH - sum rate c+ c - q a2+ a1 (:func:`no_jump_generator`) plus one
list of jump terms (w, b, a), so that L(rho) = K rho + rho K+ +
sum w b rho a+.  The sparse column-stacking superoperator, the
generator's only matrix view, is assembled from K and the jump list and
stored as one block per parity sector (below), and the steady-state
solver's preconditioner inverts the K part.

The integrator is an adaptive embedded Dormand-Prince 5(4) pair acting
on the column-stacked state.  The generator maps each parity sector into
itself, so DP5 advances only the entries of the sectors rho0 occupies
(the even one alone from the vacuum ground state): the stages, the error
estimate and the FSAL stage are vectors of those entries, scattered into
a full vector only to apply the generator and to return a sample.  The
other entries stay exact zeros, so the RMS error norm still divides by
all d^2 entries, and the steps are those of DP5 on the full state.
Hermiticity is restored after every accepted step (rho <- (rho + rho+)/2)
on the occupied entries, as rho_ij and rho_ji share a sector; the trace
is conserved exactly by linearity of a trace-preserving generator, and
drift beyond 1e-9 is treated as an integrator failure.  Positivity is
never projected: violations surface in the returned states and are the
caller's signal that tolerances were too loose.

Strongly detuned models are stiff, and no builder states how stiff.
Error control finds the stable step by itself (Hairer & Wanner, *Solving
ODEs II*, section IV.2): a step past the stability boundary lets the
fast modes grow, the error estimate rejects it, and the step settles at
the boundary.  Every eigenmode of a linear generator is propagated
independently, so the slow (observable) dynamics and the steady state
stay accurate.

Steady states of every tier are solved directly.  Each builder declares
a parity P (a +-1 vector on the basis states) that
:func:`liouvillian_from_operators` checks to be a weak symmetry (K even,
b and a of each jump term of one parity), so the generator maps the even
sector (rho++ + rho--) and the odd sector (rho+- + rho-+) each into
itself, and the steady state is even.  GMRES solves the trace-bordered
generator on the even sector alone, right-preconditioned by the inverse
of the shifted no-jump part: a Sylvester equation per parity block,
solved by Bartels-Stewart with one Schur form per block and a recursive
blocked triangular solve (:class:`ShiftedNoJumpInverse`).  Two probes, one per sector, check that
no other eigenvalue sits at zero.  Long-time relaxation remains as an
independent check.

The spectral gap is not computed: the probes detect a second zero
eigenvalue at any size, and tests take the gap of the 16 x 16 reduced
generator from :func:`casqed.reduced.liouvillian_matrix`.
"""

from __future__ import annotations

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
#: ``solver.ss_tol`` residual; both go when that check is rederived from
#: the bordered residual (see ROADMAP.md)
NULLSPACE_DIM_LIMIT = 64

#: accepted plus rejected steps after which :func:`integrate` gives up
_MAX_STEPS = 50_000_000


@dataclass
class LiouvillianAction:
    """A master-equation generator as a deterministic map rho -> drho/dt.

    ``matvec`` applies the generator to a column-stacked state.
    ``rate_scale`` is the characteristic damping rate used to scale
    residual tolerances.  Generators built by
    :func:`liouvillian_from_operators` keep their operators in
    ``meta["operators"]``, their dense no-jump operator K in
    ``meta["no_jump"]`` and their parity in ``meta["parity"]``.  Their
    sparse superoperator, built from K and the jump list, is stored as
    one CSR block per parity sector; ``matvec`` multiplies the blocks of
    the sectors in which its input has a nonzero (or NaN) entry, and
    ``meta["sparse_superop"]`` assembles the whole matrix on access.
    """

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]
    rate_scale: float = 1.0
    meta: dict = field(default_factory=dict)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """drho/dt for a (dim, dim) state."""
        rho = np.asarray(rho, dtype=complex)
        d = self.dim
        if rho.shape != (d, d):
            raise DimensionMismatch(f"state shape {rho.shape}, expected ({d}, {d})")
        return self.matvec(rho.reshape(-1, order="F")).reshape((d, d), order="F")

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


def _parities(op, parity: np.ndarray) -> set:
    """The signs p_i p_j over the nonzero entries op_ij: {1} for an even
    operator, {-1} for an odd one, both for a mixed one, none for zero.

    ``parity`` holds P's eigenvalue p_i on each basis state.
    """
    op = sp.csr_matrix(op)
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    return set(np.unique((parity[rows] * parity[op.indices])[op.data != 0]).tolist())


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
    L = I (x) K + conj(K) (x) I + sum w conj(a) (x) b.  All of its terms
    are summed in one sparse merge, straight into one CSR block per parity
    sector (see :func:`_sector_blocks`), each nonzero stored once.  The
    returned ``matvec`` multiplies only the blocks of the sectors in which
    its input has a nonzero entry (a NaN counts), and gives the bits of
    the whole matrix's product.  ``meta["sparse_superop"]`` assembles that
    whole CSR anew on each access; it is not kept.  The operators are kept
    in ``meta["operators"]``, and the dense K in ``meta["no_jump"]`` for
    the steady-state solver's preconditioner.

    ``meta["parity"]`` declares a parity P as its +-1 eigenvalue on each
    basis state (all +1 when absent).  It is checked to be a weak symmetry,
    which the steady-state solver relies on: K must be even, and b and a of
    each jump term must share one definite parity, so that rho -> P rho P
    commutes with L; otherwise :class:`ParityError` is raised.
    """
    dim = h.shape[0]
    meta = dict(meta or {})
    parity = meta.setdefault("parity", np.ones(dim))
    k = no_jump_generator(h, d2_channels, cascade)
    q, a1, a2 = cascade
    jumps = [(2.0 * rate, c, c) for rate, c in d2_channels] + [(q, a1, a2), (q, a2, a1)]
    if -1 in _parities(k, parity):
        raise ParityError("K is not block-diagonal in the declared parity")
    if any(len(_parities(b, parity) | _parities(a, parity)) > 1 for _, b, a in jumps):
        raise ParityError("a jump term b rho a+ needs b and a of one definite parity")
    meta["no_jump"] = k
    meta["operators"] = (h, d2_channels, cascade)
    sectors = _sector_rows(parity)
    blocks = _sector_blocks(k, jumps, sectors)

    def matvec(v):
        v = np.asarray(v)
        out = np.zeros(v.shape, dtype=complex)
        for rows, block in zip(sectors, blocks):
            part = v[rows]
            if part.any():   # a NaN is nonzero
                out[rows] = block @ part
        return out

    return LiouvillianAction(dim=dim, matvec=matvec, rate_scale=rate_scale,
                             meta=_SuperoperatorMeta(meta, sectors, blocks))


def _sector_rows(parity: np.ndarray) -> list:
    """The positions of each nonempty parity sector in a column-stacked state.

    Entry i + d j of vec(rho) lies in the even sector when p_i p_j = 1 and in
    the odd one when p_i p_j = -1; the even sector comes first, and each
    array ascends.  All +1 (no declared parity) gives one sector.
    """
    sign = np.kron(parity, parity)
    return [rows for rows in (np.flatnonzero(sign > 0), np.flatnonzero(sign < 0)) if rows.size]


def _sector_blocks(k: np.ndarray, jumps, sectors) -> list:
    """I (x) K + conj(K) (x) I + sum w conj(a) (x) b, one CSR block per sector.

    L maps each sector into itself, so it is the direct sum of its blocks
    L_ss: block s acts on the entries ``sectors[s]`` of a column-stacked
    state, which it numbers 0, 1, ... in that (ascending) order.  All terms
    are summed in one sparse merge of the entries of every Kronecker
    product, numbered with the sectors stacked, and the blocks are views of
    its arrays: each nonzero is stored once.

    The merge gives the bits of the term-by-term sum whenever at most two
    terms share a position (addition commutes), as in every tier: a jump
    term has i != k and j != l at its entries (i + d j, k + d l), which
    I (x) K (j = l) and conj(K) (x) I (i = k) never have, and no two jump
    terms of a tier share a position.  A zero part of an entry ends as +0,
    as after the term-by-term sum's last addition, and entries that sum to
    zero are dropped.
    """
    d = k.shape[0]
    n = d * d
    idx = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    stacked = np.empty(n, dtype=idx)   # each column-stacked entry's number, sectors stacked
    stacked[np.concatenate(sectors)] = np.arange(n)
    eye = sp.identity(d, dtype=complex, format="coo")
    k = sp.coo_matrix(k)
    # (w, A, B) of each term w A (x) B
    factors = [(1.0, eye, k), (1.0, k.conj(), eye)]
    factors += [(w, sp.coo_matrix(a).conj(), sp.coo_matrix(b)) for w, b, a in jumps]
    size = sum(x.nnz * y.nnz for _, x, y in factors)
    rows, cols = np.empty(size, dtype=idx), np.empty(size, dtype=idx)
    values = np.empty(size, dtype=complex)
    start = 0
    for w, x, y in factors:
        stop = start + x.nnz * y.nnz
        rows[start:stop] = stacked[(d * x.row.astype(np.intp))[:, None] + y.row].ravel()
        cols[start:stop] = stacked[(d * x.col.astype(np.intp))[:, None] + y.col].ravel()
        values[start:stop] = (x.data[:, None] * y.data).ravel() * w
        start = stop
    lsp = sp.csr_matrix((values, (rows, cols)), shape=(n, n))   # sums duplicate positions
    del rows, cols, values
    lsp.eliminate_zeros()
    lsp.data += 0.0   # a zero part ends as +0
    blocks, start = [], 0
    for sector in sectors:
        ptr = lsp.indptr[start:start + sector.size + 1]
        entries = slice(ptr[0], ptr[-1])
        lsp.indices[entries] -= start
        blocks.append(sp.csr_matrix((lsp.data[entries], lsp.indices[entries], ptr - ptr[0]),
                                    shape=(sector.size, sector.size)))
        start += sector.size
    return blocks


class _SuperoperatorMeta(dict):
    """The ``meta`` of a generator stored as sector blocks.

    ``meta["sparse_superop"]`` assembles the column-stacking superoperator
    as one CSR from the blocks on each access.  It is never stored, so the
    generator keeps each nonzero once, and the caller owns what it gets.
    """

    def __init__(self, meta: dict, sectors: list, blocks: list):
        super().__init__(meta)
        self._sectors, self._blocks = sectors, blocks

    def __missing__(self, key):
        if key != "sparse_superop":
            raise KeyError(key)
        rows = np.concatenate(self._sectors)
        stacked = np.empty(rows.size, dtype=np.intp)
        stacked[rows] = np.arange(rows.size)
        # each block's rows with column-stacked column indices, sectors stacked
        wide = [sp.csr_matrix((b.data, sector[b.indices], b.indptr), shape=(b.shape[0], rows.size))
                for sector, b in zip(self._sectors, self._blocks)]
        return sp.vstack(wide, format="csr")[stacked]


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
# Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4


def _check_rho0(rho0: np.ndarray, dim: int) -> np.ndarray:
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise IntegrationError(f"initial state shape {rho0.shape}, expected ({dim}, {dim})")
    if abs(np.trace(rho0) - 1.0) > 1e-8 or np.abs(rho0 - dagger(rho0)).max() > 1e-8:
        raise IntegrationError("initial state is not a unit-trace hermitian matrix")
    return (rho0 + dagger(rho0)) / 2.0


def _occupied(liouvillian: LiouvillianAction, y: np.ndarray) -> np.ndarray:
    """The ascending positions of the parity sectors in which the
    column-stacked state ``y`` has a nonzero entry (see :func:`_sector_rows`)."""
    parity = liouvillian.meta.get("parity", np.ones(liouvillian.dim))
    mask = np.zeros(y.size, dtype=bool)
    for rows in _sector_rows(parity):
        mask[rows] = y[rows].any()
    return np.flatnonzero(mask)


def integrate(
    liouvillian: LiouvillianAction,
    rho0: np.ndarray,
    times,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
) -> Trajectory:
    """Propagate a density matrix and sample it at the requested times.

    Adaptive Dormand-Prince 5(4) with an elementwise error weight
    ``abs_tol + rel_tol * |entry|``.  Entries smaller than ``abs_tol``
    are kept bounded rather than relatively accurate, which is what
    makes stiff detuned models affordable.  The step comes from the error
    estimate alone; on a stiff generator it settles at the stability
    boundary (see module docstring).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) < 0):
        raise IntegrationError("times must be a non-empty ascending 1-d grid")
    dim = liouvillian.dim
    rho0 = _check_rho0(rho0, dim)
    rhs = liouvillian.rhs_flat()

    t = float(times[0])
    y = rho0.reshape(-1, order="F").copy()
    trace0 = np.real(np.trace(rho0))

    span = max(times[-1] - times[0], 0.0)
    if span == 0.0:
        return Trajectory(times=times, states=[unvec(y.copy()) for _ in times])

    # DP5 advances the entries of the sectors rho0 occupies; L keeps the
    # others at exact zeros, which stay in ``full`` between generator calls
    occupied = _occupied(liouvillian, y)
    full = np.zeros(y.size, dtype=complex)

    def rhs_occupied(x):
        full[occupied] = x
        return rhs(full)[occupied]

    def sample(x):
        state = np.zeros(full.size, dtype=complex)
        state[occupied] = x
        return unvec(state)

    # rho+ pairs entry i + d j with j + d i, which lies in the same sector
    position = np.empty(y.size, dtype=np.intp)
    position[occupied] = np.arange(occupied.size)
    partner = position[(occupied % dim) * dim + occupied // dim]
    y = y[occupied]
    out = [sample(y)]

    scale = max(liouvillian.rate_scale, 1e-300)
    h = min(span / 100.0, 0.1 / scale)
    h_min = max(span, 1.0 / scale) * 1e-14

    k = np.empty((7, y.size), dtype=complex)
    k[0] = rhs_occupied(y)
    states_iter = iter(range(1, times.size))
    next_i = next(states_iter, None)

    steps = 0
    just_rejected = False
    while next_i is not None:
        t_target = float(times[next_i])
        clipped = False
        if t + h >= t_target:
            h_use = t_target - t
            clipped = True
        else:
            h_use = h
        if h_use <= 0.0:
            # duplicate time point
            out.append(sample(y))
            next_i = next(states_iter, None)
            continue

        for i in range(1, 7):
            k[i] = rhs_occupied(y + (h_use * _DP_A[i]) @ k[:i])
        y5 = y + (h_use * _DP_B5) @ k
        err_vec = (h_use * _DP_E) @ k

        # RMS over all d^2 entries: the unoccupied ones add exact zeros
        sc = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.sum((np.abs(err_vec) / sc) ** 2) / full.size))

        if err <= 1.0:
            t = t + h_use
            y = (y5 + y5[partner].conj()) / 2.0
            # FSAL: stage 7 was evaluated at y5; the symmetrization shift
            # is pure rounding noise, so k7 serves as the next step's k1
            k[0] = k[6]
            if clipped and abs(t - t_target) <= 1e-12 * max(1.0, abs(t_target)):
                out.append(sample(y))
                next_i = next(states_iter, None)
            # no growth right after a rejection: at the stability boundary
            # this keeps the step from cycling between rejected and accepted
            growth = 1.0 if just_rejected else 2.0
            factor = min(growth, 0.9 * err ** -0.2) if err > 0.0 else growth
            just_rejected = False
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
            just_rejected = True
        h = max(h * max(0.2, factor), h_min)
        if h <= h_min and err > 1.0:
            raise IntegrationError(
                f"step-size underflow at t={t:g} (err={err:g}); generator too stiff "
                "for the requested tolerances"
            )
        steps += 1
        if steps > _MAX_STEPS:
            raise IntegrationError(f"exceeded {_MAX_STEPS} steps before t={times[-1]:g}")

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
#: _PROBE_RTOL for the probes, which only need the size of their solution
_GMRES_RTOL = 1e-13
_PROBE_RTOL = 1e-6
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


#: the (row, column) parity blocks of rho in each sector of rho -> P rho P
SECTOR_BLOCKS = {"even": ((0, 0), (1, 1)), "odd": ((0, 1), (1, 0))}


class ShiftedNoJumpInverse:
    """(A - s)^-1 with A rho = K rho + rho K+, one parity sector at a time.

    ``parity`` is the +-1 vector of a weak symmetry P (see
    :func:`liouvillian_from_operators`), so K is block-diagonal with blocks
    K+ and K- on the P = +1 and P = -1 states.  A sector vector stacks the
    column-stacked blocks of rho: rho++ then rho-- for ``"even"``, rho+-
    then rho-+ for ``"odd"``; ``index[sector]`` holds their positions in
    the column-stacked full rho.  Block (i, j) of (A - s) X = Y reads
    (K_i - s/2) X_ij + X_ij (K_j - s/2)+ = Y_ij: Bartels-Stewart with one
    complex Schur form K_i+ - s/2 = U_i T_i U_i+ per parity block, so
    T_i+ Z + Z T_j = U_i+ Y_ij U_j with X_ij = U_i Z U_j+, and the recursive
    triangular solve of :func:`triangular_sylvester`.  Every eigenvalue
    of K has Re <= 0, so the solve is well posed for s > 0.
    """

    def __init__(self, k: np.ndarray, parity: np.ndarray, s: float):
        d = k.shape[0]
        idx = (np.flatnonzero(parity > 0), np.flatnonzero(parity < 0))
        self.schur = [scipy.linalg.schur(k[np.ix_(i, i)].conj().T - 0.5 * s * np.eye(i.size),
                                         output="complex") for i in idx]
        self.index = {
            sector: np.concatenate([(idx[i][:, None] + d * idx[j][None, :]).ravel(order="F")
                                    for i, j in blocks])
            for sector, blocks in SECTOR_BLOCKS.items()
        }

    def solve(self, y: np.ndarray, sector: str) -> np.ndarray:
        """The sector vector of (A - s)^-1 Y, for the sector vector ``y`` of Y."""
        out = np.empty_like(y)
        start = 0
        for i, j in SECTOR_BLOCKS[sector]:
            (ti, ui), (tj, uj) = self.schur[i], self.schur[j]
            shape = (ui.shape[0], uj.shape[0])
            stop = start + shape[0] * shape[1]
            if stop > start:
                rhs = ui.conj().T @ y[start:stop].reshape(shape, order="F") @ uj
                x = ui @ triangular_sylvester(ti, tj, rhs) @ uj.conj().T
                out[start:stop] = x.reshape(-1, order="F")
            start = stop
        return out


class _BorderedSectors:
    """GMRES on the parity sectors of the trace-bordered generator
    B x = L x + w tr x, w = (rate_scale / d) I.

    B maps each sector into itself, because L does and the trace lives on
    the diagonal, which is even; on the odd sector B is L.  GMRES runs on
    sector vectors (see :class:`ShiftedNoJumpInverse`), right-preconditioned
    by the shifted no-jump inverse; the generator is applied through
    ``liouvillian.matvec`` on the full vector, scattered and gathered, which
    multiplies that sector's block alone.
    """

    def __init__(self, liouvillian: LiouvillianAction):
        d = liouvillian.dim
        self.dim = d
        self.scale = liouvillian.rate_scale
        self.rhs = liouvillian.rhs_flat()
        self.inverse = ShiftedNoJumpInverse(
            liouvillian.meta["no_jump"], liouvillian.meta["parity"], _SYLVESTER_SHIFT * self.scale,
        )
        self.diag = {sector: np.flatnonzero(index % (d + 1) == 0)
                     for sector, index in self.inverse.index.items()}

    def solve(self, sector: str, b: np.ndarray, rtol: float):
        """(x, GMRES info) for B x = b on one sector."""
        d, inverse = self.dim, self.inverse
        index, diag, weight = inverse.index[sector], self.diag[sector], self.scale / d

        def bordered(y):
            x = inverse.solve(y, sector)
            full = np.zeros(d * d, dtype=complex)
            full[index] = x
            out = self.rhs(full)[index]
            out[diag] += weight * x[diag].sum()
            return out

        op = spla.LinearOperator((index.size, index.size), matvec=bordered, dtype=complex)
        y, info = spla.gmres(op, b, rtol=rtol, atol=0.0,
                             restart=_GMRES_RESTART, maxiter=_GMRES_CYCLES)
        return inverse.solve(y, sector), info

    def probe(self, sector: str):
        """(||B^-1 r|| rate_scale / ||r||, GMRES info) for a seeded random r
        on one sector, traceless on the even one; (0, 0) on an empty sector.
        On traceless matrices B^-1 is L^-1, so the growth is large exactly
        when L has another (near-)zero eigenvalue in that sector."""
        size = self.inverse.index[sector].size
        if size == 0:
            return 0.0, 0
        rng = np.random.default_rng(_PROBE_SEED)
        r = rng.normal(size=size) + 1j * rng.normal(size=size)
        diag = self.diag[sector]
        if diag.size:
            r[diag] -= r[diag].mean()
        x, info = self.solve(sector, r / np.linalg.norm(r), _PROBE_RTOL)
        return float(np.linalg.norm(x)) * self.scale, info


def steady_state_nullspace(liouvillian: LiouvillianAction) -> np.ndarray:
    """Unique trace-one state in the generator's null space.

    Solves (L + w tr) rho = w, w = (rate_scale / d) I, from the no-jump
    operator K in ``meta["no_jump"]`` and the parity P in ``meta["parity"]``
    (see :func:`liouvillian_from_operators`).  Tracing the system gives
    tr rho = 1 and then L rho = 0, so the bordered operator B is regular
    exactly when the null space is one-dimensional.

    P is a weak symmetry, so L maps the even sector (rho++ + rho--) and the
    odd sector (rho+- + rho-+) each into itself, and the unique steady state
    (with P rho P, also a steady state) lies in the even one.  GMRES solves
    B on the even sector only, right-preconditioned by the shifted no-jump
    inverse of :class:`ShiftedNoJumpInverse`: one Schur form per parity
    block and a recursive blocked triangular Sylvester solve.  A singular B
    can still be consistent for w, and a second zero eigenvalue may sit in
    either sector, so one probe per sector solves against a fixed random
    right-hand side (traceless on the even sector): its solution is L^-1 r,
    and it fails or grows past _PROBE_LIMIT / rate_scale when L has another
    (near-)zero eigenvalue in that sector; that raises
    :class:`DegenerateSteadyState`.  A generator without a declared parity
    is all even, with an empty odd sector and no odd probe.  The state is
    returned hermitised and normalised.
    """
    d = liouvillian.dim
    sectors = _BorderedSectors(liouvillian)
    w = np.zeros(sectors.inverse.index["even"].size, dtype=complex)
    w[sectors.diag["even"]] = liouvillian.rate_scale / d
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow raises below
        rho_even, info = sectors.solve("even", w, _GMRES_RTOL)
    if info != 0:
        raise ConvergenceError(
            f"GMRES did not reach the steady state in {_GMRES_RESTART * _GMRES_CYCLES} iterations"
        )
    # the solution has trace one; GMRES returns zero when its norms overflow
    trace = rho_even[sectors.diag["even"]].sum().real
    if not (np.isfinite(rho_even).all() and trace > 0.0):
        raise ConvergenceError(
            f"the steady-state solve overflowed: trace {trace:g} at rate_scale "
            f"{liouvillian.rate_scale:.3g}"
        )
    for sector in SECTOR_BLOCKS:
        growth, info = sectors.probe(sector)
        if info != 0 or growth > _PROBE_LIMIT:
            raise DegenerateSteadyState(
                "zero eigenvalue is degenerate or not separated from the spectrum "
                f"(probe of the {sector} sector ||L^-1 r|| rate_scale / ||r|| = {growth:.1e}"
                + (", no convergence)" if info else ")")
            )
    rho = np.zeros(d * d, dtype=complex)
    rho[sectors.inverse.index["even"]] = rho_even
    rho = unvec(rho)
    rho = (rho + dagger(rho)) / 2.0
    return rho / np.real(np.trace(rho))


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
    rhs = liouvillian.rhs_flat()
    elapsed = 0.0
    chunk = 2.0 / scale
    while True:
        res = float(np.linalg.norm(rhs(rho.reshape(-1, order="F"))))
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
