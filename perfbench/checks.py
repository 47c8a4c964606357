"""Output checks: each workload's CSV against an independent route.

Every check returns ``(ok, detail)``.  Tolerances come from the targets
the solvers state, never from the outputs they are checking:

* reduced sweep: closed form against the dense null space, to 1e-10;
* effective sweep: each point against a sparse direct solve at the Fock
  cutoff the escalation rule picks, to the error that the solver's target
  allows: ARPACK's ``tol`` for null-space points, the residual target
  ``solver.ss_tol`` for long-time points (see :func:`_nullspace_tolerance`
  and :func:`_longtime_tolerance`);
* evolve: every sample is a state and lies on the ``expm_multiply``
  trajectory from the initial state, and its CSV fidelity is that
  trajectory's, each to the error the DP5 step target allows over the
  steps taken so far (see :func:`_step_error`).  The tolerances must
  resolve a state at all: a bound of :data:`RESOLUTION` or more fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import os

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from casqed import cavity, cli, config, dynamics, experiments, linalg, metrics, reduced
from tracer import patch_everywhere, space_label

#: closed form vs null space on the reduced model
REDUCED_TOL = 1e-10
REDUCED_SAMPLE = 64
#: ``tol`` that ``steady_state_nullspace`` passes to ARPACK
ARPACK_TOL = 1e-12
#: evolve intervals checked against expm_multiply from the sampled state
EVOLVE_INTERVALS = 3
#: the trace drift the integrator treats as a failure
TRACE_TOL = 1e-9
#: an error bound (Frobenius norm) this large cannot tell a state, whose
#: Frobenius norm is at most 1, from a non-state
RESOLUTION = 0.1


def read_csv_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines()[1:] if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines]


def sparse_generator(action) -> sp.csr_matrix:
    """The column-stacking superoperator of a cavity-model generator, as CSR."""
    return sp.csr_matrix(action.meta["sparse_superop"])


def marginal_lipschitz(rho_ref, space) -> float:
    """Bound on |dF| / ||d rho||_F for F = fef_fidelity(qubit_marginal(rho)).

    Tracing out the two photon modes (nph states each) grows a Frobenius
    norm by at most nph.  The marginal is the qubit block B of the atoms
    over its trace tau; with ||B||_F <= tau and |d tau| <= 2 ||dB||_F,
    ||d(B / tau)||_F <= 3 ||dB||_F / tau (tau = 1 for two-level atoms,
    where B is the whole trace-one atom state and only nph remains).  The
    fully entangled fraction, a largest eigenvalue, moves by at most the
    Frobenius norm of the change.
    """
    if space.atom_levels == 2:
        return float(space.nph)
    atoms = linalg.partial_trace(rho_ref, space.tensor_space, keep=(0, 1))
    la = space.atom_levels
    idx = [i * la + j for i in (cavity.LVL_1, cavity.LVL_0) for j in (cavity.LVL_1, cavity.LVL_0)]
    tau = float(np.real(np.trace(atoms[np.ix_(idx, idx)])))
    return 3.0 * space.nph / tau


# ---------------------------------------------------------------------------
# sweep-eps-reduced
# ---------------------------------------------------------------------------

def check_reduced_sweep(csv_text: str, seed: int, expected_rows: int):
    rows = read_csv_rows(csv_text)
    if len(rows) != expected_rows:
        return False, f"{len(rows)} rows, expected {expected_rows}"
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in rng.choice(len(rows), REDUCED_SAMPLE, replace=False):
        ratio, eps, fid = (float(x) for x in rows[i])
        drive = reduced.MatchedDrive(ratio, 1.0, eps)
        rho = dynamics.steady_state_nullspace(reduced.liouvillian_action(drive.params()))
        worst = max(worst, abs(metrics.fef_fidelity(rho) - fid))
    return worst <= REDUCED_TOL, (
        f"{REDUCED_SAMPLE} sampled points, max |dF| {worst:.2e} <= {REDUCED_TOL:g}")


# ---------------------------------------------------------------------------
# sweep-eps-effective
# ---------------------------------------------------------------------------

def _escalation_rule():
    """(max_cutoff, top_tol) of the CLI's Fock-cutoff escalation."""
    params = inspect.signature(experiments.converged_steady_state).parameters
    return params["max_cutoff"].default, params["top_tol"].default


def _norm2(apply, apply_h, n: int, iters: int = 30) -> float:
    """||A||_2 by power iteration on A^H A, given A v and A^H v."""
    v = np.random.default_rng(0).normal(size=n).astype(complex)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = apply(v)
        est = float(np.linalg.norm(w))
        v = apply_h(w)
        v /= np.linalg.norm(v)
    return est


def _direct_steady_state(L, d: int):
    """Trace-one null vector of L by a sparse LU of the bordered generator.

    The generator splits into decoupled blocks (photon-plus-atom parity);
    the block holding the diagonal carries the steady state and is
    bordered with the trace row.  Every other block is solved against
    zero, so its part of the state is zero.  Returns (rho, ||B^-1||_2)
    with B the largest inverse norm over the blocks.
    """
    n = d * d
    _, comp = connected_components(L != 0, directed=False)
    diag = np.arange(d) * (d + 1)
    x = np.zeros(n, dtype=complex)
    inv_norm = 0.0
    for c in np.unique(comp):
        idx = np.flatnonzero(comp == c)
        block = L[idx][:, idx].tocsr()
        m = idx.size
        rhs = np.zeros(m, dtype=complex)
        if c == comp[diag[0]]:
            pos = np.searchsorted(idx, diag)
            keep = np.ones(m, dtype=complex)
            keep[pos[0]] = 0.0
            trace_row = sp.csr_matrix((np.ones(d, dtype=complex),
                                       (np.full(d, pos[0]), pos)), shape=(m, m))
            block = sp.diags(keep) @ block + trace_row
            rhs[pos[0]] = 1.0
        lu = spla.splu(sp.csc_matrix(block))
        x[idx] = lu.solve(rhs)
        inv_norm = max(inv_norm, _norm2(lu.solve, lambda w: lu.solve(w, trans="H"), m))
    rho = x.reshape((d, d), order="F")
    return (rho + rho.conj().T) / 2.0, inv_norm


def _nullspace_tolerance(space, inv_norm: float, L, rho_ref) -> float:
    """Fidelity error allowed by ARPACK's stopping rule in steady_state_nullspace.

    Shift-invert ARPACK stops at a Ritz pair with ||OP x - theta x|| <=
    tol |theta|, OP = (L - sigma)^-1, ||x|| = 1.  Multiplying by L - sigma
    gives L x = mu x + s with ||s|| <= tol ||L - sigma||_2; the trace of a
    trace-preserving L x is zero, so |mu| <= sqrt(d) ||s|| / |tr x|.  With
    rho = x / tr x and |tr x| = 1 / ||rho||_F,
    ||L rho||_F <= tol ||L - sigma||_2 ||rho||_F (1 + sqrt(d) ||rho||_F), and
    hermitising does not increase it.  Then ||d rho||_F <= ||B^-1|| ||L rho||.
    The shift sigma = 1e-8 ||L||_F adds sigma to the 2-norm.  A dense
    ``eig`` (d^2 <= 1024) is backward stable far below this target.
    """
    d = space.dim
    lh = L.conj().T.tocsr()
    norm_l = _norm2(lambda v: L @ v, lambda v: lh @ v, d * d) + 1e-8 * spla.norm(L)
    frob = float(np.linalg.norm(rho_ref))
    residual = ARPACK_TOL * norm_l * frob * (1.0 + math.sqrt(d) * frob)
    return marginal_lipschitz(rho_ref, space) * inv_norm * residual


def _longtime_tolerance(space, inv_norm: float, ss_tol: float, rate_scale: float,
                        rho_ref) -> float:
    """Fidelity error allowed by a residual ||L rho|| <= ss_tol * rate_scale.

    rho - rho_ref = B^-1 r, so ||d rho||_F <= ||B^-1||_2 ss_tol rate_scale.
    """
    return marginal_lipschitz(rho_ref, space) * inv_norm * ss_tol * rate_scale


def _effective_references(cfg, rows):
    max_cutoff, top_tol = _escalation_rule()
    refs = []
    for ratio, eps, _ in rows:
        p = experiments.physical_params(cfg, a_over_b=ratio, epsilon=eps)
        cutoff = cfg.fock_cutoff
        while True:
            space = cavity.ModelSpace(2, cutoff)
            action = cavity.build_effective_liouvillian(p, space)
            L = sparse_generator(action)
            rho, inv_norm = _direct_steady_state(L, space.dim)
            if cavity.top_fock_population(rho, space) <= top_tol or cutoff >= max_cutoff:
                break
            cutoff += 1
        fid = metrics.fef_fidelity(cavity.qubit_marginal(rho, space))
        if space.dim <= dynamics.NULLSPACE_DIM_LIMIT:
            solver, tol = "null space", _nullspace_tolerance(space, inv_norm, L, rho)
        else:
            solver = "long time"
            tol = _longtime_tolerance(space, inv_norm, cfg.ss_tol, action.rate_scale, rho)
        refs.append({"cutoff": cutoff, "solver": solver, "fidelity": fid, "tol": tol})
    return refs


def source_digest(src_dir) -> str:
    """sha256 over the package sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def check_effective_sweep(csv_text: str, cfg_path, cache_dir, src_digest: str):
    """Each point against a direct solve at the cutoff the rule picks.

    The references depend only on the package sources, this file, the
    config and the numpy and scipy versions, so they are cached under a key
    made of all of these: the cutoff-4 LU takes several seconds.
    """
    rows = [tuple(float(x) for x in r) for r in read_csv_rows(csv_text)]
    cfg = config.load_config(cfg_path)
    with open(__file__, "rb") as fh:
        own = hashlib.sha256(fh.read()).hexdigest()
    key = hashlib.sha256("|".join((src_digest, own, cfg.sha256, np.__version__,
                                   scipy.__version__)).encode()).hexdigest()
    cache = os.path.join(cache_dir, f"effective-{key[:24]}.json")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as fh:
            refs = json.load(fh)
    else:
        refs = _effective_references(cfg, rows)
        os.makedirs(cache_dir, exist_ok=True)
        with open(cache, "w", encoding="utf-8") as fh:
            json.dump(refs, fh)
    ok = len(refs) == len(rows) == len(cfg.sweep_a_over_b) * len(cfg.sweep_epsilon)
    parts = []
    for (ratio, eps, fid), ref in zip(rows, refs):
        err = abs(fid - ref["fidelity"])
        ok &= err <= ref["tol"]
        parts.append(f"({ratio:g},{eps:g}) cutoff {ref['cutoff']} {ref['solver']} "
                     f"|dF| {err:.1e}<={ref['tol']:.1e}")
    return ok, "; ".join(parts)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def _capture_evolve(cfg_path, out_dir, seed: int):
    """Re-run ``casqed evolve`` in process, keeping what integrate returns.

    Besides the states, each integrate call records its generator calls so
    far at every sample (``integrate`` converts each sample with
    ``dynamics.unvec``), which gives the steps taken inside each interval.
    """
    original = dynamics.integrate
    calls = []

    def capture(liouvillian, rho0, times, *args, **kwargs):
        bound = inspect.signature(original).bind(liouvillian, rho0, times, *args, **kwargs)
        bound.apply_defaults()
        inner = liouvillian.rhs_flat()
        count = [0]
        at_sample = []

        def counted(v):
            count[0] += 1
            return inner(v)

        def sample(v):
            at_sample.append(count[0])
            return unvec(v)

        liouvillian.matvec = counted
        unvec = dynamics.unvec
        dynamics.unvec = sample
        try:
            traj = original(liouvillian, rho0, times, *args, **kwargs)
        finally:
            dynamics.unvec = unvec
            liouvillian.matvec = inner
        calls.append({"action": liouvillian, "rho0": np.asarray(rho0, dtype=complex),
                      "times": np.asarray(times, dtype=float), "states": traj.states,
                      "at_sample": at_sample, "rel_tol": bound.arguments["rel_tol"],
                      "abs_tol": bound.arguments["abs_tol"]})
        return traj

    patch_everywhere(original, capture)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["evolve", "--config", str(cfg_path), "--out", str(out_dir),
                           "--workers", "1", "--seed", str(seed)])
    finally:
        patch_everywhere(capture, original)
    return rc, calls


def _step_error(d: int, rel_tol: float, abs_tol: float, frob: float) -> float:
    """Frobenius error at a later sample from one step the DP5 target accepts.

    An accepted step has RMS(|e_j| / w_j) <= 1 over the d^2 entries, with
    w_j = abs_tol + rel_tol max(|y_j|, |y5_j|), so by Minkowski
    ||e||_F <= ||w||_2 <= d abs_tol + 2 rel_tol frob, where frob bounds
    ||y||_F.  A Lindblad flow contracts the trace norm, so the error grows
    by at most sqrt(d) in Frobenius norm afterwards; errors add up.
    """
    return math.sqrt(d) * (d * abs_tol + 2.0 * rel_tol * frob)


def _evolve_call(call, tier: str, csv_rows, rng):
    """Check one integrate call of an evolve run; return (ok, detail)."""
    action, times, states = call["action"], call["times"], call["states"]
    space = action.meta["space"]
    d = action.dim
    L = sparse_generator(action)
    frob = [float(np.linalg.norm(s)) for s in states]
    # DP5 evaluates six stages per attempted step (rejected ones too)
    steps = np.ceil(np.diff(call["at_sample"]) / 6.0)
    step_err = _step_error(d, call["rel_tol"], call["abs_tol"], max(1.0, *frob))
    bound = np.concatenate(([0.0], np.cumsum(steps * step_err)))

    # eigvalsh and norm of an exact state (the initial one) err by rounding
    rounding = 8 * d * np.finfo(float).eps
    trace_err = max(abs(np.trace(s) - 1.0) for s in states)
    herm_err = max(float(np.abs(s - s.conj().T).max()) for s in states)
    lam_min = [float(np.linalg.eigvalsh(s)[0]) for s in states]
    # the exact trajectory from the initial state on the CLI's uniform grid
    ref = spla.expm_multiply(L, call["rho0"].reshape(-1, order="F"), start=times[0],
                             stop=times[-1], num=len(times), endpoint=True)
    ref = [r.reshape((d, d), order="F") for r in ref]
    traj_err = [float(np.linalg.norm(s - r)) for s, r in zip(states, ref)]
    fid = [float(r[2]) for r in csv_rows if r[1] == tier]
    fid_err, fid_tol = [], []
    for f, r, b in zip(fid, ref, bound):
        rho_ref = (r + r.conj().T) / 2.0
        fid_err.append(abs(f - metrics.fef_fidelity(cavity.qubit_marginal(rho_ref, space))))
        fid_tol.append(marginal_lipschitz(rho_ref, space) * b)
    # sampled intervals, each from the state DP5 returned
    picks = sorted(rng.choice(len(times) - 1, min(EVOLVE_INTERVALS, len(times) - 1),
                              replace=False))
    step_ok = True
    worst_step = 0.0
    for i in picks:
        nxt = spla.expm_multiply(L * (times[i + 1] - times[i]), states[i].reshape(-1, order="F"))
        err = float(np.linalg.norm(states[i + 1].reshape(-1, order="F") - nxt))
        step_ok &= err <= steps[i] * step_err
        worst_step = max(worst_step, err / (steps[i] * step_err))

    checks = {
        "resolved": bound[-1] < RESOLUTION,
        "trace": trace_err <= TRACE_TOL,
        "hermitian": herm_err <= 4 * np.finfo(float).eps * max(frob),
        "state": all(lm >= -b - rounding and f <= 1.0 + b + rounding
                     for lm, f, b in zip(lam_min, frob, bound)),
        "trajectory": np.allclose(np.diff(times), times[1] - times[0])
                      and all(e <= b for e, b in zip(traj_err, bound)),
        "fidelity": len(fid) == len(states) and all(e <= t for e, t in zip(fid_err, fid_tol)),
        "intervals": step_ok,
    }
    failed = [k for k, v in checks.items() if not v]
    detail = (f"{space_label(space)} ({tier}): {int(steps.sum())} steps, error bound at "
              f"the end {bound[-1]:.2e} (< {RESOLUTION:g} to resolve a state); "
              f"|tr-1| {trace_err:.1e}<={TRACE_TOL:g}, herm {herm_err:.1e}, "
              f"min eig {min(lam_min):.2e}, max ||rho||_F {max(frob):.6g}, "
              f"vs expm from rho0 |d rho|_F {max(traj_err):.2e}, CSV |dF| {max(fid_err):.2e} "
              f"(worst share of its bound {max(e / t for e, t in zip(fid_err[1:], fid_tol[1:])):.2g}), "
              f"{len(picks)} sampled intervals at <= {worst_step:.2g} of their bound")
    if failed:
        detail += "; FAILED: " + ", ".join(failed)
    return not failed, detail


def check_evolve(csv_bytes: bytes, cfg_path, out_dir, seed: int):
    rc, calls = _capture_evolve(cfg_path, out_dir, seed)
    with open(os.path.join(out_dir, "timeseries.csv"), "rb") as fh:
        same_csv = fh.read() == csv_bytes
    cfg = config.load_config(cfg_path)
    ok = rc == 0 and same_csv and len(calls) == len(cfg.tiers)
    parts = [f"in-process rerun exit {rc}, CSV {'identical' if same_csv else 'DIFFERS'}"]
    csv_rows = read_csv_rows(csv_bytes.decode())
    rng = np.random.default_rng(seed)
    for call, tier in zip(calls, cfg.tiers):
        call_ok, detail = _evolve_call(call, tier, csv_rows, rng)
        ok &= call_ok
        parts.append(detail)
    return ok, "; ".join(parts)
