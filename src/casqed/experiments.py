"""Experiment drivers: time series, steady-state sweeps, artifacts.

Each driver consumes a validated :class:`~casqed.config.ExperimentConfig`
and writes CSV (plus an SVG rendering and a JSON run manifest) into an
output directory.  Re-running with the same config and seed reproduces
the CSV byte for byte: floats are written with ``repr`` (shortest
round-trip form), sweep points are emitted in grid order regardless of
worker scheduling, and nothing time- or host-dependent enters the CSV.

Model tiers
-----------
``reduced``   two qubits; closed-form steady states in sweeps;
``effective`` two-level atoms + cavity modes;
``full``      five-level atoms + cavity modes + spontaneous emission.

Every point of ``sweep-eps`` and ``sweep-coop`` takes one path: its
parameters come from :func:`physical_params` (the physical block with
a/b, epsilon or the cooperativity Y replaced).  The reduced tier takes
the closed form on a matched drive, from ``drive.*`` or recovered from
the point's reduced parameters, in blocks of :data:`REDUCED_BLOCK`
points: one array pass gives the states and fidelities of a block, and a
block that raises is split in halves until each failing point stands
alone with its own error.  The cavity tiers take the qubit marginal of
:func:`converged_steady_state`, one point at a time.  One writer emits
CSV, SVG, manifest.

Steady states of the cavity tiers come from a direct solve at each Fock
cutoff (:func:`~casqed.dynamics.steady_state_nullspace`): GMRES on the
even sector of the photon-plus-atom parity (-1)^(n1+n2) pi1 pi2, which
holds half the unknowns, preconditioned by a Sylvester solve per parity
block, with a degeneracy probe on the even and on the odd sector.  A
fig. 3 full-tier point (cutoffs 1 to 3) takes a few seconds.  Time
evolution of the full tier runs at its stability limit (detunings of
order 2 pi x 8 GHz against microsecond relaxation), so full-tier
``evolve`` runs are slow.

Sweeps with ``--workers N`` send the points (reduced tier: the blocks)
to the worker processes in chunks, each chunk with the point function
and, in it, the config.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import __version__
from .cavity import (
    ModelSpace,
    PhysicalParams,
    build_effective_liouvillian,
    build_full_liouvillian,
    output_flux_operator,
    qubit_marginal,
    reduced_params,
    stark_balance,
    top_fock_population,
    vacuum_ground_state,
)
from .config import ExperimentConfig
from .dynamics import integrate, steady_state_nullspace
from .errors import CasqedError, ConfigError, InfeasibleBalance, InvalidDensityMatrix, InvalidParams
from .linalg import read_dm
from .metrics import METRIC_COLUMNS, concurrence, fef_fidelity, output_flux, purity, vn_entropy
from .reduced import (
    MatchedDrive,
    analytic_steady_state,
    initial_ground_state,
    liouvillian_action,
    output_flux_operator as reduced_flux_operator,
)
from .svgplot import line_plot

#: default (rel_tol, abs_tol) per tier.  The full tier runs near its
#: stability cap: at abs_tol 1e-3, DP5 returned matrices that are not states
#: (||rho||_F 5.9, an eigenvalue of -3.7); at these tolerances the samples
#: stay states (see TestTierTolerances in tests/test_experiments.py)
TIER_TOLS = {
    "reduced": (1e-8, 1e-12),
    "effective": (1e-7, 1e-10),
    "full": (1e-7, 1e-8),
}


#: reduced-tier sweep points per array pass; a fixed size keeps peak memory
#: flat however large the grid
REDUCED_BLOCK = 1024


def fmt(x) -> str:
    """Shortest round-trip decimal for CSV fields."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


@dataclass
class RunManifest:
    config_sha256: str
    artifact_version: str
    seed: int
    wall_clock_s: float
    points: list

    def write(self, path) -> None:
        # json.dumps without indent runs the C encoder, and the file takes one write
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(vars(self)) + "\n")


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(s if isinstance(s, str) else fmt(s) for s in row))
    lines.append("# manifest: manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def matched_drive(cfg: ExperimentConfig) -> MatchedDrive:
    return MatchedDrive(cfg.a, cfg.b, cfg.epsilon, cross=cfg.cross)


def check_params(cfg: ExperimentConfig) -> None:
    """Run the models' own parameter checks on the configured point and
    on every value of the epsilon sweep axis.

    Raises :class:`ConfigError` for values the models reject, and for a
    cavity tier without the physical block, before any generator is built
    or sweep point is run.
    """
    try:
        drive = matched_drive(cfg)
        drive.params(cfg.drive_kappa1, cfg.drive_kappa2)
        for eps in cfg.sweep_epsilon:
            replace(drive, epsilon=eps)
        if cfg.physical is not None or any(t != "reduced" for t in cfg.tiers):
            physical_params(cfg)
    except InvalidParams as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc
    except InfeasibleBalance:
        pass  # balanced per point; a sweep need not visit the configured a/b


def _coop_g(phys: dict, Y: float) -> float:
    """g at the cooperativity Y = g^2 / (kappa1 gamma)."""
    if phys["gamma"] <= 0:
        raise ConfigError("sweep-coop needs physical.gamma_2pi_MHz > 0", key="physical.gamma_2pi_MHz")
    if Y <= 0:
        raise ConfigError(f"sweep.Y must be > 0, got {Y:g}", key="sweep.Y")
    return float(np.sqrt(Y * phys["kappa1"] * phys["gamma"]))


def physical_params(cfg: ExperimentConfig, a_over_b=None, epsilon=None, Y=None) -> PhysicalParams:
    """Balanced physical parameters of one point of the config's physical block.

    ``a_over_b`` and ``epsilon`` replace the block's values.  ``Y`` sets
    g = sqrt(Y kappa1 gamma) and scales the drives by g_cfg / g, which holds
    the Raman rates beta = g Omega / (2 Delta) at their configured values.
    """
    phys = cfg.require_physical()
    a_over_b = phys["a_over_b"] if a_over_b is None else a_over_b
    epsilon = phys["epsilon"] if epsilon is None else epsilon
    g = phys["g"] if Y is None else _coop_g(phys, Y)
    scale = phys["g"] / g if Y is not None else 1.0
    p = PhysicalParams.symmetric(
        g=g,
        kappa=phys["kappa1"],
        gamma=phys["gamma"],
        Delta=phys["Delta"],
        Omega_r=a_over_b * phys["Omega_s"] * scale,
        Omega_s=phys["Omega_s"] * scale,
        epsilon=epsilon,
        omega_1=phys["omega_1"],
    )
    if phys["kappa2"] != phys["kappa1"]:
        p = replace(p, kappa2=phys["kappa2"])
    return stark_balance(p, cfg.balance)


def _tier_tols(cfg: ExperimentConfig, tier: str):
    rel, abs_ = TIER_TOLS[tier]
    return (cfg.rel_tol if cfg.rel_tol is not None else rel,
            cfg.abs_tol if cfg.abs_tol is not None else abs_)


@dataclass
class TierModel:
    tier: str
    action: object
    rho0: np.ndarray
    flux_op: np.ndarray
    space: ModelSpace | None

    def marginal(self, rho):
        return rho if self.space is None else qubit_marginal(rho, self.space)


def _cavity_model(tier: str):
    """(atom levels, generator builder) of a cavity tier; the builders are
    read from the module globals at each call, so rebinding them takes effect."""
    if tier == "effective":
        return 2, build_effective_liouvillian
    if tier == "full":
        return 5, build_full_liouvillian
    raise ConfigError(f"unknown tier {tier!r}", key="model.tier")


def build_tier(cfg: ExperimentConfig, tier: str) -> TierModel:
    if tier == "reduced":
        if cfg.physical is not None:
            params = reduced_params(physical_params(cfg))
        else:
            params = matched_drive(cfg).params(cfg.drive_kappa1, cfg.drive_kappa2)
        return TierModel(
            tier=tier,
            action=liouvillian_action(params),
            rho0=initial_ground_state(),
            flux_op=reduced_flux_operator(params),
            space=None,
        )
    p = physical_params(cfg)
    levels, builder = _cavity_model(tier)
    space = ModelSpace(levels, cfg.fock_cutoff)
    return TierModel(
        tier=tier,
        action=builder(p, space),
        rho0=vacuum_ground_state(space),
        flux_op=output_flux_operator(p, space),
        space=space,
    )


def metric_row(model: TierModel, rho) -> list:
    marg = model.marginal(rho)
    flux = output_flux(rho, model.flux_op)
    return [
        fef_fidelity(marg),
        concurrence(marg),
        vn_entropy(marg),
        purity(marg),
        flux,
    ]


def converged_steady_state(p: PhysicalParams, tier: str, cfg: ExperimentConfig,
                           max_cutoff=4, top_tol=1e-6):
    """Steady state with automatic Fock-cutoff escalation.

    Raises the cutoff from ``cfg.fock_cutoff`` (up to ``max_cutoff``)
    until the top retained photon state holds no more than ``top_tol``
    population.  Every cutoff is solved directly by
    :func:`steady_state_nullspace`.
    Returns (rho, space, cutoff).
    """
    levels, builder = _cavity_model(tier)
    cutoff = cfg.fock_cutoff
    while True:
        space = ModelSpace(levels, cutoff)
        rho = steady_state_nullspace(builder(p, space))
        if top_fock_population(rho, space) <= top_tol or cutoff >= max_cutoff:
            return rho, space, cutoff
        cutoff += 1


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def run_timeseries(cfg: ExperimentConfig, out_dir, seed: int = 0, workers: int = 1):
    """Fidelity-vs-time curves for each configured tier (one CSV + SVG)."""
    t_start = time.perf_counter()
    times = np.linspace(0.0, cfg.t_max_us, cfg.n_points)
    rows = []
    series = []
    points = []
    for tier in cfg.tiers:
        model = build_tier(cfg, tier)
        rel, abs_ = _tier_tols(cfg, tier)
        traj = integrate(model.action, model.rho0, times, rel_tol=rel, abs_tol=abs_)
        fids = []
        for t, state in zip(times, traj.states):
            metrics_row = metric_row(model, state)
            rows.append([t, tier] + metrics_row)
            fids.append(metrics_row[0])
        series.append((tier, list(times), fids))
        points.append({"tier": tier, "converged": True, "n_times": len(times)})

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "timeseries.csv", ("time_us", "tier") + METRIC_COLUMNS, rows)
    line_plot(
        out_dir / "timeseries.svg", series,
        title="fidelity vs time", xlabel="time (us)", ylabel="fidelity",
    )
    RunManifest(cfg.sha256, __version__, seed, time.perf_counter() - t_start, points).write(
        out_dir / "manifest.json"
    )
    return out_dir / "timeseries.csv"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _point_model(cfg: ExperimentConfig, tier: str, point: dict):
    """The closed-form drive (reduced tier) or the physical parameters of a
    sweep point; ``point`` holds keyword arguments of :func:`physical_params`."""
    if tier != "reduced":
        return physical_params(cfg, **point)
    if cfg.physical is None:
        return MatchedDrive(point["a_over_b"] * cfg.b, cfg.b, point["epsilon"], cross=cfg.cross)
    return MatchedDrive.from_params(reduced_params(physical_params(cfg, **point)))


def _failed(exc: CasqedError):
    return float("nan"), f"{type(exc).__name__}: {exc}"


def _steady_point(cfg: ExperimentConfig, tier: str, point: dict):
    """(fidelity, None) of one cavity-tier sweep point's steady state, or (nan, error)."""
    try:
        rho, space, _ = converged_steady_state(_point_model(cfg, tier, point), tier, cfg)
        return float(fef_fidelity(qubit_marginal(rho, space))), None
    except CasqedError as exc:
        return _failed(exc)


def _reduced_block(cfg: ExperimentConfig, points: list) -> list:
    """[(fidelity, None) or (nan, error)] of reduced-tier sweep points.

    One array pass takes the closed form and the fully entangled fraction
    of every point.  A block that raises (a degenerate point, an infeasible
    balance, a failed gate) is split in halves until each failing point
    stands alone and gets its own error: O(log n) array passes per failing
    point.
    """
    try:
        states = analytic_steady_state([_point_model(cfg, "reduced", p) for p in points])
        return [(fid, None) for fid in fef_fidelity(states).tolist()]
    except CasqedError as exc:
        if len(points) == 1:
            return [_failed(exc)]
        half = len(points) // 2
        return _reduced_block(cfg, points[:half]) + _reduced_block(cfg, points[half:])


def _run_sweep(cfg: ExperimentConfig, out_dir, seed, workers, name, header, points, rows, plot):
    """Solve every sweep point; write ``<name>.csv``, ``<name>.svg`` and the manifest.

    ``points`` (see :func:`_point_model`) become the manifest's points and
    gain ``converged`` and ``error``; each of ``rows`` gains its point's
    fidelity.  ``plot(path, fidelities)`` draws the SVG.  Raises
    :class:`CasqedError` when a point failed.
    """
    t_start = time.perf_counter()
    tier = cfg.tiers[0]
    # a check that holds at every point or at none (the closed form's
    # matched drive) fails once, as a config error
    try:
        _point_model(cfg, tier, points[0])
    except InvalidParams as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc
    except InfeasibleBalance:
        pass  # depends on a/b; the point's own row reports it
    if tier == "reduced":
        blocks = [points[i:i + REDUCED_BLOCK] for i in range(0, len(points), REDUCED_BLOCK)]
        results = [r for block in _run_points(partial(_reduced_block, cfg), blocks, workers) for r in block]
    else:
        results = _run_points(partial(_steady_point, cfg, tier), points, workers)

    failed = 0
    for point, row, (fid, err) in zip(points, rows, results):
        row.append(fid)
        point["converged"] = err is None
        if err:
            point["error"] = err
            failed += 1
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / f"{name}.csv", header, rows)
    plot(out_dir / f"{name}.svg", [fid for fid, _ in results])
    RunManifest(cfg.sha256, __version__, seed, time.perf_counter() - t_start, points).write(
        out_dir / "manifest.json"
    )
    if failed:
        raise CasqedError(f"{failed} sweep point(s) failed; see manifest")
    return out_dir / f"{name}.csv"


def run_sweep_eps(cfg: ExperimentConfig, out_dir, seed: int = 0, workers: int = 1):
    """Steady-state fidelity on the (a/b, epsilon) grid."""
    ratios, eps_axis = cfg.sweep_a_over_b, cfg.sweep_epsilon
    points = [{"a_over_b": r, "epsilon": e} for r in ratios for e in eps_axis]
    rows = [[r, e] for r in ratios for e in eps_axis]

    def plot(path, fids):
        # one fidelity-vs-ratio line per (subsampled) epsilon
        n = len(eps_axis)
        shown = range(n) if n <= 6 else np.linspace(0, n - 1, 6).astype(int)
        line_plot(path, [(f"eps={eps_axis[j]:g}", ratios, fids[j::n]) for j in shown],
                  title="steady-state fidelity", xlabel="a/b", ylabel="fidelity")

    return _run_sweep(cfg, out_dir, seed, workers, "sweep_eps",
                      ("a_over_b", "epsilon", "fidelity"), points, rows, plot)


def run_sweep_coop(cfg: ExperimentConfig, out_dir, seed: int = 0, workers: int = 1):
    """Steady-state fidelity against the cooperativity Y = g^2/(kappa1 gamma).

    g is varied; the drive amplitudes are rescaled to hold the Raman
    rates fixed, and the light-shift balance is re-solved per point
    (see :func:`physical_params`).
    """
    phys = cfg.require_physical()
    points = [{"Y": Y} for Y in cfg.sweep_Y]
    rows = [[phys["a_over_b"], phys["epsilon"], Y, _coop_g(phys, Y)] for Y in cfg.sweep_Y]

    def plot(path, fids):
        line_plot(path, [(f"a/b={phys['a_over_b']:g}, eps={phys['epsilon']:g}", cfg.sweep_Y, fids)],
                  title="steady-state fidelity vs cooperativity", xlabel="Y = g^2/(kappa gamma)",
                  ylabel="fidelity", logx=True)

    return _run_sweep(cfg, out_dir, seed, workers, "sweep_coop",
                      ("a_over_b", "epsilon", "Y", "g_2pi_MHz", "fidelity"), points, rows, plot)


def _run_points(fn, tasks, workers: int):
    """``[fn(t) for t in tasks]``, in order, on up to ``workers`` processes.

    The tasks go in about four chunks per worker, and ``fn`` (which holds
    the config) is sent once with each chunk.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    chunksize = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


# ---------------------------------------------------------------------------
# steady / metrics commands
# ---------------------------------------------------------------------------

def run_steady(cfg: ExperimentConfig, out=print):
    """Print the closed-form and null-space steady states and their distance."""
    m = matched_drive(cfg)
    analytic = analytic_steady_state(m)
    numeric = steady_state_nullspace(
        liouvillian_action(m.params(cfg.drive_kappa1, cfg.drive_kappa2))
    )
    diff = float(np.linalg.norm(analytic - numeric))
    out(f"matched drive: a={m.a:g}, b={m.b:g}, epsilon={m.epsilon:g}")
    out("analytic steady state:")
    for row in analytic:
        out("  " + "  ".join(f"{x.real:+.10f}{x.imag:+.10f}j" for x in row))
    out("null-space steady state:")
    for row in numeric:
        out("  " + "  ".join(f"{x.real:+.10f}{x.imag:+.10f}j" for x in row))
    out(f"frobenius difference: {diff:.3e}")
    return diff


def run_metrics(dm_path, out=print):
    """Metrics of a stored two-qubit density matrix, as CSV on stdout."""
    try:
        rho = read_dm(dm_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read density matrix: {exc}") from exc
    if rho.shape != (4, 4):
        raise ConfigError(f"metrics needs a 4x4 two-qubit state, got {rho.shape}")
    header = METRIC_COLUMNS[:4]  # no model context, so no flux column
    try:
        values = [fef_fidelity(rho), concurrence(rho), vn_entropy(rho), purity(rho)]
    except InvalidDensityMatrix as exc:
        raise ConfigError(f"not a density matrix: {exc}") from exc
    out(",".join(header))
    out(",".join(fmt(v) for v in values))
    return values
