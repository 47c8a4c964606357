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

Steady states of the cavity tiers come from a direct solve at each Fock
cutoff (see :func:`converged_steady_state`).  Time evolution of the full
tier runs at its stability limit (detunings of order 2 pi x 8 GHz against
microsecond relaxation), so full-tier ``evolve`` runs are slow.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

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
from .errors import CasqedError, ConfigError, InvalidParams
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

#: default (rel_tol, abs_tol) per tier; the full tier runs at its
#: stability cap, where entries below abs_tol are bounded, not resolved
#: (slow observables stay accurate for a linear generator)
TIER_TOLS = {
    "reduced": (1e-8, 1e-12),
    "effective": (1e-7, 1e-10),
    "full": (1e-6, 1e-3),
}


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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "config_sha256": self.config_sha256,
                    "artifact_version": self.artifact_version,
                    "seed": self.seed,
                    "wall_clock_s": self.wall_clock_s,
                    "points": self.points,
                },
                fh,
                indent=2,
            )
            fh.write("\n")


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
            _unbalanced_params(cfg)
    except InvalidParams as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc


def _unbalanced_params(cfg: ExperimentConfig, a_over_b=None, epsilon=None) -> PhysicalParams:
    phys = cfg.require_physical()
    a_over_b = phys["a_over_b"] if a_over_b is None else a_over_b
    epsilon = phys["epsilon"] if epsilon is None else epsilon
    p = PhysicalParams.symmetric(
        g=phys["g"],
        kappa=phys["kappa1"],
        gamma=phys["gamma"],
        Delta=phys["Delta"],
        Omega_r=a_over_b * phys["Omega_s"],
        Omega_s=phys["Omega_s"],
        epsilon=epsilon,
        omega_1=phys["omega_1"],
    )
    if phys.get("kappa2") not in (None, phys["kappa1"]):
        p = replace(p, kappa2=phys["kappa2"])
    return p


def physical_params(cfg: ExperimentConfig, a_over_b=None, epsilon=None) -> PhysicalParams:
    """Balanced physical parameters from the config's physical block."""
    return stark_balance(_unbalanced_params(cfg, a_over_b, epsilon), cfg.balance)


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
    if tier == "effective":
        space = ModelSpace(2, cfg.fock_cutoff)
        action = build_effective_liouvillian(p, space)
    elif tier == "full":
        space = ModelSpace(5, cfg.fock_cutoff)
        action = build_full_liouvillian(p, space)
    else:
        raise ConfigError(f"unknown tier {tier!r}", key="model.tier")
    return TierModel(
        tier=tier,
        action=action,
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
                           start_cutoff=None, max_cutoff=4, top_tol=1e-6):
    """Steady state with automatic Fock-cutoff escalation.

    Raises the cutoff (up to ``max_cutoff``) until the top retained
    photon state holds no more than ``top_tol`` population.  Every
    cutoff is solved directly by :func:`steady_state_nullspace`.
    Returns (rho, space, cutoff).
    """
    builder = build_effective_liouvillian if tier == "effective" else build_full_liouvillian
    levels = 2 if tier == "effective" else 5
    cutoff = cfg.fock_cutoff if start_cutoff is None else start_cutoff
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

def _eps_point(args):
    cfg, tier, ratio, eps = args
    try:
        if tier == "reduced":
            if cfg.physical is not None:
                rp = reduced_params(physical_params(cfg, a_over_b=ratio, epsilon=eps))
                a = rp.beta_r1 / np.sqrt(rp.kappa1)
                b = rp.beta_s1 / np.sqrt(rp.kappa1)
                m = MatchedDrive(a, b, eps, cross=cfg.cross)
            else:
                m = MatchedDrive(ratio * cfg.b, cfg.b, eps, cross=cfg.cross)
            rho = analytic_steady_state(m)
            return float(fef_fidelity(rho)), None
        p = physical_params(cfg, a_over_b=ratio, epsilon=eps)
        rho, space, _ = converged_steady_state(p, tier, cfg)
        return float(fef_fidelity(qubit_marginal(rho, space))), None
    except CasqedError as exc:
        return float("nan"), f"{type(exc).__name__}: {exc}"


def run_sweep_eps(cfg: ExperimentConfig, out_dir, seed: int = 0, workers: int = 1):
    """Steady-state fidelity on the (a/b, epsilon) grid."""
    t_start = time.perf_counter()
    tier = cfg.tiers[0]
    grid = [(ratio, eps) for ratio in cfg.sweep_a_over_b for eps in cfg.sweep_epsilon]
    tasks = [(cfg, tier, ratio, eps) for ratio, eps in grid]
    results = _run_points(_eps_point, tasks, workers)

    rows, points = [], []
    failed = 0
    for (ratio, eps), (fid, err) in zip(grid, results):
        rows.append([ratio, eps, fid])
        points.append({"a_over_b": ratio, "epsilon": eps, "converged": err is None,
                       **({"error": err} if err else {})})
        failed += err is not None

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "sweep_eps.csv", ("a_over_b", "epsilon", "fidelity"), rows)
    # one fidelity-vs-ratio line per (subsampled) epsilon
    eps_axis = cfg.sweep_epsilon
    shown = eps_axis if len(eps_axis) <= 6 else [eps_axis[i] for i in
                                                 np.linspace(0, len(eps_axis) - 1, 6).astype(int)]
    series = []
    for eps in shown:
        fids = [rows[i * len(eps_axis) + eps_axis.index(eps)][2] for i in range(len(cfg.sweep_a_over_b))]
        series.append((f"eps={eps:g}", cfg.sweep_a_over_b, fids))
    line_plot(out_dir / "sweep_eps.svg", series,
              title="steady-state fidelity", xlabel="a/b", ylabel="fidelity")
    RunManifest(cfg.sha256, __version__, seed, time.perf_counter() - t_start, points).write(
        out_dir / "manifest.json"
    )
    if failed:
        raise CasqedError(f"{failed} sweep point(s) failed; see manifest")
    return out_dir / "sweep_eps.csv"


def _coop_point(args):
    cfg, tier, Y = args
    try:
        phys = cfg.require_physical()
        kappa, gamma = phys["kappa1"], phys["gamma"]
        if gamma <= 0:
            raise ConfigError("sweep-coop needs physical.gamma_2pi_MHz > 0", key="physical.gamma_2pi_MHz")
        g = float(np.sqrt(Y * kappa * gamma))
        scale = phys["g"] / g  # hold beta = g Omega / (2 Delta) fixed
        p = PhysicalParams.symmetric(
            g=g, kappa=kappa, gamma=gamma, Delta=phys["Delta"],
            Omega_r=phys["a_over_b"] * phys["Omega_s"] * scale,
            Omega_s=phys["Omega_s"] * scale,
            epsilon=phys["epsilon"], omega_1=phys["omega_1"],
        )
        p = stark_balance(p, cfg.balance)
        if tier == "reduced":
            rp = reduced_params(p)
            m = MatchedDrive(rp.beta_r1 / np.sqrt(rp.kappa1), rp.beta_s1 / np.sqrt(rp.kappa1),
                             rp.epsilon)
            return g, float(fef_fidelity(analytic_steady_state(m))), None
        rho, space, _ = converged_steady_state(p, tier, cfg)
        return g, float(fef_fidelity(qubit_marginal(rho, space))), None
    except CasqedError as exc:
        return float("nan"), float("nan"), f"{type(exc).__name__}: {exc}"


def run_sweep_coop(cfg: ExperimentConfig, out_dir, seed: int = 0, workers: int = 1):
    """Steady-state fidelity against the cooperativity Y = g^2/(kappa gamma).

    g is varied; the drive amplitudes are rescaled to hold the Raman
    rates fixed, and the light-shift balance is re-solved per point.
    """
    t_start = time.perf_counter()
    tier = cfg.tiers[0]
    phys = cfg.require_physical()
    tasks = [(cfg, tier, Y) for Y in cfg.sweep_Y]
    results = _run_points(_coop_point, tasks, workers)

    rows, points = [], []
    failed = 0
    for Y, (g, fid, err) in zip(cfg.sweep_Y, results):
        rows.append([phys["a_over_b"], phys["epsilon"], Y, g, fid])
        points.append({"Y": Y, "converged": err is None, **({"error": err} if err else {})})
        failed += err is not None

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "sweep_coop.csv",
        ("a_over_b", "epsilon", "Y", "g_2pi_MHz", "fidelity"),
        rows,
    )
    line_plot(
        out_dir / "sweep_coop.svg",
        [(f"a/b={phys['a_over_b']:g}, eps={phys['epsilon']:g}", cfg.sweep_Y,
          [r[4] for r in rows])],
        title="steady-state fidelity vs cooperativity", xlabel="Y = g^2/(kappa gamma)",
        ylabel="fidelity", logx=True,
    )
    RunManifest(cfg.sha256, __version__, seed, time.perf_counter() - t_start, points).write(
        out_dir / "manifest.json"
    )
    if failed:
        raise CasqedError(f"{failed} sweep point(s) failed; see manifest")
    return out_dir / "sweep_coop.csv"


def _run_points(fn, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


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
    rho = read_dm(dm_path)
    if rho.shape != (4, 4):
        raise ConfigError(f"metrics needs a 4x4 two-qubit state, got {rho.shape}")
    header = METRIC_COLUMNS[:4]  # no model context, so no flux column
    values = [fef_fidelity(rho), concurrence(rho), vn_entropy(rho), purity(rho)]
    out(",".join(header))
    out(",".join(fmt(v) for v in values))
    return values
