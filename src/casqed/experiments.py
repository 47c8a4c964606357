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

Errors
------
Each runner first calls :func:`check_params`, the one place that raises
:class:`~casqed.errors.ConfigError` (CLI exit 2), and then has the output
directory.  A config error is a rule that holds at every point of a run
or at none.  Whatever depends on one point's a/b, epsilon or Y (an
infeasible balance, an overflowing or degenerate drive, a failed solve)
fails in that point's own row wherever it sits on its axis: NaN in the
CSV, ``error`` in the manifest, CLI exit 1.  A key is checked only by the
commands that read it (:func:`~casqed.config.keys_read_by`), so exit 2 is
never decided by a key the command does not read.  Every ``sweep-eps``
point replaces a/b and epsilon, so ``sweep-eps`` checks the drive at
a = b at each epsilon of its axis and the physical block once, at a/b = 1
and the axis's first epsilon, and balances no configured a/b.

Every cavity-tier point of ``sweep-eps`` and ``sweep-coop`` takes its
parameters from :func:`physical_params` (the physical block with a/b,
epsilon or the cooperativity Y replaced), and the cavity tiers take the
qubit marginal of :func:`converged_steady_state`, one point at a time,
recording in the point's manifest entry the Fock cutoff it accepted and
that cutoff's top-photon population.

The reduced tier takes the closed form in blocks of
:data:`REDUCED_BLOCK` points, each block one array pass from the grid to
its fidelities.  The block's drives are one
:class:`~casqed.reduced.MatchedDrive` of arrays, checked drive by drive:
without the physical block, a = (a/b) b and epsilon come straight from
the grid; with it, each point's drive is its jump amplitudes from the
bridge :func:`~casqed.params.reduced_params` (:func:`_point_model`), and
a point whose balance or parameters fail gets its own error there.  One
numpy pass of :func:`~casqed.reduced.analytic_steady_state` gives the
block's states, each bit for bit that of its drive alone (its docstring
gives the rules).  One stacked ``fef_fidelity`` gives the
fidelities: every closed-form state is an X-state, so the gate and the
fully entangled fraction take their closed forms over the two parity
pairs (:mod:`casqed.metrics`), elementwise over the block, with no
eigensolver.  A block that raises is split in halves until each failing
point stands alone with its own error.  The sweep formats each axis
value once, not once per CSV row.  One writer emits CSV, SVG, manifest.

Steady states of the cavity tiers come from a direct solve at each Fock
cutoff (:func:`~casqed.dynamics.steady_state_nullspace`): GMRES on the
even sector of the photon-plus-atom parity (-1)^(n1+n2) pi1 pi2, which
holds half the unknowns, preconditioned by a Sylvester solve per parity
block.  A degeneracy probe on the even and one on the odd sector run once
per point, on the generator of the cutoff the escalation accepts, and not
on the cutoffs it discards.  The trade-off: a degenerate point is flagged
only at the cutoff it is accepted at, so it escalates before it fails,
up to ``max_cutoff``.  Time evolution
takes Krylov exponential steps (see :mod:`casqed.dynamics`) at about one
generator call per radian of the fastest oscillation; in the
full tier that is the detuning, of order 2 pi x 8 GHz against
microsecond relaxation.

Sweeps with ``--workers N`` send the points (reduced tier: the blocks)
to the worker processes in chunks, each chunk with the point function
and, in it, the config.  The process pool's module loads only then.

Imports
-------
The module loads only numpy-only layers at import (:mod:`casqed`): the
reduced tier's sweeps, ``metrics`` and the CLI's ``--help`` never load
scipy.  The cavity builders (:mod:`casqed.cavity`) and the integrator and
solvers (:mod:`casqed.dynamics`) are imported inside the functions that
use them.  ``evolve``, ``steady`` and the cavity tiers' sweeps import
them first (:func:`_import_models`), before their clock starts: the
manifest's ``wall_clock_s``, and so the benchmark's ``points_per_s``, time
the experiment, not an import of scipy.  They import them before the
pre-run check, too: an import that adds warning filters clears Python's
record of the warnings already shown, and a balance warning that the
check gave would then be shown again by the run.
"""

from __future__ import annotations

import json
import time
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .config import ExperimentConfig, keys_read_by
from .errors import CasqedError, ConfigError, InfeasibleBalance, InvalidDensityMatrix, InvalidParams
from .linalg import read_dm
from .metrics import METRIC_COLUMNS, concurrence, fef_fidelity, output_flux, purity, vn_entropy
from .params import PhysicalParams, reduced_params, stark_balance
from .reduced import (
    MatchedDrive,
    analytic_steady_state,
    initial_ground_state,
    liouvillian_action,
    matched_amplitudes,
    output_flux_operator as reduced_flux_operator,
)
from .svgplot import line_plot

if TYPE_CHECKING:
    from .cavity import ModelSpace

#: default (rel_tol, abs_tol) per tier.  Looser tolerances return matrices
#: that are not states; at these the samples stay states (see
#: TestTierTolerances in tests/test_experiments.py)
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


def _csv_line(row) -> str:
    """The CSV text of ``row``: strings as they are, numbers by :func:`fmt`."""
    return ",".join([s if isinstance(s, str) else fmt(s) for s in row])


def _write_csv(path, header, lines) -> None:
    """Write the CSV text ``lines`` under ``header``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines, "# manifest: manifest.json"]) + "\n")


def check_params(cfg: ExperimentConfig, command: str, out_dir=None) -> None:
    """Raise :class:`ConfigError` where ``cfg`` breaks a rule of ``command``
    or of the models that holds at every point or at none; then create
    ``out_dir``, if given (a config error too if that fails).

    The models' checks see only the values of the keys ``command`` reads
    (:func:`~casqed.config.keys_read_by`).  Where its points take a/b and
    epsilon from the axes, the drive is checked at a = b and the physical
    block at a/b = 1, where Omega_r = Omega_s: what overflows there
    overflows at every point.  Epsilon enters the block only through its
    range, which the drive check covers at each epsilon of the axis, so the
    block is built once, at the axis's first epsilon.
    """
    reads, tiers = keys_read_by(command), ", ".join(cfg.tiers)
    if cfg.experiment is not None and cfg.experiment != command:
        raise ConfigError(f"config declares experiment={cfg.experiment!r}, invoked {command!r}", key="experiment")
    if command == "steady" and cfg.tiers != ["reduced"]:
        raise ConfigError(f"steady solves the reduced tier only, model.tier lists {tiers}", key="model.tier")
    if command.startswith("sweep") and len(cfg.tiers) != 1:   # the CSV has no tier column
        raise ConfigError(f"a sweep runs one tier, model.tier lists {tiers}", key="model.tier")
    # a cavity tier needs the physical block, and so does g = sqrt(Y kappa1 gamma), with gamma, Y > 0
    if cfg.physical is None and ("sweep.Y" in reads or cfg.tiers != ["reduced"]):
        raise ConfigError(f"{command} of model.tier {tiers} needs the physical.* block",
                          key="physical.g_2pi_MHz")
    if "sweep.Y" in reads and cfg.physical["gamma"] <= 0:
        raise ConfigError(f"{command} needs physical.gamma_2pi_MHz > 0", key="physical.gamma_2pi_MHz")
    if "sweep.Y" in reads and min(cfg.sweep_Y) <= 0:
        raise ConfigError(f"sweep.Y must be > 0, got {min(cfg.sweep_Y):g}", key="sweep.Y")
    eps_axis = cfg.sweep_epsilon if "sweep.epsilon" in reads else None
    try:
        MatchedDrive(cfg.a if "drive.a" in reads else cfg.b, cfg.b, eps_axis or cfg.epsilon, cfg.cross)
        if cfg.physical is not None:
            p = _unbalanced_params(cfg, None if "physical.a_over_b" in reads else 1.0,
                                   eps_axis[0] if eps_axis else None)
            if command != "evolve" and cfg.tiers == ["reduced"]:
                # the closed form's drive: the balance changes neither beta nor
                # kappa, so an infeasible a/b cannot hide an unmatched one
                matched_amplitudes(reduced_params(p))
            if "physical.a_over_b" in reads:
                # warns where build_tier and the points warn, so once; an infeasible
                # balance fails the configured point only, which a sweep need not visit
                with suppress(InfeasibleBalance):
                    physical_params(cfg)
    except InvalidParams as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the output directory: {exc}") from exc


def _coop_g(phys: dict, Y: float) -> float:
    """g at the cooperativity Y = g^2 / (kappa1 gamma)."""
    return float(np.sqrt(Y * phys["kappa1"] * phys["gamma"]))


def _unbalanced_params(cfg: ExperimentConfig, a_over_b=None, epsilon=None, Y=None) -> PhysicalParams:
    """:func:`physical_params` before the light-shift balance."""
    phys = cfg.physical
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
    )
    if phys["kappa2"] != phys["kappa1"]:
        p = replace(p, kappa2=phys["kappa2"])
    return p


def physical_params(cfg: ExperimentConfig, a_over_b=None, epsilon=None, Y=None) -> PhysicalParams:
    """Balanced physical parameters of one point of the config's physical block.

    ``a_over_b`` and ``epsilon`` replace the block's values.  ``Y`` sets
    g = sqrt(Y kappa1 gamma) and scales the drives by g_cfg / g, which holds
    the Raman rates beta = g Omega / (2 Delta) at their configured values.
    """
    return stark_balance(_unbalanced_params(cfg, a_over_b, epsilon, Y), cfg.balance)


def _tier_tols(cfg: ExperimentConfig, tier: str):
    rel, abs_ = TIER_TOLS[tier]
    return (cfg.rel_tol if cfg.rel_tol is not None else rel,
            cfg.abs_tol if cfg.abs_tol is not None else abs_)


@dataclass
class TierModel:
    action: object
    rho0: np.ndarray
    flux_op: np.ndarray
    space: ModelSpace | None

    def marginal(self, rho):
        if self.space is None:
            return rho
        from .cavity import qubit_marginal

        return qubit_marginal(rho, self.space)


def _import_models(tiers) -> None:
    """Import the cavity builders and the solvers under them, which load
    scipy, where ``tiers`` lists a cavity tier.  Runners call it first,
    before their pre-run check and their clock (module docstring)."""
    if set(tiers) != {"reduced"}:
        from . import cavity  # noqa: F401  (and casqed.dynamics, which it imports)


def _cavity_model(tier: str):
    """(atom levels, generator builder) of a cavity tier; the builders are
    read from :mod:`casqed.cavity` at each call, so rebinding them takes effect."""
    from . import cavity

    return {"effective": (2, cavity.build_effective_liouvillian),
            "full": (5, cavity.build_full_liouvillian)}[tier]


def build_tier(cfg: ExperimentConfig, tier: str) -> TierModel:
    if tier == "reduced":
        # evolve integrates the exact generator, so the drive need not be matched
        if cfg.physical is not None:
            params = reduced_params(physical_params(cfg))
        else:
            params = _point_model(cfg, {}).params()
        return TierModel(
            action=liouvillian_action(params),
            rho0=initial_ground_state(),
            flux_op=reduced_flux_operator(params),
            space=None,
        )
    from .cavity import ModelSpace, output_flux_operator, vacuum_ground_state

    p = physical_params(cfg)
    levels, builder = _cavity_model(tier)
    space = ModelSpace(levels, cfg.fock_cutoff)
    return TierModel(
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
    :func:`steady_state_nullspace`, but only the accepted one is probed
    for degeneracy: a point pays the two probes once, on the generator
    whose state it returns.  A degenerate point is flagged there, so it
    escalates to ``max_cutoff`` first unless a lower cutoff already holds
    its top photon state below ``top_tol``.
    Returns (rho, space, cutoff).
    """
    from .cavity import ModelSpace, top_fock_population
    from .dynamics import steady_state_nullspace

    levels, builder = _cavity_model(tier)
    cutoff = cfg.fock_cutoff
    while True:
        space = ModelSpace(levels, cutoff)
        last = cutoff >= max_cutoff
        rho = steady_state_nullspace(builder(p, space),
                                     keep=lambda r: top_fock_population(r, space) <= top_tol or last)
        if rho is not None:
            return rho, space, cutoff
        cutoff += 1


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def run_timeseries(cfg: ExperimentConfig, out_dir, seed: int = 0, workers: int = 1):
    """Fidelity-vs-time curves for each configured tier (one CSV + SVG)."""
    from .dynamics import integrate   # read at each run, so rebinding it takes effect

    _import_models(cfg.tiers)
    check_params(cfg, "evolve", out_dir)
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
            rows.append(_csv_line([t, tier] + metrics_row))
            fids.append(metrics_row[0])
        series.append((tier, list(times), fids))
        points.append({"tier": tier, "converged": True, "n_times": len(times)})

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

def _point_model(cfg: ExperimentConfig, point: dict) -> MatchedDrive:
    """The closed form's drive at one point (keyword arguments of
    :func:`physical_params`; ``{}`` is the configured point): from the bare
    ``drive.*`` keys, or the matched amplitudes of the physical block's
    :func:`~casqed.params.reduced_params` (:class:`InvalidParams` otherwise)."""
    if cfg.physical is not None:
        params = reduced_params(physical_params(cfg, **point))
        return MatchedDrive(*matched_amplitudes(params), params.epsilon)
    a = cfg.a if "a_over_b" not in point else point["a_over_b"] * cfg.b
    return MatchedDrive(a, cfg.b, point.get("epsilon", cfg.epsilon), cross=cfg.cross)


def _failed(exc: CasqedError):
    return float("nan"), f"{type(exc).__name__}: {exc}"


def _steady_point(cfg: ExperimentConfig, tier: str, point: dict):
    """(fidelity, None, manifest fields) of one cavity-tier sweep point's
    steady state, or (nan, error).  The fields are the accepted Fock
    ``cutoff`` and its top-photon population ``top_fock``."""
    from .cavity import qubit_marginal, top_fock_population

    try:
        rho, space, cutoff = converged_steady_state(physical_params(cfg, **point), tier, cfg)
        fields = {"cutoff": cutoff, "top_fock": top_fock_population(rho, space)}
        return float(fef_fidelity(qubit_marginal(rho, space))), None, fields
    except CasqedError as exc:
        return _failed(exc)


def _reduced_block(cfg: ExperimentConfig, points: list) -> list:
    """[(fidelity, None) or (nan, error)] of reduced-tier sweep points.

    Without the physical block the drives come straight from the grid:
    a = (a/b) b, epsilon.  With it each point's drive is that of
    :func:`_point_model`, and a point whose balance or parameters fail gets
    its own error.  The drives then take one array pass (:func:`_closed_form`).
    """
    if cfg.physical is None:
        ratios = np.array([p["a_over_b"] for p in points], dtype=float)
        eps = np.array([p["epsilon"] for p in points], dtype=float)
        return _closed_form(ratios * cfg.b, np.full(len(points), cfg.b), eps, cfg.cross)
    a, b, eps, failed = [], [], [], {}
    for i, point in enumerate(points):
        try:
            drive = _point_model(cfg, point)
        except CasqedError as exc:
            failed[i] = _failed(exc)
            continue
        a.append(drive.a)
        b.append(drive.b)
        eps.append(drive.epsilon)
    solved = iter(_closed_form(np.array(a), np.array(b), np.array(eps), False) if eps else [])
    return [failed[i] if i in failed else next(solved) for i in range(len(points))]


def _closed_form(a, b, eps, cross: bool) -> list:
    """[(fidelity, None) or (nan, error)] of the drives (a[i], b[i], eps[i]).

    One array pass takes the closed form and the fully entangled fraction
    of every drive.  Drives that raise (an invalid or degenerate drive, a
    failed gate) are split in halves until each failing drive stands alone
    and gets its own error: O(log n) array passes per failing drive.
    """
    try:
        states = analytic_steady_state(MatchedDrive(a, b, eps, cross))
        return [(fid, None) for fid in fef_fidelity(states).tolist()]
    except CasqedError as exc:
        if len(eps) == 1:
            return [_failed(exc)]
        h = len(eps) // 2
        return _closed_form(a[:h], b[:h], eps[:h], cross) + _closed_form(a[h:], b[h:], eps[h:], cross)


def _run_sweep(cfg: ExperimentConfig, out_dir, seed, workers, name, header, points, rows, plot):
    """Solve every sweep point; write ``<name>.csv``, ``<name>.svg`` and the manifest.

    ``points`` (see :func:`_point_model`) become the manifest's points and
    gain ``converged``, then ``error`` where they failed, or on the cavity
    tiers ``cutoff`` and ``top_fock``.  ``rows`` holds each point's CSV
    fields before its fidelity, as text (:func:`_csv_line`).
    ``plot(path, fidelities)`` draws the SVG.  Raises :class:`CasqedError`
    when a point failed.
    """
    t_start = time.perf_counter()
    tier, = cfg.tiers
    if tier == "reduced":
        blocks = [points[i:i + REDUCED_BLOCK] for i in range(0, len(points), REDUCED_BLOCK)]
        results = [r for block in _run_points(partial(_reduced_block, cfg), blocks, workers) for r in block]
    else:
        results = _run_points(partial(_steady_point, cfg, tier), points, workers)

    failed = 0
    fids = []
    for i, point in enumerate(points):
        result = results[i]
        fids.append(result[0])
        err = result[1]
        point["converged"] = err is None
        if err:
            point["error"] = err
            failed += 1
        elif len(result) > 2:
            point.update(result[2])
    # every fidelity is a Python float, whose repr is fmt's text
    _write_csv(out_dir / f"{name}.csv", header, [f"{row},{fid!r}" for row, fid in zip(rows, fids)])
    plot(out_dir / f"{name}.svg", fids)
    RunManifest(cfg.sha256, __version__, seed, time.perf_counter() - t_start, points).write(
        out_dir / "manifest.json"
    )
    if failed:
        raise CasqedError(f"{failed} sweep point(s) failed; see manifest")
    return out_dir / f"{name}.csv"


def run_sweep_eps(cfg: ExperimentConfig, out_dir, seed: int = 0, workers: int = 1):
    """Steady-state fidelity on the (a/b, epsilon) grid."""
    _import_models(cfg.tiers)
    check_params(cfg, "sweep-eps", out_dir)
    ratios, eps_axis = cfg.sweep_a_over_b, cfg.sweep_epsilon
    points = [{"a_over_b": r, "epsilon": e} for r in ratios for e in eps_axis]
    eps_fields = [fmt(e) for e in eps_axis]
    rows = [f"{r},{e}" for r in map(fmt, ratios) for e in eps_fields]

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
    _import_models(cfg.tiers)
    check_params(cfg, "sweep-coop", out_dir)
    phys = cfg.physical
    points = [{"Y": Y} for Y in cfg.sweep_Y]
    rows = [_csv_line([phys["a_over_b"], phys["epsilon"], Y, _coop_g(phys, Y)]) for Y in cfg.sweep_Y]

    def plot(path, fids):
        line_plot(path, [(f"a/b={phys['a_over_b']:g}, eps={phys['epsilon']:g}", cfg.sweep_Y, fids)],
                  title="steady-state fidelity vs cooperativity", xlabel="Y = g^2/(kappa gamma)",
                  ylabel="fidelity", logx=True)

    return _run_sweep(cfg, out_dir, seed, workers, "sweep_coop",
                      ("a_over_b", "epsilon", "Y", "g_2pi_MHz", "fidelity"), points, rows, plot)


def _run_points(fn, tasks, workers: int):
    """``[fn(t) for t in tasks]``, in order, on up to ``workers`` processes.

    The tasks go in about four chunks per worker, and ``fn`` (which holds
    the config) is sent once with each chunk.  The pool forks all its
    processes at the first submit, so it gets no more than there are tasks.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


# ---------------------------------------------------------------------------
# steady / metrics commands
# ---------------------------------------------------------------------------

def run_steady(cfg: ExperimentConfig, out=print):
    """Print the closed-form and null-space steady states and their distance.

    Both are states of the reduced tier at the configured point's drive
    (:func:`_point_model`).
    """
    from .dynamics import steady_state_nullspace

    check_params(cfg, "steady")
    m = _point_model(cfg, {})
    analytic = analytic_steady_state(m)
    numeric = steady_state_nullspace(liouvillian_action(m.params()))
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
