"""Command-line interface.

    casqed evolve     --config cfg [--out DIR] [--workers N] [--seed S]
    casqed sweep-eps  --config cfg [--out DIR] [--workers N] [--seed S]
    casqed sweep-coop --config cfg [--out DIR] [--workers N] [--seed S]
    casqed steady     --config cfg
    casqed metrics    --dm state.dm

Exit codes: 0 success, 1 runtime/convergence failure, 2 config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .errors import CasqedError, ConfigError
from .experiments import (
    TIER_TOLS,
    check_params,
    run_metrics,
    run_steady,
    run_sweep_coop,
    run_sweep_eps,
    run_timeseries,
)

_DEFAULTS_HELP = """\
config file grammar: one `key = value` per line, `#` comments, dotted keys.

keys and defaults:
  experiment               optional; must match the subcommand when present
  model.tier = reduced     reduced | effective | full (evolve accepts a comma list)
  model.balance = compensated        compensated | raman_resonant
  model.fock_cutoff = 2              photon states 0..cutoff per mode
  drive.a = 2*drive.b   drive.b = 1  matched Raman amplitudes (reduced tier)
  drive.a_over_b                     sets drive.a = a_over_b * drive.b
  drive.epsilon                      defaults to physical.epsilon, else 1
  drive.kappa1 = 1  drive.kappa2 = 1 cavity decays for bare reduced runs
  drive.cross = false                swap roles of a,b on atom 2 (psi sector)
  physical.g_2pi_MHz physical.kappa1_2pi_MHz [physical.kappa2_2pi_MHz]
  physical.gamma_2pi_MHz physical.Delta_2pi_MHz physical.Omega_s_2pi_MHz
  physical.a_over_b physical.epsilon [physical.omega_1_2pi_MHz = 100]
  time.t_max_us = 10   time.n_points = 101
  solver.rel_tol solver.abs_tol      default per tier: {tier_tols}
  solver.ss_tol = 1e-8  solver.max_time_us   accepted; unused since steady states are solved directly
  sweep.a_over_b = 1.1:4.0:0.1  sweep.epsilon = 0.7:1.0:0.01  sweep.Y = log:1:300:30
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casqed",
        description="cascaded-cavity two-atom entanglement: time series, sweeps, metrics",
        epilog=_DEFAULTS_HELP.format(tier_tols=", ".join(
            f"{tier} {rel:g}/{abs_:g}" for tier, (rel, abs_) in TIER_TOLS.items()
        )),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="experiment config file")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--workers", type=int, default=1, help="parallel sweep workers")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in the manifest")

    common(sub.add_parser("evolve", help="time series of all metrics per tier"))
    common(sub.add_parser("sweep-eps", help="steady fidelity on the (a/b, epsilon) grid"))
    common(sub.add_parser("sweep-coop", help="steady fidelity vs cooperativity Y"))
    p_steady = sub.add_parser("steady", help="print analytic vs numeric steady state")
    p_steady.add_argument("--config", required=True)
    p_metrics = sub.add_parser("metrics", help="metrics of a stored density matrix")
    p_metrics.add_argument("--dm", required=True, help="density-matrix file (dm format)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "metrics":
            run_metrics(args.dm)
            return 0
        cfg = load_config(args.config)
        if cfg.experiment is not None and cfg.experiment != args.command:
            raise ConfigError(
                f"config declares experiment={cfg.experiment!r}, invoked {args.command!r}",
                key="experiment",
            )
        check_params(cfg)
        if args.command == "steady":
            run_steady(cfg)
            return 0
        out_dir = Path(args.out)
        runner = {
            "evolve": run_timeseries,
            "sweep-eps": run_sweep_eps,
            "sweep-coop": run_sweep_coop,
        }[args.command]
        path = runner(cfg, out_dir, seed=args.seed, workers=args.workers)
        print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CasqedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
