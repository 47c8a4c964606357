"""Command-line interface.

    casqed evolve     --config cfg [--out DIR] [--workers N] [--seed S]
    casqed sweep-eps  --config cfg [--out DIR] [--workers N] [--seed S]
    casqed sweep-coop --config cfg [--out DIR] [--workers N] [--seed S]
    casqed steady     --config cfg
    casqed metrics    --dm state.dm

Exit codes: 0 success; 1 runtime/convergence failure (a failed sweep point,
a run too large to allocate, output not written); 2 config error (a bad
config file, an unusable ``--out``, or a ``--dm`` file that is not a density
matrix), decided before any point runs and never by a point's place on a
sweep axis (:func:`casqed.experiments.check_params`).  Exit 2 is never
decided by a key the command does not read: ``--help`` lists the commands
that read each key (:data:`casqed.config.KEYS`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import KEYS, load_config
from .errors import CasqedError, ConfigError
from .experiments import (
    TIER_TOLS,
    run_metrics,
    run_steady,
    run_sweep_coop,
    run_sweep_eps,
    run_timeseries,
)


def _keys_help() -> str:
    """The config grammar and every key of :data:`casqed.config.KEYS`."""
    lines = ["config file grammar: one `key = value` per line, `#` comments, dotted keys.", "",
             "keys (= default, accepted values, meaning [the commands that read it]). A list key",
             "takes one or more values. A physical block needs its (required) keys and sets the",
             "reduced tier's drive: every drive.* key next to a physical.* key is an error."]
    for key in KEYS:
        shown = f"  {key.name}" + ("" if key.default is None else f" = {key.default}")
        required = "(required) " if key.required else ""
        lines.append(f"{shown:<35}{key.accepts + '  ':<14}{required}{key.help} [{', '.join(key.read_by)}]")
    lines.append("per-tier solver.rel_tol/abs_tol: " + ", ".join(
        f"{tier} {rel:g}/{abs_:g}" for tier, (rel, abs_) in TIER_TOLS.items()))
    lines += ["", "exit codes: 0 success; 1 a failed point or solve, or output not written; 2 config",
              "error or unusable --out, decided before any point runs, never by a point's place on an axis",
              "and never by a key the command does not read"]
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casqed",
        description="cascaded-cavity two-atom entanglement: time series, sweeps, metrics",
        epilog=_keys_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config file")
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
        elif args.command == "steady":
            run_steady(load_config(args.config))
        else:
            runner = {
                "evolve": run_timeseries,
                "sweep-eps": run_sweep_eps,
                "sweep-coop": run_sweep_coop,
            }[args.command]
            print(runner(load_config(args.config), Path(args.out), seed=args.seed, workers=args.workers))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CasqedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a size the config allows but no allocator can hold (time.n_points,
        # model.fock_cutoff): numpy refuses it at once
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # the pre-run check made --out, so this is a CSV, SVG or manifest write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
