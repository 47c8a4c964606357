"""Run the ``casqed`` CLI and record its peak resident memory.

    python3 perfbench/cli_entry.py RSS_FILE [SPANS_NPZ RUN_ID] -- <casqed CLI args>

Writes the process's peak resident set (KiB) to RSS_FILE and exits with
the CLI's exit code.  With SPANS_NPZ the run is traced (see ``tracer.py``)
and its spans are written there.

The peak is read from ``VmHWM``, the high-water mark of this process's own
address space.  The ``ru_maxrss`` a parent gets from ``wait4`` also counts
the parent's own peak, inherited across fork and exec.
"""

import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main() -> int:
    sep = sys.argv.index("--")
    rss_path, *trace_args = sys.argv[1:sep]
    cli_args = sys.argv[sep + 1:]
    tracer = None
    if trace_args:
        from tracer import Tracer

        tracer = Tracer(trace_args[1])
        cli_main = tracer.install()
    else:
        from casqed.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(trace_args[0])
        with open(rss_path, "w", encoding="ascii") as fh:
            fh.write(f"{peak_rss_kib()}\n")


if __name__ == "__main__":
    sys.exit(main())
