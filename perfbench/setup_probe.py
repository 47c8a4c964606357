"""Set-up probe: start the interpreter, import the CLI and load a config.

    python3 perfbench/setup_probe.py CONFIG

Prints ``ready`` once the config is loaded, which is where the CLI would
start the experiment; the parent times spawn to that line.
"""

import sys

import casqed.cli  # noqa: F401  (imports every layer the CLI imports)
from casqed.config import load_config

load_config(sys.argv[1])
print("ready", flush=True)
