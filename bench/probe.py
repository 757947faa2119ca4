"""Set-up probe: a fresh interpreter imports the CLI and builds a workload's inputs.

    python3 bench/probe.py <workload> <seed>

`run.py` times this script from outside as `setup_s`. It imports nothing
else, so the time is what a CLI user's process pays before its first job.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fracstirling.cli  # noqa: E402,F401  (the import is what set-up costs)
import workloads  # noqa: E402

for invocation in workloads.build(sys.argv[1], int(sys.argv[2])):
    invocation.argv()
