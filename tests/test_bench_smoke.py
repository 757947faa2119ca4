"""The benchmark harness still runs and checks itself on tiny grids."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    # --smoke resets the caches, rebinds the tracer and checks every output
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert lines and lines[-1] == "smoke: PASS", proc.stdout[-2000:]


def test_every_traced_name_is_a_callable_of_the_package():
    # the tracer rebinds these names; one that a refactor drops fails the
    # smoke run above with little more than its truncated output
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"fracstirling.{module}.{name}"
        for module, name, _ in tracer.REBOUND
        if not callable(getattr(importlib.import_module(f"fracstirling.{module}"), name, None))
    ]
    assert not missing, f"bench/tracer.py rebinds names the package lacks: {missing}"
