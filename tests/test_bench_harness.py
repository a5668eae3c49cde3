"""The benchmark's traced lib_pipeline run still attributes time to the propagation layers.

The tracer finds the package's public functions by name; if a kernel is
renamed or inlined away, its layer silently reads 0. This runs the traced
workload once at K=16 (about 2 s) and checks that it did not.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_lib_pipeline_attributes_propagation_layers():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lib_pipeline",
         "--seconds", "0", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    metrics = result["metrics"]
    assert metrics["propagation.stepping_s"]["value"] > 0
    assert metrics["propagation.coefficient_s"]["value"] > 0
