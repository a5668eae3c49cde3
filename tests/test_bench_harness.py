"""The benchmark's traced lib_pipeline run still attributes time to every layer it reaches.

The tracer finds the package's public functions by name; if a kernel is
renamed or inlined away, its layer silently reads 0. This runs the traced
workload once at K=16 (about 2 s) and checks that no layer did.
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
    reached = [
        "spectral.build_frames", "spectral.connection", "effective.build", "effective.criteria",
        "propagation.stepping", "propagation.propagate", "propagation.coefficient",
        "phases.phase_split", "phases.holonomy", "models.evaluate",
    ]
    assert [layer for layer in reached if not metrics[f"{layer}_s"]["value"] > 0] == []
