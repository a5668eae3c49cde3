"""Which of the package's modules each CLI command loads, and their import times.

Usage: python3 tools/import_split.py [--src SRC] [--repeat N]

Runs `--help` and each config of the cli_oneshot mix of bench/workloads.py
(seed 1) and its ms-probe config of cli_trajectory, with grids of 64 steps, N
times each (default 1) as a fresh `python -X importtime` process that imports
adiabatica.cli and calls main(). SRC (default: the src/ beside this script) goes
first on PYTHONPATH. For each case it prints whether numpy was imported, with the
median cumulative `-X importtime` of `import numpy` in ms, and the adiabatica
modules the process imported, in import order, with the median `-X importtime`
self time of each in ms, and their sum. The self time of a module includes
compiling it when no bytecode cache is written or found
(PYTHONDONTWRITEBYTECODE=1 and no __pycache__).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

CODE = "import sys, adiabatica.cli; sys.exit(adiabatica.cli.main())"


def import_times(stderr: str) -> tuple[dict[str, int], int | None]:
    """({module: self µs} of the adiabatica lines of an -X importtime log, in import order,
    numpy's cumulative µs or None if it was not imported)."""
    out, numpy = {}, None
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            own, cumulative, name = (field.strip() for field in line[len("import time:"):].split("|"))
            if name.split(".")[0] == "adiabatica":
                out[name] = int(own)
            elif name == "numpy":
                numpy = int(cumulative)
    return out, numpy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=args.src + (os.pathsep + path if path else ""))
    configs = workloads.cli_oneshot(1, 64) + [c for c in workloads.cli_trajectory(1, 64)
                                              if c.command == "ms-probe"]
    with tempfile.TemporaryDirectory() as tmp:
        cases = [("help", ["--help"])]
        for case in configs:
            config = Path(tmp, f"{case.name}.json")
            config.write_text(json.dumps(case.config))
            options = ["--config", str(config), "--output", str(Path(tmp, "out"))]
            cases.append((case.name, [case.command, *options]))
        for name, options in cases:
            argv = [sys.executable, "-X", "importtime", "-c", CODE, *options]
            runs, numpy = [], []
            for _ in range(args.repeat):
                proc = subprocess.run(argv, env=env, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                modules, numpy_us = import_times(proc.stderr)
                runs.append(modules)
                numpy.append(numpy_us)
            ms = {module: statistics.median(run.get(module, 0) for run in runs) / 1e3 for module in runs[0]}
            loaded = [us for us in numpy if us is not None]
            numpy_text = f"numpy {statistics.median(loaded) / 1e3:.1f} ms" if loaded else "no numpy"
            print(f"{name} ({options[0]}): {numpy_text}, {len(ms)} modules, self {sum(ms.values()):.1f} ms")
            for module, value in ms.items():
                print(f"  {module:<24}{value:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
