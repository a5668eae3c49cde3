"""Which of the package's modules each CLI command loads, and their import times.

Usage: python3 tools/import_split.py [--src SRC] [--repeat N]

Runs each config of the cli_oneshot mix of bench/workloads.py (seed 1) and its
ms-probe config of cli_trajectory, with grids of 64 steps, N times each (default
1) as a fresh `python -X importtime` process that imports adiabatica.cli and
calls main(). SRC (default: the src/ beside this script) goes first on
PYTHONPATH. For each config it prints the adiabatica modules the process
imported, in import order, with the median `-X importtime` self time of each in
ms, and their sum. The self time of a module includes compiling it when no
bytecode cache is written or found (PYTHONDONTWRITEBYTECODE=1 and no
__pycache__).
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


def self_times(stderr: str) -> dict[str, int]:
    """{module: self µs} of the adiabatica lines of an -X importtime log, in import order."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            own, _, name = line[len("import time:"):].split("|")
            if name.strip().split(".")[0] == "adiabatica":
                out[name.strip()] = int(own)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=args.src + (os.pathsep + path if path else ""))
    cases = workloads.cli_oneshot(1, 64) + [c for c in workloads.cli_trajectory(1, 64)
                                            if c.command == "ms-probe"]
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            config, output = Path(tmp, f"{case.name}.json"), Path(tmp, "out")
            config.write_text(json.dumps(case.config))
            argv = [sys.executable, "-X", "importtime", "-c", CODE,
                    case.command, "--config", str(config), "--output", str(output)]
            runs = []
            for _ in range(args.repeat):
                proc = subprocess.run(argv, env=env, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"{case.name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                runs.append(self_times(proc.stderr))
            ms = {name: statistics.median(run.get(name, 0) for run in runs) / 1e3 for name in runs[0]}
            print(f"{case.name} ({case.command}): {len(ms)} modules, self {sum(ms.values()):.1f} ms")
            for name, value in ms.items():
                print(f"  {name:<24}{value:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
