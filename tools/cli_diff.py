"""Compare the CLI outputs of two source trees on the benchmark's CLI configs.

Usage: python3 tools/cli_diff.py OLD_SRC NEW_SRC

Each tree is a directory holding the adiabatica package (a checkout's src/).
The configs are the cli_oneshot and cli_trajectory mixes of bench/workloads.py
at seeds 81 and 82, each in CSV and in JSON: 48 runs of
`python -m adiabatica.cli` per tree. Prints the runs whose exit code, stdout or
stderr differ and their count; exits 1 when any differ.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

SEEDS = (81, 82)
FORMATS = ("csv", "json")


def run(src: str, command: str, config: Path) -> tuple:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    argv = [sys.executable, "-m", "adiabatica.cli", command, "--config", str(config)]
    proc = subprocess.run(argv, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def main(old_src: str, new_src: str) -> int:
    differ = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for case in workloads.cli_oneshot(seed) + workloads.cli_trajectory(seed):
                for fmt in FORMATS:
                    config = Path(tmp) / f"{seed}-{case.name}-{fmt}.json"
                    config.write_text(json.dumps({**case.config, "format": fmt}))
                    old, new = (run(src, case.command, config) for src in (old_src, new_src))
                    total += 1
                    if old != new:
                        differ += 1
                        names = ("exit", "stdout", "stderr")
                        parts = [k for k, a, b in zip(names, old, new) if a != b]
                        print(f"differs: seed {seed} {case.name} {fmt}: {', '.join(parts)}")
    print(f"{differ} of {total} CLI outputs differ in exit code, stdout or stderr")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
