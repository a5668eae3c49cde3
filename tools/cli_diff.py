"""Compare the CLI outputs and library results of two source trees.

Usage: python3 tools/cli_diff.py OLD_SRC NEW_SRC

Each tree is a directory holding the adiabatica package (a checkout's src/).
The CLI configs are the cli_oneshot and cli_trajectory mixes of
bench/workloads.py at seeds 81 and 82, each in CSV and in JSON: 48 runs of
`python -m adiabatica.cli` to stdout per tree, and each cli_trajectory config
once more with `--output FILE`: 20 more runs per tree, 68 in all. A file run
differs when its exit code, stdout, stderr or file differ between the trees,
or when either tree's file differs from that tree's stdout.

The library analyses are bench/run.py's `analyse` on workloads.lib_systems
at the same seeds and default sizes, and on three systems framed by their
models' analytic frames (the rotating model as built, the barred model over
it and ms_second): 9 per tree, run in one subprocess (`python3
tools/cli_diff.py --analyses` with the tree on PYTHONPATH), which prints a
sha256 digest of every array they return, of the two maxima of
`gauge_transform_check` on each system, under fixed rephasings
alpha_n(t) = n / 2 + 0.3 sin(t + n), of `parallel_transport` of the system's
frames (vectors, and derivatives when present), and of
`ms_inconsistency_probe` at level 0 (chain and residual), and the peak bytes
tracemalloc traced while `analyse` ran, while `criteria` and
`coefficient_propagate` (level 0) each ran alone on the system's effective
Hamiltonian, and while `stepping_propagators` ran alone on the system.

Prints the runs that differ, the analyses whose arrays differ, and both
counts; exits 1 when any differ. It also prints each analysis's traced peaks
in both trees ("peak OLD → NEW MiB", "criteria peak OLD → NEW MiB",
"coefficient peak OLD → NEW MiB" and "stepping peak OLD → NEW MiB"), which are
never counted as differences.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

SEEDS = (81, 82)
FORMATS = ("csv", "json")


def run(src: str, argv: list[str]) -> tuple:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def traced(call) -> tuple:
    """call()'s result and the peak bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def analytic_systems(ad) -> list:
    """Systems that keep their models' analytic frames, so the derivative branches of
    `connection`, `parallel_transport` and the gauge check are digested too."""
    params = ad.RotatingModelParams(mu_B=1.0, theta=workloads.THETA_REF, omega=0.5)
    rotating, grid = ad.rotating_model(params), ad.TimeGrid(0.0, params.period, 2048)
    ms_second = ad.ms_second_model(ad.MSSecondModelParams.from_regime(n=5, tau=1.0))
    return [
        workloads.LibSystem("rotating-analytic", rotating, grid, cyclic=True),
        workloads.LibSystem("barred-analytic", ad.barred_model(rotating, grid), grid, cyclic=False),
        workloads.LibSystem("ms-second", ms_second, ad.TimeGrid(0.0, 1.0, 4096), cyclic=True),
    ]


def analyses() -> dict:
    """{analysis: {"digests": {array: sha256}, "peak": bytes, "criteria peak": bytes,
    "coefficient peak": bytes, "stepping peak": bytes}} for the lib_systems of every
    seed and the analytic systems, from the imported tree."""
    import adiabatica as ad
    import run as bench_run  # bench/run.py

    def digest(value) -> str:
        a = np.ascontiguousarray(value)
        return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()

    def rephasing(n: int) -> tuple:
        return (lambda t: n / 2 + 0.3 * np.sin(t + n), lambda t: 0.3 * np.cos(t + n))

    systems = [(f"seed {seed}", s) for seed in SEEDS for s in workloads.lib_systems(seed, ad)]
    systems += [("analytic", s) for s in analytic_systems(ad)]
    out = {}
    for label, system in systems:
        analysis, peak = traced(lambda: bench_run.analyse(ad, system))
        pairs = [rephasing(n) for n in range(system.spec.dim)]
        gauge = ad.gauge_transform_check(system.spec, system.grid, pairs)
        frames = ad.build_frames(system.spec, system.grid)
        conn = ad.connection(frames)
        eff = ad.build_effective(frames, conn)
        _, criteria_peak = traced(lambda: ad.criteria(eff))
        _, coefficient_peak = traced(lambda: ad.coefficient_propagate(eff, 0))
        _, stepping_peak = traced(lambda: ad.stepping_propagators(system.spec, system.grid))
        transported = ad.parallel_transport(frames, conn)
        probe = ad.ms_inconsistency_probe(system.spec, system.grid, 0)
        report, result = analysis.report, analysis.result
        witnesses = report.witnesses.values()
        arrays = {
            "criteria ratios": [report.r_naive, report.r_gap, report.r_level],
            "witness times": [w["time"] for w in witnesses],
            "witness levels": [n for w in witnesses for n in w["levels"]],
            "propagators": result.propagators,
            "states": result.states,
            "coefficients": result.coefficients,
            "phase splits": [[s.dynamical, s.geometric] for s in analysis.splits],
            "holonomies": [h.value for h in analysis.holonomies],
            "coefficient route": analysis.coefficients,
            "gauge check": [gauge.max_state_deviation, gauge.max_holonomy_deviation],
            "transported vectors": transported.vectors,
            "probe chain": probe.chain,
            "probe residual": probe.residual,
        }
        if transported.vector_derivatives is not None:
            arrays["transported derivatives"] = transported.vector_derivatives
        digests = {k: digest(v) for k, v in arrays.items()}
        out[f"{label} {system.name}"] = {
            "digests": digests,
            "peak": peak,
            "criteria peak": criteria_peak,
            "coefficient peak": coefficient_peak,
            "stepping peak": stepping_peak,
        }
    return out


def to_file(src: str, argv: list[str], path: Path) -> tuple:
    """run() with --output path, and the bytes of the file (None if none was left)."""
    return (*run(src, [*argv, "--output", str(path)]), path.read_bytes() if path.exists() else None)


def cli_differences(old_src: str, new_src: str) -> int:
    differ = total = 0
    names = ("exit", "stdout", "stderr", "file")
    trees = {"old": old_src, "new": new_src}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            trajectory = workloads.cli_trajectory(seed)
            for case in workloads.cli_oneshot(seed) + trajectory:
                for fmt in FORMATS:
                    config = Path(tmp) / f"{seed}-{case.name}-{fmt}.json"
                    config.write_text(json.dumps({**case.config, "format": fmt}))
                    argv = ["-m", "adiabatica.cli", case.command, "--config", str(config)]
                    piped = {side: run(src, argv) for side, src in trees.items()}
                    runs = [("", [k for k, a, b in zip(names, *piped.values()) if a != b])]
                    if case in trajectory:
                        filed = {
                            side: to_file(src, argv, config.with_suffix(f".{side}.out"))
                            for side, src in trees.items()
                        }
                        parts = [k for k, a, b in zip(names, *filed.values()) if a != b]
                        parts += [f"{side} file vs stdout" for side in trees
                                  if filed[side][3] != piped[side][1]]
                        runs.append((" --output", parts))
                    for label, parts in runs:
                        total += 1
                        if parts:
                            differ += 1
                            print(f"differs: seed {seed} {case.name} {fmt}{label}: {', '.join(parts)}")
    print(f"{differ} of {total} CLI outputs differ in exit code, stdout, stderr or file")
    return differ


def analysis_differences(old_src: str, new_src: str) -> int:
    digests = []
    for src in (old_src, new_src):
        code, stdout, stderr = run(src, [__file__, "--analyses"])
        if code != 0:
            print(f"analyses failed on {src}:\n{stderr.decode(errors='replace')}")
        digests.append(json.loads(stdout) if code == 0 else {})
    old, new = digests
    labels = list(dict.fromkeys([*old, *new]))
    differ = 0
    for label in labels:
        a, b = (side.get(label, {}).get("digests", {}) for side in (old, new))
        if a != b:
            differ += 1
            parts = [k for k in {**a, **b} if a.get(k) != b.get(k)]
            print(f"differs: {label}: {', '.join(parts)}")
    for label in labels:  # informational: memory is no output
        for peak in ("peak", "criteria peak", "coefficient peak", "stepping peak"):
            old_mib, new_mib = (
                f"{side[label][peak] / 2**20:.1f}" if peak in side.get(label, {}) else "?"
                for side in (old, new)
            )
            print(f"{peak} {old_mib} → {new_mib} MiB: {label}")
    print(f"{differ} of {len(labels)} library analyses differ")
    return differ


def main(old_src: str, new_src: str) -> int:
    differ = cli_differences(old_src, new_src)
    differ += analysis_differences(old_src, new_src)
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--analyses"]:
        print(json.dumps(analyses()))
    elif len(sys.argv) != 3:
        sys.exit(__doc__)
    else:
        sys.exit(main(sys.argv[1], sys.argv[2]))
