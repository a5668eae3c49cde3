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
at the same seeds and default sizes, on seed 81's random-n16 at K = 512 (where
most step chunks are finer than the stack's coarsest, so they take a lower
Taylor degree), and on three systems framed by their models' analytic frames
(the rotating model as built, the barred model over it and ms_second): 10 per
tree, run in one subprocess (`python3 tools/cli_diff.py --analyses PATH` with the
tree on PYTHONPATH). It saves to the .npz file PATH every array they return,
the full coefficient propagator stack, the two maxima of
`gauge_transform_check` on each system, under fixed rephasings
alpha_n(t) = n / 2 + 0.3 sin(t + n), `parallel_transport` of the system's
frames (vectors, and derivatives when present), and `ms_inconsistency_probe`
at level 0 (chain and residual). It prints as JSON the peak bytes tracemalloc
traced while `analyse` ran, while `criteria` and `coefficient_propagate`
(level 0) each ran alone on the system's effective Hamiltonian, and while
`stepping_propagators` ran alone on the system.

Prints the runs that differ, the analyses whose arrays differ bit for bit, each
differing array with its max |Δ| (or both shapes), and both counts; exits 1 when
any differ. It also prints each analysis's traced peaks in both trees ("peak OLD → NEW MiB", "criteria peak OLD → NEW MiB",
"coefficient peak OLD → NEW MiB" and "stepping peak OLD → NEW MiB"), which are
never counted as differences.
"""

from __future__ import annotations

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


def analyses(path: str) -> dict:
    """{analysis: {"peak": bytes, "criteria peak": bytes, "coefficient peak": bytes,
    "stepping peak": bytes}} for the lib_systems of every seed and the analytic systems,
    from the imported tree; their arrays go to the .npz file path, each under the key
    "<analysis>: <array>"."""
    import adiabatica as ad
    import run as bench_run  # bench/run.py
    from adiabatica import propagation

    def rephasing(n: int) -> tuple:
        return (lambda t: n / 2 + 0.3 * np.sin(t + n), lambda t: 0.3 * np.cos(t + n))

    systems = [(f"seed {seed}", s) for seed in SEEDS for s in workloads.lib_systems(seed, ad)]
    systems += [("seed 81 K=512", workloads.lib_systems(81, ad, 512)[2])]
    systems += [("analytic", s) for s in analytic_systems(ad)]
    out, saved = {}, {}
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
            "coefficient propagators": propagation._coefficient_propagators(eff),
            "gauge check": [gauge.max_state_deviation, gauge.max_holonomy_deviation],
            "transported vectors": transported.vectors,
            "probe chain": probe.chain,
            "probe residual": probe.residual,
        }
        if transported.vector_derivatives is not None:
            arrays["transported derivatives"] = transported.vector_derivatives
        label = f"{label} {system.name}"
        saved.update({f"{label}: {k}": np.asarray(v) for k, v in arrays.items()})
        out[label] = {
            "peak": peak,
            "criteria peak": criteria_peak,
            "coefficient peak": coefficient_peak,
            "stepping peak": stepping_peak,
        }
    np.savez(path, **saved)
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


def difference(a: np.ndarray | None, b: np.ndarray | None) -> str | None:
    """None when a and b hold the same bits, dtype and shape; else how they differ."""
    if a is None or b is None:
        return "missing in the " + ("old" if a is None else "new") + " tree"
    if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
        return None
    if a.shape != b.shape:
        return f"shape {a.shape} → {b.shape}"
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf reads NaN
        return f"max |Δ| {np.max(np.abs(a - b), initial=0.0):.3g}"


def analysis_differences(old_src: str, new_src: str) -> int:
    peaks, arrays = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for src in (old_src, new_src):
            path = Path(tmp) / f"{len(peaks)}.npz"
            code, stdout, stderr = run(src, [__file__, "--analyses", str(path)])
            peaks.append(json.loads(stdout) if code == 0 else {})
            if code != 0:
                print(f"analyses failed on {src}:\n{stderr.decode(errors='replace')}")
                arrays.append({})
                continue
            with np.load(path) as saved:
                arrays.append(dict(saved))
    old, new = peaks
    labels = list(dict.fromkeys([*old, *new]))
    differ = {}
    for key in dict.fromkeys([*arrays[0], *arrays[1]]):
        why = difference(arrays[0].get(key), arrays[1].get(key))
        if why:
            label, name = key.split(": ", 1)
            differ.setdefault(label, []).append(f"{name} ({why})")
    for label, parts in differ.items():
        print(f"differs: {label}: {', '.join(parts)}")
    for label in labels:  # informational: memory is no output
        for peak in ("peak", "criteria peak", "coefficient peak", "stepping peak"):
            old_mib, new_mib = (
                f"{side[label][peak] / 2**20:.1f}" if peak in side.get(label, {}) else "?"
                for side in (old, new)
            )
            print(f"{peak} {old_mib} → {new_mib} MiB: {label}")
    print(f"{len(differ)} of {len(labels)} library analyses differ")
    return len(differ)


def main(old_src: str, new_src: str) -> int:
    differ = cli_differences(old_src, new_src)
    differ += analysis_differences(old_src, new_src)
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--analyses":
        print(json.dumps(analyses(sys.argv[2])))
    elif len(sys.argv) != 3:
        sys.exit(__doc__)
    else:
        sys.exit(main(sys.argv[1], sys.argv[2]))
