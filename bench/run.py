"""adiabatica benchmark: CLI one-shot scans, CLI trajectories, in-process analyses.

Run from the repository root:

    python3 bench/run.py --workload cli_oneshot --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Every workload is a closed loop with one client in one process; a CLI
workload runs one child interpreter at a time and waits for it. A run
executes whole shuffled cycles of its mix until --seconds have passed and
checks every operation's output. With --trace 0 the last stdout line carries
the end-to-end metrics, with times scaled by a paired reference (see
REFERENCE_NOMINAL_S); with --trace 1 a traced run reports per-layer metrics
and the tracing overhead. Full results (machine block, seed, output digests,
spans) go to .bench_runs/. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 3
SMOKE_STEPS = 16

import checks  # noqa: E402  (bench/ is the script directory, first on sys.path)
import machine  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "latency_p50_s": "s",
    "ops_per_s": "1/s",
    "grid_steps_per_s": "1/s",
    "ref_error_max": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Layers whose seconds per operation the traced run reports, each also as a share.
LAYER_TIMES = (
    "startup.interpreter", "startup.import",
    "cli.validate", "cli.run", "cli.run_self", "cli.render", "cli.unattributed",
    "models.evaluate", "models.analytic_frame", "models.barred_build",
    "spectral.build_frames", "spectral.connection",
    "effective.build", "effective.criteria",
    "propagation.stepping", "propagation.propagate", "propagation.coefficient",
    "propagation.composition",
    "phases.phase_split", "phases.holonomy", "phases.probe",
    "numerics.eigh_floor",
)
MODULES = ("startup", "cli", "models", "spectral", "effective", "propagation", "phases", "numerics")


def per_layer_units() -> dict[str, str]:
    units = {"op.latency_s": "s", "trace.overhead_s": "s", "trace.overhead_frac": "frac"}
    for layer in LAYER_TIMES:
        units[f"{layer}_s"] = "s"
        units[f"{layer}.share"] = "frac"
    units.update({"cli.output_bytes": "bytes", "models.evaluate_calls": "count",
                  "models.analytic_frame_calls": "count"})
    units.update({f"{module}.errors": "count" for module in MODULES})
    units["failed_frac"] = "frac"
    return units


@dataclass
class Tally:
    """Operations of one run by mix entry: latencies, failures, grid steps, closed-form errors."""

    latencies: dict = field(default_factory=dict)  # raw seconds
    scaled: dict = field(default_factory=dict)  # seconds at the reference speed
    correct: dict = field(default_factory=dict)
    steps: dict = field(default_factory=dict)
    ref_errors: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.correct.values())

    def all_latencies(self) -> list:
        return [x for v in self.latencies.values() for x in v]

    def record(self, name: str, latency: float, steps: int, check, reference=None) -> None:
        """Count one operation; check() returns its closed-form error or None, or raises.

        reference is the paired interpreter start of a timed run.
        """
        self.latencies.setdefault(name, []).append(latency)
        if reference is not None:
            self.scaled.setdefault(name, []).append(latency * REFERENCE_NOMINAL_S / reference)
        self.steps[name] = steps
        self.correct.setdefault(name, 0)
        try:
            ref = check()
        except Exception:  # a failed operation is counted, never fatal
            self.failures.append(f"{name}: {traceback.format_exc(limit=3)[-600:]}")
            return
        self.correct[name] += 1
        if ref is not None:
            self.ref_errors.append(ref)

    def end_to_end(self, setup_s: list, peak_rss_kb: int) -> dict:
        """End-to-end metrics from the scaled times; setup_s are scaled set-up times."""
        # Throughput over one cycle of the mix, each entry timed at its median.
        medians = {name: statistics.median(v) for name, v in self.scaled.items()}
        cycle_s = sum(medians.values())
        ok = {name: self.correct[name] / len(v) for name, v in self.scaled.items()}
        # Cycle c ran every entry once: its c-th samples. The median over cycles of
        # their mean time stays put where the median of a mix of unequal entries
        # would jump between them.
        per_op = [statistics.fmean(c) for c in zip(*self.scaled.values())]
        return {
            "latency_p50_s": statistics.median(per_op),
            "ops_per_s": sum(ok.values()) / cycle_s,
            "grid_steps_per_s": sum(ok[n] * self.steps[n] for n in medians) / cycle_s,
            # With no state passing its checks, report the largest distance of unit states.
            "ref_error_max": max(self.ref_errors, default=2.0),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_kb / 1024,
        }


# The shared 2-core machine changes speed by up to a third within a minute,
# for every kind of work at once, so raw times of runs a minute apart spread by
# 20-30%. Each timed operation is therefore paired with bare interpreter
# starts (`python -c pass`, no package code) run just before it, and its time
# is scaled by REFERENCE_NOMINAL_S / the faster of two such starts. This cancels the
# machine's drift, not the program's: a change that slows the program by 10%
# still moves every scaled time by 10%. Raw times stay in the results file.
REFERENCE_NOMINAL_S = 0.05


def reference_s(cwd: Path) -> float:
    """Seconds for a bare interpreter start, as the machine runs now: the faster of two."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, capture_output=True, check=True)
        times.append(time.perf_counter() - t0)
    return min(times)


def cycles(items: list, rng: random.Random, seconds: float):
    """Whole shuffled cycles of the mix until the run has lasted `seconds`."""
    deadline = time.perf_counter() + seconds
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order
        if time.perf_counter() >= deadline:
            return


class Workload:
    """Shared run structure; subclasses define setup (which sets the mix), one
    operation and its traced form."""

    def __init__(self, seed: int, scale: int | None, work: Path):
        self.seed, self.scale, self.work = seed, scale, work
        self.tally = Tally()
        self.tracer = spans.Tracer()
        self.layer_s = dict.fromkeys(("cli.validate", "cli.run", "cli.render"), 0.0)
        self.output_bytes = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.startup = {"interpreter": [], "import": []}
        import adiabatica

        self.ad = adiabatica

    def setup(self) -> None:
        raise NotImplementedError

    def run_timed(self, seconds: float) -> None:
        for order in cycles(self.mix, random.Random(self.seed), seconds):
            for item in order:
                self.operation(item, reference_s(self.work))

    def run_traced(self, seconds: float) -> None:
        op = 0
        for order in cycles(self.mix, random.Random(self.seed), seconds):
            for item in order:
                self.probe_startup()
                self.traced_operation(item, op)
                op += 1

    def probe_startup(self) -> None:
        """Probe: a bare interpreter, and a fresh `import adiabatica.cli` on top of it."""
        for key, code in (("interpreter", "pass"), ("import", "import adiabatica.cli")):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env(),
                                  capture_output=True)
            self.startup[key].append(time.perf_counter() - t0)
            if proc.returncode != 0:
                self.tracer.errors["startup"] += 1

    @staticmethod
    def env() -> dict:
        path = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def per_layer(self) -> dict:
        ops = max(self.tally.attempted, 1)
        op_s = statistics.fmean(self.tally.all_latencies())
        interp = statistics.median(self.startup["interpreter"])
        values = {
            "startup.interpreter": interp,
            "startup.import": statistics.median(self.startup["import"]) - interp,
            **{k: v / ops for k, v in self.layer_s.items()},
            "cli.run_self": self.tracer.self_s["cli.run"] / ops,
        }
        for layer in LAYER_TIMES:
            values.setdefault(layer, self.tracer.self_s[layer] / ops)
        values["cli.unattributed"] = self.unattributed(op_s, values)
        out = {"op.latency_s": op_s,
               "trace.overhead_s": (self.traced_s - self.untraced_s) / ops,
               "trace.overhead_frac": self.traced_s / self.untraced_s - 1 if self.untraced_s else 0.0}
        for layer in LAYER_TIMES:
            out[f"{layer}_s"] = values[layer]
            out[f"{layer}.share"] = values[layer] / op_s if op_s else 0.0
        out["cli.output_bytes"] = self.output_bytes / ops
        out["models.evaluate_calls"] = self.tracer.calls["models.evaluate"] / ops
        out["models.analytic_frame_calls"] = self.tracer.calls["models.analytic_frame"] / ops
        out.update({f"{m}.errors": self.tracer.errors[m] for m in MODULES})
        out["failed_frac"] = self.tally.failed / ops
        return out

    def unattributed(self, op_s: float, values: dict) -> float:
        return 0.0

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliWorkload(Workload):
    """CLI invocations as child processes, one at a time."""

    def __init__(self, seed, scale, work, generate):
        super().__init__(seed, scale, work)
        self.generate = generate
        import adiabatica.cli

        self.cli = adiabatica.cli
        self.digests: dict[str, str] = {}
        self.basis: dict[str, list] = {}

    def config_path(self, case) -> Path:
        return self.work / f"{case.name}.json"

    def setup(self) -> None:
        """Config generation, closed-form references, and one warm-up invocation."""
        self.mix = self.generate(self.seed, self.scale)
        for case in self.mix:
            self.config_path(case).write_text(json.dumps(case.config, indent=1))
        bases: dict = {}
        for case in self.mix:
            if case.reference:
                g = case.config["grid"]
                key = (case.reference, g["t_end"], g["steps"])
                if key not in bases:
                    params = self.ad.RotatingModelParams(*case.reference)
                    grid = self.ad.TimeGrid(g["t_start"], g["t_end"], g["steps"])
                    bases[key] = workloads.closed_form_basis(self.ad, params, grid)
                self.basis[case.name] = bases[key]
        self.invoke(self.mix[0])

    def invoke(self, case):
        argv = [sys.executable, "-m", "adiabatica.cli", case.command,
                "--config", str(self.config_path(case))]
        out_path = self.work / f"{case.name}.out"
        if case.to_file:
            argv += ["--output", str(out_path)]
            out_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=self.env(), capture_output=True)
        latency = time.perf_counter() - t0
        data = out_path.read_bytes() if case.to_file and out_path.exists() else proc.stdout
        return latency, proc, data

    def verify(self, case, proc, data):
        ref = checks.check_cli(case, proc.returncode, proc.stderr, data, self.basis.get(case.name))
        self.check_digest(case, data)
        return ref

    def check_digest(self, case, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(case.name, digest)
        checks.require(digest == first, f"output differs between repeats of {case.name}")

    def operation(self, case, reference: float) -> None:
        latency, proc, data = self.invoke(case)
        self.tally.record(case.name, latency, case.steps, lambda: self.verify(case, proc, data),
                          reference)

    def traced_operation(self, case, op: int) -> None:
        latency, proc, data = self.invoke(case)

        def verify_and_trace():
            ref = self.verify(case, proc, data)
            self.trace_in_process(case, op)
            return ref

        self.tally.record(case.name, latency, case.steps, verify_and_trace)

    def trace_in_process(self, case, op: int) -> None:
        """validate, the run_<command> runner, and main(--output) in this process.

        cli.render is derived: main minus validate minus the runner, all untraced.
        The runner then runs again under tracing for the module layers.
        """
        cli, path = self.cli, str(self.config_path(case))
        config = json.loads(self.config_path(case).read_text())
        runner = getattr(cli, "run_" + case.command.replace("-", "_"))
        out = self.work / f"{case.name}.inproc"
        t0 = time.perf_counter()
        violations = cli.validate(config, command=case.command)
        t1 = time.perf_counter()
        runner(config)
        t2 = time.perf_counter()
        code = cli.main([case.command, "--config", path, "--output", str(out)])
        t3 = time.perf_counter()
        checks.require(not violations and code == 0, f"in-process main failed: {violations} {code}")
        data = out.read_bytes()
        self.check_digest(case, data)
        self.output_bytes += len(data)
        self.layer_s["cli.validate"] += t1 - t0
        self.layer_s["cli.run"] += t2 - t1
        self.layer_s["cli.render"] += (t3 - t2) - (t1 - t0) - (t2 - t1)

        t4 = time.perf_counter()
        with self.tracer.tracing(op), self.tracer.span("cli.run"):
            runner(config)
        self.traced_s += time.perf_counter() - t4
        self.untraced_s += t2 - t1
        self.tracer.eigh_floor(op)

    def unattributed(self, op_s: float, values: dict) -> float:
        parts = ("startup.interpreter", "startup.import", "cli.validate", "cli.run", "cli.render")
        return op_s - sum(values[p] for p in parts)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


@dataclass
class Analysis:
    report: object
    result: object
    splits: list
    holonomies: list
    coefficients: object


def analyse(ad, system) -> Analysis:
    """The paper's pipeline on one system: frames, A, M = E - A, criteria,
    propagation of every level, phases and holonomies, coefficient route."""
    spec, grid = system.spec, system.grid
    frames = ad.build_frames(spec, grid)
    conn = ad.connection(frames)
    eff = ad.build_effective(frames, conn)
    report = ad.criteria(eff)
    levels = list(range(spec.dim))
    result = ad.propagate(spec, grid, levels, frames=frames)
    with warnings.catch_warnings():
        # On a cyclic grid a NonCyclicWarning is a defect; elsewhere it is expected.
        warnings.simplefilter("error" if system.cyclic else "ignore", ad.NonCyclicWarning)
        splits = [ad.phase_split(frames, conn, n) for n in levels]
        holonomies = [ad.holonomy(frames, conn, n) for n in levels]
    coefficients = ad.coefficient_propagate(eff, 0)
    return Analysis(report, result, splits, holonomies, coefficients)


class LibWorkload(Workload):
    """Full in-process analyses of N=2, 8 and 16 systems."""

    def setup(self) -> None:
        """Spec generation with closed-form references, and one warm-up analysis."""
        self.mix = workloads.lib_systems(self.seed, self.ad, self.scale)
        analyse(self.ad, self.mix[0])

    def timed_analysis(self, system):
        t0 = time.perf_counter()
        try:
            analysis, error = analyse(self.ad, system), None
        except Exception as exc:  # counted as a failed operation
            analysis, error = None, exc
        return time.perf_counter() - t0, analysis, error

    def verify(self, system, analysis, error):
        if error is not None:
            raise error
        return checks.check_analysis(system, analysis)

    def operation(self, system, reference: float) -> None:
        latency, analysis, error = self.timed_analysis(system)
        self.tally.record(system.name, latency, system.grid.steps,
                          lambda: self.verify(system, analysis, error), reference)

    def traced_operation(self, system, op: int) -> None:
        latency, analysis, error = self.timed_analysis(system)

        def verify_and_trace():
            ref = self.verify(system, analysis, error)
            traced = workloads.LibSystem(system.name, self.tracer.timed_spec(system.spec),
                                         system.grid, system.cyclic)
            t0 = time.perf_counter()
            with self.tracer.tracing(op), self.tracer.span("op"):
                analyse(self.ad, traced)
            self.traced_s += time.perf_counter() - t0
            self.untraced_s += latency
            self.tracer.eigh_floor(op)
            return ref

        self.tally.record(system.name, latency, system.grid.steps, verify_and_trace)


WORKLOADS = {
    "cli_oneshot": lambda *a: CliWorkload(*a, workloads.cli_oneshot),
    "cli_trajectory": lambda *a: CliWorkload(*a, workloads.cli_trajectory),
    "lib_pipeline": LibWorkload,
}


def run(args) -> int:
    if not (SRC / "adiabatica" / "cli.py").is_file():
        print(f"bench: no adiabatica sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    scale = SMOKE_STEPS if args.tiny else None
    try:
        info = machine.machine_block()
        bench = WORKLOADS[args.workload](args.seed, scale, work)
        setup_times, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            reference = reference_s(work)
            t0 = time.perf_counter()
            bench.setup()
            setup_times.append(time.perf_counter() - t0)
            setup_scaled.append(setup_times[-1] * REFERENCE_NOMINAL_S / reference)
        if args.trace:
            bench.run_traced(args.seconds)
            metrics, units = bench.per_layer(), per_layer_units()
        else:
            bench.run_timed(args.seconds)
            metrics = bench.tally.end_to_end(setup_scaled, bench.peak_rss_kb())
            units = END_TO_END
        info["loadavg_end"] = list(os.getloadavg())
    finally:
        for path in work.iterdir():
            path.unlink()
        work.rmdir()

    tally = bench.tally
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "steps_override": scale, "machine": info,
        "metrics": metrics, "setup_times_s": setup_times,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "latencies_s": tally.latencies, "scaled_latencies_s": tally.scaled,
        "digests": getattr(bench, "digests", {}), "spans": bench.tracer.spans,
    }
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def smoke() -> int:
    """Every workload once at K=16, traced and untraced: schema and metric names only."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", "1",
                    "--seconds", "0", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            found = _schema_problems(proc, expected[trace])
            problems += [f"{workload} trace={trace}: {p}" for p in found]
            print(f"smoke {workload} trace={trace}: {'FAILED' if found else 'ok'}")
    for problem in problems:
        print(f"smoke FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


def _schema_problems(proc, expected: dict) -> list[str]:
    """What is wrong with one run's result line, against the metric names and units."""
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return [f"exit {proc.returncode}, no result line: {proc.stderr[-500:]}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    found = []
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        found.append(f"metrics or units differ from BENCHMARK.json: "
                     f"{sorted(set(got.items()) ^ set(expected.items()))}")
    if not all(isinstance(m.get("value"), (int, float)) for m in result["metrics"].values()):
        found.append("a metric value is not a number")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        found.append(f"{result['failed']} of {result['attempted']} operations failed")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=f"every grid at K={SMOKE_STEPS}, for the smoke run")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny size and check the result schema")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
