"""Command-line front end: JSON experiment configs in, CSV/JSON reports out.

Commands: simulate, criteria, holonomy, ms-probe, composition-check, sweep.
Output is deterministic: fixed field order and floats rendered with 17
significant digits so doubles round-trip losslessly. Exit codes: 0 success,
2 config validation failure or an output that cannot be written, 3 numerical
failure (non-finite or non-Hermitian input, a non-finite or non-orthonormal
analytic frame, a propagator or accumulated phase that overflows, an eigenvalue
crossing, or a grid too coarse to follow the eigenvectors).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import warnings
from dataclasses import asdict
from functools import partial
from itertools import combinations
from typing import Optional

import numpy as np

from .effective import accumulate_trapezoid, build_effective, criteria, geometric_phase
from .errors import AdiabaticaError, NonCyclicWarning
from .models import (
    MSSecondModelParams,
    RotatingModelParams,
    barred_model,
    mixing_angle,
    ms_candidate_evolution,
    ms_second_model,
    rotating_dynamical_phase,
    rotating_geometric_phase,
    rotating_model,
)
from .phases import holonomy, ms_inconsistency_probe, phase_split
from .propagation import (
    coefficient_evolution,
    composition_check,
    propagate,
    stepping_evolution,
)
from .spectral import TimeGrid, build_frames, connection

TOP_KEYS = {"command", "model", "grid", "epsilon", "energy_offset", "output", "format", "seed", "sweep"}
MODEL_KEYS = {  # the keys of each model block; a block naming no model may hold any of them
    "rotating": {"model", "mu_B", "theta", "omega"},
    "ms_second": {"model", "omega0", "tau", "n"},
    "barred_rotating": {"model", "mu_B", "theta", "omega"},
}
MODEL_NAMES = tuple(MODEL_KEYS)
GRID_KEYS = {"t_start", "t_end", "steps"}
SWEEP_DEFAULTS = {"ratio_min": 1e-3, "ratio_max": 1e3, "points": 61}
MAX_STEPS = 2**20  # bound on grid steps built and sweep points, checked before anything is allocated


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_float(x: float) -> str:
    return _fmt(x) if math.isfinite(x) else json.dumps(x)  # Infinity, -Infinity, NaN


def _float_block(
    block: np.ndarray, head: str, sep: str, tail: str, json_floats: bool = False
) -> str:
    """Every row of a 2-D float array as head + sep-joined floats + tail, concatenated.

    One bulk "%.17g" pass gives each float the bytes of format(x, ".17g"); with
    json_floats, non-finite values become Infinity, -Infinity and NaN.
    """
    rows, cols = block.shape
    values, cell = block.ravel().tolist(), "%.17g"
    if json_floats and not np.isfinite(block).all():
        values, cell = [_json_float(x) for x in values], "%s"
    return (head + sep.join([cell] * cols) + tail) * rows % tuple(values)


def _to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with insertion-order keys and 17-significant-digit floats.

    1-D and 2-D float arrays render as nested lists through _float_block; json.dumps
    writes every other scalar and the empty containers, and raises TypeError on
    what it cannot write.
    """
    pad = "  " * indent
    if isinstance(obj, np.ndarray) and obj.ndim in (1, 2):
        inner = pad + "  "
        if obj.ndim == 1:
            text = _float_block(obj[:, None], inner, "", ",\n", json_floats=True)
        else:
            row_sep = ",\n" + inner + "  "
            text = _float_block(
                obj, inner + "[" + row_sep[1:], row_sep, "\n" + inner + "],\n", json_floats=True
            )
        return "[\n" + text[:-2] + "\n" + pad + "]"
    if isinstance(obj, dict) and obj:
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = ",\n".join(f"{pad}  {_to_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, (float, np.floating)):
        return _json_float(float(obj))
    return json.dumps(obj)


def _to_csv(header: list[str], rows) -> str:
    """CSV text; rows is a 2-D float array or a list of mixed-type rows."""
    if isinstance(rows, np.ndarray):
        return ",".join(header) + "\n" + _float_block(rows, "", ",", "\n")

    def render(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return _fmt(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(render(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _is_number(x) -> bool:
    """A finite JSON number that converts to a float; integers beyond the float range are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _float(x) -> float:
    """x as a float, or NaN unless _is_number(x): every parameter constructor rejects NaN."""
    return float(x) if _is_number(x) else math.nan


def _construct(out: list[str], label: str, cls, *args):
    """cls(*args), or None after appending the constructor's error to out as "label: message"."""
    try:
        return cls(*args)
    except (ValueError, OverflowError) as exc:
        out.append(f"{label}: {exc}")
        return None


def _block(out: list[str], config: dict, name: str, keys, required: bool) -> Optional[dict]:
    """config[name] after appending its unknown keys to out, or None after appending
    that it is not an object. A missing block counts as {} unless required."""
    block = config.get(name, None if required else {})
    if not isinstance(block, dict):
        out.append(f"{name} block {'is required and ' if required else ''}must be an object")
        return None
    out.extend(f"unknown {name} key {key!r}" for key in block if key not in keys)
    return block


def validate(config: dict, command: Optional[str] = None) -> list[str]:
    """Collect all config violations; an empty list means the config is valid.

    Never raises on malformed input: wrong types and unknown keys come back
    as violation strings. Model parameters and grids are checked by their
    constructors (RotatingModelParams, MSSecondModelParams, TimeGrid).
    """
    out: list[str] = []
    if not isinstance(config, dict):
        return ["config must be a JSON object"]

    for key in config:
        if key not in TOP_KEYS:
            out.append(f"unknown key {key!r}")

    declared = config.get("command")
    if declared is not None:
        if declared not in COMMANDS:
            out.append(f"command must be one of {COMMANDS}")
        elif command is not None and declared != command:
            out.append(f"config command {declared!r} does not match invoked command {command!r}")
    effective_command = command or declared

    name = config["model"].get("model") if isinstance(config.get("model"), dict) else None
    keys = MODEL_KEYS[name] if name in MODEL_NAMES else set().union(*MODEL_KEYS.values())
    model = _block(out, config, "model", keys, required=True) or {}
    mu_B, theta = _float(model.get("mu_B")), _float(model.get("theta"))
    if name not in MODEL_NAMES:
        out.append(f"model must be one of {MODEL_NAMES}")
    elif name == "ms_second":
        omega0, tau = _float(model.get("omega0")), _float(model.get("tau"))
        _construct(out, "ms_second model", MSSecondModelParams, omega0, tau, model.get("n"))
    elif effective_command != "sweep":  # a sweep's drives are checked at its end ratios
        omega = _float(model.get("omega"))
        _construct(out, "rotating model", RotatingModelParams, mu_B, theta, omega)

    if effective_command == "sweep":
        if name is not None and name != "rotating":
            out.append("sweep requires the rotating model")
        sweep = _block(out, config, "sweep", SWEEP_DEFAULTS, required=False)
        if sweep is not None:
            lo, hi, points = ({**SWEEP_DEFAULTS, **sweep}[key] for key in SWEEP_DEFAULTS)
            if not (_is_number(lo) and lo > 0):
                out.append("ratio_min must be positive")
            elif not (_is_number(hi) and hi > lo):
                out.append("ratio_max must exceed ratio_min")
            elif name == "rotating":
                for ratio in (float(lo), float(hi)):
                    label = f"sweep at ratio {ratio!r}"
                    if not _construct(out, label, RotatingModelParams, mu_B, theta, mu_B * ratio):
                        break
            if type(points) is not int or not 2 <= points <= MAX_STEPS:
                out.append("points must be an integer in [2, 2**20]")
    elif "sweep" in config:
        out.append("sweep block is only valid for the sweep command")

    if effective_command == "composition-check" and name is not None and name != "ms_second":
        out.append("composition-check requires the ms_second model")

    if effective_command == "sweep":
        _block(out, config, "grid", GRID_KEYS, required=False)  # run_sweep reads no grid
    else:
        grid = _block(out, config, "grid", GRID_KEYS, required=True) or {}
        steps = grid.get("steps")
        if type(steps) is not int or not 16 <= steps <= MAX_STEPS:
            out.append("steps must be an integer in [16, 2**20]")
        else:
            t_start, t_end = _float(grid.get("t_start")), _float(grid.get("t_end"))
            # barred_model also builds the grid at half steps; if that one holds, so does this
            built = 2 * steps if name == "barred_rotating" else steps
            if built > MAX_STEPS:
                out.append("steps must be at most 2**19 for barred_rotating, which builds 2 * steps")
            _construct(out, "grid", TimeGrid, t_start, t_end, built)

    epsilon = config.get("epsilon", 0.1)
    if not (_is_number(epsilon) and epsilon > 0):
        out.append("epsilon must be positive")
    if not _is_number(config.get("energy_offset", 0.0)):
        out.append("energy_offset must be a number")
    fmt = config.get("format", "json")
    if fmt not in ("csv", "json"):
        out.append("format must be 'csv' or 'json'")
    seed = config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        out.append("seed must be an integer")
    if "output" in config and not isinstance(config["output"], str):
        out.append("output must be a path string")
    return out


def _build(config: dict):
    """(grid, spec, params) of a validated config."""
    g, model = config["grid"], config["model"]
    grid = TimeGrid(t_start=float(g["t_start"]), t_end=float(g["t_end"]), steps=int(g["steps"]))
    if model["model"] == "ms_second":
        params = MSSecondModelParams(float(model["omega0"]), float(model["tau"]), model.get("n"))
        return grid, ms_second_model(params), params
    params = RotatingModelParams(float(model["mu_B"]), float(model["theta"]), float(model["omega"]))
    spec = rotating_model(params)
    return grid, (barred_model(spec, grid) if model["model"] == "barred_rotating" else spec), params


def _frames_pipeline(config: dict):
    grid, spec, params = _build(config)
    frames = build_frames(spec, grid)
    conn = connection(frames)
    return grid, spec, params, frames, conn


def run_simulate(config: dict):
    grid, spec, _, frames, conn = _frames_pipeline(config)
    levels = range(spec.dim)
    result = propagate(spec, grid, list(levels), frames=frames)
    header, columns, entries = ["t"], [grid.times], []
    for n in levels:
        psi = result.states[n]
        prob = np.abs(result.coefficients[n]) ** 2
        dyn = accumulate_trapezoid(frames.energies[:, n], grid.dt)
        geo = geometric_phase(conn, n)
        header += [f"psi{n}_re_{i}" for i in levels] + [f"psi{n}_im_{i}" for i in levels]
        header += [f"prob{n}_{m}" for m in levels] + [f"phase_dyn_{n}", f"phase_geo_{n}"]
        columns += [psi.real, psi.imag, prob, dyn, geo]
        entries.append(
            {
                "level": n,
                "psi_re": psi.real,
                "psi_im": psi.imag,
                "probabilities": prob,
                "phase_dynamical": dyn,
                "phase_geometric": geo,
            }
        )
    payload = {"command": "simulate", "times": grid.times, "levels": entries}
    return payload, header, np.column_stack(columns)


def run_criteria(config: dict):
    _, _, _, frames, conn = _frames_pipeline(config)
    eff = build_effective(frames, conn)
    report = criteria(
        eff,
        epsilon=float(config.get("epsilon", 0.1)),
        energy_offset=float(config.get("energy_offset", 0.0)),
    )
    payload = asdict(report)
    header = ["r_naive", "r_gap", "r_level", "epsilon", "energy_offset"]
    row = [payload[key] for key in header] + list(payload["verdicts"].values())
    header += [f"verdict_{key}" for key in payload["verdicts"]]
    return payload, header, [row]


def run_holonomy(config: dict):
    _, spec, _, frames, conn = _frames_pipeline(config)
    header = ["level", "dynamical", "geometric", "holonomy_re", "holonomy_im", "gauge"]
    gauge = "continuity" if frames.vector_derivatives is None else "model_analytic"
    rows = []
    for n in range(spec.dim):
        split = phase_split(frames, conn, n)
        h = holonomy(frames, conn, n)
        rows.append([n, split.dynamical, split.geometric, h.value.real, h.value.imag, gauge])
    return {"command": "holonomy", "levels": [dict(zip(header, row)) for row in rows]}, header, rows


def run_ms_probe(config: dict):
    grid, spec, _ = _build(config)
    level = 0
    report = ms_inconsistency_probe(spec, grid, level)
    chain = report.chain
    columns = {
        "times": grid.times,
        "chain_re": chain.real,
        "chain_im": chain.imag,
        "chain_abs": np.hypot(chain.real, chain.imag),  # the bytes of scalar abs(), unlike np.abs
        "residual": report.residual,
    }
    payload = {
        "command": "ms-probe",
        "level": level,
        "phase_convention": report.phase_convention,
        **columns,
    }
    header = ["t", "chain_re", "chain_im", "chain_abs", "residual"]
    return payload, header, np.column_stack(list(columns.values()))


def run_composition_check(config: dict):
    grid, spec, params, frames, conn = _frames_pipeline(config)
    times = grid.times
    idx = sorted({int(i) for i in np.linspace(0, grid.steps, 9)})
    triples = list(combinations([times[i] for i in idx], 3))
    axis = np.array([1.0, 0.0, 0.0])
    evolutions = {
        "candidate": partial(ms_candidate_evolution, params),
        "candidate_fixed_direction": partial(ms_candidate_evolution, params, fixed_direction=axis),
        "effective_stepping": coefficient_evolution(build_effective(frames, conn)),
        "hamiltonian_stepping": stepping_evolution(propagate(spec, grid, [], frames=frames)),
    }
    deviations = {key: composition_check(ev, triples) for key, ev in evolutions.items()}
    payload = {"command": "composition-check", "triples": len(triples), **deviations}
    return payload, list(deviations), [list(deviations.values())]


def run_sweep(config: dict):
    model = config["model"]
    mu_B, theta = float(model["mu_B"]), float(model["theta"])
    sweep = {**SWEEP_DEFAULTS, **config.get("sweep", {})}
    lo, hi = float(sweep["ratio_min"]), float(sweep["ratio_max"])
    # logspace can overshoot hi by an ulp, past the ratio that validate() checked
    ratios = np.clip(np.logspace(math.log10(lo), math.log10(hi), sweep["points"]), lo, hi)

    header = [
        "ratio", "omega", "alpha",
        "geometric_phase_plus", "geometric_phase_minus",
        "dynamical_phase_plus", "dynamical_phase_minus",
    ]
    rows = []
    for r in ratios:
        params = RotatingModelParams(mu_B=mu_B, theta=theta, omega=float(r * mu_B))
        rows.append(
            [float(r), params.omega, mixing_angle(params)]
            + [rotating_geometric_phase(params, n) for n in (0, 1)]
            + [rotating_dynamical_phase(params, n) for n in (0, 1)]
        )
    rows = np.array(rows)
    payload = {"command": "sweep", "mu_B": mu_B, "theta": theta, "columns": header, "rows": rows}
    return payload, header, rows


RUNNERS = {
    "simulate": run_simulate,
    "criteria": run_criteria,
    "holonomy": run_holonomy,
    "ms-probe": run_ms_probe,
    "composition-check": run_composition_check,
    "sweep": run_sweep,
}
COMMANDS = tuple(RUNNERS)

COLUMN_DOCS = {
    "simulate": "CSV columns: t, psi{n}_re_{i}/psi{n}_im_{i} (state components per initial level n), "
    "prob{n}_{m} = |c_m|^2, phase_dyn_{n}, phase_geo_{n} (accumulated, gauge-dependent).",
    "criteria": "CSV columns: r_naive, r_gap, r_level, epsilon, energy_offset, verdict_*. "
    "JSON additionally carries the worst-case witnesses.",
    "holonomy": "CSV columns: level, dynamical, geometric, holonomy_re, holonomy_im, gauge.",
    "ms-probe": "CSV columns: t, chain_re, chain_im, chain_abs, residual.",
    "composition-check": "CSV columns: candidate, candidate_fixed_direction, effective_stepping, "
    "hamiltonian_stepping (max deviation over sampled triples).",
    "sweep": "CSV columns: ratio, omega, alpha, geometric_phase_plus, geometric_phase_minus, "
    "dynamical_phase_plus, dynamical_phase_minus (per drive period).",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiabatica",
        description="Adiabaticity criteria, exact propagation, and geometric phases "
        "for driven two-level models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=COLUMN_DOCS[name], epilog=COLUMN_DOCS[name])
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--output", default=None, help="output file (default: stdout)")
        p.add_argument("--format", default=None, choices=("csv", "json"), help="output format")
        p.add_argument("--verbose", action="store_true", help="progress notes on stderr")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"adiabatica: cannot read config: {exc}", file=sys.stderr)
        return 2

    violations = validate(config, command=args.command)
    if violations:
        for v in violations:
            print(f"adiabatica: invalid config: {v}", file=sys.stderr)
        return 2

    if args.verbose:
        print(f"adiabatica: running {args.command}", file=sys.stderr)
    try:
        # Overflow and NaN surface as a numerical error (exit 3), not as RuntimeWarnings;
        # other warnings print after a successful run, one line per distinct message.
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NonCyclicWarning)  # also on a repeated in-process run
            payload, header, rows = RUNNERS[args.command](config)
    except AdiabaticaError as exc:
        print(f"adiabatica: numerical error: {exc}", file=sys.stderr)
        return 3
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"adiabatica: warning: {message}", file=sys.stderr)

    fmt = args.format or config.get("format", "json")
    text = _to_csv(header, rows) if fmt == "csv" else _to_json(payload) + "\n"
    output = args.output or config.get("output")
    try:
        if output:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()  # a full device fails here, not in the flush at exit
    except OSError as exc:
        print(f"adiabatica: cannot write output: {exc}", file=sys.stderr)
        return 2
    if output and args.verbose:
        print(f"adiabatica: wrote {output}", file=sys.stderr)
    return 0


def console() -> None:
    """The `adiabatica` command: main() after freezing the heap the imports made.

    gc.freeze() moves those objects to the permanent generation, which the
    collections at interpreter exit skip; they live until exit anyway. main()
    itself leaves the garbage collector alone, so callers keep their own heap.

    When stdout could not be written, the unwritten bytes stay in its buffer
    and the flush at exit would fail again, report it and exit 120 instead;
    pointing stdout at the null device lets the process exit with main()'s code.
    """
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    console()
