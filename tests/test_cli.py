import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiabatica.cli import COMMANDS, main, validate
from adiabatica.errors import EigenGapTooSmallError


def rotating_config(**overrides):
    config = {
        "command": "criteria",
        "model": {"model": "rotating", "mu_B": 1.0, "theta": np.pi / 3, "omega": 1e-3},
        "grid": {"t_start": 0.0, "t_end": 2 * np.pi / 1e-3, "steps": 256},
        "epsilon": 0.1,
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def test_validate_accepts_good_config():
    assert validate(rotating_config(), command="criteria") == []


def test_validate_steps_minimum():
    config = rotating_config()
    config["grid"]["steps"] = 8
    violations = validate(config, command="criteria")
    assert any("steps" in v for v in violations)


def test_validate_theta_domain():
    config = rotating_config()
    config["model"]["theta"] = 0.0
    violations = validate(config, command="criteria")
    assert any("theta" in v for v in violations)


def test_validate_rejects_unknown_keys():
    config = rotating_config(extra_knob=1)
    config["model"]["surprise"] = 2
    violations = validate(config, command="criteria")
    assert any("unknown key 'extra_knob'" in v for v in violations)
    assert any("unknown model key 'surprise'" in v for v in violations)
    # A block that names no model may hold any model's keys: one message, not one per key.
    for name in ({}, {"model": "spin"}, {"model": ["rotating"]}):
        unnamed = rotating_config(model={**name, "mu_B": 1.0, "tau": 3.0, "n": 2})
        assert [v for v in validate(unnamed, command="criteria") if "model" in v] == [
            "model must be one of ('rotating', 'ms_second', 'barred_rotating')"
        ]


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        (None, {"command": "nonsense"}, f"command must be one of {COMMANDS}"),
        (
            "sweep",
            {"command": "sweep", "model": {"model": "ms_second", "omega0": 1.0, "tau": 1.0}},
            "sweep requires the rotating model",
        ),
        ("sweep", {"command": "sweep", "sweep": {"ratio_min": 0}}, "ratio_min must be positive"),
        (
            "sweep",
            {"command": "sweep", "sweep": {"ratio_min": 1.0, "ratio_max": 0.5}},
            "ratio_max must exceed ratio_min",
        ),
        ("criteria", {"sweep": {}}, "sweep block is only valid for the sweep command"),
        ("criteria", {"energy_offset": "1"}, "energy_offset must be a number"),
        ("criteria", {"output": 3}, "output must be a path string"),
        (
            "sweep",
            {"command": "sweep", "sweep": {"points": 1}},
            "points must be an integer in [2, 2**20]",
        ),
        ("criteria", {"seed": 1.5}, "seed must be an integer"),
        (
            "criteria",
            {"model": {"model": "rotating", "mu_B": 1.0, "theta": 1.0, "omega": 1e-3, "tau": 3.0}},
            "unknown model key 'tau'",
        ),
        (
            "holonomy",
            {
                "command": "holonomy",
                "model": {"model": "ms_second", "omega0": 4 * np.pi, "tau": 1.0, "mu_B": 7},
            },
            "unknown model key 'mu_B'",
        ),
        (
            "holonomy",
            {
                "command": "holonomy",
                "model": {"model": "ms_second", "omega0": 4 * np.pi, "tau": 1.0, "n": 2.5},
            },
            "ms_second model: regime_n must be an integer if given",
        ),
    ],
    ids=[
        "command", "sweep-model", "ratio-min", "ratio-max", "sweep-block", "offset", "output",
        "points", "seed", "rotating-foreign-key", "ms-foreign-key", "ms-n",
    ],
)
def test_validate_message(command, overrides, message):
    assert validate(rotating_config(**overrides), command=command) == [message]


def test_validate_command_mismatch():
    violations = validate(rotating_config(), command="sweep")
    assert any("does not match" in v for v in violations)


def test_validate_never_raises_on_garbage():
    assert validate("not a dict") == ["config must be a JSON object"]
    assert validate({"model": 7, "grid": []}, command="criteria")
    assert validate({"model": {"model": "rotating", "mu_B": "x", "theta": None}}, command="criteria")
    huge_n = {"model": "ms_second", "omega0": 1.0, "tau": 1.0, "n": 10**400}
    assert validate({"model": huge_n, "grid": {}}, command="holonomy")
    huge_mu = rotating_config()
    huge_mu["model"]["mu_B"] = 10**400
    assert validate(huge_mu, command="criteria") == ["rotating model: mu_B must be positive and finite"]


def test_validate_reports_unknown_sweep_grid_keys():
    # run_sweep reads no grid, but a grid block given to it is checked like any other block
    model = {"model": "rotating", "mu_B": 1, "theta": 1}
    assert validate({"model": model}, command="sweep") == []
    assert validate({"model": model, "grid": {"stepz": 1}}, command="sweep") == [
        "unknown grid key 'stepz'"
    ]
    assert validate({"model": model, "grid": []}, command="sweep") == ["grid block must be an object"]


def test_exit_code_2_on_integer_beyond_float_range(tmp_path, capsys):
    config = rotating_config()
    config["model"]["mu_B"] = 10**400
    assert main(["criteria", "--config", write_config(tmp_path, config)]) == 2
    assert "rotating model: mu_B must be positive and finite" in capsys.readouterr().err


def test_validate_steps_maximum_before_allocation():
    config = rotating_config()
    config["grid"]["steps"] = 2**20
    assert validate(config, command="criteria") == []
    for steps in (2**20 + 1, 10**400):
        config["grid"]["steps"] = steps
        assert validate(config, command="criteria") == ["steps must be an integer in [16, 2**20]"]
    # barred_rotating builds a grid of 2 * steps, so its cap is half as large
    config["model"]["model"] = "barred_rotating"
    config["grid"]["steps"] = 2**19
    assert validate(config, command="criteria") == []
    config["grid"]["steps"] = 2**19 + 1
    assert validate(config, command="criteria") == [
        "steps must be at most 2**19 for barred_rotating, which builds 2 * steps"
    ]


def test_criteria_command_verdicts(tmp_path, capsys):
    # Unit 1e-15 is the same physics in an energy unit 1e15 times larger: mu_B and
    # omega shrink, t grows, and the ratios and verdicts stay.
    for unit in (1.0, 1e-15):
        config = rotating_config()
        config["model"].update(mu_B=unit, omega=1e-3 * unit)
        config["grid"]["t_end"] = 2 * np.pi / (1e-3 * unit)
        path = write_config(tmp_path, config)
        assert main(["criteria", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"] == {"naive": True, "gap": True, "level": True}
        assert payload["r_naive"] == pytest.approx(np.sin(np.pi / 3) / 2 * 1e-3 / 2, rel=1e-9)
        assert set(payload["witnesses"]) == {
            "numerator", "naive_denominator", "gap_denominator", "level_denominator",
        }


def test_sweep_command_monotone_csv(tmp_path):
    config = {
        "command": "sweep",
        "model": {"model": "rotating", "mu_B": 1.0, "theta": np.pi / 3},
        "format": "csv",
    }
    out = tmp_path / "sweep.csv"
    path = write_config(tmp_path, config)
    assert main(["sweep", "--config", path, "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 62  # default 61 points
    col = header.index("geometric_phase_plus")
    phases = np.array([float(line.split(",")[col]) for line in lines[1:]])
    theta = np.pi / 3
    assert abs(phases[0] - np.pi * (1 + np.cos(theta))) < 5e-3
    assert abs(phases[-1] - 2 * np.pi) < 5e-3
    assert np.all(np.diff(phases) > 0)
    assert np.max(np.abs(np.diff(phases))) < 0.2


def test_composition_check_command(tmp_path, capsys):
    config = {
        "model": {"model": "ms_second", "omega0": 4 * np.pi, "tau": 1.0},
        "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 1024},
    }
    path = write_config(tmp_path, config)
    assert main(["composition-check", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidate"] > 0.1
    assert payload["candidate_fixed_direction"] < 1e-12
    assert payload["effective_stepping"] < 1e-10
    assert payload["hamiltonian_stepping"] < 1e-12


def test_simulate_csv_shape(tmp_path):
    config = {
        "model": {"model": "rotating", "mu_B": 1.0, "theta": np.pi / 3, "omega": 0.5},
        "grid": {"t_start": 0.0, "t_end": 4 * np.pi, "steps": 64},
        "format": "csv",
    }
    out = tmp_path / "traj.csv"
    path = write_config(tmp_path, config)
    assert main(["simulate", "--config", path, "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 66  # header + 65 grid samples
    header = lines[0].split(",")
    assert header[0] == "t"
    for n in range(2):
        for name in (f"psi{n}_re_0", f"psi{n}_im_1", f"prob{n}_0", f"phase_dyn_{n}", f"phase_geo_{n}"):
            assert name in header
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["prob0_0"]) == pytest.approx(1.0, abs=1e-12)
    assert float(first["prob0_1"]) == pytest.approx(0.0, abs=1e-12)


def test_holonomy_command(tmp_path, capsys):
    config = {
        "model": {"model": "rotating", "mu_B": 1.0, "theta": np.pi / 2, "omega": 0.1},
        "grid": {"t_start": 0.0, "t_end": 2 * np.pi / 0.1, "steps": 128},
    }
    path = write_config(tmp_path, config)
    assert main(["holonomy", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    plus = payload["levels"][0]
    assert plus["holonomy_re"] == pytest.approx(-1.0, abs=1e-10)
    assert plus["holonomy_im"] == pytest.approx(0.0, abs=1e-10)
    assert plus["gauge"] == "model_analytic"


def test_ms_probe_command(tmp_path, capsys):
    config = {
        "model": {"model": "rotating", "mu_B": 1.0, "theta": np.pi / 3, "omega": 0.05},
        "grid": {"t_start": 0.0, "t_end": 2 * np.pi / 0.05, "steps": 512},
    }
    path = write_config(tmp_path, config)
    assert main(["ms-probe", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["level"] == 0
    assert len(payload["residual"]) == 513
    assert payload["residual"][0] == pytest.approx(0.0, abs=1e-12)


def test_outputs_are_deterministic(tmp_path):
    config = rotating_config(seed=7)
    path = write_config(tmp_path, config)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["criteria", "--config", path, "--output", str(out_a)]) == 0
    assert main(["criteria", "--config", path, "--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_json_reports_reparse(tmp_path):
    config = rotating_config()
    path = write_config(tmp_path, config)
    out = tmp_path / "report.json"
    assert main(["criteria", "--config", path, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert {"r_naive", "r_gap", "r_level", "epsilon", "verdicts", "witnesses", "energy_offset"} <= set(
        payload
    )


def test_exit_code_2_on_invalid_config(tmp_path, capsys):
    config = rotating_config()
    config["grid"]["steps"] = 4
    path = write_config(tmp_path, config)
    assert main(["criteria", "--config", path]) == 2
    assert "invalid config" in capsys.readouterr().err


def run_cli(tmp_path, command, config, *options):
    path = write_config(tmp_path, config)
    return subprocess.run(
        [sys.executable, "-m", "adiabatica.cli", command, "--config", path, *options],
        capture_output=True,
        text=True,
    )


def test_exit_code_2_on_grid_with_infinite_step(tmp_path):
    config = rotating_config()
    config["grid"].update(t_start=-1e308, t_end=1e308)
    proc = run_cli(tmp_path, "criteria", config)
    assert proc.returncode == 2
    assert "must be finite" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_exit_code_2_on_sweep_drive_overflow(tmp_path):
    config = {
        "model": {"model": "rotating", "mu_B": 1e300, "theta": np.pi / 3},
        "sweep": {"ratio_min": 1.0, "ratio_max": 1e300, "points": 5},
    }
    proc = run_cli(tmp_path, "sweep", config)
    assert proc.returncode == 2
    assert "omega must be finite" in proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_exit_code_2_on_grid_finer_than_its_float_spacing(tmp_path):
    # dt = 1.5e-5 is below ulp(1e12) = 1.2e-4: 65 rows would hold only 9 distinct times.
    config = rotating_config(command="simulate")
    config["grid"].update(t_start=1e12, t_end=1e12 + 0.001, steps=64)
    proc = run_cli(tmp_path, "simulate", config)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "adiabatica: invalid config: grid: t_end must exceed t_start by more than"
        " 0.0001220703125 per step"
    ]
    assert proc.stdout == ""


def test_exit_code_2_on_barred_grid_whose_half_steps_are_too_fine(tmp_path):
    # dt = 2.0e-4 exceeds ulp(1e12) = 1.2e-4, but the half steps barred_model builds do not.
    config = rotating_config(command="holonomy")
    config["model"]["model"] = "barred_rotating"
    config["grid"].update(t_start=1e12, t_end=1e12 + 0.0064, steps=32)
    proc = run_cli(tmp_path, "holonomy", config)
    assert proc.returncode == 2
    assert proc.stderr.startswith("adiabatica: invalid config: grid: t_end must exceed t_start")
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    config["model"]["model"] = "rotating"
    assert validate(config, command="holonomy") == []


def test_exit_code_3_on_non_finite_analytic_frame(tmp_path, capsys):
    # A finite grid on which omega * t overflows: the analytic frame is NaN.
    config = rotating_config()
    config["model"]["omega"] = 1e308
    config["grid"].update(t_start=0.0, t_end=1e10)
    with np.errstate(all="ignore"):
        assert main(["criteria", "--config", write_config(tmp_path, config)]) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, model",
    [
        ("simulate", {"mu_B": 1e300, "theta": 1.0, "omega": 1.0}),  # the step phase overflows
        ("holonomy", {"mu_B": 1e300, "theta": 1.0, "omega": 1.0}),  # the dynamical phase overflows
        ("criteria", {"mu_B": 1.0, "theta": 1.0, "omega": 1e308}),  # omega * t overflows
        # the barred model's propagator samples H(t) = NaN: HamiltonianSpec.sample rejects it
        ("criteria", {"model": "barred_rotating", "mu_B": 1.0, "theta": 1.0, "omega": 1e308}),
    ],
)
def test_exit_code_3_on_overflow_prints_one_line(tmp_path, command, model):
    config = {
        "model": {"model": "rotating", **model},
        "grid": {"t_start": 0.0, "t_end": 1e10, "steps": 16},
    }
    proc = run_cli(tmp_path, command, config)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("adiabatica: numerical error:")
    assert proc.stderr.count("\n") == 1
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_exit_code_2_when_barred_grid_exceeds_the_step_cap(tmp_path):
    # At 2**20 steps barred_rotating would build a 2**21-step propagator, about twice
    # the 314 MB peak of a 2**19-step run; validate rejects it before anything is allocated.
    config = {
        "model": {"model": "barred_rotating", "mu_B": 1.0, "theta": 1.0, "omega": 0.5},
        "grid": {"t_start": 0.0, "t_end": 4 * np.pi, "steps": 2**20},
    }
    proc = run_cli(tmp_path, "criteria", config)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "adiabatica: invalid config: steps must be at most 2**19 for barred_rotating, "
        "which builds 2 * steps\n"
    )


def test_non_cyclic_holonomy_warns_on_one_line(tmp_path, capsys):
    config = {
        "model": {"model": "rotating", "mu_B": 1.0, "theta": 1.0, "omega": 0.5},
        "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 16},
    }
    assert main(["holonomy", "--config", write_config(tmp_path, config)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["command"] == "holonomy"
    assert captured.err == (
        "adiabatica: warning: endpoint Hamiltonians differ; "
        "holonomy is not a cyclic invariant here\n"
    )


def test_verbose_adds_two_stderr_lines_and_no_output_byte(tmp_path, capsys):
    path = write_config(tmp_path, rotating_config())
    report = tmp_path / "report.json"
    outputs = {}
    for verbose in ([], ["--verbose"]):
        assert main(["criteria", "--config", path, *verbose]) == 0
        stdout = capsys.readouterr()
        assert main(["criteria", "--config", path, "--output", str(report), *verbose]) == 0
        to_file = capsys.readouterr()
        outputs[bool(verbose)] = stdout.out, to_file.out, report.read_bytes()
        if not verbose:
            assert stdout.err == to_file.err == ""
    assert outputs[True] == outputs[False]
    assert stdout.err == "adiabatica: running criteria\n"
    assert to_file.err == f"adiabatica: running criteria\nadiabatica: wrote {report}\n"


def test_exit_code_2_on_unreadable_config(tmp_path, capsys):
    assert main(["criteria", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_exit_code_2_on_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["criteria", "--config", str(path)]) == 2


def test_exit_code_3_on_numerical_error(tmp_path, monkeypatch, capsys):
    import adiabatica.cli as cli_module

    def boom(config):
        raise EigenGapTooSmallError("levels collided")

    monkeypatch.setitem(cli_module.RUNNERS, "criteria", boom)
    path = write_config(tmp_path, rotating_config())
    assert main(["criteria", "--config", path]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_console_is_the_script_target():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert '\nadiabatica = "adiabatica.cli:console"\n' in pyproject


def test_library_import_leaves_gc_state_unchanged():
    code = "import gc, adiabatica, adiabatica.cli; print(gc.get_freeze_count(), gc.isenabled())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True"]


def entry_point_matches_main(tmp_path, capsys, config, code):
    """`python -m adiabatica.cli` and in-process main() give the same exit code, stdout
    and stderr, and main() leaves the caller's garbage collector as it found it."""
    proc = run_cli(tmp_path, "criteria", config)
    frozen = gc.get_freeze_count()
    assert main(["criteria", "--config", write_config(tmp_path, config)]) == code
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, True)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    return proc


def test_console_entry_point_runs(tmp_path, capsys):
    proc = entry_point_matches_main(tmp_path, capsys, rotating_config(), 0)
    assert json.loads(proc.stdout)["verdicts"]["naive"] is True


@pytest.mark.parametrize(
    "config, code",
    [
        (rotating_config(epsilon=-1.0), 2),
        (
            {
                "model": {"model": "rotating", "mu_B": 1.0, "theta": 1.0, "omega": 1e308},
                "grid": {"t_start": 0.0, "t_end": 1e10, "steps": 16},
            },
            3,
        ),
    ],
    ids=["exit2", "exit3"],
)
def test_module_entry_point_matches_in_process_main(tmp_path, capsys, config, code):
    entry_point_matches_main(tmp_path, capsys, config, code)


def test_exit_code_2_when_output_file_cannot_be_opened(tmp_path):
    out = tmp_path / "missing" / "report.json"
    proc = run_cli(tmp_path, "criteria", rotating_config(), "--output", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"adiabatica: cannot write output: [Errno 2] No such file or directory: {str(out)!r}"
    ]
    assert proc.stdout == "" and not out.exists()


def closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return os.fdopen(write_end, "w")


@pytest.mark.parametrize(
    "sink, fmt, reason",
    [
        ("/dev/full", "json", "[Errno 28] No space left on device"),
        ("/dev/full", "csv", "[Errno 28] No space left on device"),
        (None, "json", "[Errno 32] Broken pipe"),
    ],
    ids=["full-json", "full-csv", "closed-pipe"],
)
def test_exit_code_2_when_stdout_cannot_be_written(tmp_path, sink, fmt, reason):
    if sink and not Path(sink).exists():
        pytest.skip(f"needs the {sink} device")
    path = write_config(tmp_path, rotating_config())
    # Buffered stdout keeps the unwritten bytes, which the flush at exit would retry.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open(sink, "w") if sink else closed_pipe() as out:
        proc = subprocess.run(
            [sys.executable, "-m", "adiabatica.cli", "criteria", "--config", path, "--format", fmt],
            stdout=out,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert proc.returncode == 2
    assert proc.stderr == f"adiabatica: cannot write output: {reason}\n"


def test_ms_second_regime_mismatch_is_a_config_error(tmp_path):
    # omega0 off by a relative 1e-10 from 2 * n * (2*pi/tau), outside the model's rel 1e-12
    omega0 = 2 * 2 * (2 * np.pi / 1.0) * (1 + 1e-10)
    config = {
        "model": {"model": "ms_second", "omega0": omega0, "tau": 1.0, "n": 2},
        "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 64},
    }
    path = write_config(tmp_path, config)
    proc = subprocess.run(
        [sys.executable, "-m", "adiabatica.cli", "holonomy", "--config", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "invalid config" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_import_does_not_load_scipy():
    code = "import sys, adiabatica.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_csv_floats_have_17_significant_digits(tmp_path):
    config = rotating_config(format="csv")
    path = write_config(tmp_path, config)
    out = tmp_path / "report.csv"
    assert main(["criteria", "--config", path, "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    value = lines[1].split(",")[0]
    assert float(value) == pytest.approx(np.sin(np.pi / 3) / 2 * 1e-3 / 2, rel=1e-12)
    # lossless round-trip: re-rendering the parsed value reproduces the text
    assert format(float(value), ".17g") == value


# Any JSON value where a number belongs: extremes, NaN, Infinity and non-numbers included.
junk = st.one_of(
    st.floats(),
    st.integers(-(10**6), 10**6),
    st.sampled_from([0, 1e-300, 1e300, -1e300, 10**400, -(10**400), True, "1", None]),
)


def field(usual):
    """Mostly a usual value, so that most configs reach a runner; junk about one time in eight."""
    return st.sampled_from([usual] * 7 + [junk]).flatmap(lambda strategy: strategy)


def rotating_models(names):
    return st.fixed_dictionaries(
        {
            "model": st.sampled_from(names),
            "mu_B": field(st.floats(1e-3, 1e3)),
            "theta": field(st.floats(1e-3, 3.14)),
            "omega": field(st.floats(-10.0, 10.0)),
        }
    )


ms_second_models = st.tuples(st.floats(0.1, 10.0), st.integers(1, 12)).flatmap(
    lambda tau_n: st.fixed_dictionaries(
        {
            "model": st.just("ms_second"),
            "omega0": field(st.just(2 * tau_n[1] * (2 * np.pi / tau_n[0]))),
            "tau": field(st.just(tau_n[0])),
        },
        optional={"n": field(st.just(tau_n[1]))},
    )
)
# Short grids and grids that straddle zero at large magnitude (|t_start| up to 1e12). steps
# stays in [16, 64], or fails validation before anything is allocated, so that the 500
# examples of the fuzz test run in about 10 s.
grids = st.tuples(
    st.one_of(st.floats(-100.0, 100.0), st.floats(-1e12, 1e12)), st.floats(1e-3, 100.0)
).flatmap(
    lambda start_span: st.fixed_dictionaries(
        {
            "t_start": field(st.just(start_span[0])),
            "t_end": field(st.just(start_span[0] + start_span[1])),
            "steps": field(st.integers(16, 64)),
        }
    )
)
sweeps = st.fixed_dictionaries(
    {},
    optional={
        "ratio_min": field(st.floats(1e-4, 1.0)),
        "ratio_max": field(st.floats(1.0, 1e4)),
        "points": field(st.integers(2, 64)),
    },
)
extras = {
    "epsilon": field(st.floats(1e-3, 1.0)),
    "energy_offset": field(st.floats(-10.0, 10.0)),
    "format": st.sampled_from(["csv", "json", "xml"]),
    "seed": field(st.integers(0, 100)),
}


def configs(command):
    """A config for command: the model and grid or sweep block it needs, any fields junk."""
    if command == "sweep":
        return st.fixed_dictionaries(
            {"model": rotating_models(["rotating"]), "sweep": sweeps}, optional=extras
        )
    models = st.one_of(rotating_models(["rotating", "barred_rotating"]), ms_second_models)
    return st.fixed_dictionaries({"model": models, "grid": grids}, optional=extras)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(COMMANDS).flatmap(lambda c: st.tuples(st.just(c), configs(c))))
@example(  # a grid time near 0 that misses the grid sample by more than 1e-9 * max(1, |t|)
    (
        "simulate",
        {
            "model": {"model": "barred_rotating", "mu_B": 1, "theta": 1, "omega": 0.5},
            "grid": {"t_start": -1e8, "t_end": 1e8 + 0.3, "steps": 17},
        },
    )
)
@example(  # logspace overshoots ratio_max by an ulp, and mu_B * 9.777052685893052 overflows
    (
        "sweep",
        {
            "model": {"model": "rotating", "mu_B": 1.8386861486960593e307, "theta": 1.0},
            "sweep": {"ratio_min": 0.977705268589305, "ratio_max": 9.77705268589305, "points": 61},
        },
    )
)
def test_cli_fuzz_exits_cleanly(command_config):
    """Any config, any command: exit 0, 2 or 3, no traceback, every stderr line the CLI's own."""
    command, config = command_config
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [command, "--config", str(path), "--output", str(Path(tmp) / "out")]
        with contextlib.redirect_stderr(stderr):
            code = main(argv)  # an exception escaping main is a traceback for the CLI user
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    assert all(line.startswith("adiabatica:") for line in stderr.getvalue().splitlines())
