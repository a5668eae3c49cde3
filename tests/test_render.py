"""Byte-for-byte check of the column-block renderer against the recursive one.

reference_to_json and reference_to_csv are the element-by-element renderers
the CLI used before it rendered float columns as blocks; every command's
output must still match them exactly.
"""

import json
import math

import numpy as np
import pytest

from adiabatica.cli import RUNNERS, _to_csv, _to_json, main


def reference_fmt(x: float) -> str:
    return format(float(x), ".17g")


def reference_to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {reference_to_json(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {reference_to_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        if math.isnan(x):
            return "NaN"
        return reference_fmt(x)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def reference_to_csv(header: list[str], rows: list[list]) -> str:
    def render(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return reference_fmt(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(render(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def plain(obj):
    """The runner output with every array turned into nested lists of Python floats."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


ROTATING = {"model": "rotating", "mu_B": 1.0, "theta": 1.1, "omega": 0.37}
MS_SECOND = {"model": "ms_second", "omega0": 2 * 2 * (2 * math.pi / 6.3), "tau": 6.3, "n": 2}
CASES = {
    "simulate-rotating": ("simulate", ROTATING),
    "simulate-barred": ("simulate", dict(ROTATING, model="barred_rotating")),
    "simulate-ms": ("simulate", MS_SECOND),
    "criteria": ("criteria", ROTATING),
    "holonomy": ("holonomy", MS_SECOND),
    "ms-probe": ("ms-probe", MS_SECOND),
    "composition-check": ("composition-check", MS_SECOND),
    "sweep": ("sweep", {"model": "rotating", "mu_B": 1.0, "theta": 1.1}),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_reference_renderer(tmp_path, case, fmt):
    command, model = CASES[case]
    config = {"command": command, "model": model, "format": fmt}
    if command != "sweep":
        t_end = model.get("tau") or 2 * math.pi / model["omega"]
        config["grid"] = {"t_start": 0.0, "t_end": t_end, "steps": 64}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / f"out.{fmt}"
    assert main([command, "--config", str(path), "--output", str(out)]) == 0

    payload, header, rows = plain(RUNNERS[command](config))
    if fmt == "csv":
        expected = reference_to_csv(header, rows)
    else:
        expected = reference_to_json(payload) + "\n"
    assert out.read_bytes() == expected.encode("utf-8")


def test_non_finite_and_signed_zero_blocks_match_reference():
    block = np.array([[1.0, np.inf, -0.0], [np.nan, -np.inf, 1e-300]])
    payload = {"block": block, "column": block[:, 1], "finite": block[0, ::2]}
    assert "".join(_to_json(payload)) == reference_to_json(plain(payload))
    header = ["a", "b", "c"]
    assert "".join(_to_csv(header, block)) == reference_to_csv(header, block.tolist())


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
def test_empty_arrays_render_as_empty_lists(shape):
    block = np.empty(shape)
    payload = {"block": block, "after": 1.5}
    text = "".join(_to_json(payload))
    assert text == reference_to_json(plain(payload))
    assert text == json.dumps(plain(payload), indent=2)
    if block.ndim == 2:
        header = [f"c{i}" for i in range(shape[1])]
        assert "".join(_to_csv(header, block)) == reference_to_csv(header, block.tolist())


def chunk_rows(cols: int) -> int:
    """Rows per chunk of the renderer at cols columns, read off its CSV fragments."""
    parts = _to_csv(["c"] * cols, np.zeros((2**16 // cols + 1, cols)))
    return parts[1].count("\n")


SPECIALS = [-0.0, 5e-324, 1e16, 1e17, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("special", SPECIALS, ids=repr)
@pytest.mark.parametrize("cols", [1, 2, 17])
def test_chunk_boundaries_match_reference(cols, special):
    chunk = chunk_rows(cols)
    assert 1 < chunk < 2**16 // cols  # the rows above are rendered in more than one chunk
    rng = np.random.default_rng(cols)
    header = [f"c{i}" for i in range(cols)]
    for rows in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        block = rng.normal(scale=1e3, size=(rows, cols))
        edges = [r for r in (0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk) if r < rows]
        block[edges] = special  # the first and last row of each chunk
        parts = _to_csv(header, block)
        assert len(parts) == 1 + -(-rows // chunk)
        assert "".join(parts) == reference_to_csv(header, block.tolist())
        payload = {"block": block, "column": block[:, -1]}
        assert "".join(_to_json(payload)) == reference_to_json(plain(payload))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_long_simulate_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsysbinary, fmt):
    model = {"model": "rotating", "mu_B": 1.0, "theta": 1.0, "omega": 0.01}
    grid = {"t_start": 0.0, "t_end": 2 * math.pi / 0.01, "steps": 8192}
    config = {"command": "simulate", "model": model, "grid": grid, "format": fmt}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / f"out.{fmt}"
    assert main(["simulate", "--config", str(path), "--output", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(["simulate", "--config", str(path)]) == 0
    stdout = capsysbinary.readouterr().out
    assert stdout == out.read_bytes()
    assert stdout.count(b"\n") > 8192
