"""The public surface: ``__all__``, what importing loads, and the README's
library and config examples."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quickwake
from quickwake import cli, dp, sim
from quickwake.cli import load_config, main

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve_and_cover_the_imports():
    for name in quickwake.__all__:
        assert hasattr(quickwake, name), name
    tree = ast.parse(Path(quickwake.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public - set(quickwake.__all__) == set()


def test_import_leaves_scipy_linalg_unloaded():
    """``scipy.linalg`` costs import time and resident memory; the solver
    uses ``numpy.linalg`` so that importing the package, CLI included,
    never loads it."""
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import quickwake.cli; "
        "print('scipy.linalg' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "False"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    small = code.replace("BeliefGrid.uniform(1001)", "BeliefGrid.uniform(101)")
    small = small.replace("replications=100_000", "replications=200")
    assert small != code
    scope: dict = {}
    exec(compile(small, "README.md", "exec"), scope)
    assert scope["policy"].kind == "control_m"
    assert 0.0 < scope["policy"].gamma < 1.0
    assert scope["metrics"].replications == 200


def _paths(doc: dict, prefix: str = "") -> set:
    """Dotted paths of a config document's leaf fields."""
    paths = set()
    for key, value in doc.items():
        if isinstance(value, dict):
            paths |= _paths(value, f"{prefix}{key}.")
        else:
            paths.add(prefix + key)
    return paths


def test_readme_config_example_loads(tmp_path):
    """The README's config example loads, and it names every config field
    and no other, so a field cannot be added or removed without it; the
    fields it says take null are those that default to none."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("Config schema", 1)[1]
    doc = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert _paths(json.loads(doc)) == {field[0] for field in cli._FIELDS}
    nullable = re.search(r"fields that default to none:(.*?)\.\s", section, re.S).group(1)
    assert set(re.findall(r"`([^`]+)`", nullable)) == {
        field[0] for field in cli._FIELDS if field[2] is None
    }
    path = tmp_path / "config.json"
    path.write_text(doc)
    cfg = load_config(path)
    assert cfg.strategy == "control_m"
    assert cfg.replications == 100_000
    assert cfg.sweep_q_values.tolist() == [0.0, 0.05, 0.1]
    path.write_text(doc.replace('"fixed_m": 1', '"fixed_m": null'))
    assert load_config(path).fixed_m is None  # JSON null takes the default


def test_readme_horizon_cap_is_the_simulators():
    readme = (ROOT / "README.md").read_text()
    (times,) = re.findall(r"`ceil\((\d+)/p\)`", readme)
    assert float(times) == sim.HORIZON_CHANGE_TIMES


def _readme_keys(artifact: str) -> set:
    readme = (ROOT / "README.md").read_text()
    (keys,) = re.findall(rf"`{re.escape(artifact)}` has the keys\s+(.*?)\.\s", readme, re.S)
    return set(re.findall(r"`([^`]+)`", keys))


def test_readme_artifact_keys_are_the_ones_written(tmp_path):
    """The README's key lists for report.json (over the four strategies)
    and calibration.json are the keys that solve and calibrate write, and
    its sweep.csv header is the one sweep-q writes."""
    doc = {
        "schema": 1,
        "problem": {
            "n": 3, "rho": 0.0, "p": 0.05, "lambda_s": 0.5, "lambda_f": 100.0,
            "mu0": 0.0, "sigma0": 1.0, "mu1": 1.0, "sigma1": 1.0,
        },
        "strategy": "control-m", "open_loop_q": 0.3, "fixed_m": 1,
        "solver": {"grid_size": 51}, "sim": {"replications": 50},
        "calibrate": {"tolerance": 0.5}, "sweep": {"q_values": [0.1]},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    written = set()
    for strategy in cli.STRATEGY_NAMES:
        out = tmp_path / strategy
        assert main(["solve", "--config", str(config), "--strategy", strategy,
                     "--out", str(out)]) == 0
        written |= set(json.loads((out / "report.json").read_text()))
    assert written == _readme_keys("report.json")
    assert main(["calibrate", "--config", str(config), "--out", str(tmp_path)]) == 0
    calibration = json.loads((tmp_path / "calibration.json").read_text())
    assert set(calibration) == _readme_keys("calibration.json")
    assert main(["sweep-q", "--config", str(config), "--out", str(tmp_path)]) == 0
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    readme = (ROOT / "README.md").read_text()
    assert header == re.search(r"`sweep-q` writes `sweep.csv` \(`([^`]+)`", readme).group(1)


def test_readme_grid_false_alarm_reading_is_the_solves(solved_control_m, metrics_control_m):
    """The README's second reading of criterion 6: the control-m solve's
    grid P_FA beside the 10^5-episode estimate."""
    readme = (ROOT / "README.md").read_text()
    grid, sim_alpha, half = re.search(
        r"grid P_FA is (\d\.\d+), against the simulated\s+(\d\.\d+) ± (\d\.\d+)", readme
    ).groups()
    assert float(grid) == round(solved_control_m[1].p_false_alarm, 4)
    assert float(sim_alpha) == round(metrics_control_m.prob_false_alarm, 4)
    assert float(half) == round(metrics_control_m.false_alarm_half_width, 4)


def test_readme_sweep_defaults_are_the_commands(tmp_path, monkeypatch):
    """The README's default q values for sweep-q and figures are the ones
    each command sweeps when the config gives none."""
    readme = " ".join((ROOT / "README.md").read_text().split())
    counts = re.search(
        r"`sweep.q_values` defaults to (\d+) values for `sweep-q` and (\d+) for `figures`, "
        r"evenly spaced on \[0, 1\]", readme
    ).groups()

    class Swept(Exception):
        pass

    def sweep(problem, q_values, **kw):
        raise Swept(q_values)

    monkeypatch.setattr(cli, "sweep_open_loop_q", sweep)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema": 1, "strategy": "control-m", "solver": {"grid_size": 51},
        "problem": {
            "n": 3, "rho": 0.0, "p": 0.05, "lambda_s": 0.5, "lambda_f": 100.0,
            "mu0": 0.0, "sigma0": 1.0, "mu1": 1.0, "sigma1": 1.0,
        },
    }))
    for command, count in zip(("sweep-q", "figures"), counts):
        with pytest.raises(Swept) as swept:
            main([command, "--config", str(config), "--out", str(tmp_path)])
        np.testing.assert_array_equal(swept.value.args[0], np.linspace(0.0, 1.0, int(count)))


def test_readme_module_names_resolve():
    """Every `dp.NAME`, `sim.NAME` or `cli.NAME` the README gives is a
    config field or a name in that module."""
    readme = (ROOT / "README.md").read_text()
    names = re.findall(r"`((dp|sim|cli)\.([A-Za-z_]\w*))`", readme)
    assert {"dp.MC_ROWS", "dp.MC_AHEAD"} <= {full for full, _, _ in names}
    fields = {field[0] for field in cli._FIELDS}
    modules = {"dp": dp, "sim": sim, "cli": cli}
    for full, module, name in names:
        assert full in fields or hasattr(modules[module], name), full


def test_readme_stack_shape_is_the_builds():
    """The README's stack shape, n * g rows of g, is the shape both dense
    builds make at grid 201, and its byte count at grid 1001 follows."""
    readme = " ".join((ROOT / "README.md").read_text().split())
    shape, size = re.search(
        r"its stack has shape `(\([^`]+\))` for `g` grid nodes, .*? which is ([\d,]+) B "
        r"at grid 1001 with `n = 10`", readme
    ).groups()
    problem = quickwake.Problem(
        quickwake.SensorModel(0.0, 1.0, 1.0, 1.0), quickwake.ChangePrior(0.0, 0.01),
        quickwake.Costs(0.5, 100.0), 3,
    )
    grid = quickwake.BeliefGrid.uniform(201)
    for method in ("exact", "monte_carlo"):
        op = quickwake.build_expectation_operator(problem, grid, method)
        assert op.stack.shape == eval(shape, {"n": problem.n, "g": grid.size})
    rows, cols = eval(shape, {"n": 10, "g": 1001})
    assert int(size.replace(",", "")) == rows * cols * 8


def test_readme_solver_numbers_are_the_solvers():
    """The README's coarse stride, switching margin, residual check and
    round cap are the solver's constants."""
    readme = " ".join((ROOT / "README.md").read_text().split())
    (stride,) = re.findall(r"every (\d+)th grid node plus the last", readme)
    (margin,) = re.findall(r"more than `([^`]+) \* lambda_f`", readme)
    (scale,) = re.findall(r"must not exceed `([^`]+) \* lambda_f`", readme)
    (rounds,) = re.findall(r"within ([\d,]+) rounds", readme)
    assert int(stride) == dp.COARSE_STRIDE
    assert float(margin) == dp.TIE_BREAK
    assert float(scale) == dp.TOLERANCE_SCALE
    assert int(rounds.replace(",", "")) == dp.MAX_ROUNDS
