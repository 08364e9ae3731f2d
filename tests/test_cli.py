import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quickwake
from quickwake import cli
from quickwake.cli import ConfigError, load_config, load_policy, main
from tests.conftest import make_benchmark_problem

BASE = {
    "schema": 1,
    "problem": {
        "n": 10, "rho": 0.0, "p": 0.01, "lambda_s": 0.5, "lambda_f": 100.0,
        "mu0": 0.0, "sigma0": 1.0, "mu1": 1.0, "sigma1": 1.0,
    },
    "strategy": "control-m",
    "solver": {"grid_size": 51},
    "sim": {"replications": 120, "base_seed": 5},
}


def write_config(tmp_path, overrides=None, name="config.json", **top):
    doc = json.loads(json.dumps(BASE))
    for key, value in (overrides or {}).items():
        outer, _, inner = key.partition(".")
        if inner:
            doc.setdefault(outer, {})[inner] = value
        else:
            doc[outer] = value
    doc.update(top)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --- config parsing ---------------------------------------------------------


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.strategy == "control_m"
    assert cfg.grid_size == 51
    assert cfg.max_iters == 10_000
    assert cfg.q_grid_size == 101
    assert cfg.method == "exact"
    assert cfg.replications == 120
    assert cfg.problem.key() == make_benchmark_problem().key()


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"bogus": 1}, "unknown field bogus"),
        ({"problem.mu3": 1.0}, "unknown field problem.mu3"),
        ({"solver.nodes": 9}, "unknown field solver.nodes"),
        ({"schema": 3}, "schema must be 1"),
        ({"strategy": "control_m"}, "strategy must be one of"),
        ({"strategy": 7}, "must be a str"),
        ({"problem.p": "fast"}, "must be a float"),
        ({"solver.grid_size": 1}, "grid_size must be >= 2"),
        ({"solver.method": "simpson"}, "solver.method must be one of"),
        ({"sim.replications": -2}, "replications must be >= 0"),
        ({"sweep.q_values": [0.5, 1.5]}, "q_values"),
        ({"strategy": "open-loop"}, "open_loop_q"),
        ({"strategy": "fixed-m"}, "fixed_m"),
        ({"fixed_m": 99}, "fixed_m must lie in 0..10"),
        ({"problem.sigma0": -1.0}, "invalid problem block"),
        ({"solver.grid_size": None}, "field solver.grid_size must be a int"),
        ({"solver.max_iters": 0}, "field solver.max_iters must be >= 1"),
        ({"calibrate.max_trials": 0}, "field calibrate.max_trials must be >= 1"),
        ({"calibrate.lambda_lo": 0.0}, "field calibrate.lambda_lo must be > 0"),
        ({"calibrate.target_alpha": 1.0}, r"field calibrate.target_alpha must lie in \(0, 1\)"),
        ({"calibrate.tolerance": 0.0}, "field calibrate.tolerance must be > 0"),
        ({"calibrate.lambda_lo": 500.0, "calibrate.lambda_hi": 10.0},
         "field calibrate.lambda_hi must be > calibrate.lambda_lo"),
        ({"sweep.q_values": ["0.1", True]}, "field sweep.q_values must be a float"),
        ({"sweep.q_values": [0.1, True]}, "field sweep.q_values must be a float"),
        ({"sim.base_seed": -1}, "field sim.base_seed must be >= 0"),
    ],
)
def test_load_config_rejections(tmp_path, overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(write_config(tmp_path, overrides))


def test_load_config_missing_problem_field(tmp_path):
    doc = json.loads(json.dumps(BASE))
    del doc["problem"]["p"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="missing field problem.p"):
        load_config(str(path))


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.json"))


# --- solve ------------------------------------------------------------------


def test_solve_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, out_dir=str(out))
    assert main(["solve", "--config", cfg]) == 0
    rows = read_csv(out / "J.csv")
    assert rows[0] == ["pi", "J", "action_kind", "m_or_q"]
    assert len(rows) == 52
    assert rows[1][2] == "continue" and rows[-1][2] == "stop"
    assert rows[-1][3] == ""  # stop rows carry no action parameter
    policy_rows = read_csv(out / "policy.csv")
    assert policy_rows[0] == ["pi", "action", "m_or_q"]
    report = json.loads((out / "report.json").read_text())
    assert report["strategy"] == "control_m"
    assert 0.8 < report["gamma"] < 1.0
    assert report["grid_size"] == 51
    assert report["problem_key"] == make_benchmark_problem().key()
    assert report["awake_rule_mismatches"] >= 0
    assert 0.0 <= report["bellman_residual"] <= 1e-10
    assert report["operator_build_seconds"] > 0.0
    assert report["coarse_iterations"] == 0  # 51 nodes have no coarse level
    stdout = capsys.readouterr().out
    assert "solved control_m" in stdout and "built operator in" in stdout
    assert "after 0 coarse rounds" in stdout


def test_solve_exit_code_on_non_convergence(tmp_path, capsys):
    cfg = write_config(tmp_path, {"solver.max_iters": 2}, out_dir=str(tmp_path / "x"))
    assert main(["solve", "--config", cfg]) == 2
    assert "did not reach tolerance" in capsys.readouterr().err


def test_solve_strategy_override(tmp_path):
    out = tmp_path / "ol"
    cfg = write_config(tmp_path, {"open_loop_q": 0.05}, out_dir=str(out))
    assert main(["solve", "--config", cfg, "--strategy", "open-loop"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["strategy"] == "open_loop"
    assert report["open_loop_q"] == 0.05
    # Overriding to a strategy whose parameter is absent must fail early.
    bare = write_config(tmp_path, name="bare.json", out_dir=str(out))
    assert main(["solve", "--config", bare, "--strategy", "fixed-m"]) == 1


# --- simulate ---------------------------------------------------------------


@pytest.fixture()
def solved_run(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, out_dir=str(out))
    assert main(["solve", "--config", cfg]) == 0
    return cfg, out


def test_simulate_deterministic(solved_run, tmp_path):
    cfg, out = solved_run
    a = tmp_path / "sim_a"
    b = tmp_path / "sim_b"
    pol = str(out / "policy.csv")
    assert main(["simulate", "--config", cfg, "--policy", pol, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--policy", pol, "--out", str(b)]) == 0
    assert (a / "episodes.csv").read_bytes() == (b / "episodes.csv").read_bytes()
    metrics = json.loads((a / "metrics.json").read_text())
    assert metrics["replications"] == 120
    assert metrics["completed"] + metrics["truncated"] == 120
    assert metrics["base_seed"] == 5
    rows = read_csv(a / "episodes.csv")
    assert rows[0] == ["episode", "T", "tau", "delay", "false_alarm", "obs_cost"]
    assert len(rows) == 121
    assert [int(r[0]) for r in rows[1:]] == list(range(120))


def test_simulate_seed_override_changes_outcomes(solved_run, tmp_path):
    cfg, out = solved_run
    a = tmp_path / "sa"
    b = tmp_path / "sb"
    pol = str(out / "policy.csv")
    assert main(["simulate", "--config", cfg, "--policy", pol, "--out", str(a),
                 "--seed", "777"]) == 0
    assert main(["simulate", "--config", cfg, "--policy", pol, "--out", str(b)]) == 0
    assert json.loads((a / "metrics.json").read_text())["base_seed"] == 777
    assert (a / "episodes.csv").read_bytes() != (b / "episodes.csv").read_bytes()


def test_simulate_trace(solved_run, tmp_path):
    """trace.csv follows the episode in row 0 of episodes.csv: same T, same tau."""
    cfg, out = solved_run
    dest = tmp_path / "tr"
    assert main(["simulate", "--config", cfg, "--policy", str(out / "policy.csv"),
                 "--out", str(dest), "--trace"]) == 0
    rows = read_csv(dest / "trace.csv")
    assert rows[0] == ["k", "pi", "m"]
    assert len(rows) > 1
    assert rows[1][0] == "0" and rows[1][1] == "0"
    first = read_csv(dest / "episodes.csv")[1]
    assert first[0] == "0"
    assert len(rows) - 1 == int(first[2])  # one row per slot before tau
    run = load_config(cfg)
    policy = load_policy(out / "policy.csv", run.problem)
    ep = next(quickwake.run_episodes(
        run.problem, policy, run.replications, run.base_seed, horizon_cap=run.horizon_cap
    ))
    assert (ep.change_time, ep.stop_time) == (int(first[1]), int(first[2]))
    assert [(int(k), float(pi), int(m)) for k, pi, m in rows[1:]] == [
        (k, pytest.approx(pi, abs=1e-12), m) for k, pi, m in ep.trace
    ]


def test_simulate_rejects_fingerprint_mismatch(solved_run, tmp_path, capsys):
    cfg, out = solved_run
    other = write_config(tmp_path, {"problem.p": 0.02}, name="other.json",
                         out_dir=str(tmp_path / "y"))
    code = main(["simulate", "--config", other, "--policy", str(out / "policy.csv")])
    assert code == 1
    assert "different problem" in capsys.readouterr().err


def test_simulate_requires_sibling_report(solved_run, tmp_path, capsys):
    cfg, out = solved_run
    orphan = tmp_path / "orphan"
    orphan.mkdir()
    (orphan / "policy.csv").write_bytes((out / "policy.csv").read_bytes())
    assert main(["simulate", "--config", cfg, "--policy", str(orphan / "policy.csv")]) == 1
    assert "report.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "report,fragment",
    [
        (None, "strategy"),  # only the problem key
        ([1], "must be a JSON object"),
        ({"strategy": "control_m", "gamma": [1], "problem_key": make_benchmark_problem().key()},
         "field gamma in"),
        ({"strategy": "open_loop", "gamma": 0.9, "open_loop_q": "x",
          "problem_key": make_benchmark_problem().key()}, "field open_loop_q in"),
        ({"strategy": "open_loop", "gamma": 0.9, "problem_key": make_benchmark_problem().key()},
         "missing field open_loop_q in"),
    ],
)
def test_simulate_rejects_malformed_report(solved_run, tmp_path, capsys, report, fragment):
    cfg, out = solved_run
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "policy.csv").write_bytes((out / "policy.csv").read_bytes())
    if report is None:
        report = {"problem_key": make_benchmark_problem().key()}
    (bad / "report.json").write_text(json.dumps(report))
    assert main(["simulate", "--config", cfg, "--policy", str(bad / "policy.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err and "report.json" in err


def test_simulate_requires_policy_file(solved_run, tmp_path, capsys):
    cfg, out = solved_run
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "report.json").write_bytes((out / "report.json").read_bytes())
    assert main(["simulate", "--config", cfg, "--policy", str(bare / "policy.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "policy.csv" in err


def test_load_policy_round_trip(solved_run):
    cfg, out = solved_run
    problem = make_benchmark_problem()
    reloaded = load_policy(out / "policy.csv", problem)
    report = json.loads((out / "report.json").read_text())
    assert reloaded.gamma == report["gamma"]
    assert reloaded.kind == "control_m"
    pis = np.linspace(0.0, reloaded.gamma - 1e-6, 17)
    assert reloaded.awake_map[reloaded._continue_indices(pis)].dtype.kind == "i"


@pytest.mark.parametrize(
    "strategy,extra",
    [("control-m", {}), ("control-q", {}), ("open-loop", {"open_loop_q": 0.03}),
     ("fixed-m", {"fixed_m": 1})],
)
def test_load_policy_round_trip_every_strategy(tmp_path, strategy, extra):
    """The reloaded policy acts as the solved one on every continue node;
    policy.csv holds wake probabilities to 12 significant digits."""
    out = tmp_path / "run"
    path = write_config(tmp_path, {"strategy": strategy, **extra}, out_dir=str(out))
    assert main(["solve", "--config", path]) == 0
    cfg = load_config(path)
    _, _, solved = cli._solve(cfg, cli._operator(cfg))
    reloaded = load_policy(out / "policy.csv", cfg.problem)
    assert (reloaded.kind, reloaded.gamma) == (solved.kind, solved.gamma)
    below = np.flatnonzero(solved.grid.points < solved.gamma)
    assert below.size > 0
    assert reloaded._continue_indices(solved.grid.points[below]).tolist() == below.tolist()
    if solved.kind == "control_q":
        np.testing.assert_allclose(
            reloaded.wake_prob_map[below], solved.wake_prob_map[below], rtol=1e-12, atol=0.0
        )
    elif solved.kind == "open_loop":
        assert reloaded.fixed_q == solved.fixed_q == 0.03
    else:
        assert reloaded.awake_map[below].tolist() == solved.awake_map[below].tolist()


@pytest.mark.parametrize(
    "strategy,bad", [("control-q", "nan"), ("control-q", "x"), ("control-m", "1.7")]
)
def test_simulate_rejects_malformed_policy(tmp_path, capsys, strategy, bad):
    """A continue row whose action is no wake probability or awake count
    is named as a policy.csv error before any episode runs."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path, {"strategy": strategy}, out_dir=str(out))
    assert main(["solve", "--config", cfg]) == 0
    rows = [row[:2] + [bad] if row[1] == "continue" else row
            for row in read_csv(out / "policy.csv")]
    with open(out / "policy.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["simulate", "--config", cfg, "--policy", str(out / "policy.csv"),
                 "--out", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid policy in ") and "policy.csv" in err


# --- sweep-q / calibrate / figures -------------------------------------------


def test_sweep_q_artifact(tmp_path):
    out = tmp_path / "sweep"
    cfg = write_config(
        tmp_path,
        {"sweep.q_values": [0.0, 0.02, 0.3], "sim.replications": 0},
        out_dir=str(out),
    )
    assert main(["sweep-q", "--config", cfg]) == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["q", "value_at_start", "mean_delay", "is_argmin"]
    assert len(rows) == 4
    assert [r[3] for r in rows[1:]].count("1") == 1
    assert rows[1][2] == "nan"  # replications 0: no delay estimate
    marked = next(r for r in rows[1:] if r[3] == "1")
    assert float(marked[1]) == min(float(r[1]) for r in rows[1:])


def test_calibrate_artifact(tmp_path):
    out = tmp_path / "cal"
    cfg = write_config(
        tmp_path,
        {
            "solver.grid_size": 101,
            "sim.replications": 150,
            "calibrate.target_alpha": 0.05,
            "calibrate.tolerance": 0.02,
            "calibrate.max_trials": 20,
        },
        out_dir=str(out),
    )
    assert main(["calibrate", "--config", cfg]) == 0
    doc = json.loads((out / "calibration.json").read_text())
    assert abs(doc["alpha"] - 0.05) <= 0.02
    assert doc["trials"] == len(doc["trace"])
    assert doc["lambda_f"] > 0


def test_calibrate_rejects_zero_replications(tmp_path, capsys):
    cfg = write_config(tmp_path, {"sim.replications": 0}, out_dir=str(tmp_path / "x"))
    assert main(["calibrate", "--config", cfg]) == 1
    assert "field sim.replications must be >= 1 for calibrate" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_calibrate_exit_code_when_trials_run_out(tmp_path, capsys):
    # Two trials are the two bracket probes, which cannot reach a
    # tolerance this tight.
    cfg = write_config(
        tmp_path, {"calibrate.max_trials": 2, "calibrate.tolerance": 1e-9},
        out_dir=str(tmp_path / "x"),
    )
    assert main(["calibrate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: calibration used 2 trials")


def test_calibrate_honours_a_one_trial_budget(tmp_path, capsys):
    # One trial is the lambda_lo probe alone; the lambda_hi probe is skipped.
    cfg = write_config(
        tmp_path, {"calibrate.max_trials": 1, "calibrate.tolerance": 1e-9},
        out_dir=str(tmp_path / "x"),
    )
    assert main(["calibrate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: calibration used 1 trials")


@pytest.mark.parametrize("solver", [{"solver.max_iters": 1}, {"solver.tolerance": 1e-300}])
def test_calibrate_uses_the_solver_settings(tmp_path, capsys, solver):
    # Each trial's solve gets the config's round budget and tolerance, as
    # in solve, so either setting stops the first trial.
    cfg = write_config(tmp_path, solver, out_dir=str(tmp_path / "x"))
    assert main(["calibrate", "--config", cfg]) == 2
    assert "did not reach tolerance" in capsys.readouterr().err


def test_calibrate_uses_the_configured_method(tmp_path, capsys):
    # Unequal variances have no scalar statistic for the default exact method.
    cfg = write_config(tmp_path, {"problem.sigma1": 1.2}, out_dir=str(tmp_path / "x"))
    errors = []
    for command in ("solve", "calibrate"):
        assert main([command, "--config", cfg]) == 1
        errors.append(capsys.readouterr().err)
    assert "no scalar sufficient statistic" in errors[0]
    assert errors[1] == errors[0]


def test_calibrate_target_alpha_flag(tmp_path):
    out = tmp_path / "cal2"
    cfg = write_config(
        tmp_path,
        {"solver.grid_size": 101, "sim.replications": 150,
         "calibrate.tolerance": 0.03, "calibrate.max_trials": 20},
        out_dir=str(out),
    )
    assert main(["calibrate", "--config", cfg, "--target-alpha", "0.08"]) == 0
    doc = json.loads((out / "calibration.json").read_text())
    assert doc["target_alpha"] == 0.08


def test_figures_bundle(tmp_path):
    out = tmp_path / "figs"
    cfg = write_config(
        tmp_path, {"sweep.q_values": [0.0, 0.05, 0.3]}, out_dir=str(out)
    )
    assert main(["figures", "--config", cfg]) == 0
    for name in (
        "differential_cost.csv",
        "awake_policy.csv",
        "value_control_q.csv",
        "wake_prob_policy.csv",
        "fixed_awake_thresholds.csv",
        "open_loop_sweep.csv",
    ):
        assert (out / name).exists(), name
    sweep = read_csv(out / "open_loop_sweep.csv")
    # Observations are free of charge in the second column, never dearer.
    for row in sweep[1:]:
        assert float(row[2]) <= float(row[1]) + 1e-9


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "m"))
    # The child finds the package where this process imported it from,
    # installed or not.
    src = str(Path(quickwake.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "quickwake", "solve", "--config", cfg],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "gamma" in proc.stdout
