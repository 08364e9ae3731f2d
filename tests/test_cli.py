import csv
import json
import math
import os
import re
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
        ({"solver.method": "exact"}, "unknown field solver.method"),
        ({"sim.replications": -2}, "replications must be >= 0"),
        ({"sweep.q_values": [0.5, 1.5]}, "q_values"),
        ({"strategy": "open-loop"}, "open_loop_q"),
        ({"strategy": "fixed-m"}, "fixed_m"),
        ({"fixed_m": 99}, "fixed_m must lie in 0..10"),
        ({"problem.sigma0": -1.0}, "invalid problem block"),
        ({"solver.grid_size": None}, "field solver.grid_size must be a int"),
        ({"solver.max_iters": 10_000}, "unknown field solver.max_iters"),
        ({"calibrate.max_trials": 0}, "field calibrate.max_trials must be >= 1"),
        ({"calibrate.lambda_lo": 0.0}, "field calibrate.lambda_lo must be > 0"),
        ({"calibrate.target_alpha": 1.0}, r"field calibrate.target_alpha must lie in \(0, 1\)"),
        ({"calibrate.tolerance": 0.0}, "field calibrate.tolerance must be > 0"),
        ({"calibrate.lambda_lo": 500.0, "calibrate.lambda_hi": 10.0},
         "field calibrate.lambda_hi must be > calibrate.lambda_lo"),
        ({"sweep.q_values": ["0.1", True]}, "field sweep.q_values must be a float"),
        ({"sweep.q_values": [0.1, True]}, "field sweep.q_values must be a float"),
        ({"sim.base_seed": -1}, "field sim.base_seed must be >= 0"),
        ({"solver.q_grid_size": 101}, "unknown field solver.q_grid_size"),
        ({"solver.tolerance": 1e-6}, "unknown field solver.tolerance"),
        ({"sim.horizon_cap": 500}, "unknown field sim.horizon_cap"),
        ({"calibrate.lambda_hi": math.inf}, "field calibrate.lambda_hi must be finite"),
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
    assert report["method"] == "exact"
    assert report["problem_key"] == make_benchmark_problem().key()
    assert report["awake_rule_mismatches"] >= 0
    assert 0.0 <= report["bellman_residual"] <= 1e-10
    assert report["operator_build_seconds"] > 0.0
    assert report["coarse_iterations"] > 0  # every grid starts from its coarse level
    stdout = capsys.readouterr().out
    assert "solved control_m" in stdout and "built operator in" in stdout
    assert f"after {report['coarse_iterations']} coarse rounds" in stdout
    # control_m factors once in every fine round: the coarse start
    # continues somewhere, so even the first round's policy does.
    assert report["factorizations"] == report["iterations"]
    assert f"LU factorizations: {report['factorizations']})" in stdout


def test_solve_exit_code_on_non_convergence(tmp_path, capsys, monkeypatch):
    # The solver's round cap and residual check are fixed; either, made
    # strict enough, fails the solve.
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "x"))
    with monkeypatch.context() as m:
        m.setattr(quickwake.dp, "MAX_ROUNDS", 2)
        assert main(["solve", "--config", cfg]) == 2
    assert "round cap of 2" in capsys.readouterr().err
    monkeypatch.setattr(quickwake.dp, "TOLERANCE_SCALE", 1e-300)
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
    ep = next(quickwake.run_episodes(run.problem, policy, run.replications, run.base_seed))
    assert (ep.change_time, ep.stop_time) == (int(first[1]), int(first[2]))
    assert [(int(k), float(pi), int(m)) for k, pi, m in rows[1:]] == [
        (k, pytest.approx(pi, abs=1e-12), m) for k, pi, m in ep.trace
    ]


def test_simulate_reports_truncations(solved_run, tmp_path, monkeypatch):
    """Episodes cut at the horizon cap are counted in metrics.json; at
    one mean change time (100 slots at p = 0.01) some are, some are not."""
    monkeypatch.setattr(quickwake.sim, "HORIZON_CHANGE_TIMES", 1.0)
    cfg, out = solved_run
    dest = tmp_path / "cut"
    assert main(["simulate", "--config", cfg, "--policy", str(out / "policy.csv"),
                 "--out", str(dest)]) == 0
    metrics = json.loads((dest / "metrics.json").read_text())
    assert max(int(row[2]) for row in read_csv(dest / "episodes.csv")[1:]) == 100
    run = load_config(cfg)
    episodes = quickwake.run_episodes(
        run.problem, load_policy(out / "policy.csv", run.problem), 120, run.base_seed
    )
    assert 0 < metrics["truncated"] == sum(ep.truncated for ep in episodes) < 120
    assert metrics["completed"] == 120 - metrics["truncated"]


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
    assert reloaded.actions[reloaded._continue_indices(pis)].dtype.kind == "i"


# More digits than policy.csv keeps: the open-loop map comes from report.json.
OPEN_LOOP_Q = 0.123456789012345


@pytest.mark.parametrize(
    "strategy,extra",
    [("control-m", {}), ("control-q", {}), ("open-loop", {"open_loop_q": OPEN_LOOP_Q}),
     ("fixed-m", {"fixed_m": 1})],
)
def test_load_policy_round_trip_every_strategy(tmp_path, strategy, extra):
    """The reloaded policy acts as the solved one on every continue node
    and simulates the same episodes; policy.csv holds wake probabilities
    in full."""
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
    assert reloaded.actions.dtype == solved.actions.dtype
    if solved.kind == "control_q":
        np.testing.assert_allclose(
            reloaded.actions[below], solved.actions[below], rtol=1e-12, atol=0.0
        )
    elif solved.kind == "open_loop":
        assert reloaded.actions.tolist() == solved.actions.tolist()
        assert set(reloaded.actions.tolist()) == {OPEN_LOOP_Q}
    else:
        assert reloaded.actions[below].tolist() == solved.actions[below].tolist()
    episodes = [
        list(quickwake.run_episodes(cfg.problem, policy, 200, cfg.base_seed))
        for policy in (solved, reloaded)
    ]
    assert episodes[0] == episodes[1]


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
    # Each row's delay is its solve's, written to 12 significant digits.
    problem = make_benchmark_problem()
    op = quickwake.build_expectation_operator(problem, quickwake.BeliefGrid.uniform(51))
    sweep = quickwake.sweep_open_loop_q(problem, [0.0, 0.02, 0.3], operator=op)
    assert [r[2] for r in rows[1:]] == [format(r.mean_delay, ".12g") for r in sweep.rows]
    marked = next(r for r in rows[1:] if r[3] == "1")
    assert float(marked[1]) == min(float(r[1]) for r in rows[1:])


def test_calibrate_artifact(tmp_path, monkeypatch):
    """The search reads each trial's grid P_FA; the result's policy alone
    is simulated, once."""
    runs = []
    simulate = quickwake.sim._simulate
    monkeypatch.setattr(
        quickwake.sim, "_simulate", lambda *args: runs.append(args) or simulate(*args)
    )
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
    assert doc["trials"] == len(doc["trace"]) > 2
    assert doc["trace"][-1] == [doc["lambda_f"], doc["alpha"]]
    assert doc["lambda_f"] > 0
    assert len(runs) == 1 and runs[0][2:4] == (150, 5)
    assert 0.0 <= doc["simulated_alpha"] <= 1.0 and doc["simulated_alpha_half_width"] > 0


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


def test_calibrate_exit_code_when_the_target_lies_in_a_jump(tmp_path, capsys):
    """The grid P_FA is a step function of lambda_f.  A target inside a
    jump closes the bracket on two adjacent lambda_f, whose P_FA lie on
    either side of the tolerance band."""
    cfg = write_config(
        tmp_path,
        {"calibrate.target_alpha": 0.04, "calibrate.tolerance": 1e-9,
         "calibrate.lambda_lo": 10.0, "calibrate.lambda_hi": 1000.0,
         "calibrate.max_trials": 100},
        out_dir=str(tmp_path / "x"),
    )
    assert main(["calibrate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the grid P_FA jumps across")
    a_lo, lam_lo, a_hi, lam_hi = map(
        float, re.search(r": (\S+) at (\S+), (\S+) at (\S+)$", err.strip()).groups()
    )
    assert a_lo > 0.04 + 1e-9 and a_hi < 0.04 - 1e-9
    assert math.nextafter(lam_lo, math.inf) == lam_hi
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "solver", [("MAX_ROUNDS", 1, "round cap"), ("TOLERANCE_SCALE", 1e-300, "tolerance")]
)
def test_calibrate_uses_the_solver_settings(tmp_path, capsys, monkeypatch, solver):
    # Each trial's solve takes the solver's round cap and residual check,
    # as in solve, so either, made strict enough, stops the first trial.
    name, value, fragment = solver
    monkeypatch.setattr(quickwake.dp, name, value)
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "x"))
    assert main(["calibrate", "--config", cfg]) == 2
    assert fragment in capsys.readouterr().err


def test_solve_and_calibrate_take_the_method_from_the_model(tmp_path, capsys):
    # Unequal variances have no scalar statistic, so the operator is the
    # Monte Carlo one; the report names it.
    out = tmp_path / "x"
    cfg = write_config(
        tmp_path, {"problem.sigma1": 1.2, "sim.replications": 50, "calibrate.tolerance": 0.5},
        out_dir=str(out),
    )
    for command in ("solve", "calibrate"):
        assert main([command, "--config", cfg]) == 0, capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["method"] == "monte_carlo"
    assert json.loads((out / "calibration.json").read_text())["trials"] >= 1


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


def test_figures_needs_three_sensors(tmp_path, capsys):
    # differential_cost.csv holds the marginal values of sensors 1 to 3.
    out = tmp_path / "x"
    cfg = write_config(tmp_path, {"problem.n": 2}, out_dir=str(out))
    assert main(["figures", "--config", cfg]) == 1
    assert "field problem.n must be >= 3 for figures" in capsys.readouterr().err
    assert not out.exists()


class FineFolds:
    """Counts ``ExpectationOperator.fold`` calls on a ``size``-node grid
    (the coarse level's folds are not counted): ``per_solve`` one entry
    per stationary solve a command runs, ``outside`` those made outside
    every solve."""

    def __init__(self, monkeypatch, size):
        self.per_solve, self.outside, inside = [], 0, []
        fold, solve = quickwake.dp.ExpectationOperator.fold, quickwake.dp.value_iteration

        def counted_fold(op, weights):
            if op.grid.size == size and inside:
                self.per_solve[-1] += 1
            elif op.grid.size == size:
                self.outside += 1
            return fold(op, weights)

        def counted_solve(*args, **kw):
            self.per_solve.append(0)
            inside.append(True)
            try:
                return solve(*args, **kw)
            finally:
                inside.pop()

        monkeypatch.setattr(quickwake.dp.ExpectationOperator, "fold", counted_fold)
        for module in (cli, quickwake.sim):
            monkeypatch.setattr(module, "value_iteration", counted_solve)


BENCH_CONFIG = {
    "solver.grid_size": 1001, "open_loop_q": 0.03, "fixed_m": 1,
    "sim.replications": 1000, "sim.base_seed": 20260818,
    "calibrate.target_alpha": 0.04, "calibrate.tolerance": 0.005,
    "calibrate.lambda_lo": 10.0, "calibrate.lambda_hi": 1000.0,
    "sweep.q_values": [0.0, 0.03, 0.5],
}


@pytest.mark.parametrize("strategy", ["open-loop", "fixed-m"])
def test_solve_folds_once(tmp_path, monkeypatch, strategy):
    """The policy is read from the solve's last sweep, so a single-action
    solve that continues somewhere folds the stack once, in the solve."""
    folds = FineFolds(monkeypatch, 1001)
    cfg = write_config(tmp_path, BENCH_CONFIG, out_dir=str(tmp_path / "x"))
    assert main(["solve", "--config", cfg, "--strategy", strategy]) == 0
    assert (folds.per_solve, folds.outside) == ([1], 0)


def test_calibrate_folds_only_in_trials_that_continue(tmp_path, monkeypatch):
    """One fold per open-loop trial whose policy continues somewhere (its
    P_FA at rho = 0 is below 1), and none after the search."""
    folds = FineFolds(monkeypatch, 1001)
    out = tmp_path / "x"
    cfg = write_config(tmp_path, BENCH_CONFIG, out_dir=str(out), strategy="open-loop")
    assert main(["calibrate", "--config", cfg]) == 0
    trace = json.loads((out / "calibration.json").read_text())["trace"]
    assert folds.per_solve == [int(alpha < 1.0) for _, alpha in trace]
    assert (sum(folds.per_solve), folds.outside) == (2, 0)


def test_calibrate_reads_one_policy(tmp_path, monkeypatch):
    """The trials read no policy; the result's is read once, after the
    search (the bench's calibrate config at grid 201 runs four trials)."""
    reads = []
    read = cli._policy_from_sweep
    monkeypatch.setattr(cli, "_policy_from_sweep", lambda *args: reads.append(args) or read(*args))
    out = tmp_path / "x"
    config = dict(BENCH_CONFIG, **{"solver.grid_size": 201})
    cfg = write_config(tmp_path, config, out_dir=str(out), strategy="open-loop")
    assert main(["calibrate", "--config", cfg]) == 0
    assert json.loads((out / "calibration.json").read_text())["trials"] == 4
    assert len(reads) == 1


def test_figures_folds_only_in_its_solves(tmp_path, monkeypatch):
    """fixed-m m = 1 and five of the six open-loop sweep solves continue
    somewhere (q = 0.5 with sensing cost stops everywhere), and nothing
    outside a solve folds."""
    folds = FineFolds(monkeypatch, 1001)
    cfg = write_config(tmp_path, BENCH_CONFIG, out_dir=str(tmp_path / "x"))
    assert main(["figures", "--config", cfg]) == 0
    assert max(folds.per_solve) == 1
    assert (sum(folds.per_solve), folds.outside) == (6, 0)


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
