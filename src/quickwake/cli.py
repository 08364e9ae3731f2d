"""Command-line surface: JSON config in, CSV/JSON artifacts out.

Subcommands:

* ``solve``     - stationary solve, its policy read from the solve's last
                  sweep: J.csv, policy.csv, report.json
* ``simulate``  - Monte Carlo evaluation of a solved policy:
                  episodes.csv, metrics.json (and episode 0's trace.csv with
                  --trace)
* ``sweep-q``   - fixed-q cost curve over a q grid: sweep.csv
* ``calibrate`` - search lambda_f until the solve's exact false-alarm
                  rate meets a target, then simulate the result's policy
                  once: calibration.json
* ``figures``   - the full benchmark set (differential costs, policies,
                  thresholds, sweep curves) in one invocation; needs
                  ``problem.n >= 3`` for its three differential costs

Exit codes: 0 success, 1 invalid config or mismatched inputs, 2 a solve
that fails the solver's fixed residual check or round cap, or a
``calibrate`` search that runs out of trials or finds the target inside
a jump of the grid false-alarm rate.  All outputs are deterministic
for a fixed (config, seed) pair; floats are written with a fixed
12-significant-digit format, except control_q's wake probabilities in
policy.csv and J.csv, written in full so that its policy reloads
exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .dp import (
    DEFAULT_GRID_SIZE,
    STRATEGIES,
    BeliefGrid,
    ConvergenceError,
    build_expectation_operator,
    expectation_method,
    value_iteration,
)
from .model import ChangePrior, Costs, Problem, SensorModel
from .policy import Policy, _policy_from_sweep
from .sim import (
    calibrate_lambda_f, estimate_metrics, metrics_from_episodes, run_episodes, sweep_open_loop_q,
)

SCHEMA_VERSION = 1

STRATEGY_NAMES = {s.replace("_", "-"): s for s in STRATEGIES}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


_REQUIRED = object()


def _at_least(low):
    return lambda v: v >= low, f"be >= {low}"


_POSITIVE = (lambda v: v > 0, "be > 0")


# One row per config field: (path, type, default, check).  A check is a
# (predicate, requirement) pair applied to a value the config supplies.
# A field whose default is None also takes JSON null for "use the default".
_FIELDS = (
    ("schema", int, _REQUIRED, None),
    ("strategy", str, _REQUIRED, None),
    ("open_loop_q", float, None, (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")),
    ("fixed_m", int, None, None),
    ("out_dir", str, ".", None),
    ("problem.n", int, _REQUIRED, None),
    ("problem.rho", float, _REQUIRED, None),
    ("problem.p", float, _REQUIRED, None),
    ("problem.lambda_s", float, _REQUIRED, None),
    ("problem.lambda_f", float, _REQUIRED, None),
    ("problem.mu0", float, _REQUIRED, None),
    ("problem.sigma0", float, _REQUIRED, None),
    ("problem.mu1", float, _REQUIRED, None),
    ("problem.sigma1", float, _REQUIRED, None),
    ("solver.grid_size", int, DEFAULT_GRID_SIZE, _at_least(2)),
    ("sim.replications", int, 1000, _at_least(0)),
    ("sim.base_seed", int, 0, _at_least(0)),
    ("sweep.q_values", list, None, None),
    ("calibrate.target_alpha", float, 0.04, (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")),
    ("calibrate.tolerance", float, 0.005, _POSITIVE),
    ("calibrate.lambda_lo", float, 0.1, _POSITIVE),
    ("calibrate.lambda_hi", float, 1e4, (math.isfinite, "be finite")),
    ("calibrate.max_trials", int, 40, _at_least(1)),
)
_BLOCKS = ("problem", "solver", "sim", "sweep", "calibrate")
# RunConfig attributes that are not the last part of their field's path.
_ATTRS = {"sweep.q_values": "sweep_q_values", "calibrate.tolerance": "calibrate_tolerance"}


@dataclass
class RunConfig:
    problem: Problem
    strategy: str
    grid_size: int
    replications: int
    base_seed: int
    sweep_q_values: np.ndarray | None
    open_loop_q: float | None
    fixed_m: int | None
    target_alpha: float
    calibrate_tolerance: float
    lambda_lo: float
    lambda_hi: float
    max_trials: int
    out_dir: Path


def _read_object(path: Path, what: str) -> dict:
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return doc


def _typed(value, kind, path: str):
    # bool is an int to Python but never a number in a config.
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"field {path} must be a {kind.__name__}")
    return float(value) if kind is float else value


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a run configuration document.

    ``overrides`` maps field paths (``"sim.base_seed"``) to values that
    replace the document's; they pass the same checks.  Every field is
    checked before any compute starts; unknown fields are rejected by
    name so typos cannot silently fall back to defaults.
    """
    overrides = overrides or {}
    raw = _read_object(Path(path), "config")
    blocks = {"": raw}
    for name in _BLOCKS:
        blocks[name] = raw.get(name, {})
        if not isinstance(blocks[name], dict):
            raise ConfigError(f"field {name} must be an object")
    known = {row[0] for row in _FIELDS} | set(_BLOCKS)
    for prefix, block in blocks.items():
        for key in block:
            path = f"{prefix}.{key}".lstrip(".")
            if path not in known:
                raise ConfigError(f"unknown field {path}")

    values, fields = {}, {}
    for path, kind, default, check in _FIELDS:
        prefix, _, key = path.rpartition(".")
        block = blocks[prefix]
        value = overrides[path] if path in overrides else block.get(key)
        if value is None and (default is None or key not in block):
            if default is _REQUIRED:
                raise ConfigError(f"missing field {path}")
            value = default
        else:
            value = _typed(value, kind, path)
            if check is not None and not check[0](value):
                raise ConfigError(f"field {path} must {check[1]}, got {value}")
        if prefix == "problem":
            fields[key] = value
        else:
            values[_ATTRS.get(path, key)] = value

    schema = values.pop("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"field schema must be {SCHEMA_VERSION}, got {schema}")
    try:
        problem = Problem(
            model=SensorModel(fields["mu0"], fields["sigma0"], fields["mu1"], fields["sigma1"]),
            prior=ChangePrior(rho=fields["rho"], p=fields["p"]),
            costs=Costs(lambda_s=fields["lambda_s"], lambda_f=fields["lambda_f"]),
            n=fields["n"],
        )
    except ValueError as exc:
        raise ConfigError(f"invalid problem block: {exc}") from exc
    strategy = values["strategy"]
    if strategy not in STRATEGY_NAMES:
        raise ConfigError(
            f"field strategy must be one of {sorted(STRATEGY_NAMES)}, got {strategy!r}"
        )
    values["strategy"] = STRATEGY_NAMES[strategy]
    if values["sweep_q_values"] is not None:
        q_values = np.array([_typed(v, float, "sweep.q_values") for v in values["sweep_q_values"]])
        if q_values.size == 0 or not np.all((q_values >= 0) & (q_values <= 1)):
            raise ConfigError("field sweep.q_values must be nonempty values in [0, 1]")
        values["sweep_q_values"] = q_values
    if not values["lambda_lo"] < values["lambda_hi"]:
        raise ConfigError(
            f"field calibrate.lambda_hi must be > calibrate.lambda_lo, "
            f"got {values['lambda_hi']} <= {values['lambda_lo']}"
        )
    fixed_m = values["fixed_m"]
    if fixed_m is not None and not 0 <= fixed_m <= problem.n:
        raise ConfigError(f"field fixed_m must lie in 0..{problem.n}, got {fixed_m}")
    needs = {"open_loop": "open_loop_q", "fixed_m": "fixed_m"}.get(values["strategy"])
    if needs is not None and values[needs] is None:
        raise ConfigError(f"missing field {needs} (required for strategy {strategy})")
    values["out_dir"] = Path(values["out_dir"])
    return RunConfig(problem=problem, **values)


def _write_csv(path: Path, header: list, rows) -> None:
    """One header row, then ``rows`` with every float to 12 significant digits."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([format(x, ".12g") if isinstance(x, float) else x for x in row] for row in rows)


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _policy_rows(policy: Policy):
    """Per-node (pi, action, m_or_q); m_or_q is empty on stop rows.
    control_q's wake probabilities are written in full (``repr``), so
    they reload exactly; every other action is a count or the config's q."""
    full = policy.kind == "control_q"
    for pi, action in zip(policy.grid.points, policy.actions.tolist()):
        if pi >= policy.gamma:
            yield pi, "stop", ""
        else:
            yield pi, "continue", repr(action) if full else action


def _write_policy(path: Path, policy: Policy) -> None:
    _write_csv(path, ["pi", "action", "m_or_q"], _policy_rows(policy))


def _operator(cfg: RunConfig):
    return build_expectation_operator(cfg.problem, BeliefGrid.uniform(cfg.grid_size))


def _solve(cfg: RunConfig, operator):
    """Solve ``cfg.strategy`` on ``operator`` and read its policy from
    ``J.last_sweep``, with no second sweep or fold."""
    J, report = value_iteration(
        cfg.problem, cfg.strategy, q=cfg.open_loop_q, fixed_m=cfg.fixed_m, operator=operator
    )
    return J, report, _policy_from_sweep(J.last_sweep, J.grid, cfg.problem, cfg.strategy)


def cmd_solve(cfg: RunConfig) -> int:
    start = time.perf_counter()
    operator = _operator(cfg)
    build_seconds = time.perf_counter() - start
    J, report, policy = _solve(cfg, operator)
    out = cfg.out_dir
    _write_csv(
        out / "J.csv", ["pi", "J", "action_kind", "m_or_q"],
        ((pi, v, action, m_or_q)
         for (pi, action, m_or_q), v in zip(_policy_rows(policy), J.values)),
    )
    _write_policy(out / "policy.csv", policy)
    doc = {
        "schema": SCHEMA_VERSION,
        "strategy": cfg.strategy,
        "gamma": policy.gamma,
        "value_at_start": float(J(cfg.problem.prior.rho)),
        "iterations": report.iterations,
        "coarse_iterations": report.coarse_iterations,
        "factorizations": report.factorizations,
        "bellman_residual": report.bellman_residual,
        "p_false_alarm": report.p_false_alarm,
        "mean_delay": report.mean_delay,
        "mean_sensor_slots": report.mean_sensor_slots,
        "wall_seconds": report.wall_seconds,
        "operator_build_seconds": build_seconds,
        "grid_size": report.grid_size,
        "tolerance": report.tolerance,
        "method": expectation_method(cfg.problem),
        "problem_key": cfg.problem.key(),
        "problem": cfg.problem.fields(),
    }
    if cfg.strategy == "open_loop":
        doc["open_loop_q"] = cfg.open_loop_q
    if cfg.strategy == "fixed_m":
        doc["fixed_m"] = cfg.fixed_m
    if cfg.strategy == "control_m":
        doc["awake_rule_mismatches"] = policy.awake_rule_mismatches
    _write_json(out / "report.json", doc)
    print(
        f"built operator in {build_seconds:.3g} s; solved {cfg.strategy} in "
        f"{report.iterations} rounds after {report.coarse_iterations} coarse rounds "
        f"(residual {report.bellman_residual:.3g}, LU factorizations: {report.factorizations}); "
        f"gamma = {policy.gamma:.6f}, "
        f"J({cfg.problem.prior.rho:g}) = {J(cfg.problem.prior.rho):.6f} "
        f"(P_FA {report.p_false_alarm:.6f}, delay {report.mean_delay:.6f}, "
        f"sensor-slots {report.mean_sensor_slots:.6f})"
    )
    return 0


def load_policy(policy_path, problem: Problem) -> Policy:
    """Rebuild a Policy from policy.csv plus its sibling report.json.

    The report carries the refined threshold, the strategy kind, the
    problem fingerprint and an open-loop policy's wake probability; the
    CSV carries every other kind's action map.  The open-loop map is
    filled from the report, because the CSV's 12 digits do not always
    reproduce the configured ``open_loop_q``.

    Raises:
        ConfigError: On a missing or malformed report, an unreadable
            policy file, nodes or actions that do not make a valid policy
            (a non-number, a fractional awake count, a wake probability
            outside [0, 1]) or a problem-fingerprint mismatch (the policy
            was solved for a different instance).
    """
    policy_path = Path(policy_path)
    report_path = policy_path.parent / "report.json"
    report = _read_object(report_path, str(report_path))
    for name in ("strategy", "gamma", "problem_key"):
        if name not in report:
            raise ConfigError(f"missing field {name} in {report_path}")
    if report["problem_key"] != problem.key():
        raise ConfigError(
            "policy was solved for a different problem (fingerprint mismatch); "
            "re-run solve with this config"
        )
    kind = report["strategy"]
    if kind not in STRATEGIES:
        raise ConfigError(
            f"field strategy in {report_path} must be one of {STRATEGIES}, got {kind!r}"
        )
    gamma = _typed(report["gamma"], float, f"gamma in {report_path}")
    if kind == "open_loop":
        if report.get("open_loop_q") is None:
            raise ConfigError(f"missing field open_loop_q in {report_path}")
        q = _typed(report["open_loop_q"], float, f"open_loop_q in {report_path}")
    try:
        with open(policy_path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != ["pi", "action", "m_or_q"]:
                raise ConfigError(f"{policy_path.name} must have columns pi,action,m_or_q")
            rows = [(row["pi"], row["m_or_q"]) for row in reader]
    except OSError as exc:
        raise ConfigError(f"cannot read {policy_path}: {exc}") from exc
    try:
        pis = np.array([float(pi) for pi, _ in rows])
        actions = np.array([float(v) if v else 0.0 for _, v in rows])  # empty on stop rows
        if kind == "open_loop":
            actions = np.full(actions.size, q)
        return Policy(kind=kind, gamma=gamma, grid=BeliefGrid(pis), n=problem.n, actions=actions)
    except ValueError as exc:
        raise ConfigError(f"invalid policy in {policy_path}: {exc}") from exc


def cmd_simulate(cfg: RunConfig, policy_path, trace: bool) -> int:
    policy = load_policy(policy_path, cfg.problem)
    out = cfg.out_dir
    episodes = list(run_episodes(cfg.problem, policy, cfg.replications, cfg.base_seed))
    metrics = metrics_from_episodes(episodes)
    _write_csv(
        out / "episodes.csv", ["episode", "T", "tau", "delay", "false_alarm", "obs_cost"],
        ([ep.episode, ep.change_time, ep.stop_time, ep.delay, int(ep.false_alarm), ep.obs_cost]
         for ep in episodes),
    )
    _write_json(out / "metrics.json", {
        "schema": SCHEMA_VERSION,
        **asdict(metrics),
        "base_seed": cfg.base_seed,
        "problem_key": cfg.problem.key(),
    })
    if trace:
        _write_csv(out / "trace.csv", ["k", "pi", "m"], episodes[0].trace)
    print(
        f"simulated {metrics.completed}/{metrics.replications} episodes: "
        f"cost {metrics.mean_total_cost:.4f} +- {metrics.total_cost_half_width:.4f}, "
        f"P_FA {metrics.prob_false_alarm:.4f}, E[(tau-T)+] {metrics.mean_delay:.4f}"
    )
    return 0


def cmd_sweep_q(cfg: RunConfig) -> int:
    q_values = cfg.sweep_q_values
    if q_values is None:
        q_values = np.linspace(0.0, 1.0, 101)
    operator = _operator(cfg)
    result = sweep_open_loop_q(cfg.problem, q_values, operator=operator)
    _write_csv(
        cfg.out_dir / "sweep.csv", ["q", "value_at_start", "mean_delay", "is_argmin"],
        ([row.q, row.value_at_start, row.mean_delay, int(i == result.argmin_index)]
         for i, row in enumerate(result.rows)),
    )
    best = result.rows[result.argmin_index]
    print(f"swept {len(result.rows)} q values: min J = {best.value_at_start:.4f} at q = {best.q:g}")
    return 0


def cmd_calibrate(cfg: RunConfig) -> int:
    """Search lambda_f on the solve's P_FA, then simulate the result's
    policy once, with ``sim.replications`` and ``sim.base_seed``.  The
    trials read no policy; the result's is read once from its
    ``last_sweep``, so nothing is folded after the search."""
    operator = _operator(cfg)
    result = calibrate_lambda_f(
        cfg.problem,
        lambda trial: value_iteration(
            trial, cfg.strategy, q=cfg.open_loop_q, fixed_m=cfg.fixed_m, operator=operator
        ),
        cfg.target_alpha, cfg.calibrate_tolerance,
        lambda_lo=cfg.lambda_lo, lambda_hi=cfg.lambda_hi, max_trials=cfg.max_trials,
    )
    J = result.value_function
    problem = replace(cfg.problem, costs=replace(cfg.problem.costs, lambda_f=result.lambda_f))
    policy = _policy_from_sweep(J.last_sweep, J.grid, problem, cfg.strategy)
    metrics = estimate_metrics(problem, policy, cfg.replications, cfg.base_seed)
    _write_json(cfg.out_dir / "calibration.json", {
        "schema": SCHEMA_VERSION,
        "strategy": cfg.strategy,
        "target_alpha": cfg.target_alpha,
        "tolerance": cfg.calibrate_tolerance,
        "lambda_f": result.lambda_f,
        "alpha": result.alpha,
        "simulated_alpha": metrics.prob_false_alarm,
        "simulated_alpha_half_width": metrics.false_alarm_half_width,
        "trials": result.trials,
        "trace": [[lam, alpha] for lam, alpha in result.trace],
        "problem_key": cfg.problem.key(),
    })
    print(
        f"calibrated lambda_f = {result.lambda_f:.4f} "
        f"(grid P_FA {result.alpha:.4f} vs target {cfg.target_alpha}) in {result.trials} "
        f"trials; simulated P_FA {metrics.prob_false_alarm:.4f} "
        f"+- {metrics.false_alarm_half_width:.4f}"
    )
    return 0


def cmd_figures(cfg: RunConfig) -> int:
    """Solve the whole benchmark set and dump every curve as CSV."""
    out = cfg.out_dir
    operator = _operator(cfg)
    grid = operator.grid
    problem = cfg.problem

    Jm, _, pol_m = _solve(replace(cfg, strategy="control_m"), operator)
    B = Jm.last_sweep.expected_next
    _write_csv(
        out / "differential_cost.csv", ["pi", "d1", "d2", "d3"],
        ([pi] + [B[m - 1, i] - B[m, i] for m in (1, 2, 3)] for i, pi in enumerate(grid.points)),
    )
    _write_policy(out / "awake_policy.csv", pol_m)

    Jq, _, pol_q = _solve(replace(cfg, strategy="control_q"), operator)
    _write_csv(out / "value_control_q.csv", ["pi", "J"], zip(grid.points, Jq.values))
    _write_policy(out / "wake_prob_policy.csv", pol_q)

    thresholds = []
    for m in (1, 2, 3):
        Jf, _, pf = _solve(replace(cfg, strategy="fixed_m", fixed_m=m), operator)
        thresholds.append([m, pf.gamma, Jf(problem.prior.rho)])
    _write_csv(out / "fixed_awake_thresholds.csv", ["m", "gamma", "value_at_start"], thresholds)

    q_values = cfg.sweep_q_values
    if q_values is None:
        q_values = np.linspace(0.0, 1.0, 41)
    zero_s = replace(problem, costs=replace(problem.costs, lambda_s=0.0))
    curve, curve0 = (sweep_open_loop_q(pr, q_values, operator=operator) for pr in (problem, zero_s))
    _write_csv(
        out / "open_loop_sweep.csv",
        ["q", "value_sensing_cost", "value_free_sensing", "is_argmin"],
        ([a.q, a.value_at_start, b.value_at_start, int(i == curve.argmin_index)]
         for i, (a, b) in enumerate(zip(curve.rows, curve0.rows))),
    )
    print(f"wrote benchmark figure data to {out} (control_m gamma = {pol_m.gamma:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quickwake",
        description="Quickest change detection with sensor sleep-wake scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a run config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="override sim.base_seed")
        p.add_argument(
            "--strategy", default=None, choices=sorted(STRATEGY_NAMES),
            help="override the config strategy",
        )

    common(sub.add_parser("solve", help="stationary solve + policy extraction"))
    p_sim = sub.add_parser("simulate", help="Monte Carlo evaluation of a solved policy")
    common(p_sim)
    p_sim.add_argument("--policy", required=True, help="path to a policy.csv from solve")
    p_sim.add_argument("--trace", action="store_true", help="write the trace of episode 0")
    common(sub.add_parser("sweep-q", help="fixed-q cost curve"))
    p_cal = sub.add_parser(
        "calibrate", help="search lambda_f to a target grid P_FA, then simulate once"
    )
    common(p_cal)
    p_cal.add_argument("--target-alpha", type=float, default=None,
                       help="override calibrate.target_alpha")
    common(sub.add_parser("figures", help="run the full benchmark configuration set"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "strategy": args.strategy,
        "sim.base_seed": args.seed,
        "out_dir": args.out,
        "calibrate.target_alpha": getattr(args, "target_alpha", None),
    }
    try:
        cfg = load_config(args.config, {k: v for k, v in overrides.items() if v is not None})
        if args.command in ("simulate", "calibrate") and cfg.replications < 1:
            raise ConfigError(f"field sim.replications must be >= 1 for {args.command}")
        if args.command == "figures" and cfg.problem.n < 3:
            raise ConfigError("field problem.n must be >= 3 for figures")
        if args.command == "simulate":
            return cmd_simulate(cfg, args.policy, args.trace)
        commands = {
            "solve": cmd_solve, "sweep-q": cmd_sweep_q,
            "calibrate": cmd_calibrate, "figures": cmd_figures,
        }
        return commands[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
