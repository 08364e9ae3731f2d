"""The benchmark's three workloads, their correctness gates and metrics.

Every workload runs the reference instance of the paper (``n=10,
p=0.01, lambda_s=0.5, lambda_f=100, N(0,1)->N(1,1)``, grid 1001), or its
``sigma1=1.2`` variant, through the public functions of
``quickwake.dp``, ``quickwake.policy``, ``quickwake.sim`` and
``quickwake.cli``.  Each call into a layer goes through ``Run.call``,
which counts it as an operation and wraps it in a span.

Why each workload exists, and which layer it is meant to stress, is in
BENCHMARK.json and NOTES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import sparse

from quickwake import (
    BeliefGrid,
    ChangePrior,
    Costs,
    DiscreteInstance,
    Problem,
    SensorModel,
    bellman_maps,
    brute_force_value,
    build_expectation_operator,
    extract_policy,
    likelihood_atoms,
    metrics_from_episodes,
    operator_from_atoms,
    run_episodes,
    solve_finite_horizon,
    value_iteration,
)
from quickwake import cli

from tracing import Tracer

GRID_SIZE = 1001
OPEN_LOOP_Q = 0.03
UNEQUAL_SIGMA1 = 1.2
SWEEP_Q_VALUES = [round(0.025 * i, 6) for i in range(41)]
CALIBRATE = {
    "target_alpha": 0.04, "tolerance": 0.005,
    "lambda_lo": 10.0, "lambda_hi": 1000.0, "max_trials": 40,
}
CALIBRATE_REPLICATIONS = 1000
# Calibration bisects on simulated P_FA, so its trial count (4 to 7 on
# the reference instance) depends on the episode stream.  The workload
# fixes that stream so every run does the same trials; see NOTES.md.
CALIBRATE_BASE_SEED = 20260818
UNEQUAL_EPISODES = 1024
SETUP_REPEATS = 3
ORACLE_INSTANCES = 5
ORACLE_GRID_SIZE = 10_001
ORACLE_TOLERANCE = 1e-4
# value_error is reported no lower than this: the 3000-sweep references
# are themselves only accurate to about 1e-11, and a relative bound on a
# number near round-off would flag noise as a regression.
VALUE_ERROR_FLOOR = 1e-6

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def reference_problem(sigma1: float = 1.0) -> Problem:
    return Problem(
        model=SensorModel(mu0=0.0, sigma0=1.0, mu1=1.0, sigma1=sigma1),
        prior=ChangePrior(rho=0.0, p=0.01),
        costs=Costs(lambda_s=0.5, lambda_f=100.0),
        n=10,
    )


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# Run bookkeeping


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str


@dataclass
class Run:
    """State shared by one benchmark run: seed, tracer, tallies, gates."""

    seed: int
    seconds: float
    tracer: Tracer
    reference: dict
    workdir: Path
    attempted: int = 0
    failed: int = 0
    gates: list = field(default_factory=list)

    def call(self, layer: str, label: str, fn: Callable, *args, count=None, **kw):
        """Run one layer call as a counted operation inside a span.

        ``count`` maps the result to the span's work counts; it runs
        after the span closes so its cost is not charged to the layer.
        """
        self.attempted += 1
        try:
            with self.tracer.span(layer, label) as counts:
                result = fn(*args, **kw)
        except Exception:
            self.failed += 1
            raise
        if count is not None and self.tracer.enabled:
            counts.update(count(result))
        return result

    def gate(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.gates.append(Gate(name, bool(ok), detail))


# ---------------------------------------------------------------------------
# Shared steps and gates


def array_bytes(obj) -> int:
    """Bytes held by numpy arrays and sparse matrices reachable from ``obj``.

    Walks attributes, lists and tuples rather than naming private fields,
    so the count keeps working when the operator's storage changes.
    """
    seen: set = set()

    def walk(x) -> int:
        if id(x) in seen:
            return 0
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            return x.nbytes
        if sparse.issparse(x):
            return sum(walk(getattr(x, a)) for a in ("data", "indices", "indptr", "row", "col")
                       if hasattr(x, a))
        if isinstance(x, (list, tuple)):
            return sum(walk(v) for v in x)
        if hasattr(x, "__dict__") and not isinstance(x, type):
            return sum(walk(v) for v in vars(x).values())
        return 0

    return walk(obj)


def build_operator(run: Run, problem: Problem, grid: BeliefGrid, method: str):
    return run.call(
        "dp.operator", method, build_expectation_operator, problem, grid, method,
        count=lambda op: {"bytes": array_bytes(op)},
    )


def solve(run: Run, problem, grid, operator, strategy: str, **kw):
    """value_iteration then extract_policy, each in its own span.

    A control_m or control_q sweep applies every awake count's matrix,
    so its computed bytes per sweep are the operator's bytes.
    """
    J, report = run.call(
        "dp.bellman", strategy, value_iteration, problem, strategy, grid,
        operator=operator, **kw,
        count=lambda r: {"sweeps": r[1].iterations, "bytes_per_sweep": array_bytes(operator)},
    )
    policy = run.call(
        "policy", strategy, extract_policy, J, problem, strategy, operator=operator, **kw,
        count=lambda p: {"awake_rule_mismatches": p.awake_rule_mismatches},
    )
    return J, policy


def simulate(run: Run, problem, policy, label: str, episodes: int):
    """run_episodes consumed to a list, then metrics_from_episodes."""
    lam_s = problem.costs.lambda_s

    def episode_counts(eps) -> dict:
        return {
            "episodes": len(eps),
            "slots": sum(e.stop_time for e in eps),
            "sensor_slots": round(sum(e.obs_cost for e in eps) / lam_s),
            "truncated": sum(e.truncated for e in eps),
        }

    eps = run.call(
        "sim", label,
        lambda: list(run_episodes(problem, policy, episodes, run.seed)),
        count=episode_counts,
    )
    return run.call("sim.metrics", label, metrics_from_episodes, eps)


def residual(run: Run, J, problem, operator, strategy: str = "control_m") -> None:
    """One bellman_maps call; its span carries ||TJ - J||_inf."""
    run.call(
        "dp.bellman.maps", strategy, bellman_maps, J, problem, strategy, operator=operator,
        count=lambda maps: {"residual": float(np.max(np.abs(maps.new_values - J.values)))},
    )


def gate_reference(run: Run, key: str, J, policy, rho: float) -> float:
    """gamma and J(rho) against a stored fixed point; returns |J - J_ref|."""
    ref = run.reference[key]
    err = abs(float(J(rho)) - ref["value_at_start"])
    gap = abs(policy.gamma - ref["gamma"])
    run.gate(
        f"{key}.value", err <= ref["value_tolerance"],
        f"|J(rho) - J_ref| = {err:.3e} vs {ref['value_tolerance']:g}",
    )
    run.gate(
        f"{key}.gamma", gap <= ref["gamma_tolerance"],
        f"|gamma - gamma_ref| = {gap:.3e} vs {ref['gamma_tolerance']:g}",
    )
    return err


def gate_simulation(run: Run, name: str, metrics, dp_value: float) -> None:
    """Criterion 9's rule: |mean cost - J(rho)| <= 3 se + 0.02 J(rho)."""
    se = metrics.total_cost_half_width / 1.96
    tol = 3.0 * se + 0.02 * dp_value
    gap = abs(metrics.mean_total_cost - dp_value)
    run.gate(
        f"{name}.sim_vs_dp", gap <= tol and metrics.truncated == 0,
        f"|{metrics.mean_total_cost:.3f} - {dp_value:.3f}| = {gap:.3f} vs {tol:.3f}, "
        f"{metrics.truncated} truncated",
    )


def gate_oracle(run: Run) -> None:
    """Reduced criterion 8: finite-horizon grid DP against enumeration.

    Instances are drawn from the run seed over criterion 8's ranges.
    """
    rng = np.random.default_rng(run.seed)
    grid = BeliefGrid.uniform(ORACLE_GRID_SIZE)
    worst = 0.0
    for _ in range(ORACLE_INSTANCES):
        a = float(rng.uniform(0.15, 0.85))
        shift = float(rng.uniform(0.1, 0.5)) * (1 if a < 0.5 else -1)
        b = min(max(a + shift, 0.05), 0.95)
        inst = DiscreteInstance(
            horizon=int(rng.integers(1, 4)), n=int(rng.integers(1, 3)),
            g0=(a, 1.0 - a), g1=(b, 1.0 - b),
            rho=float(rng.uniform(0.0, 0.3)), p=float(rng.uniform(0.05, 0.5)),
            lambda_s=float(rng.uniform(0.05, 0.5)), lambda_f=float(rng.uniform(2.0, 20.0)),
        )
        pi0 = float(rng.uniform(0.0, 0.9))
        op = run.call("dp.operator", "oracle", operator_from_atoms,
                      likelihood_atoms(inst), grid, inst.p)
        prob = Problem(
            model=SensorModel(0.0, 1.0, 1.0, 1.0),  # placeholder; the atoms drive the DP
            prior=ChangePrior(inst.rho, inst.p),
            costs=Costs(inst.lambda_s, inst.lambda_f), n=inst.n,
        )
        J = run.call("dp.bellman", "oracle", solve_finite_horizon, prob, inst.horizon,
                     "control_m", grid, operator=op)
        truth = run.call("oracle", "brute_force", brute_force_value, inst, pi0)
        worst = max(worst, abs(float(J(pi0)) - truth))
    run.gate(
        "oracle.criterion_8", worst <= ORACLE_TOLERANCE,
        f"worst |grid DP - enumeration| {worst:.2e} vs {ORACLE_TOLERANCE:g} "
        f"over {ORACLE_INSTANCES} instances",
    )


# ---------------------------------------------------------------------------
# Workloads: setup(run) -> state; timed(run, state) is one pass;
# check(run, state) -> value_error runs the gates after the timed phase.


def setup_grid(run: Run, sigma1: float = 1.0) -> dict:
    return {"problem": reference_problem(sigma1), "grid": BeliefGrid.uniform(GRID_SIZE)}


def solve_reference_timed(run: Run, st: dict) -> None:
    problem, grid = st["problem"], st["grid"]
    st["operator"] = build_operator(run, problem, grid, "exact")
    for strategy in ("control_m", "control_q"):
        st[strategy] = solve(run, problem, grid, st["operator"], strategy)


def solve_reference_check(run: Run, st: dict) -> float:
    rho = st["problem"].prior.rho
    err = gate_reference(run, "control_m", *st["control_m"], rho)
    gate_reference(run, "control_q", *st["control_q"], rho)
    residual(run, st["control_m"][0], st["problem"], st["operator"])
    gate_oracle(run)
    return err


def _problem_block(problem: Problem) -> dict:
    m, pr, c = problem.model, problem.prior, problem.costs
    return {
        "n": problem.n, "rho": pr.rho, "p": pr.p, "lambda_s": c.lambda_s,
        "lambda_f": c.lambda_f, "mu0": m.mu0, "sigma0": m.sigma0, "mu1": m.mu1,
        "sigma1": m.sigma1,
    }


def sweep_calibrate_setup(run: Run) -> dict:
    base = run.workdir / "sweep-calibrate"
    base.mkdir(parents=True, exist_ok=True)
    common = {
        "schema": 1,
        "problem": _problem_block(reference_problem()),
        "solver": {"grid_size": GRID_SIZE},
        "open_loop_q": OPEN_LOOP_Q,
    }
    sweep_cfg = dict(common, strategy="open-loop", sweep={"q_values": SWEEP_Q_VALUES},
                     sim={"replications": 0, "base_seed": run.seed})
    cal_cfg = dict(common, strategy="open-loop", calibrate=CALIBRATE,
                   sim={"replications": CALIBRATE_REPLICATIONS,
                        "base_seed": CALIBRATE_BASE_SEED})
    (base / "sweep.json").write_text(json.dumps(sweep_cfg))
    (base / "calibrate.json").write_text(json.dumps(cal_cfg))
    return {"base": base}


def _calibration_trials(out: Path) -> dict:
    doc = json.loads((out / "calibration.json").read_text())
    return {"trials": doc["trials"]}


def _cli(run: Run, command: str, config: Path, out: Path, count=None) -> None:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = run.call("cli", command, cli.main,
                        [command, "--config", str(config), "--out", str(out)],
                        count=count)
    if code != 0:
        raise RuntimeError(f"quickwake {command} exited {code}: {captured.getvalue()}")


def sweep_calibrate_timed(run: Run, st: dict) -> None:
    base = st["base"]
    _cli(run, "sweep-q", base / "sweep.json", base / "sweep-out")
    out = base / "calibrate-out"
    _cli(run, "calibrate", base / "calibrate.json", out,
         count=lambda code: _calibration_trials(out))


def sweep_calibrate_check(run: Run, st: dict) -> float:
    base = st["base"]
    with open(base / "sweep-out" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    best = [r for r in rows if r["is_argmin"] == "1"]
    ref = run.reference["sweep"]
    q_star = float(best[0]["q"]) if len(best) == 1 else math.nan
    run.gate("sweep.rows", len(rows) == len(SWEEP_Q_VALUES),
             f"{len(rows)} rows vs {len(SWEEP_Q_VALUES)} q values")
    run.gate("sweep.argmin_q", q_star == ref["argmin_q"],
             f"argmin q {q_star} vs stored {ref['argmin_q']}")
    err = abs(float(best[0]["value_at_start"]) - ref["value_at_start"]) if best else math.inf
    run.gate("sweep.value", err <= ref["value_tolerance"],
             f"|J(q*) - J_ref(q*)| = {err:.3e} vs {ref['value_tolerance']:g}")
    doc = json.loads((base / "calibrate-out" / "calibration.json").read_text())
    gap = abs(doc["alpha"] - doc["target_alpha"])
    run.gate("calibrate.tolerance", gap <= doc["tolerance"],
             f"|P_FA - target| = {gap:.4f} vs {doc['tolerance']} "
             f"after {doc['trials']} trials (lambda_f {doc['lambda_f']:.3f})")
    return err


def unequal_variance_timed(run: Run, st: dict) -> None:
    problem, grid = st["problem"], st["grid"]
    st["operator"] = build_operator(run, problem, grid, "monte_carlo")
    st["control_m"] = solve(run, problem, grid, st["operator"], "control_m")
    st["metrics.control_m"] = simulate(
        run, problem, st["control_m"][1], "control_m", UNEQUAL_EPISODES
    )


def unequal_variance_check(run: Run, st: dict) -> float:
    rho = st["problem"].prior.rho
    J, policy = st["control_m"]
    err = gate_reference(run, "unequal_variance.control_m", J, policy, rho)
    gate_simulation(run, "unequal_variance.control_m", st["metrics.control_m"],
                    float(J(rho)))
    residual(run, J, st["problem"], st["operator"])
    return err


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    timed: Callable
    check: Callable
    moves: dict  # per-layer metric prefix -> end-to-end metric it should move here

    def moved_by(self, metric: str) -> str | None:
        """End-to-end metric the per-layer ``metric`` should move here, if any."""
        for prefix in sorted(self.moves, key=len, reverse=True):
            if metric == prefix or metric.startswith(prefix + ".") or metric.startswith(prefix + "_"):
                return self.moves[prefix]
        return None


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "solve-reference",
            setup_grid, solve_reference_timed, solve_reference_check,
            {"dp.operator": "wall_s", "dp.bellman": "wall_s",
             "dp.bellman.control_q": "wall_s (largest share)", "dp.bellman.residual": "value_error",
             "policy": "none (under 0.1% of wall_s)", "bench.setup": "setup_s",
             "bench.timed": "wall_s (harness share)"},
        ),
        Workload(
            "sweep-calibrate",
            sweep_calibrate_setup, sweep_calibrate_timed, sweep_calibrate_check,
            {"cli": "wall_s",
             "bench.setup": "setup_s", "bench.timed": "wall_s (harness share)"},
        ),
        Workload(
            "unequal-variance",
            lambda run: setup_grid(run, UNEQUAL_SIGMA1), unequal_variance_timed,
            unequal_variance_check,
            {"dp.operator": "wall_s", "dp.bellman": "wall_s",
             "dp.bellman.residual": "value_error", "sim": "wall_s (about 5%)",
             "policy": "none (under 0.1% of wall_s)", "bench.setup": "setup_s",
             "bench.timed": "wall_s (harness share)"},
        ),
    )
}


# ---------------------------------------------------------------------------
# Metrics

LAYERS = ("dp.operator", "dp.bellman", "policy", "sim", "cli")


def _sim_metrics(tr: Tracer, label: str) -> dict:
    run_s = tr.median_duration("sim", label)
    c = tr.first_counts("sim", label)
    episodes = c.get("episodes", 0)
    slots = c.get("slots", 0)
    return {
        f"sim.{label}.run_s": run_s,
        f"sim.{label}.episodes": episodes,
        f"sim.{label}.slots": slots,
        f"sim.{label}.sensor_slots": c.get("sensor_slots", 0),
        f"sim.{label}.slots_per_s": slots / run_s if run_s else 0.0,
        f"sim.{label}.episodes_per_s": episodes / run_s if run_s else 0.0,
        f"sim.{label}.truncated_fraction": c.get("truncated", 0) / episodes if episodes else 0.0,
    }


def _bellman_metrics(tr: Tracer, strategy: str) -> dict:
    solve_s = tr.median_duration("dp.bellman", strategy)
    c = tr.first_counts("dp.bellman", strategy)
    sweeps = c.get("sweeps", 0)
    per_sweep = c.get("bytes_per_sweep", 0)
    sweep_s = solve_s / sweeps if sweeps else 0.0
    return {
        f"dp.bellman.{strategy}.solve_s": solve_s,
        f"dp.bellman.{strategy}.sweeps": sweeps,
        f"dp.bellman.{strategy}.sweep_ms": 1e3 * sweep_s,
        f"dp.bellman.{strategy}.bytes_per_sweep": per_sweep,
        f"dp.bellman.{strategy}.gbytes_per_s": per_sweep / sweep_s / 1e9 if sweep_s else 0.0,
    }


def _self_per_pass(tr: Tracer) -> dict:
    """Each layer's self time per timed pass, from the spans inside passes.

    Together with ``bench.timed.self_s`` these account for a pass.
    """
    own = tr.self_times()
    passes = set(tr.select("bench.timed"))
    totals = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(tr.spans):
        if s.parent in passes:
            layer = next(l for l in LAYERS if s.name == l or s.name.startswith(l + "."))
            totals[layer] += own[i]
    return {f"{l}.self_s": t / len(passes) if passes else 0.0 for l, t in totals.items()}


def _layer_units() -> dict:
    """Unit and better direction of every per-layer metric, in report order."""
    units = {
        "dp.operator.build_s": ("s", "lower"),
        "dp.operator.bytes": ("B-computed", "lower"),
    }
    for s in ("control_m", "control_q"):
        units.update({
            f"dp.bellman.{s}.solve_s": ("s", "lower"),
            f"dp.bellman.{s}.sweeps": ("count", "lower"),
            f"dp.bellman.{s}.sweep_ms": ("ms", "lower"),
            f"dp.bellman.{s}.bytes_per_sweep": ("B-computed", "lower"),
            f"dp.bellman.{s}.gbytes_per_s": ("GB/s", "higher"),
        })
    units.update({
        "dp.bellman.residual": ("cost", "lower"),
        "policy.extract_s": ("s", "lower"),
        "policy.awake_rule_mismatches": ("count", "lower"),
    })
    units.update({
        "sim.control_m.run_s": ("s", "lower"),
        "sim.control_m.episodes": ("count", "higher"),
        "sim.control_m.slots": ("count", "lower"),
        "sim.control_m.sensor_slots": ("count", "lower"),
        "sim.control_m.slots_per_s": ("1/s", "higher"),
        "sim.control_m.episodes_per_s": ("1/s", "higher"),
        "sim.control_m.truncated_fraction": ("ratio", "lower"),
    })
    units.update({
        "sim.metrics_s": ("s", "lower"),
        "cli.sweep_q_s": ("s", "lower"),
        "cli.sweep_q.per_q_ms": ("ms", "lower"),
        "cli.calibrate_s": ("s", "lower"),
        "cli.calibrate.trials": ("count", "lower"),
        **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
        "bench.setup.self_s": ("s", "lower"),
        "bench.timed.self_s": ("s", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace.spans": ("count", "lower"),
        "trace.overhead_s": ("s", "lower"),
    })
    return units


LAYER_UNITS = _layer_units()


def layer_metrics(tr: Tracer, cost_per_span: float) -> dict:
    """Every per-layer metric from the spans of one traced run.

    Times are medians over the spans of a layer and label (a workload
    may repeat its setup and its timed pass); a layer that did not run
    in this workload reports 0.
    """
    main_builds = [i for i in tr.select("dp.operator") if tr.spans[i].label != "oracle"]
    build_s = statistics.median(tr.spans[i].duration for i in main_builds) if main_builds else 0.0
    op_bytes = tr.spans[main_builds[0]].counts.get("bytes", 0) if main_builds else 0
    sweep_s = tr.median_duration("cli", "sweep-q")
    out = {
        "dp.operator.build_s": build_s,
        "dp.operator.bytes": op_bytes,
        "dp.bellman.residual": tr.first_counts("dp.bellman.maps").get("residual", 0.0),
        "policy.extract_s": tr.median_duration("policy"),
        "policy.awake_rule_mismatches": tr.first_counts("policy", "control_m").get(
            "awake_rule_mismatches", 0),
        "sim.metrics_s": tr.median_duration("sim.metrics"),
        "cli.sweep_q_s": sweep_s,
        "cli.sweep_q.per_q_ms": 1e3 * sweep_s / len(SWEEP_Q_VALUES),
        "cli.calibrate_s": tr.median_duration("cli", "calibrate"),
        "cli.calibrate.trials": tr.first_counts("cli", "calibrate").get("trials", 0),
        "bench.setup.self_s": tr.median_self("bench.setup"),
        "bench.timed.self_s": tr.median_self("bench.timed"),
        "trace.wall_s": tr.median_duration("bench.timed"),
        "trace.spans": len(tr.spans),
        "trace.overhead_s": len(tr.spans) * cost_per_span,
    }
    for strategy in ("control_m", "control_q"):
        out.update(_bellman_metrics(tr, strategy))
    out.update(_sim_metrics(tr, "control_m"))
    out.update(_self_per_pass(tr))
    return out


def fresh_import_s(src: Path) -> float:
    """Seconds a new interpreter takes to import quickwake from ``src``."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import quickwake; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def execute(workload: Workload, run: Run, src: Path) -> dict:
    """Set up and time in SETUP_REPEATS rounds, then run the gates.

    Each round sets up afresh and then runs timed passes until that
    round's share of ``run.seconds`` of pass time is used.  At least one
    pass runs in all, and the gates check the state of the last pass.
    Spreading the passes over the rounds samples the machine over the
    whole run rather than one stretch of it.  A set-up sample is a fresh
    interpreter's import of quickwake plus the workload's set-up in this
    process; the import is sampled in a child interpreter because a
    module imports only once per process.  Returns the end-to-end
    figures and the raw samples behind them.
    """
    tr = run.tracer
    import_samples, setup_samples, passes = [], [], []
    for r in range(SETUP_REPEATS):
        import_samples.append(fresh_import_s(src))
        start = time.perf_counter()
        with tr.span("bench.setup"):
            state = workload.setup(run)
        setup_samples.append(time.perf_counter() - start)
        while not passes or sum(passes) < run.seconds * (r + 1) / SETUP_REPEATS:
            start = time.perf_counter()
            with tr.span("bench.timed"):
                workload.timed(run, state)
            passes.append(time.perf_counter() - start)
            timed_state = state
    with tr.span("bench.check"):
        err = workload.check(run, timed_state)
    return {
        "setup_s": statistics.median(i + s for i, s in zip(import_samples, setup_samples)),
        "wall_s": statistics.median(passes),
        "value_error": max(err, VALUE_ERROR_FLOOR),
        "samples": {"import_s": import_samples, "setup_s": setup_samples, "pass_s": passes},
    }
