"""quickwake benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload solve-reference --seed 1 --seconds 24 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics from spans around every call the benchmark makes into a layer.
The line before it is a report: environment, raw samples, every gate,
and (traced) each layer metric beside the end-to-end metric it should
move on this workload.  The exit code is 0 only if every operation ran
and every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("solve-reference", "sweep-calibrate", "unequal-variance")

UNITS = {"setup_s": "s", "wall_s": "s", "value_error": "cost", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum length of the timed phase; at least one pass runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _blas_threads():
    """Thread count of each loaded OpenBLAS, asked through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    found = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found or None


def _last_level_cache():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best["level"]:
            best = {"level": level, "size": size}
    return best


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "last_level_cache": _last_level_cache(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "quickwake" / "__init__.py").is_file():
        # Measure the checkout's code, never an installed copy.
        print(f"error: no quickwake sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from tracing import Tracer, span_cost

    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    run = workloads.Run(
        seed=args.seed, seconds=args.seconds, tracer=Tracer(bool(args.trace)),
        reference=workloads.load_reference(), workdir=workdir,
    )
    report = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed)}
    figures = None
    try:
        figures = workloads.execute(workload, run, src)
    except Exception:
        traceback.print_exc()
        run.failed = max(run.failed, 1)
        run.attempted = max(run.attempted, run.failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    correct = figures is not None and run.failed == 0
    report["gates"] = [vars(g) for g in run.gates]
    metrics = {}
    if figures is not None:
        report["samples"] = figures["samples"]
        if args.trace:
            cost = span_cost()
            layers = workloads.layer_metrics(run.tracer, cost)
            report["layers"] = {
                k: {"value": v, "moves": workload.moved_by(k)} for k, v in layers.items()
            }
            report["span_cost_s"] = cost
            metrics = {k: {"value": v, "unit": workloads.LAYER_UNITS[k][0]}
                       for k, v in layers.items()}
        else:
            figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {k: {"value": figures[k], "unit": u} for k, u in UNITS.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
