"""layerbench: layered benchmark of the gracecode simulate and analytic loops.

Usage, from the repository root::

    python3 layerbench/run.py --workload sim-mixed --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each exists and which layer moves which
metric): ``sim-mixed``, ``sim-ldmc5`` and ``analytic``.  Each pass runs in a
fresh interpreter (layerbench/worker.py) with BLAS pinned to one thread.

``--trace 0`` runs the workload with tracing off, plus set-up-only passes,
and reports the end-to-end metrics.  ``--trace 1`` runs the same untraced
pass and then a traced pass over the same inputs in another fresh
interpreter, and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The lines before it list the products' own timings by name.  Every run that
is not ``--smoke`` appends a record to layerbench/results.jsonl.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results.jsonl"
OUT = HERE / "out"

WORKLOADS = ("sim-mixed", "sim-ldmc5", "analytic")
BUDGET_S = 170.0  # a run ends within 180 s, or fails
# Mean time of spin() on the 2-vCPU machine the bounds were set on, in its
# fast state.  Timings in "reference seconds" are wall seconds scaled by
# SPIN_REF_S / (spin() time measured meanwhile); see README.md, Noise.
SPIN_REF_S = 7.0e-4
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# printed with --trace 0 (tracing off)
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
# printed with --trace 1; a layer that a workload does not run reads 0
PER_LAYER = {
    "ensemble.sample_graph_s": "s",
    "ensemble.flat_s": "s",
    "ensemble.encode_s": "s",
    "ensemble.edges": "count",
    "channels.transmit_s": "s",
    "bp.activation_s": "s",
    "bp.iter_s": "s",
    "bp.edge_iters_per_s": "1/s",
    "bp.active_edges": "count",
    "bp.iterations": "count",
    "bp.failed_trials": "count",
    "bp.useful_iter_ratio": "ratio",
    "bp.measure_s": "s",
    "efun.cold_eval_s": "s",
    "efun.warm_eval_s": "s",
    "efun.rebuild_eval_s": "s",
    "efun.evaluate_calls": "count",
    "devo.iterate_bec_s": "s",
    "devo.iterate_bsc_s": "s",
    "devo.fixed_point_s": "s",
    "converse.general2_upgraded_s": "s",
    "converse.general2_degraded_s": "s",
    "converse.area_s": "s",
    "converse.exit_tools_s": "s",
    "exactdec.map_trial_s": "s",
    "exactdec.gf2_nnz": "count",
    "optimize.optimize_profile_s": "s",
    "optimize.ascent_steps": "count",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}
# the products' own timings, measured with tracing off, printed above the result
# (wall seconds; the end-to-end pass_s and setup_s are in reference seconds)
PRODUCTS = {
    "pass_wall_s": "s",
    "trials_per_s": "1/s",
    "devo_s": "s",
    "converse_s": "s",
    "optimize_s": "s",
    "map_exit_s": "s",
    "setup_wall_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}


def spin() -> None:
    """Fixed interpreter work of about a millisecond: the machine-speed probe."""
    acc = 0
    for i in range(10_000):
        acc += i * i % 7


def spin_time(duration: float = 0.05) -> float:
    """Mean time of spin() over about ``duration`` seconds."""
    times: list[float] = []
    end = time.perf_counter() + duration
    while not times or time.perf_counter() < end:
        t = time.perf_counter()
        spin()
        times.append(time.perf_counter() - t)
    return statistics.fmean(times)


class PassError(RuntimeError):
    """A worker pass crashed or ran out of time."""


def source_digest() -> str:
    """sha256 over the library sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gracecode").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_pass(args, mode: str, workdir: Path, deadline: float, **extra) -> dict:
    """Start one worker pass in a fresh interpreter and return its result."""
    out = workdir / f"{mode}-{time.monotonic_ns()}.json"
    env = dict(os.environ, **{name: "1" for name in BLAS_PINS})
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--workdir", str(workdir), "--out", str(out)]  # fmt: skip
    for flag, value in extra.items():
        cmd += [f"--{flag.replace('_', '-')}", str(value)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=sys.stderr, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass exceeded the time budget") from exc
    if proc.returncode != 0:
        raise PassError(f"{mode} pass exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["file"] = str(out)
    return result


def setup_sample(args, workdir: Path, deadline: float) -> tuple[dict, float]:
    """A set-up-only pass and its set-up time in reference seconds."""
    before = spin_time()
    result = run_pass(args, "setup", workdir, deadline)
    speed = 0.5 * (before + spin_time())
    return result, result["setup_s"] * SPIN_REF_S / speed


def measure(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            plain = run_pass(args, "plain", workdir, deadline)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            traced = run_pass(args, "traced", workdir, deadline, replay=plain["file"], trace_file=trace_file)
            passes = [plain, traced]
        else:
            # set-up samples before and after the measured pass, so that on a
            # shared machine they do not all fall into one slow spell
            setups = [setup_sample(args, workdir, deadline)]
            plain = run_pass(args, "plain", workdir, deadline)
            setups += [setup_sample(args, workdir, deadline) for _ in range(2)]
            passes = [plain] + [p for p, _ in setups]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    products = dict(plain["plain"]["products"])
    products["pass_wall_s"] = plain["plain"]["pass_wall_s"]
    products["peak_rss_mb"] = plain["peak_rss_mb"]
    products["fail_ratio"] = failed / attempted
    if args.trace:
        layer = traced["traced"]["metrics"]
        metrics = {name: layer.get(name, 0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        products["setup_wall_s"] = statistics.median(p["setup_s"] for p, _ in setups)
        metrics = {
            "pass_s": plain["plain"]["pass_s"],
            "setup_s": statistics.median(ref for _, ref in setups),
            "peak_rss_mb": plain["peak_rss_mb"],
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
    return {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "env": plain["env"],
        "efun_cache_entries_at_start": [p["efun_cache_entries_at_start"] for p in passes],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in passes for f in p["failures"]],
        "pass_samples_s": plain["plain"]["pass_samples_s"],
        "pass_samples_ref_s": plain["plain"]["pass_samples_ref_s"],
        "setup_samples_s": [p["setup_s"] for p, _ in setups] if not args.trace else [],
        "setup_samples_ref_s": [ref for _, ref in setups] if not args.trace else [],
        "products": {name: {"value": products[name], "unit": PRODUCTS[name]} for name in PRODUCTS if name in products},
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced size for the self-check; records nothing")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gracecode" / "__init__.py").is_file():
        print(f"error: no gracecode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        record = measure(args)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.smoke:
        with open(RESULTS, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    for failure in record["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True), file=sys.stderr)

    env = record["env"]
    print(
        f"layerbench {args.workload} seed={args.seed} trace={args.trace} commit={record['commit']} "
        f"source={record['source_digest']} nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} numba={env['using_numba']} GRACECODE_NUMBA={env['GRACECODE_NUMBA']} "
        f"blas_threads={env['blas_threads']}"
    )
    for name, m in record["products"].items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
