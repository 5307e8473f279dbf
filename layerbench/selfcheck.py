"""Self-check of the benchmark at reduced size (``run.py --smoke``).

Asserts, for every workload and both trace modes, that:

* the last line of output is the result object and every metric that
  BENCHMARK.json names is in it with its unit;
* every fresh worker process started with empty gracecode.efun caches;
* ``trace.coverage`` is reported;
* the products' own timings are printed by name with their units;

and that in a directory holding only BENCHMARK.json and layerbench/ the
benchmark exits nonzero without printing a result.  Failed output checks of
the program are printed, not asserted: at this size some ldmc5 BP trials
report ``failed=True``.  Takes about a minute::

    python3 layerbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, PRODUCTS, WORKLOADS  # noqa: E402

PRODUCTS_BY_WORKLOAD = {
    "sim-mixed": {"pass_wall_s", "trials_per_s", "peak_rss_mb", "fail_ratio"},
    "sim-ldmc5": {"pass_wall_s", "trials_per_s", "peak_rss_mb", "fail_ratio"},
    "analytic": {"pass_wall_s", "devo_s", "converse_s", "optimize_s", "map_exit_s", "peak_rss_mb", "fail_ratio"},
}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "layerbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}"
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1, where
    assert result["correct"] == (result["failed"] == 0), where
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{where}: metrics/units differ from BENCHMARK.json: {set(got) ^ set(want)}"
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), where

    record = json.loads(next(ln[len("record "):] for ln in proc.stderr.splitlines() if ln.startswith("record ")))
    caches = record["efun_cache_entries_at_start"]
    assert len(caches) >= 2 and not any(caches), f"{where}: efun caches not empty at start: {caches}"
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.0, f"{where}: no trace.coverage"
    products = PRODUCTS_BY_WORKLOAD[workload] | ({"setup_wall_s"} if not trace else set())
    assert set(record["products"]) == products, f"{where}: products {sorted(record['products'])}"
    for name in products:
        assert record["products"][name]["unit"] == PRODUCTS[name]
        assert any(ln.split()[:1] == [name] and ln.split()[-1] == PRODUCTS[name] for ln in proc.stdout.splitlines()), name
    print(f"ok  {where}: {len(got)} metrics, coverage/caches/products checked", flush=True)
    # the program's own faults are reported, not asserted: this checks the benchmark
    for failure in record["failures"]:
        print(f"    program output check failed: {failure}", flush=True)


def check_bare_directory() -> None:
    """Only BENCHMARK.json and layerbench/: no sources, so no result."""
    bare = OUT / f"selfcheck-bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "layerbench", ignore=shutil.ignore_patterns("out", "__pycache__", "results.jsonl"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    assert proc.returncode != 0 and not last[0].startswith("{"), f"bare directory: exit {proc.returncode}, {last}"
    print(f"ok  bare directory: exit {proc.returncode}, no result", flush=True)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
