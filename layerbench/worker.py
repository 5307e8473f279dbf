"""One pass of a layerbench workload, in a fresh interpreter.

``run.py`` starts this file once per pass.  A fresh interpreter per pass
matters: every ``gracecode`` CLI invocation starts with cold E-polynomial
caches, and so does every pass here.  Modes:

* ``setup``  -- import the package and build the inputs, then stop;
* ``plain``  -- run the workload's products through ``gracecode.cli.main``
  (and the public functions where no subcommand exists), tracing off;
* ``traced`` -- redo the inputs of a finished ``plain`` pass through the
  public functions, with one span around every call into a layer.

The pass writes one JSON object to ``--out``.  Usage (normally via run.py)::

    python3 layerbench/worker.py --workload sim-mixed --seed 1 --seconds 15 \
        --mode plain --t0 <monotonic start> --workdir DIR --out result.json
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gracecode  # noqa: E402
from gracecode import (  # noqa: E402
    BitMatrix,
    ChannelParam,
    CheckKind,
    ContradictionError,
    DegreeProfile,
    EnsembleSpec,
    OptProblem,
    SamplingFailureError,
    area_two_point,
    build_family,
    encode,
    exit_tools,
    f_alphabet,
    fixed_point,
    general_two_point,
    iterate,
    linear_single_point,
    map_ber_linear,
    measure,
    optimize_profile,
    parse_profile,
    run_bp,
    sample_graph,
    transmit,
)
from gracecode import _kernels, efun  # noqa: E402
from gracecode.cli import main as cli_main  # noqa: E402
from gracecode.efun import ClosedFormFamily, eval_degree  # noqa: E402
from run import SPIN_REF_S, spin  # noqa: E402

# Errors the library raises on purpose; anything else is a crash of the pass.
TYPED_ERRORS = (ValueError, SamplingFailureError, ContradictionError)

RATE = 0.5
BP_ITERS = 10
SIM_ALPHA_GRID = "0.5:1.5:0.5"
SIM_K = {False: 100_000, True: 2_000}  # keyed by --smoke
SIM_PROFILES = {"sim-mixed": "MAJ 3 0.5\nXOR 3 0.25\nXOR 1 0.25\n", "sim-ldmc5": "MAJ 5 1\n"}
SIM_ENSEMBLE_ARG = {"sim-mixed": None, "sim-ldmc5": "ldmc5"}  # None: the profile file
MIN_SWEEPS = 2  # the between-trial spread needs two trials per alpha

ELL = 10
DMAX = 10
DE_GRID = {False: "0.25:1.5:0.05", True: "0.25:1.5:0.25"}
# (name, family, surrogate, quantity, x0); ldmc5 first so that its term
# representations are built cold, the ldmc3 BEC ones next, the BSC ones last
DE_TRACES = (
    ("ldmc5-bec-error-x0", "ldmc5", "BEC", "error", 0.0),
    ("ldmc5-bec-error-x1", "ldmc5", "BEC", "error", 1.0),
    ("ldmc5-bec-chi2", "ldmc5", "BEC", "chi2-soft", 0.0),
    ("ldmc3-bec-error", "ldmc3", "BEC", "error", 0.0),
    ("ldmc3-bec-chi2", "ldmc3", "BEC", "chi2-soft", 0.0),
    ("ldmc3-bsc-error", "ldmc3", "BSC", "error", 0.5),
    ("ldmc3-bsc-chi2", "ldmc3", "BSC", "chi2-soft", 0.5),
)
PAYOFF = {"error": "error", "chi2-soft": "chi2"}
FIXED_POINT_FAMILIES = ("ldmc3", "mixed")
MIXED_PROFILE = SIM_PROFILES["sim-mixed"]

GENERAL2 = {"rate": 0.5, "eps": 0.75, "delta": 0.2501, "grid": {False: "0.70:0.90:0.05", True: "0.75:0.90:0.05"}}
AREA = {"rate": 0.5, "eps": 0.4, "delta": 0.001, "grid": {False: "0.40:0.95:0.01", True: "0.40:0.95:0.05"}}
OPTIMIZE = {"components": "XOR:1,MAJ:3,XOR:3", "targets": "0.9,1.1", "ell": 5, "multistart": {False: 4, True: 1}}
MAP = {"k": 2000, "rate": 0.5, "eps": 0.4, "trials": {False: 16, True: 2}}
EXIT_K, EXIT_M = 7, 14

REL_TOL = 1e-9
ABS_TOL = 1e-15


def grid(text: str) -> np.ndarray:
    """'a:b:step' grid, built exactly as the gracecode CLI builds it."""
    a, b, step = (float(p) for p in text.split(":"))
    count = int(np.floor((b - a) / step + 1e-9)) + 1
    return a + step * np.arange(count)


def key(x: float) -> str:
    """Grid point as the CLI prints it (12 significant digits)."""
    return format(float(x), ".12g")


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class Tally:
    """Counts attempted and failed operations; output checks count too."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def run_cli(argv: list[str], tally: Tally) -> bool:
    """Invoke the gracecode CLI in-process; a nonzero exit is a failed operation."""
    try:
        rc = cli_main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except TYPED_ERRORS as exc:
        return tally.op(False, f"{argv[0]}: {type(exc).__name__}: {exc}")
    return tally.op(rc == 0, f"{' '.join(argv)} exited {rc}")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Clock:
    """Times the calls of a pass and samples the machine's speed meanwhile.

    A shared machine drifts between fast and slow spells lasting from a
    fraction of a second to minutes.  Every 50 ms a SIGALRM handler times
    ``run.spin``.  A call's wall time, less the handler's own time, scaled by
    SPIN_REF_S over the mean spin time sampled during the call, is its time in
    reference seconds, from which most of the drift cancels.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.samples: list[float] = []
        self.calls: list[tuple[str, float, float]] = []  # label, wall seconds, mean spin time

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        spin()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self):
        spin()  # warm-up outside the samples
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, label: str, fn, *args):
        n0 = len(self.samples)
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t
            during = self.samples[n0:]
            self.calls.append((label, dt - sum(during), statistics.fmean(during) if during else math.nan))

    def seconds(self, label: str | None = None) -> list[float]:
        return [dt for lab, dt, _ in self.calls if label in (None, lab)]

    def ref_seconds(self) -> list[float]:
        """Each call's time in reference seconds (run-wide speed for calls too short to sample)."""
        overall = statistics.fmean(self.samples)
        return [dt * SPIN_REF_S / (overall if math.isnan(sp) else sp) for _, dt, sp in self.calls]


class Tracer:
    """In-memory span recorder: name, start, end, parent and group per span.

    Spans nest by call order (one thread).  A layer span is named
    ``layer.function``; names without a dot only group spans (a trial).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.group = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "group": self.group,
            **attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def select(self, name: str, **attrs) -> list[float]:
        """Durations of the spans with this name and these attributes."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(a) == v for a, v in attrs.items())
        ]

    def layer_time(self) -> float:
        """Time covered by layer spans (outermost layer spans, summed)."""
        is_layer = {s["id"]: "." in s["name"] for s in self.spans}
        total = 0.0
        for s in self.spans:
            if is_layer[s["id"]] and (s["parent"] is None or not is_layer[s["parent"]]):
                total += s["end"] - s["start"]
        return total

    def self_times(self) -> dict:
        """Per span name: call count, total and self time (minus child spans)."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child.get(s["id"], 0.0)
        return out


class TimedFamily:
    """Forwards to an E-function family; one span around every evaluate call."""

    def __init__(self, family, tracer: Tracer):
        self._family = family
        self._tracer = tracer
        self._channel = getattr(family, "channel", "BEC")

    def __getattr__(self, attr):
        return getattr(self._family, attr)

    def evaluate(self, alpha, q):
        with self._tracer.span("efun.evaluate", channel=self._channel):
            return self._family.evaluate(alpha, q)


def efun_cache_entries() -> int:
    """Entries held by the module-level caches of gracecode.efun."""
    total = 0
    for name, obj in vars(efun).items():
        if hasattr(obj, "cache_info"):
            total += obj.cache_info().currsize
        elif isinstance(obj, dict) and name.endswith("_CACHE"):
            total += len(obj)
    return total


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None if not found."""
    import ctypes

    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for fn in names:
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "gracecode": gracecode.__version__,
        "gracecode_path": str(Path(gracecode.__file__).resolve().parent),
        "using_numba": bool(_kernels.USING_NUMBA),
        "GRACECODE_NUMBA": os.environ.get("GRACECODE_NUMBA"),
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, smoke: bool, workdir: Path) -> dict:
    """Every input of a pass, derived from the workload seed alone."""
    state = np.random.SeedSequence(seed).generate_state(64)
    inp = {"smoke": smoke}
    if workload in SIM_PROFILES:
        text = SIM_PROFILES[workload]
        profile_path = workdir / f"{workload}.profile"
        profile_path.write_text(text, encoding="utf-8")
        inp["ensemble"] = SIM_ENSEMBLE_ARG[workload] or str(profile_path)
        inp["profile"] = parse_profile(text)
        inp["k"] = SIM_K[smoke]
        inp["alphas"] = grid(SIM_ALPHA_GRID)
        inp["sweep_seeds"] = [int(s) for s in state]
        return inp
    inp["de_grid"] = DE_GRID[smoke]
    inp["mixed"] = parse_profile(MIXED_PROFILE)
    inp["optimize_seed"] = int(state[0])
    inp["map_seed"] = int(state[1])
    # LDGM3 generator: one column per XOR-3 check of a sampled graph
    ldgm = sample_graph(
        EnsembleSpec(k=MAP["k"], rate=MAP["rate"], profile=DegreeProfile.single(CheckKind.xor(3))),
        np.random.default_rng(int(state[2])),
    )
    inp["map_G"] = BitMatrix.from_columns([idx for _, idx in ldgm.checks], MAP["k"])
    # [I | R]: full rank, so the exact EXIT area equals k/m for every seed
    r = (np.random.default_rng(int(state[3])).random((EXIT_K, EXIT_M - EXIT_K)) < 0.5).astype(np.uint8)
    inp["exit_G"] = BitMatrix.from_dense(np.hstack([np.eye(EXIT_K, dtype=np.uint8), r]))
    return inp


def load_reference() -> dict:
    with open(Path(__file__).with_name("reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# simulate workloads
# ---------------------------------------------------------------------------


def sim_args(inp: dict, seed: int, out: Path) -> list[str]:
    return [
        "simulate", "--ensemble", inp["ensemble"], "--k", str(inp["k"]), "--rate", str(RATE),
        "--bp-iters", str(BP_ITERS), "--alpha-grid", SIM_ALPHA_GRID, "--trials", "1",
        "--seed", str(seed), "--out", str(out),
    ]  # fmt: skip


def check_bracket(workload: str, sweeps: list[dict], tally: Tally) -> None:
    """Mean BER per alpha inside [bp_lower - 3 sigma, bp_upper + 3 sigma].

    sigma is the spread between trials; the bracket is the seed commit's DE
    endpoint (reference.json); no BSC family exists here, so no upper bound.
    """
    bracket = load_reference()["bracket"][workload]
    for akey, b in bracket.items():
        bers = [float(row["ber"]) for sw in sweeps for row in sw["rows"] if row["alpha"] == akey]
        if not bers:
            tally.op(False, f"bracket {workload} alpha={akey}: no trials")
            continue
        sigma = statistics.stdev(bers) if len(bers) > 1 else 0.0
        mean = statistics.fmean(bers)
        lo = b["bp_lower"] - 3.0 * sigma
        hi = math.inf if b["bp_upper"] is None else b["bp_upper"] + 3.0 * sigma
        tally.op(lo <= mean <= hi, f"bracket {workload} alpha={akey}: mean BER {mean} not in [{lo}, {hi}]")


def sim_plain(workload: str, inp: dict, deadline: float, workdir: Path, tally: Tally) -> dict:
    sweeps = []
    with Clock() as clock:
        for seed in inp["sweep_seeds"]:
            if len(sweeps) >= MIN_SWEEPS and time.monotonic() >= deadline:
                break
            out = workdir / f"sweep-{seed}.csv"
            ok = clock.time("sweep", run_cli, sim_args(inp, seed, out), tally)
            rows = read_csv(out) if ok else []
            sweeps.append({"seed": seed, "trials": len(rows), "rows": rows})
    check_bracket(workload, sweeps, tally)
    times = clock.seconds()
    trials = sum(sw["trials"] for sw in sweeps)
    return {
        "sweeps": sweeps,
        "pass_s": statistics.median(clock.ref_seconds()),
        "pass_wall_s": statistics.median(times),
        "pass_samples_s": times,
        "pass_samples_ref_s": clock.ref_seconds(),
        "wall_s": sum(times),
        "products": {"trials_per_s": trials / sum(times)},
    }


def sim_traced(inp: dict, plain: dict, tr: Tracer, tally: Tally) -> dict:
    """Replay every trial of the plain pass with the CLI's own seeding."""
    trials = []
    t0 = time.perf_counter()
    for sw in plain["sweeps"]:
        expected = {row["alpha"]: row for row in sw["rows"]}
        for alpha in inp["alphas"]:
            alpha = float(alpha)
            tr.group = f"{sw['seed']}/{key(alpha)}"
            rec = sim_trial(inp, sw["seed"], alpha, tr, tally)
            if rec is None:
                continue
            trials.append(rec)
            row = expected.get(key(alpha))
            same = row is not None and row["ber"] == key(rec["ber"]) and row["soft_info"] == key(rec["soft"])
            tally.op(same, f"trace/CLI mismatch seed={sw['seed']} alpha={key(alpha)}: {rec['ber']} vs {row}")
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "metrics": sim_layer_metrics(trials) if trials else {}}


def sim_trial(inp: dict, seed: int, alpha: float, tr: Tracer, tally: Tally):
    eps = min(max(1.0 - alpha * RATE, 0.0), 1.0)
    rng = np.random.default_rng([seed, int(round(alpha * 1e9)), 0])
    spec = EnsembleSpec(k=inp["k"], rate=RATE, profile=inp["profile"])
    try:
        with tr.span("trial"):
            with tr.span("ensemble.sample_graph") as s_graph:
                g = sample_graph(spec, rng)
            with tr.span("ensemble.flat") as s_flat:
                ptr, evar, codes, arities = g.flat
            source = rng.integers(0, 2, size=inp["k"]).astype(np.int8)
            with tr.span("ensemble.encode") as s_encode:
                coded = encode(g, source)
            with tr.span("channels.transmit") as s_tx:
                received = transmit(coded, ChannelParam.bec(eps), rng)
            with tr.span("bp.activation") as s_act:
                run_bp(g, received, 0)
            with tr.span("bp.run") as s_run:
                result = run_bp(g, received, BP_ITERS)
            with tr.span("bp.measure") as s_measure:
                ber, soft, _ = measure(result, source)
    except TYPED_ERRORS as exc:
        tally.op(False, f"trial seed={seed} alpha={alpha}: {type(exc).__name__}: {exc}")
        return None
    tally.op(not result.failed, f"BP trial failed seed={seed} alpha={alpha}")
    emitted = codes != 2
    active_edges = int(arities[emitted][received.symbols != -1].sum() + arities[~emitted].sum())
    iters = int(result.beliefs.iteration)

    def dur(s):
        return s["end"] - s["start"]

    return {
        "ber": ber,
        "soft": soft,
        "failed": bool(result.failed),
        "edges": int(evar.shape[0]),
        "active_edges": active_edges,
        "iterations": iters,
        "useful": int(np.count_nonzero(np.diff(result.ber_trace))),
        "sample_graph": dur(s_graph),
        "flat": dur(s_flat),
        "encode": dur(s_encode),
        "transmit": dur(s_tx),
        "activation": dur(s_act),
        "iter_time": dur(s_run) - dur(s_act),
        "measure": dur(s_measure),
    }


def sim_layer_metrics(trials: list[dict]) -> dict:
    def med(field):
        return statistics.median(t[field] for t in trials)

    iters = sum(t["iterations"] for t in trials)
    iter_time = sum(t["iter_time"] for t in trials)
    edge_iters = sum(t["active_edges"] * t["iterations"] for t in trials)
    return {
        "ensemble.sample_graph_s": med("sample_graph"),
        "ensemble.flat_s": med("flat"),
        "ensemble.encode_s": med("encode"),
        "ensemble.edges": med("edges"),
        "channels.transmit_s": med("transmit"),
        "bp.activation_s": med("activation"),
        "bp.iter_s": statistics.median(t["iter_time"] / max(t["iterations"], 1) for t in trials),
        "bp.edge_iters_per_s": edge_iters / iter_time if iters else 0.0,
        "bp.active_edges": statistics.fmean(t["active_edges"] for t in trials),
        "bp.iterations": iters / len(trials),
        "bp.failed_trials": sum(t["failed"] for t in trials),
        "bp.useful_iter_ratio": sum(t["useful"] for t in trials) / max(iters, 1),
        "bp.measure_s": med("measure"),
    }


# ---------------------------------------------------------------------------
# analytic workload
# ---------------------------------------------------------------------------


def compare(name: str, got: dict, want: dict, tally: Tally) -> None:
    """Values keyed by grid point against the seed commit's, 1e-9 relative."""
    bad = [k for k in want if k not in got or not all(map(close, np.atleast_1d(got[k]), np.atleast_1d(want[k])))]
    bad += [k for k in got if k not in want]
    tally.op(not bad and bool(got), f"{name}: differs from reference at {bad[:5]} (of {len(got)} points)")


def check_analytic(values: dict, inp: dict, tally: Tally) -> None:
    ref = load_reference()
    groups = [("devo", name) for name, *_ in DE_TRACES]
    groups += [("fixed_point", name) for name in FIXED_POINT_FAMILIES] + [("converse", "general2"), ("converse", "area")]
    for group, name in groups:
        got, want = values[group][name], ref[group][name]
        if inp["smoke"]:  # the reduced grids are subsets of the full ones
            want = {k: v for k, v in want.items() if k in got}
        compare(f"{group} {name}", got, want, tally)
    area_want = inp["exit_G"].k / inp["exit_G"].m
    tally.op(close(values["exit_area"], area_want), f"EXIT area {values['exit_area']} != k/m = {area_want}")
    floor = linear_single_point(1.0 / MAP["rate"], MAP["eps"])
    tally.op(values["map_ber"] >= floor, f"map_ber_linear {values['map_ber']} below linear_single_point {floor}")


def family_for(name: str, surrogate: str, quantity: str, mixed: DegreeProfile):
    if name == "mixed":
        return ClosedFormFamily("mixed", profile=mixed, D=DMAX)
    return build_family(name, channel=surrogate, payoff=PAYOFF[quantity], D=DMAX)


def analytic_products(inp: dict, workdir: Path, tally: Tally, clock: Clock) -> dict:
    """Every analytic product once, through the CLI where it has a subcommand."""
    values: dict = {"devo": {}, "fixed_point": {}, "converse": {}}

    def timed_cli(metric: str, argv: list[str]) -> bool:
        return clock.time(metric, run_cli, argv, tally)

    for name, fam, sur, qty, x0 in DE_TRACES:
        out = workdir / f"devo-{name}.csv"
        argv = ["devo", "--family", fam, "--alpha-grid", inp["de_grid"], "--ell", str(ELL), "--x0", repr(x0),
                "--surrogate", sur, "--quantity", qty, "--dmax", str(DMAX), "--out", str(out)]  # fmt: skip
        trace: dict = {}
        if timed_cli("devo_s", argv):
            for row in read_csv(out):
                trace.setdefault(row["alpha"], []).append(float(row["q"]))
        values["devo"][name] = trace

    def fixed_points(name: str) -> dict:
        family = family_for(name, "BEC", "error", inp["mixed"])
        fps = {}
        for alpha in grid(inp["de_grid"]):
            try:
                q, converged = fixed_point(family, float(alpha), 0.0)
                fps[key(alpha)] = [q, float(converged)]
                tally.op(True, "fixed_point")
            except TYPED_ERRORS as exc:
                tally.op(False, f"fixed_point {name} {alpha}: {type(exc).__name__}: {exc}")
        return fps

    for name in FIXED_POINT_FAMILIES:
        values["fixed_point"][name] = clock.time("devo_s", fixed_points, name)

    for name, spec in (("general2", GENERAL2), ("area", AREA)):
        out = workdir / f"converse-{name}.csv"
        argv = ["converse", "--bound", name, "--rate", str(spec["rate"]), "--anchor-eps", str(spec["eps"]),
                "--anchor-delta", str(spec["delta"]), "--eps-grid", spec["grid"][inp["smoke"]], "--out", str(out)]  # fmt: skip
        ok = timed_cli("converse_s", argv)
        values["converse"][name] = {row["x"]: float(row["value"]) for row in read_csv(out)} if ok else {}

    out = workdir / "optimize.profile"
    argv = ["optimize", "--components", OPTIMIZE["components"], "--targets", OPTIMIZE["targets"],
            "--ell", str(OPTIMIZE["ell"]), "--multistart", str(OPTIMIZE["multistart"][inp["smoke"]]),
            "--dmax", str(DMAX), "--seed", str(inp["optimize_seed"]), "--out", str(out)]  # fmt: skip
    values["optimize_objective"] = None
    if timed_cli("optimize_s", argv):
        with open(str(out) + ".log", encoding="utf-8") as fh:
            values["optimize_objective"] = fh.readline().split()[1]

    def map_and_exit():
        try:
            rng = np.random.default_rng(inp["map_seed"])
            values["map_ber"] = map_ber_linear(inp["map_G"], MAP["eps"], MAP["trials"][inp["smoke"]], rng)
            values["exit_area"] = exit_tools(inp["exit_G"]).area
            tally.op(True, "map_ber_linear + exit_tools")
        except TYPED_ERRORS as exc:
            tally.op(False, f"map_ber_linear + exit_tools: {type(exc).__name__}: {exc}")
            values["map_ber"] = values["exit_area"] = math.nan

    clock.time("map_exit_s", map_and_exit)
    return values


def analytic_plain(inp: dict, workdir: Path, tally: Tally) -> dict:
    with Clock() as clock:
        values = analytic_products(inp, workdir, tally, clock)
    check_analytic(values, inp, tally)
    products = {metric: sum(clock.seconds(metric)) for metric in ("devo_s", "converse_s", "optimize_s", "map_exit_s")}
    wall = sum(clock.seconds())
    ref = sum(clock.ref_seconds())
    return {
        "pass_s": ref,
        "pass_wall_s": wall,
        "pass_samples_s": [wall],
        "pass_samples_ref_s": [ref],
        "wall_s": wall,
        "products": products,
        "values": values,
    }


def analytic_traced(inp: dict, plain: dict, tr: Tracer, tally: Tally) -> dict:
    values: dict = {"devo": {}, "fixed_point": {}, "converse": {}}
    t0 = time.perf_counter()
    warmed = set()
    for name, fam, sur, qty, x0 in DE_TRACES:
        tr.group = f"devo/{name}"
        if sur == "BEC":
            alphabet = f_alphabet(f"{fam}_bec")
            for d in range(DMAX + 1):
                if (fam, qty, d) not in warmed:
                    warmed.add((fam, qty, d))
                    with tr.span("efun.eval_degree", cold=True):
                        eval_degree(alphabet, d, PAYOFF[qty], 0.5)
        family = TimedFamily(family_for(fam, sur, qty, inp["mixed"]), tr)
        trace = {}
        for alpha in grid(inp["de_grid"]):
            with tr.span("devo.iterate", surrogate=sur):
                trace[key(alpha)] = iterate(family, float(alpha), x0, ELL, sur, qty).values.tolist()
        values["devo"][name] = trace

    for name in FIXED_POINT_FAMILIES:
        tr.group = f"fixed_point/{name}"
        family = TimedFamily(family_for(name, "BEC", "error", inp["mixed"]), tr)
        fps = {}
        for alpha in grid(inp["de_grid"]):
            with tr.span("devo.fixed_point"):
                q, converged = fixed_point(family, float(alpha), 0.0)
            fps[key(alpha)] = [q, float(converged)]
        values["fixed_point"][name] = fps

    tr.group = "converse/general2"
    g2 = {}
    for eps in grid(GENERAL2["grid"][inp["smoke"]]):
        side = "upgraded" if eps < GENERAL2["eps"] else "degraded"
        with tr.span("converse.general_two_point", side=side):
            g2[key(eps)] = general_two_point(GENERAL2["rate"], GENERAL2["delta"], GENERAL2["eps"], float(eps))
    values["converse"]["general2"] = g2
    tr.group = "converse/area"
    area = {}
    for eps in grid(AREA["grid"][inp["smoke"]]):
        if eps <= AREA["eps"]:
            continue
        with tr.span("converse.area_two_point"):
            area[key(eps)] = area_two_point(AREA["rate"], AREA["delta"], AREA["eps"], float(eps))
    values["converse"]["area"] = area

    tr.group = "optimize"
    problem = OptProblem(
        components=tuple(CheckKind(k.upper(), int(a)) for k, a in (c.split(":") for c in OPTIMIZE["components"].split(","))),
        targets=tuple(float(t) for t in OPTIMIZE["targets"].split(",")),
        ell=OPTIMIZE["ell"],
        D=DMAX,
        multistart=OPTIMIZE["multistart"][inp["smoke"]],
        seed=inp["optimize_seed"],
    )
    with tr.span("optimize.optimize_profile"):
        opt = optimize_profile(problem)
    tally.op(key(opt.objective) == plain["values"]["optimize_objective"],
             f"optimize objective {key(opt.objective)} != CLI {plain['values']['optimize_objective']}")  # fmt: skip

    tr.group = "map_exit"
    rng = np.random.default_rng(inp["map_seed"])
    bers = []
    for _ in range(MAP["trials"][inp["smoke"]]):
        with tr.span("exactdec.map_ber_linear"):
            bers.append(map_ber_linear(inp["map_G"], MAP["eps"], 1, rng))
    values["map_ber"] = statistics.fmean(bers)
    with tr.span("converse.exit_tools"):
        values["exit_area"] = exit_tools(inp["exit_G"]).area
    wall = time.perf_counter() - t0

    tally.op(close(values["map_ber"], plain["values"]["map_ber"]),
             f"traced map BER {values['map_ber']} != plain {plain['values']['map_ber']}")  # fmt: skip
    check_analytic(values, inp, tally)

    def total(name, **attrs):
        return sum(tr.select(name, **attrs))

    upgraded = tr.select("converse.general_two_point", side="upgraded")
    degraded = tr.select("converse.general_two_point", side="degraded")
    metrics = {
        "efun.cold_eval_s": total("efun.eval_degree", cold=True),
        "efun.warm_eval_s": total("efun.evaluate", channel="BEC"),
        "efun.rebuild_eval_s": total("efun.evaluate", channel="BSC"),
        "efun.evaluate_calls": len(tr.select("efun.evaluate")),
        "devo.iterate_bec_s": total("devo.iterate", surrogate="BEC"),
        "devo.iterate_bsc_s": total("devo.iterate", surrogate="BSC"),
        "devo.fixed_point_s": total("devo.fixed_point"),
        "converse.general2_upgraded_s": statistics.fmean(upgraded) if upgraded else 0.0,
        "converse.general2_degraded_s": statistics.fmean(degraded) if degraded else 0.0,
        "converse.area_s": total("converse.area_two_point"),
        "converse.exit_tools_s": total("converse.exit_tools"),
        "exactdec.map_trial_s": statistics.median(tr.select("exactdec.map_ber_linear")),
        "exactdec.gf2_nnz": int(inp["map_G"].rowidx.shape[0]),
        "optimize.optimize_profile_s": total("optimize.optimize_profile"),
        "optimize.ascent_steps": sum(len(h) for h in opt.trajectories),
    }
    return {"wall_s": wall, "metrics": metrics}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*SIM_PROFILES, "analytic"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when the pass was started")
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--replay", type=Path, help="result file of the plain pass (traced mode)")
    p.add_argument("--trace-file", type=Path, help="where the traced pass writes its spans")
    p.add_argument("--smoke", action="store_true", help="reduced size, for the self-check")
    args = p.parse_args(argv)

    cache_entries = efun_cache_entries()
    inp = make_inputs(args.workload, args.seed, args.smoke, args.workdir)
    ready = time.monotonic()
    result = {"setup_s": ready - args.t0, "efun_cache_entries_at_start": cache_entries, "env": environment()}
    tally = Tally()
    if args.mode == "plain":
        if args.workload == "analytic":
            result["plain"] = analytic_plain(inp, args.workdir, tally)
        else:
            result["plain"] = sim_plain(args.workload, inp, ready + args.seconds, args.workdir, tally)
    elif args.mode == "traced":
        with open(args.replay, encoding="utf-8") as fh:
            plain = json.load(fh)["plain"]
        tr = Tracer()
        if args.workload == "analytic":
            traced = analytic_traced(inp, plain, tr, tally)
        else:
            traced = sim_traced(inp, plain, tr, tally)
        traced["metrics"]["trace.coverage"] = tr.layer_time() / traced["wall_s"]
        traced["metrics"]["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        result["traced"] = traced
        if args.trace_file:
            with open(args.trace_file, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "spans": tr.spans, "by_name": tr.self_times()}, fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["failures"] = tally.failures
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
