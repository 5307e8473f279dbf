"""Command-line experiment harness: seeded sweeps with CSV + manifest output.

Sub-commands: simulate, devo, converse, efun, optimize, histogram.  Every
output CSV is deterministic given the command line (12 significant digits,
'.' decimal separator) and is accompanied by ``<out>.manifest.json``
recording the argv, the gracecode, python, numpy and scipy versions, numpy's
SIMD baseline and enabled dispatch targets, and the wall time; ``simulate``,
``histogram`` and ``optimize`` add their seed, and ``simulate`` and
``histogram`` the trial count, the count of failed BP trials and the
``perf_counter`` seconds spent per phase (``graph``: sampling, source draw and
encoding; ``channel``; ``run_bp``; ``measure``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from contextlib import contextmanager
from itertools import chain, pairwise

import numpy as np
import scipy

from . import __version__
from .bp import measure, run_bp
from .channels import ChannelParam, transmit
from .converse import (
    area_two_point,
    general_two_point,
    linear_single_point,
    linear_two_point,
    shannon_single_point,
)
from .devo import _PAYOFF_FOR, _traces
from .efun import ClosedFormFamily, _check_degree, build_family, error_poly, f_alphabet
from .ensemble import (
    CheckKind,
    DegreeProfile,
    EnsembleSpec,
    InfeasibleSpecError,
    SamplingFailureError,
    encode,
    parse_profile,
    sample_graph,
    serialize_profile,
)
from .optimize import OptProblem, optimize_profile

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


_NUMBER = "%.12g"  # how every output writes a number
_fmt = _NUMBER.__mod__


_MAX_GRID_POINTS = 1_000_000


def _parse_grid(text: str) -> np.ndarray:
    """Parse 'a:b:step' (inclusive of b up to rounding) or a single value.

    Every number must be finite, and a grid holds at most 1e6 points.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"grid must be 'a:b:step' or a single value, got {text!r}")
    values = [float(p) for p in parts]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"grid {text!r} has a non-finite number")
    if len(values) == 1:
        return np.array(values)
    a, b, step = values
    if step <= 0:
        raise ValueError("grid step must be > 0")
    last = np.floor((b - a) / step + 1e-9)  # a float: no int() or arange of a huge span
    if last < 0:
        raise ValueError(f"grid {text!r} is empty (b < a)")
    if last >= _MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
    return a + step * np.arange(int(last) + 1)


def _check_range(name: str, values, lo: float, hi: float = np.inf) -> None:
    """Raise ``ValueError`` naming the first of ``values`` outside [lo, hi]."""
    for value in np.atleast_1d(values).tolist():
        if not lo <= value <= hi:
            raise ValueError(f"{name} must lie in [{_fmt(lo)}, {_fmt(hi)}], got {_fmt(value)}")


def _check_loads(alphas) -> None:
    """Raise ``ValueError`` for a load alpha that is negative or NaN, or so
    large that its trials' seed key round(alpha * 1e9) overflows."""
    _check_range("alpha", alphas, 0.0)
    for alpha in np.atleast_1d(alphas).tolist():
        if math.isinf(alpha * 1e9):
            raise ValueError(f"alpha {_fmt(alpha)} is too large for the seed key round(alpha * 1e9)")


_BUILTIN_PROFILES = {
    "rep": DegreeProfile(((CheckKind.maj(1), 1.0),)),
    "ldmc3": DegreeProfile(((CheckKind.maj(3), 1.0),)),
    "ldmc5": DegreeProfile(((CheckKind.maj(5), 1.0),)),
}


def _load_profile(name: str) -> DegreeProfile:
    if name in _BUILTIN_PROFILES:
        return _BUILTIN_PROFILES[name]
    if name.startswith("ldgm") and name[4:].isdigit():
        return DegreeProfile(((CheckKind.xor(int(name[4:])), 1.0),))
    if os.path.exists(name):
        with open(name, encoding="utf-8") as fh:
            return parse_profile(fh.read())
    raise InfeasibleSpecError(f"unknown ensemble {name!r} (not a builtin or file)")


def _write_csv(path: str, header, rows) -> None:
    """Write the header, then the tuples ``rows`` as they come, all through
    the line format of the first: a number as ``_fmt`` writes it, else str."""
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if first is not None:
            line = ",".join(_NUMBER if isinstance(v, (int, float, np.floating)) else "%s" for v in first) + "\n"
            fh.writelines(map(line.__mod__, chain([first], rows)))


def _numpy_simd() -> dict:
    """numpy's SIMD baseline and the dispatch targets it enabled in this
    process, as ``np.show_runtime()`` reports them.  The last bits of its
    ``exp``, ``log``, ``log1p`` and ``log2`` kernels, and so of ``h_b``, the
    E-function tables and BP, follow that level."""
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    return {"baseline": list(__cpu_baseline__), "found": [f for f in __cpu_dispatch__ if __cpu_features__[f]]}


def _write_manifest(out: str, argv: list, started: float, fields: dict) -> None:
    """Write the argv, versions, numpy's SIMD level, wall time and the
    command's ``fields`` to ``<out>.manifest.json``."""
    payload = {
        "argv": argv,
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd": _numpy_simd(),
        "scipy": scipy.__version__,
        "walltime_s": round(time.time() - started, 3),
        **fields,
    }
    with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _phase(totals: dict, name: str):
    """Add the ``perf_counter`` seconds spent in the block to ``totals[name]``."""
    start = time.perf_counter()
    yield
    totals[name] = totals.get(name, 0.0) + time.perf_counter() - start


def _trial(spec: EnsembleSpec, args, alpha: float, eps: float, t: int, counts, fields: dict):
    """``measure``'s (ber, soft_info) of trial ``t`` at load ``alpha`` over
    BEC(eps), its histogram added into ``counts`` unless that is None, and
    the trial counted into ``fields``' failed trials and phase seconds."""
    phase_s = fields["phase_s"]
    with _phase(phase_s, "graph"):
        rng = np.random.default_rng([args.seed, int(round(alpha * 1e9)), t])
        graph = sample_graph(spec, rng)
        source = rng.integers(0, 2, size=args.k).astype(np.int8)
        codeword = encode(graph, source)
    with _phase(phase_s, "channel"):
        received = transmit(codeword, ChannelParam.bec(eps), rng)
    with _phase(phase_s, "run_bp"):
        result = run_bp(graph, received, args.bp_iters)
    fields["failed_trials"] += int(result.failed)
    with _phase(phase_s, "measure"):
        ber, iota, hist = measure(result, source, None if counts is None else counts.shape[0])
        if hist is not None:
            counts += hist
    return ber, iota


def _sweep(profile, args, alphas, bins: int | None = None):
    """One (eps, bers, soft_infos, counts) per load alpha, from ``args.trials``
    seeded trials over BEC(1 - alpha R), and the manifest fields of the sweep;
    ``counts`` sums the trials' ``bins``-bin histograms (None without bins).
    A uniform source violates PARITY checks, so a PARITY component is infeasible."""
    for kind, weight in profile.entries:
        if kind.kind == "PARITY" and weight > 0.0:
            raise InfeasibleSpecError(
                f"component PARITY {kind.arity} of weight {_fmt(weight)}: simulate and histogram"
                " draw uniform source bits, which violate PARITY checks"
            )
    spec = EnsembleSpec(k=args.k, rate=args.rate, profile=profile, systematic=args.systematic, regular=args.regular)
    fields = {"seed": args.seed, "trials": args.trials, "failed_trials": 0, "phase_s": {}}
    points = []
    for alpha in alphas:
        eps = min(max(1.0 - alpha * args.rate, 0.0), 1.0)
        counts = None if bins is None else np.zeros(bins, dtype=np.intp)
        trials = [_trial(spec, args, alpha, eps, t, counts, fields) for t in range(args.trials)]
        points.append((eps, *zip(*trials), counts))
    return points, fields


def _check_rate(rate: float) -> None:
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must lie in (0, 1], got {_fmt(rate)}")


def _cmd_simulate(args) -> dict:
    _check_rate(args.rate)
    profile = _load_profile(args.ensemble)
    if args.alpha_grid is not None:
        alphas = _parse_grid(args.alpha_grid)
    else:
        eps_grid = _parse_grid(args.eps_grid)
        _check_range("eps", eps_grid, 0.0, 1.0)
        alphas = (1.0 - eps_grid) / args.rate
    _check_loads(alphas)
    points, fields = _sweep(profile, args, alphas.tolist())
    rows = []
    for alpha, (eps, bers, iotas, _) in zip(alphas, points):
        ber = float(np.mean(bers))
        stderr = float(np.sqrt(max(ber * (1.0 - ber), 0.0) / (args.k * args.trials)))
        rows.append((alpha, eps, ber, stderr, float(np.mean(iotas)), args.trials))
    _write_csv(args.out, ("alpha", "eps", "ber", "ber_stderr", "soft_info", "trials"), rows)
    return fields


def _make_family(name: str, surrogate: str, quantity: str, D: int):
    if name in ("ldmc3", "ldmc5"):
        return build_family(name, channel=surrogate, payoff=_PAYOFF_FOR[quantity], D=D)
    profile = _load_profile(name)
    if surrogate != "BEC" or quantity != "error":
        raise InfeasibleSpecError("profile families (ldgmN, files) support BEC/error only")
    return ClosedFormFamily("mixed", profile=profile, D=D)


def _cmd_devo(args) -> dict:
    family = _make_family(args.family, args.surrogate, args.quantity, args.dmax)
    alphas = _parse_grid(args.alpha_grid)
    _check_range("alpha", alphas, 0.0)  # --ell 0 never evaluates the family
    traces = _traces(family, alphas, args.x0, args.ell, args.surrogate, args.quantity)
    rows = []
    for i, alpha in enumerate(alphas):
        for t, q in enumerate(traces[:, i]):
            rows.append((alpha, t, q, args.quantity, args.surrogate, args.x0))
    _write_csv(args.out, ("alpha", "t", "q", "quantity", "surrogate", "x0"), rows)
    return {}


def _cmd_converse(args) -> dict:
    _check_rate(args.rate)
    rows = []
    rho = 1.0 / args.rate
    for eps in _parse_grid(args.eps_grid):
        eps = float(eps)
        if args.bound == "shannon":
            val = shannon_single_point(args.rate, 1.0 - eps)
        elif args.bound == "linear1":
            val = linear_single_point(rho, eps)
        elif args.bound == "linear2":
            val = linear_two_point(rho, args.anchor_delta, args.anchor_eps, eps)
        elif args.bound == "general2":
            val = general_two_point(args.rate, args.anchor_delta, args.anchor_eps, eps)
        else:  # area
            if eps <= args.anchor_eps:
                continue
            val = area_two_point(args.rate, args.anchor_delta, args.anchor_eps, eps, args.mode)
        rows.append(("eps", eps, args.bound, val, args.anchor_eps, args.anchor_delta, args.rate))
    _write_csv(
        args.out,
        ("x_axis_kind", "x", "bound_kind", "value", "anchor_eps", "anchor_delta", "R"),
        rows,
    )
    return {}


def _cmd_efun(args) -> dict:
    alph = f_alphabet(args.family)
    _check_degree(args.dmax)
    polys = [error_poly(alph, d, args.payoff) for d in range(args.dmax + 1)]
    width = max(p.degree for p in polys) + 1
    header = ["d"] + [f"c{i}" for i in range(width)]
    rows = [(d, *p.coeffs, *[0.0] * (width - len(p.coeffs))) for d, p in enumerate(polys)]
    _write_csv(args.out, header, rows)
    return {}


def _parse_components(text: str):
    comps = []
    for part in text.split(","):
        kind, _, arity = part.partition(":")
        comps.append(CheckKind(kind.strip().upper(), int(arity)))
    return tuple(comps)


def _cmd_optimize(args) -> dict:
    problem = OptProblem(
        components=_parse_components(args.components),
        targets=tuple(float(t) for t in args.targets.split(",")),
        ell=None if args.fixed_point else args.ell,
        D=args.dmax,
        multistart=args.multistart,
        seed=args.seed,
    )
    result = optimize_profile(problem)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_profile(result.profile))
    with open(args.out + ".log", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"objective {_fmt(result.objective)}\n")
        fh.write(f"converged {result.converged}\n")
        for i, hist in enumerate(result.trajectories):
            fh.write(f"start {i} steps {len(hist)} final {_fmt(hist[-1])}\n")
    return {"seed": args.seed}


def _cmd_histogram(args) -> dict:
    profile = _load_profile(args.ensemble)
    _check_loads(args.alpha)
    [(_, _, _, counts)], fields = _sweep(profile, args, [args.alpha], args.bins)
    edges = np.linspace(0.0, 1.0, args.bins + 1)
    rows = ((lo, hi, c) for (lo, hi), c in zip(pairwise(map(_fmt, edges)), counts.tolist()))
    _write_csv(args.out, ("bin_lo", "bin_hi", "count"), rows)
    return fields


def _int_in(lo: int, hi: int | None = None):
    """argparse type for an integer in [``lo``, ``hi``] (no upper bound when
    ``hi`` is None); a violation is a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value

    return parse


def _add_ensemble_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ensemble", required=True, help="builtin (rep, ldmc3, ldmc5, ldgmN) or profile file")
    p.add_argument("--k", type=_int_in(1), required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--systematic", action="store_true")
    p.add_argument("--regular", action="store_true")
    p.add_argument("--bp-iters", type=_int_in(0), default=10)
    p.add_argument("--trials", type=_int_in(1), default=10)
    p.add_argument("--seed", type=_int_in(0), default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gracecode", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte-Carlo BP sweep over a load grid")
    _add_ensemble_args(p)
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--alpha-grid", help="a:b:step over alpha = C/R")
    grid.add_argument("--eps-grid", help="a:b:step over erasure eps")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("devo", help="density-evolution traces")
    p.add_argument("--family", required=True)
    p.add_argument("--alpha-grid", required=True)
    p.add_argument("--ell", type=int, default=10)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--surrogate", choices=("BEC", "BSC"), default="BEC")
    p.add_argument("--quantity", choices=("error", "chi2-soft", "capacity-soft"), default="error")
    p.add_argument("--dmax", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_devo)

    p = sub.add_parser("converse", help="converse bound curves")
    p.add_argument("--bound", choices=("shannon", "linear1", "linear2", "general2", "area"), required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--anchor-eps", type=float, default=0.0)
    p.add_argument("--anchor-delta", type=float, default=0.0)
    p.add_argument("--mode", choices=("linear_systematic", "systematic"), default="linear_systematic")
    p.add_argument("--eps-grid", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_converse)

    p = sub.add_parser("efun", help="export error/entropy polynomial coefficients")
    p.add_argument("--family", default="ldmc3-bec")
    p.add_argument("--dmax", type=int, default=10)
    p.add_argument("--payoff", choices=("error", "entropy", "chi2"), default="error")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_efun)

    p = sub.add_parser("optimize", help="degree-profile optimization")
    p.add_argument("--components", required=True, help="e.g. XOR:1,XOR:2,XOR:3")
    p.add_argument("--targets", required=True, help="comma-separated alpha values")
    p.add_argument("--ell", type=int, default=5)
    p.add_argument("--fixed-point", action="store_true")
    p.add_argument("--dmax", type=int, default=10)
    p.add_argument("--multistart", type=int, default=16)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("histogram", help="posterior histogram at one load")
    _add_ensemble_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--bins", type=_int_in(1, _MAX_GRID_POINTS), default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_histogram)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    folder = os.path.dirname(args.out) or "."
    if not os.path.isdir(folder):
        print(f"error: --out directory {folder!r} does not exist", file=sys.stderr)
        return EXIT_USAGE
    try:
        _write_manifest(args.out, argv, started, args.func(args))
    except (InfeasibleSpecError, SamplingFailureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
