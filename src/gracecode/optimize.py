"""Degree-profile optimization for mixed ensembles on the simplex.

Maximizes density-evolution endpoints q^BEC_ell(0), summed over target loads,
by multistart projected gradient ascent over the component-weight simplex.
The points the search needs together (finite-difference points, screening
points, line-search candidates, pattern moves) are evaluated in one lane run
of the recursion, one lane per (weight vector, target); a lane's endpoint is
the bits of its one-lane run, so the search path is the one-point one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .devo import _MAX_STEPS, _settle, _trace
from .efun import _mixed_at
from .ensemble import CheckKind, DegreeProfile

_FD_STEP = 1e-5
_BASE_STEP = 0.25
_MAX_ITERS = 300
_FP_TOL = 1e-11
# the backtracking line search's step lengths: halved from _BASE_STEP while >= 1e-8
_STEPS = tuple(_BASE_STEP * 0.5**k for k in range(64) if _BASE_STEP * 0.5**k >= 1e-8)


@dataclass(frozen=True)
class OptProblem:
    """Components, target loads, BP budget and search configuration.

    ``ell=None`` selects fixed-point mode (iterate to tolerance instead of a
    fixed iteration budget).
    """

    components: tuple
    targets: tuple
    ell: int | None = 5
    D: int = 10
    multistart: int = 16
    seed: int = 0

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("components must be non-empty")
        for ck in comps:
            if not isinstance(ck, CheckKind):
                raise ValueError("components must be CheckKind instances")
            if ck.kind == "MAJ" and ck.arity not in (1, 3, 5):
                raise ValueError("MAJ components require arity 1, 3 or 5")
            if ck.kind == "PARITY":
                raise ValueError("PARITY components are not optimizable")
        object.__setattr__(self, "components", comps)
        tgts = tuple(float(a) for a in self.targets)
        if not tgts:
            raise ValueError("targets must be non-empty")
        object.__setattr__(self, "targets", tgts)
        if self.ell is not None and not 1 <= self.ell <= _MAX_STEPS:
            raise ValueError(f"ell must lie in [1, {_MAX_STEPS}] (or be None for fixed-point mode), got {self.ell}")
        if self.multistart < 1:
            raise ValueError("multistart must be >= 1")


@dataclass(frozen=True)
class OptResult:
    """Best profile found with its objective and per-start trajectories."""

    profile: DegreeProfile
    objective: float
    trajectories: tuple
    converged: bool


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.shape[0] + 1)
    cond = u + (1.0 - css) / j > 0.0
    rho = int(np.nonzero(cond)[0][-1])
    theta = (1.0 - css[rho]) / (rho + 1)
    return np.maximum(v + theta, 0.0)


def _objectives(ws, problem: OptProblem) -> np.ndarray:
    """The objective at every row of ``ws``, in one lane run.

    Each (weight row, target load) pair is one lane of the DE recursion.  The
    rows are raw weights, which leave the simplex at finite-difference points.
    A lane returns the bits of its one-lane run, and each row sums its targets
    in their order, so a row's objective does not depend on the other rows.
    """
    ws = np.asarray(ws, dtype=float)
    T = len(problem.targets)
    weights = np.repeat(ws, T, axis=0)  # lane p * T + t: row p at target t
    loads = np.tile(problem.targets, ws.shape[0])

    def bind(idx):
        return _mixed_at(problem.components, weights[idx], loads[idx], problem.D)

    x0 = np.zeros(loads.shape[0])
    if problem.ell is None:
        ends = _settle(bind, x0, _FP_TOL, _MAX_STEPS, "BEC", "error")[0]
    else:
        ends = _trace(bind, x0, problem.ell, "BEC", "error")[-1]
    ends = ends.reshape(ws.shape[0], T)
    total = np.zeros(ws.shape[0])
    for t in range(T):
        total = total + ends[:, t]
    return total


def _objective_raw(w, problem: OptProblem) -> float:
    return float(_objectives(np.asarray(w, dtype=float)[None, :], problem)[0])


def objective(profile, problem: OptProblem) -> float:
    """Sum over target loads of the DE endpoint q^BEC_ell(0) for ``profile``."""
    if isinstance(profile, DegreeProfile):
        kinds = tuple(ck for ck, _ in profile.entries)
        if kinds != problem.components:
            raise ValueError("profile components do not match the problem")
        w = np.array([lam for _, lam in profile.entries])
    else:
        w = np.asarray(profile, dtype=float)
        if w.shape[0] != len(problem.components):
            raise ValueError("weight vector length must match the component count")
    if abs(w.sum() - 1.0) > 1e-9 or np.any(w < -1e-12):
        raise ValueError("profile weights must lie on the simplex")
    return _objective_raw(w, problem)


def _first_passing(cands, problem: OptProblem, passes, batch: int = 1):
    """(index, objective) of the first of ``cands`` whose objective passes, or (None, None).

    The candidates are evaluated in order, in lane runs of ``batch``
    candidates and then of twice as many as the run before; none is
    evaluated after the batch that holds the first one to pass.
    """
    a = 0
    while a < len(cands):
        fcs = _objectives(cands[a : a + batch], problem)
        hit = np.flatnonzero(passes(fcs))
        if hit.size:
            return a + int(hit[0]), float(fcs[hit[0]])
        a, batch = a + batch, 2 * batch
    return None, None


def _ascend(x: np.ndarray, f: float, problem: OptProblem):
    """Projected gradient ascent from ``x`` (objective ``f``); returns (point, value, history)."""
    history = [f]
    n = x.shape[0]
    converged = False
    for _ in range(_MAX_ITERS):
        # the 2n finite-difference points x +- h e_i, in one lane run
        pts = np.repeat(x[None, :], 2 * n, axis=0)
        pts[0::2][np.arange(n), np.arange(n)] += _FD_STEP
        pts[1::2][np.arange(n), np.arange(n)] -= _FD_STEP
        fs = _objectives(pts, problem)
        g = (fs[0::2] - fs[1::2]) / (2.0 * _FD_STEP)
        # the backtracking line search: the first candidate, longest step
        # first, that does not lose is taken
        cands = [project_simplex(x + step * g) for step in _STEPS]
        k, fc = _first_passing(cands, problem, lambda fcs: fcs >= f)
        improved = False
        if k is not None:
            improved = fc > f + 1e-12
            x, f = cands[k], fc
        else:
            # the endpoint can jump at threshold loads, stalling the gradient
            # step on a ridge; polish with simplex-coordinate pattern moves
            x, f, improved = _pattern_polish(x, f, problem)
        history.append(f)
        if not improved:
            converged = True
            break
    return x, f, np.array(history), converged


def _pattern_polish(x: np.ndarray, f: float, problem: OptProblem):
    """Try +-r (e_i - e_j) moves on the simplex at shrinking radii.

    The moves of a pass go in (i, j) order and each starts from the point the
    previous ones reached.  They are evaluated together from the current
    point; after the first improving one, the rest are evaluated again from
    the new point.
    """
    n = x.shape[0]
    moves = [(i, j) for i in range(n) for j in range(n) if i != j]
    improved = False
    r = 0.1
    while r >= 1e-4:
        moved = False
        k = 0
        while k < len(moves):
            cands = [project_simplex(x + r * (np.eye(n)[i] - np.eye(n)[j])) for i, j in moves[k:]]
            hit, fc = _first_passing(cands, problem, lambda fcs: fcs > f + 1e-12, len(cands))
            if hit is None:
                break
            x, f = cands[hit], fc
            moved = improved = True
            k += hit + 1
        if not moved:
            r *= 0.5
    return x, f, improved


def optimize_profile(problem: OptProblem) -> OptResult:
    """Multistart projected gradient ascent; returns the best local optimum."""
    n = len(problem.components)
    if n == 1:
        prof = DegreeProfile(((problem.components[0], 1.0),))
        return OptResult(prof, _objective_raw(np.array([1.0]), problem), (np.zeros(1),), True)
    best_x = None
    best_f = -math.inf
    all_conv = True
    trajectories = []
    for s in range(problem.multistart):
        if s == 0:
            x0 = np.full(n, 1.0 / n)
            f0 = _objective_raw(x0, problem)
        else:
            # the endpoint landscape has cliffs: screen a batch of random
            # simplex points and ascend from the best of them
            rng = np.random.default_rng((problem.seed, s))
            batch = rng.dirichlet(np.ones(n), size=16)
            fs = _objectives(batch, problem)
            k = int(np.argmax(fs))
            x0, f0 = batch[k], float(fs[k])
        x, fv, hist, conv = _ascend(x0, f0, problem)
        trajectories.append(hist)
        all_conv = all_conv and conv
        if fv > best_f:
            best_f, best_x = fv, x
    # keep the exact iterate: renormalizing can step across a cliff
    w = np.maximum(best_x, 0.0)
    prof = DegreeProfile(tuple(zip(problem.components, w.tolist())))
    return OptResult(prof, best_f, tuple(trajectories), all_conv)


__all__ = [
    "OptProblem",
    "OptResult",
    "objective",
    "optimize_profile",
    "project_simplex",
]
