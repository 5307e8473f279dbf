"""Degree-profile optimization for mixed ensembles on the simplex.

Maximizes density-evolution endpoints q^BEC_ell(0), summed over target loads,
by multistart projected gradient ascent over the component-weight simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from .devo import fixed_point, iterate
from .efun import mixed_efun
from .ensemble import CheckKind, DegreeProfile

_FD_STEP = 1e-5
_BASE_STEP = 0.25
_MAX_ITERS = 300
_FP_TOL = 1e-11


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
            if ck.kind == "MAJ" and ck.arity not in (3, 5):
                raise ValueError("MAJ components require arity 3 or 5")
            if ck.kind == "PARITY":
                raise ValueError("PARITY components are not optimizable")
        object.__setattr__(self, "components", comps)
        tgts = tuple(float(a) for a in self.targets)
        if not tgts:
            raise ValueError("targets must be non-empty")
        object.__setattr__(self, "targets", tgts)
        if self.ell is not None and self.ell < 1:
            raise ValueError("ell must be >= 1 (or None for fixed-point mode)")
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


def _endpoint(components, w, alpha: float, ell: int | None, D: int) -> float:
    # raw weights, which leave the simplex at finite-difference points, so no DegreeProfile
    family = SimpleNamespace(evaluate=partial(mixed_efun, components, w, D=D))
    if ell is None:
        return fixed_point(family, alpha, 0.0, tol=_FP_TOL)[0]
    return iterate(family, alpha, 0.0, ell).final


def _objective_raw(w, problem: OptProblem) -> float:
    return sum(_endpoint(problem.components, w, a, problem.ell, problem.D) for a in problem.targets)


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


def _ascend(x: np.ndarray, problem: OptProblem):
    """Projected gradient ascent from ``x``; returns (point, value, history)."""
    f = _objective_raw(x, problem)
    history = [f]
    n = x.shape[0]
    converged = False
    for _ in range(_MAX_ITERS):
        g = np.empty(n)
        for i in range(n):
            up = x.copy()
            dn = x.copy()
            up[i] += _FD_STEP
            dn[i] -= _FD_STEP
            g[i] = (_objective_raw(up, problem) - _objective_raw(dn, problem)) / (2.0 * _FD_STEP)
        step = _BASE_STEP
        improved = False
        while step >= 1e-8:
            cand = project_simplex(x + step * g)
            fc = _objective_raw(cand, problem)
            if fc >= f:
                improved = fc > f + 1e-12
                x, f = cand, fc
                break
            step *= 0.5
        if not improved:
            # the endpoint can jump at threshold loads, stalling the gradient
            # step on a ridge; polish with simplex-coordinate pattern moves
            x, f, improved = _pattern_polish(x, f, problem)
        history.append(f)
        if not improved:
            converged = True
            break
    return x, f, np.array(history), converged


def _pattern_polish(x: np.ndarray, f: float, problem: OptProblem):
    """Try +-r (e_i - e_j) moves on the simplex at shrinking radii."""
    n = x.shape[0]
    improved = False
    r = 0.1
    while r >= 1e-4:
        moved = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                cand = project_simplex(x + r * (np.eye(n)[i] - np.eye(n)[j]))
                fc = _objective_raw(cand, problem)
                if fc > f + 1e-12:
                    x, f = cand, fc
                    moved = improved = True
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
        else:
            # the endpoint landscape has cliffs: screen a batch of random
            # simplex points and ascend from the best of them
            rng = np.random.default_rng((problem.seed, s))
            batch = rng.dirichlet(np.ones(n), size=16)
            x0 = batch[int(np.argmax([_objective_raw(b, problem) for b in batch]))]
        x, fv, hist, conv = _ascend(x0, problem)
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
