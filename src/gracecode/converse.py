"""Single-point and two-point converse (lower) bounds on erasure BER.

Anchoring a code's performance at one erasure rate constrains how well it can
do at any other rate; these bounds quantify the trade-off for general codes,
linear codes, and (linear-)systematic codes, plus area-theorem tools on small
exhaustively-enumerable codes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import _h_b_float, bisect, h_b, h_b_inv
from ._kernels import gf2_columns, gf2_reduce
from .exactdec import BitMatrix

_GRID = 2000
_REFINE_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float) -> float:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _REFINE_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return max(fc, fd, f(0.5 * (a + b)))


def _sup(f, xs: np.ndarray, lo: float, hi: float) -> float:
    """Max of ``f`` over the grid ``xs``, refined by golden section between the
    grid neighbours of the best point (``lo``/``hi`` past either end).

    ``f`` takes the grid as an array and the refinement's points as floats.
    """
    vals = f(xs)
    i = int(np.argmax(vals))
    a = float(xs[i - 1]) if i > 0 else lo
    b = float(xs[i + 1]) if i + 1 < xs.shape[0] else hi
    return max(float(vals[i]), _golden_max(lambda x: float(f(x)), a, b))


def _check_anchor(delta: float, *eps: float) -> None:
    """Reject erasure probabilities outside [0, 1] and an anchor BER outside [0, 1/2]."""
    if not all(0.0 <= e <= 1.0 for e in eps):
        raise ValueError("erasure probabilities must lie in [0, 1]")
    if not 0.0 <= delta <= 0.5:
        raise ValueError("anchor BER must lie in [0, 1/2]")


def shannon_single_point(R: float, C: float) -> float:
    """delta* with R(1 - h_b(delta*)) = C, clamped to 0 when C >= R."""
    if not 0.0 < R <= 1.0:
        raise ValueError("R must lie in (0, 1]")
    if not 0.0 <= C <= 1.0:
        raise ValueError("C must lie in [0, 1]")
    if C >= R:
        return 0.0
    return float(h_b_inv(1.0 - C / R))


def linear_single_point(rho: float, eps: float) -> float:
    """max(0, (1 - rho(1-eps))/2) for linear codes of rate 1/rho."""
    if rho < 1.0:
        raise ValueError("rho must be >= 1")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    return max(0.0, (1.0 - rho * (1.0 - eps)) / 2.0)


def linear_two_point(rho: float, delta1: float, eps1: float, eps2: float) -> float:
    """Lower bound on BER(eps2) for a linear code with BER(eps1) <= delta1."""
    if rho < 1.0:
        raise ValueError("rho must be >= 1")
    _check_anchor(delta1, eps1, eps2)
    if eps1 == 1.0:
        raise ValueError("anchor eps1 must be < 1")
    if delta1 > eps1 / 2.0 + 1e-12:
        raise ValueError("anchor requires delta1 <= eps1/2")
    if eps2 == eps1:
        return min(max(delta1, 0.0), 0.5)
    if eps2 < eps1:
        gamma = eps1 - 2.0 * delta1
        inner = (eps2 / eps1) * gamma + (rho - 1.0) * (1.0 - eps1) - gamma
        kappa = (eps2 - ((1.0 - eps2) / (1.0 - eps1)) * inner) / 2.0
        return min(max(kappa, 0.0), 0.5)
    val = eps2 / 2.0 - (eps2 / (eps2 - eps1)) * (1.0 / (1.0 - eps1)) * (
        delta1 - 0.5 * (1.0 - rho * (1.0 - eps1))
    )
    return min(max(val, 0.0), 0.5)


def _eta_val(delta_star: float, eps: float, tau: float, R: float):
    """q -> [h_b_inv(clamped excess-rate expression) - q] / (1 - 2q), on the
    grid's array or on one Python float of the refinement (the same IEEE
    operations, so a float gives the bits of its array lane)."""
    base = 1.0 - (1.0 - tau) / R
    scale = (1.0 - tau) / (1.0 - eps) if eps < 1.0 else 0.0
    hd = float(h_b(delta_star))

    def val(q):
        conv = q * (1.0 - delta_star) + (1.0 - q) * delta_star
        # 1 - 2q vanishes at q = 1/2, where the ratio is no longer resolved
        if isinstance(q, float):
            arg = min(max(base + scale * (_h_b_float(conv) - hd), 0.0), 1.0)
            return (h_b_inv(arg) - q) / (1.0 - 2.0 * q) if q < 0.5 - 1e-9 else -math.inf
        arg = np.clip(base + scale * (h_b(conv) - hd), 0.0, 1.0)
        return np.where(q < 0.5 - 1e-9, (h_b_inv(arg) - q) / (1.0 - 2.0 * q), -np.inf)

    return val


def _eta(delta_star: float, eps: float, tau: float, R: float) -> float:
    """sup_q of [h_b_inv(clamped excess-rate expression) - q] / (1 - 2q)."""
    if delta_star >= 0.5:
        return 0.5
    best = _sup(_eta_val(delta_star, eps, tau, R), np.linspace(0.0, 0.5, _GRID + 1)[:-1], 0.0, 0.5)
    return min(max(best, 0.0), 0.5)


def general_two_point(R: float, delta_a: float, eps_a: float, eps: float) -> float:
    """Lower bound on achievable BER(eps) given BER(eps_a) <= delta_a.

    Degraded side (eps >= eps_a): eta(delta_a, eps_a, eps).  Upgraded side:
    the smallest y whose implied anchor performance eta(y, eps, eps_a) stays
    <= delta_a; an empty feasible set returns 0 (conservative).
    """
    if not 0.0 < R <= 1.0:
        raise ValueError("R must lie in (0, 1]")
    _check_anchor(delta_a, eps_a, eps)
    floor = shannon_single_point(R, 1.0 - eps_a)
    if delta_a < floor - 1e-9:
        raise ValueError("anchor lies below the Shannon limit at eps_a")
    if eps >= eps_a:
        return _eta(delta_a, eps_a, eps, R)
    ys = np.linspace(0.0, 0.5, _GRID + 1)

    def feasible(y: float) -> bool:
        return _eta(y, eps, eps_a, R) <= delta_a + 1e-12

    # eta(y) does not increase with y on [0, 1/2), so the feasible points of
    # ys[:-1] form a tail, found by bisection.  y = 1/2 (eta = 1/2 there by
    # convention) is feasible only when y = 0 is, so an empty tail gives 0.
    j = bisect_left(range(_GRID), True, key=lambda i: feasible(float(ys[i])))
    if j in (0, _GRID):
        return 0.0
    return bisect(lambda y: not feasible(y), float(ys[j - 1]), float(ys[j]), _REFINE_TOL)[1]


def _zeta(x: float, eps2: float, eps1: float, R: float) -> float:
    """sup over eps0 in (0, eps2) of the area-theorem excess expression."""
    if eps2 == 0.0:
        return -math.inf  # the interval is empty

    def val(e0):
        term = R - (1.0 - eps1) - e0 * x * R / (eps2 - e0)
        return (term / (eps1 - e0) - 1.0 + R) / R

    return _sup(val, np.linspace(0.0, eps2, _GRID + 2)[1:-1], 0.0, eps2)


def area_two_point(R: float, delta2: float, eps2: float, eps1: float, mode: str = "linear_systematic") -> float:
    """Area-theorem lower bound on BER(eps1) given BER(eps2) <= delta2 (eps2 < eps1)."""
    if not 0.0 < R <= 1.0:
        raise ValueError("R must lie in (0, 1]")
    _check_anchor(delta2, eps2, eps1)
    if not eps2 < eps1:
        raise ValueError("requires eps2 < eps1")
    if mode == "linear_systematic":
        z = _zeta(2.0 * delta2, eps2, eps1, R)
        return min(max((eps1 / 2.0) * z, 0.0), 0.5) if z > 0.0 else 0.0
    if mode == "systematic":
        z = _zeta(float(h_b(delta2)), eps2, eps1, R)
        if z <= 0.0:
            return 0.0
        return min(max(eps1 * float(h_b_inv(min(z, 1.0))), 0.0), 0.5)
    raise ValueError(f"unknown mode {mode!r}")


def repetition_domination(eps2: float, t: float) -> float:
    """Smallest usable eps* = max(eps2, 1 - (1-t) eps2^2 / (1-eps2))."""
    if eps2 >= 1.0 or eps2 < 0.0:
        raise ValueError("eps2 must lie in [0, 1)")
    if t >= 1.0:
        raise ValueError("t must be < 1")
    return max(eps2, 1.0 - (1.0 - t) * eps2 * eps2 / (1.0 - eps2))


def threshold_comparison(eps_star: float):
    """(BSC lower, BSC upper) thresholds from a BEC threshold eps*."""
    if not 0.0 <= eps_star <= 1.0:
        raise ValueError("eps* must lie in [0, 1]")
    lower = (1.0 - math.sqrt(1.0 - eps_star * eps_star)) / 2.0
    upper = (1.0 - math.sqrt(1.0 - eps_star)) / 2.0
    return lower, upper


@dataclass(frozen=True)
class ExitResult:
    """Exact per-coordinate EXIT data of a small linear code.

    ``counts[i, a]`` counts erasure patterns of the other m-1 coordinates
    with exactly ``a`` erasures under which coordinate i is NOT forced.
    """

    k: int
    m: int
    counts: np.ndarray

    @property
    def rate(self) -> float:
        return self.k / self.m

    def h(self, eps):
        """Average EXIT value (1/m) sum_i h_i(eps)."""
        e = np.asarray(eps, dtype=float)
        a = np.arange(self.m)
        basis = np.power.outer(e, a) * np.power.outer(1.0 - e, self.m - 1 - a)
        tot = basis @ self.counts.sum(axis=0)
        out = tot / self.m
        return float(out) if e.ndim == 0 else out

    def p_b(self, eps):
        """Coded-bit BER eps * h(eps) / 2."""
        e = np.asarray(eps, dtype=float)
        out = e * np.asarray(self.h(eps)) / 2.0
        return float(out) if e.ndim == 0 else out

    @property
    def area(self) -> float:
        """Exact integral of h over [0, 1] (rational arithmetic)."""
        total = Fraction(0)
        mfact = math.factorial(self.m)
        csum = self.counts.sum(axis=0)
        for a in range(self.m):
            w = Fraction(math.factorial(a) * math.factorial(self.m - 1 - a), mfact)
            total += int(csum[a]) * w
        return float(total / self.m)


def exit_tools(G: BitMatrix) -> ExitResult:
    """Exhaustive EXIT analysis of the code generated by ``G`` (1 <= m <= 20).

    ``counts[i, a]`` is the number of erasure patterns of the other m - 1
    coordinates, with ``a`` of them erased, that leave coordinate i
    undetermined: column i lies outside the span of the kept columns S, i.e.
    rank(S + {i}) = rank(S) + 1.  The rank of every column subset comes from
    one depth-first walk that extends a subset by one column at a time; the
    echelon basis of the walk's path is one pivot list, whose slot the walk
    sets on the way down and clears on the way back, so each subset costs one
    reduction and nothing that grows with k.
    """
    k, m = G.k, G.m
    if m > 20:
        raise ValueError("exhaustive EXIT analysis limited to m <= 20 coordinates")
    if m == 0:
        raise ValueError("EXIT analysis needs a generator with at least one column")
    cols = gf2_columns(G.indptr, G.rowidx)
    rank = bytearray(1 << m)  # rank[S]: bit j of S keeps column j
    pivots = [0] * (k + 1)  # the basis of the subset on the walk's path

    def walk(S: int, first: int, r: int) -> None:
        for j in range(first, m):
            v = gf2_reduce(cols[j], pivots)
            top = v.bit_length()  # 0 for a column in the span: no reduction reads slot 0
            pivots[top] = v
            deeper = S | 1 << j
            rank[deeper] = r + (top > 0)
            walk(deeper, j + 1, rank[deeper])
            pivots[top] = 0

    walk(0, 0, 0)
    rank = np.frombuffer(rank, dtype=np.int8)
    subsets = np.arange(1 << m)
    kept = np.zeros(1 << m, dtype=np.int64)
    for j in range(m):
        kept += (subsets >> j) & 1
    counts = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        S = subsets[(subsets >> i) & 1 == 0]
        free = rank[S | 1 << i] == rank[S] + 1
        counts[i] = np.bincount((m - 1) - kept[S[free]], minlength=m)
    return ExitResult(k=k, m=m, counts=counts)


__all__ = [
    "ExitResult",
    "shannon_single_point",
    "linear_single_point",
    "linear_two_point",
    "general_two_point",
    "area_two_point",
    "repetition_domination",
    "threshold_comparison",
    "exit_tools",
]
