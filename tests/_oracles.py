"""Independent reference implementations used as test oracles.

Everything here is deliberately written in the most direct (and slow) way
possible — exhaustive enumeration and exact rational arithmetic — so that
agreement with the library is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import numpy as np
from scipy.special import gammaln

from gracecode.exactdec import BitMatrix


def maj_depth1_error(arity: int, d: int, q: Fraction, payoff: str = "error") -> Fraction:
    """Exact payoff of MAP-estimating the root of a depth-1 majority tree.

    The root bit S0 is uniform and participates in ``d`` independent MAJ
    checks of the given arity.  Each check has ``arity - 1`` fresh uniform
    branch bits, each independently revealed with probability ``q``; the
    check's majority value is always observed.  Returns the exact expected
    payoff of the posterior error, as a Fraction (payoff "error") or a float
    (payoff "chi2", which is not rational-valued in general).

    Only feasible for small ``d`` (the enumeration is 4^((arity-1)d) states).
    """
    m = arity - 1
    # per-check: enumerate branch values (2^m) x reveal masks (2^m)
    branch_vals = list(product((0, 1), repeat=m))
    masks = list(product((0, 1), repeat=m))
    half = Fraction(1, 2)

    def check_obs(s0: int):
        """Distribution over per-check observations given the root value."""
        out: dict = {}
        for vals in branch_vals:
            for mask in masks:
                p = Fraction(1, 1)
                for rev in mask:
                    p *= q if rev else (1 - q)
                p *= half ** m
                maj = 1 if (s0 + sum(vals)) * 2 > arity else 0
                seen = tuple(v if rev else None for v, rev in zip(vals, mask))
                key = (maj, seen)
                out[key] = out.get(key, Fraction(0)) + p
        return out

    obs0, obs1 = check_obs(0), check_obs(1)
    # joint over d independent checks, for each root value
    joint0: dict = {(): Fraction(1)}
    joint1: dict = {(): Fraction(1)}
    for _ in range(d):
        nxt0: dict = {}
        nxt1: dict = {}
        for key, p in joint0.items():
            for okey, op in obs0.items():
                nk = key + (okey,)
                nxt0[nk] = nxt0.get(nk, Fraction(0)) + p * op
        for key, p in joint1.items():
            for okey, op in obs1.items():
                nk = key + (okey,)
                nxt1[nk] = nxt1.get(nk, Fraction(0)) + p * op
        joint0, joint1 = nxt0, nxt1
    if payoff == "error":
        total = Fraction(0)
        for key in set(joint0) | set(joint1):
            p0 = joint0.get(key, Fraction(0))
            p1 = joint1.get(key, Fraction(0))
            total += min(p0, p1)
        return total / 2
    if payoff == "chi2":
        tot = 0.0
        for key in set(joint0) | set(joint1):
            p0 = float(joint0.get(key, Fraction(0)))
            p1 = float(joint1.get(key, Fraction(0)))
            if p0 + p1 > 0.0:
                e = min(p0, p1) / (p0 + p1)
                tot += 0.5 * (p0 + p1) * (1.0 - (1.0 - 2.0 * e) ** 2)
        return tot
    raise ValueError(f"unsupported payoff {payoff!r}")


def gf2_rank_dense(mat: np.ndarray) -> int:
    """Textbook GF(2) row elimination on a dense 0/1 matrix."""
    m = (np.asarray(mat) % 2).astype(np.uint8).copy()
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i, c]:
                piv = i
                break
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] ^= m[r]
        r += 1
    return r


def forced_set_dense(mat: np.ndarray) -> set:
    """Coordinates j with e_j in the column span, by rank augmentation."""
    mat = (np.asarray(mat) % 2).astype(np.uint8)
    k = mat.shape[0]
    base = gf2_rank_dense(mat)
    out = set()
    for j in range(k):
        e = np.zeros((k, 1), dtype=np.uint8)
        e[j] = 1
        if gf2_rank_dense(np.hstack([mat, e])) == base:
            out.add(j)
    return out


def exact_map_ber(G: BitMatrix, eps: float) -> float:
    """Exact bit-MAP BER over the BEC by enumerating all 2^m erasure patterns."""
    dense = G.to_dense()
    total = 0.0
    for mask in range(1 << G.m):
        keep = np.array([(mask >> j) & 1 for j in range(G.m)], dtype=bool)
        kept = int(keep.sum())
        p = (1.0 - eps) ** kept * eps ** (G.m - kept)
        if p == 0.0:
            continue
        total += p * (G.k - len(forced_set_dense(dense[:, keep]))) / (2.0 * G.k)
    return total


def _reduce(v: int, pivot_of: dict) -> int:
    """Residual of the bitset ``v`` against an echelon basis keyed by lowest bit."""
    while v:
        b = pivot_of.get((v & -v).bit_length() - 1)
        if b is None:
            return v
        v ^= b
    return 0


def _bitsets(G: BitMatrix) -> list:
    return [sum(1 << int(r) for r in G.column(j)) for j in range(G.m)]


def rank_forced_per_coordinate(G: BitMatrix, keep) -> tuple:
    """Rank of the kept columns and the forced mask, reducing every unit vector."""
    pivot_of: dict = {}
    for c, v in enumerate(_bitsets(G)):
        if keep[c]:
            v = _reduce(v, pivot_of)
            if v:
                pivot_of[(v & -v).bit_length() - 1] = v
    forced = np.array([_reduce(1 << j, pivot_of) == 0 for j in range(G.k)], dtype=np.uint8)
    return len(pivot_of), forced


def exit_counts_per_pattern(G: BitMatrix) -> np.ndarray:
    """EXIT counts with a fresh elimination per (coordinate, erasure pattern)."""
    m = G.m
    cols = _bitsets(G)
    counts = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        others = [j for j in range(m) if j != i]
        for mask in range(1 << (m - 1)):
            pivots: dict = {}
            for b, j in enumerate(others):
                if not (mask >> b) & 1:
                    v = _reduce(cols[j], pivots)
                    if v:
                        pivots[(v & -v).bit_length() - 1] = v
            if _reduce(cols[i], pivots):
                counts[i, bin(mask).count("1")] += 1
    return counts


def compositions_itertools(d: int, K: int) -> tuple:
    """Weak compositions of d into K >= 1 parts from the stars-and-bars
    ``combinations`` enumeration, with their log-multinomial weights."""
    bars = list(combinations(range(d + K - 1), K - 1))
    bars = np.array(bars, dtype=np.int64).reshape(len(bars), K - 1)
    left = np.full((bars.shape[0], 1), -1, dtype=np.int64)
    right = np.full((bars.shape[0], 1), d + K - 1, dtype=np.int64)
    z = (np.diff(np.hstack([left, bars, right]), axis=1) - 1).astype(np.int16)
    logc = gammaln(d + 1) - gammaln(z.astype(np.float64) + 1.0).sum(axis=1)
    return z, logc


def slow_encode(checks, source) -> list:
    """Reference encoder: per-check Python evaluation of MAJ/XOR/PARITY."""
    out = []
    for kind, idx in checks:
        s = sum(int(source[i]) for i in idx)
        if kind.kind == "MAJ":
            bit = 1 if s > kind.arity // 2 else 0
        else:
            bit = s % 2
        if kind.kind == "PARITY":
            if bit != 0:
                raise AssertionError("parity violated")
        else:
            out.append(bit)
    return out
