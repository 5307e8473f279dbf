"""Hot numerical kernels in numpy and Python integers.

* GF(2) column elimination with forced-coordinate detection,
* flooding belief-propagation message updates (majority and parity checks).

Messages are log-likelihood ratios ``log P(bit=0) - log P(bit=1)``; finite
values saturate at +/-``LLR_CLAMP`` and certainty is the explicit value
+/-inf.
"""

from __future__ import annotations

import numpy as np

from .ensemble import MAJ

LLR_CLAMP = 500.0

# Recorded by the benchmark's environment block; there is no compiled backend.
USING_NUMBA = False


# ---------------------------------------------------------------------------
# GF(2) elimination over bit-packed columns
# ---------------------------------------------------------------------------
#
# Columns are vectors in F2^k held as Python-int bitsets (bit j of the column
# is coordinate j).  The elimination maintains an echelon basis keyed by
# lowest set bit ("pivot").  A coordinate j is *forced* iff the unit vector
# e_j lies in the column span.  In the fully reduced basis every vector is its
# pivot's unit vector plus non-pivot coordinates, and a span element's pivot
# coordinates name the basis vectors it sums.  So a non-pivot coordinate is
# never forced, and pivot p is forced iff its fully reduced vector has no
# non-pivot coordinate.  That projection is built in one walk down the pivots:
# the projection of basis vector p is its own non-pivot part plus the
# projections of the higher pivots it contains.


def gf2_reduce(v: int, pivot_of: dict) -> int:
    """Reduce the bitset ``v`` against the echelon basis ``pivot_of``.

    Returns 0 when ``v`` lies in the span, else a residual whose lowest set
    bit has no pivot yet; inserting it is ``pivot_of[low bit] = residual``.
    """
    while v:
        b = pivot_of.get((v & -v).bit_length() - 1)
        if b is None:
            return v
        v ^= b
    return 0


def gf2_columns(indptr, rowidx) -> list:
    """The columns of a compressed-sparse matrix as Python-int bitsets."""
    cols = []
    for c in range(indptr.shape[0] - 1):
        v = 0
        for r in rowidx[indptr[c] : indptr[c + 1]].tolist():
            v |= 1 << r
        cols.append(v)
    return cols


def gf2_rank_forced(cols, keep, k):
    """Rank of the kept columns and the forced-coordinate mask.

    ``cols`` holds the column bitsets (see ``gf2_columns``) and ``keep`` is a
    uint8 mask over them.  Returns ``(rank, forced)`` with ``forced`` a uint8
    array of length ``k``.
    """
    # the insertion order changes neither the rank nor the span; taking the
    # columns with the highest top coordinate first shortens the reduction
    # chains (about 1.4x faster on LDGM3 generators at k = 2000)
    kept = sorted(np.flatnonzero(keep).tolist(), key=lambda c: cols[c].bit_length(), reverse=True)
    pivot_of: dict[int, int] = {}
    for c in kept:
        v = gf2_reduce(cols[c], pivot_of)
        if v:
            pivot_of[(v & -v).bit_length() - 1] = v
    pivots = 0
    for p in pivot_of:
        pivots |= 1 << p
    free = ((1 << k) - 1) ^ pivots
    proj: dict[int, int] = {}
    forced = np.zeros(k, dtype=np.uint8)
    for p in sorted(pivot_of, reverse=True):
        v = pivot_of[p]
        acc = v & free
        higher = (v & pivots) ^ (1 << p)
        while higher:
            low = higher & -higher
            acc ^= proj[low.bit_length() - 1]
            higher ^= low
        proj[p] = acc
        forced[p] = acc == 0
    return len(pivot_of), forced


# ---------------------------------------------------------------------------
# Belief propagation: variable-side extrinsic messages
# ---------------------------------------------------------------------------


def _bp_var_extrinsic(evar, c2v, totals, lam, clamp):
    """Write the variable-to-check messages into ``lam``, given the posterior's
    per-variable (finite sum, +inf count, -inf count) ``totals`` of ``c2v``.

    The posterior stops BP at a variable certain of both values, so none occurs here.
    """
    tot, npos, nneg = totals
    pinf = c2v == np.inf
    ninf = c2v == -np.inf
    fin = np.where(np.isfinite(c2v), c2v, 0.0)
    pos = npos[evar] - pinf
    neg = nneg[evar] - ninf
    rest = np.clip(tot[evar] - fin, -clamp, clamp)
    lam[:] = np.where(pos > 0, np.inf, np.where(neg > 0, -np.inf, rest))


# ---------------------------------------------------------------------------
# Belief propagation: check-side updates
# ---------------------------------------------------------------------------
#
# Majority checks: the target-bit likelihood ratio for an observed 0 is
# P(T <= thr) / P(T <= thr - 1), thr = (d-1)//2, where T counts ones among the
# other d-1 neighbors.  A forward table (point masses of the count over the
# first i neighbors) and a backward table (cumulative counts over neighbors
# i..d-1) are swept once per block; each entry is a contiguous length-C row,
# indexed [neighbor, count].  Only counts t <= thr are swept: the leave-one-out
# sums read no other entry.  An observed 1 is the mirror image (negate
# incoming and outgoing LLRs).  Parity checks send an informative message
# only when every other neighbor is certain.


def _maj_group_update(lam, obs, clamp):
    """Vectorized majority update for a (C, d) block of incoming LLRs."""
    C, d = lam.shape
    thr = (d - 1) // 2
    sign = np.where(obs == 1, -1.0, 1.0)
    s = np.multiply(lam.T, sign, order="C")
    with np.errstate(over="ignore"):
        u = np.where(s == np.inf, 0.0, np.where(s == -np.inf, 1.0, 1.0 / (1.0 + np.exp(np.clip(s, -clamp, clamp)))))
    v = 1.0 - u
    fw = np.zeros((d, thr + 1, C))
    fw[0, 0] = 1.0
    for i in range(d - 1):
        m = min(i + 1, thr) + 1
        np.multiply(fw[i, :m], v[i], out=fw[i + 1, :m])
        fw[i + 1, 1:m] += fw[i, : m - 1] * u[i]
    bw = np.empty((d + 1, thr + 1, C))
    bw[d] = 1.0
    for i in range(d - 1, 0, -1):
        np.multiply(v[i], bw[i + 1], out=bw[i])
        bw[i, 1:] += u[i] * bw[i + 1, :-1]
    # leave neighbor i out: a = P(T <= thr), b = P(T <= thr - 1), summed over t
    # in increasing order for every i at once
    a_sum = np.zeros((d, C))
    b_sum = np.zeros((d, C))
    for t in range(thr + 1):
        a_sum[t:] += fw[t:, t] * bw[t + 1 :, thr - t]
        if t < thr:
            b_sum[t:] += fw[t:, t] * bw[t + 1 :, thr - t - 1]
    bad = a_sum <= 0.0
    sure = b_sum <= 0.0
    ratio = np.log(np.maximum(a_sum, 1e-300, out=a_sum), out=a_sum)
    ratio -= np.log(np.maximum(b_sum, 1e-300, out=b_sum), out=b_sum)
    msg = np.where(bad, 0.0, np.where(sure, np.inf, np.minimum(ratio, clamp, out=ratio)))
    return sign[:, None] * msg.T, bool(bad.any())


def _xor_group_update(lam, obs):
    C, d = lam.shape
    cert = np.isinf(lam)
    bits = cert & (lam < 0)
    n_unc = d - cert.sum(axis=1)
    parity = (bits.sum(axis=1) + obs) % 2
    out = np.zeros((C, d))
    zero_rows = n_unc == 0
    if np.any(zero_rows):
        forced = (parity[zero_rows, None] + bits[zero_rows]) % 2
        out[zero_rows] = np.where(forced == 0, np.inf, -np.inf)
    one_rows = np.where(n_unc == 1)[0]
    if one_rows.size:
        j = np.argmax(~cert[one_rows], axis=1)
        out[one_rows, j] = np.where(parity[one_rows] == 0, np.inf, -np.inf)
    return out


def _bp_check_update(groups, obs, lam, c2v, clamp):
    """Grouped numpy check update; ``groups`` maps (kind, d) -> edge index mat.

    Every kind other than MAJ (XOR and observed PARITY) takes the parity update.
    """
    contradiction = False
    for (kind, d), (check_ids, emat) in groups.items():
        lam_g = lam[emat]
        obs_g = obs[check_ids]
        if kind == MAJ:
            out, bad = _maj_group_update(lam_g, obs_g, clamp)
            contradiction = contradiction or bad
        else:
            out = _xor_group_update(lam_g, obs_g)
        c2v[emat] = out
    return 1 if contradiction else 0


__all__ = [
    "LLR_CLAMP",
    "gf2_columns",
    "gf2_rank_forced",
]
