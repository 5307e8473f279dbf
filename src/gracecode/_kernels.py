"""GF(2) column elimination with forced-coordinate detection, on columns held
as Python-int bitsets.
"""

from __future__ import annotations

import numpy as np

# Recorded by the benchmark's environment block; there is no compiled backend.
USING_NUMBA = False


# ---------------------------------------------------------------------------
# GF(2) elimination over bit-packed columns
# ---------------------------------------------------------------------------
#
# Columns are vectors in F2^k held as Python-int bitsets (bit j of the column
# is coordinate j).  The echelon basis is a list of k + 1 slots indexed by
# each vector's top bit, ``v.bit_length()``, which allocates nothing: slot t
# holds the basis vector whose top bit is t, or 0, so a reduction step is one
# ``bit_length``, one list read and one XOR.  A coordinate j is *forced* iff
# the unit vector e_j lies in the column span.  In the fully reduced basis
# every vector is its pivot's unit vector plus non-pivot coordinates, and a
# span element's pivot coordinates name the basis vectors it sums.  So a
# non-pivot coordinate is never forced, and pivot p is forced iff its fully
# reduced vector has no non-pivot coordinate.  That projection is built in
# one walk up the pivots: the projection of basis vector p is its own
# non-pivot part plus the projections of the lower pivots it contains.


def gf2_reduce(v: int, pivots: list) -> int:
    """Reduce the bitset ``v`` against the echelon basis ``pivots``, whose
    slot t holds the basis vector with top bit t or 0.

    Returns 0 when ``v`` lies in the span, else a residual ``r`` whose top bit
    has no pivot yet; inserting it is ``pivots[r.bit_length()] = r``.
    """
    while v:
        b = pivots[v.bit_length()]
        if not b:
            return v
        v ^= b
    return 0


def gf2_columns(indptr, rowidx) -> list:
    """The columns of a compressed-sparse matrix as Python-int bitsets."""
    rows, bounds = rowidx.tolist(), indptr.tolist()
    cols = []
    for a, b in zip(bounds, bounds[1:]):
        v = 0
        for r in rows[a:b]:
            v |= 1 << r
        cols.append(v)
    return cols


def gf2_rank_forced(cols, keep, k):
    """Rank of the kept columns and the forced-coordinate mask.

    ``cols`` holds the column bitsets (see ``gf2_columns``) and ``keep`` is a
    uint8 mask over them; the kept columns are inserted in the order of
    ``cols``.  Returns ``(rank, forced)`` with ``forced`` a uint8 array of
    length ``k``.
    """
    pivots = [0] * (k + 1)
    for c in np.flatnonzero(keep).tolist():
        v = gf2_reduce(cols[c], pivots)
        if v:
            pivots[v.bit_length()] = v
    tops = [p for p, v in enumerate(pivots) if v]
    pivot_mask = sum(1 << (p - 1) for p in tops)
    free = ((1 << k) - 1) ^ pivot_mask
    proj = [0] * (k + 1)
    forced = np.zeros(k, dtype=np.uint8)
    for p in tops:
        v = pivots[p]
        acc = v & free
        lower = (v & pivot_mask) ^ (1 << (p - 1))
        while lower:
            q = lower.bit_length()
            acc ^= proj[q]
            lower ^= 1 << (q - 1)
        proj[p] = acc
        forced[p - 1] = acc == 0
    return len(tops), forced


# Columns that share no row span independent subspaces, so the rank and the
# forced set of a matrix add up over the connected components of its
# row-column graph.  Each component is eliminated on its own, its rows
# relabelled 0, 1, ... by descending degree, so a column's bitset is as wide
# as its component and the densest rows hold the low labels, which a top-bit
# pivot rarely reaches (about 1.4x faster than global row order on LDGM3 at
# k = 2000).  A one-row component forces its row when one of its columns is
# kept; those are counted without a bitset.


def gf2_components(indptr, rowidx, k):
    """Split the matrix ``(indptr, rowidx)`` with ``k`` rows into the
    connected components of its row-column graph.

    Returns ``(single_row, single_col, blocks)``: the columns of the one-row
    components with their rows, and per larger component its rows (local row
    i is global row ``rows[i]``, by descending degree, ties by global row),
    its columns (by ascending lowest local row, the order of insertion) and
    their bitsets over the local row labels.
    """
    nnz = rowidx.shape[0]
    starts = np.zeros(nnz, dtype=bool)
    starts[indptr[:-1][indptr[:-1] < nnz]] = True
    link = np.flatnonzero(~starts[1:]) + 1  # entry i and i - 1 share a column
    a, b = rowidx[link - 1], rowidx[link]
    # label each row by the least row of its component: hook the larger root
    # under the smaller across every link, then follow pointers to the roots
    root = np.arange(k)
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            break
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    size = np.bincount(root, minlength=k)
    cols = np.flatnonzero(indptr[1:] > indptr[:-1])
    col_root = root[rowidx[indptr[cols]]]
    alone = size[col_root] == 1
    single_col = cols[alone]
    single_row = rowidx[indptr[single_col]]
    rows_order = np.lexsort((-np.bincount(rowidx, minlength=k), root))
    group_start = np.cumsum(size) - size  # first position of each root's rows
    local = np.empty(k, dtype=np.int64)
    local[rows_order] = np.arange(k) - group_start[root[rows_order]]
    low = np.minimum.reduceat(local[rowidx], indptr[cols]) if nnz else cols
    cols, col_root, low = cols[~alone], col_root[~alone], low[~alone]
    order = np.lexsort((low, col_root))
    cols, col_root = cols[order], col_root[order]
    bounds = np.flatnonzero(np.diff(col_root)) + 1
    local_bits = gf2_columns(indptr, local[rowidx])
    blocks = []
    for block in np.split(cols, bounds) if cols.shape[0] else []:
        r = int(root[rowidx[indptr[block[0]]]])
        rows = rows_order[group_start[r] : group_start[r] + size[r]]
        blocks.append((rows, block, [local_bits[c] for c in block.tolist()]))
    return single_row, single_col, blocks


def gf2_rank_forced_components(parts, keep, k):
    """``gf2_rank_forced`` over the components ``parts`` of
    ``gf2_components``, eliminating each component separately."""
    single_row, single_col, blocks = parts
    forced = np.zeros(k, dtype=np.uint8)
    forced[single_row[keep[single_col] != 0]] = 1
    rank = int(np.count_nonzero(forced))
    for rows, cols, bits in blocks:
        sub = keep[cols]
        if sub.any():
            r, f = gf2_rank_forced(bits, sub, rows.shape[0])
            rank += r
            forced[rows] = f
    return rank, forced


__all__ = [
    "gf2_columns",
    "gf2_components",
    "gf2_rank_forced",
    "gf2_rank_forced_components",
]
