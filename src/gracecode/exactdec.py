"""Exact F2 decoding tools: rank/hrank, sub-sampling, and the Monte-Carlo
bit-MAP BER of linear codes over a BEC.

A :class:`BitMatrix` is a k x m matrix over F2 stored column-sparse; rank and
forced-coordinate computations run on bitsets through the kernels in
:mod:`gracecode._kernels`, one connected component of the row-column graph
at a time.  ``hrank`` counts coordinates forced to a unique
value by the linear system — equivalently, standard basis vectors contained
in the column span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .ensemble import _offsets


class ContradictionError(RuntimeError):
    """No source word is consistent with the observations."""


@dataclass(frozen=True)
class BitMatrix:
    """F2 matrix with ``k`` rows and ``m`` columns, stored column-sparse."""

    k: int
    m: int
    indptr: np.ndarray
    rowidx: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indptr", np.asarray(self.indptr, dtype=np.int64))
        object.__setattr__(self, "rowidx", np.asarray(self.rowidx, dtype=np.int64))
        if self.indptr.shape[0] != self.m + 1:
            raise ValueError("indptr length must be m + 1")
        if self.rowidx.size and (self.rowidx.min() < 0 or self.rowidx.max() >= self.k):
            raise ValueError("row index out of range")

    @classmethod
    def _stack(cls, k: int, cols) -> "BitMatrix":
        """Build from a list of row-index arrays, one per column."""
        rowidx = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
        return cls(k=k, m=len(cols), indptr=_offsets([c.shape[0] for c in cols]), rowidx=rowidx)

    @classmethod
    def from_dense(cls, a) -> "BitMatrix":
        a = np.asarray(a)
        return cls._stack(a.shape[0], [np.nonzero(a[:, j] % 2)[0] for j in range(a.shape[1])])

    @classmethod
    def from_columns(cls, columns, k: int) -> "BitMatrix":
        """Build from an iterable of row-index lists, one per column."""
        return cls._stack(k, [np.asarray(sorted(set(int(i) for i in c)), dtype=np.int64) for c in columns])

    @classmethod
    def identity(cls, k: int) -> "BitMatrix":
        return cls(k=k, m=k, indptr=np.arange(k + 1, dtype=np.int64), rowidx=np.arange(k, dtype=np.int64))

    @classmethod
    def repetition(cls, k: int, copies: int) -> "BitMatrix":
        """Generator of the ``copies``-fold repetition code, columns [I | I | ...]."""
        m = k * copies
        return cls(
            k=k,
            m=m,
            indptr=np.arange(m + 1, dtype=np.int64),
            rowidx=np.tile(np.arange(k, dtype=np.int64), copies),
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.k, self.m), dtype=np.uint8)
        for j in range(self.m):
            out[self.rowidx[self.indptr[j] : self.indptr[j + 1]], j] = 1
        return out

    def column(self, j: int) -> np.ndarray:
        return self.rowidx[self.indptr[j] : self.indptr[j + 1]]


@dataclass(frozen=True)
class HrankResult:
    rank: int
    forced: frozenset

    @property
    def hrank(self) -> int:
        return len(self.forced)


def rank_hrank(A: BitMatrix) -> HrankResult:
    """Gaussian-elimination rank and the set of forced coordinates.

    Coordinate ``j`` is forced iff ker(A) is contained in {x : x_j = 0},
    i.e. the unit vector e_j lies in the span of A's columns.
    """
    keep = np.ones(A.m, dtype=np.uint8)
    rank, forced = _kernels.gf2_rank_forced_components(_kernels.gf2_components(A.indptr, A.rowidx, A.k), keep, A.k)
    return HrankResult(rank=int(rank), forced=frozenset(np.nonzero(forced)[0].tolist()))


def subsample(A: BitMatrix, p: float, q: float, rng: np.random.Generator) -> BitMatrix:
    """Keep each row w.p. ``p`` and each column w.p. ``q``, independently."""
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("keep probabilities must lie in [0, 1]")
    keep_rows = rng.random(A.k) < p
    keep_cols = np.nonzero(rng.random(A.m) < q)[0]
    newrow = np.cumsum(keep_rows) - 1
    cols = []
    for j in keep_cols:
        rows = A.column(int(j))
        rows = rows[keep_rows[rows]]
        cols.append(newrow[rows])
    return BitMatrix._stack(int(keep_rows.sum()), cols)


def map_ber_linear(G: BitMatrix, eps: float, trials: int, rng: np.random.Generator) -> float:
    """Monte-Carlo bit-MAP BER of the linear code with generator ``G`` over
    a BEC with erasure probability ``eps``.

    Per trial the unerased columns are kept and the BER contribution is
    (k - hrank) / (2k): forced bits are decoded exactly, the rest cannot be
    guessed better than random.  Raises ``ValueError`` for ``eps`` outside
    [0, 1], a ``trials`` that is not an integer >= 1, or ``k = 0``.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if G.k == 0:
        raise ValueError("a generator with k = 0 rows has no bit error rate")
    parts = _kernels.gf2_components(G.indptr, G.rowidx, G.k)
    total = 0.0
    for _ in range(trials):
        keep = (rng.random(G.m) >= eps).astype(np.uint8)
        _, forced = _kernels.gf2_rank_forced_components(parts, keep, G.k)
        total += (G.k - int(forced.sum())) / (2.0 * G.k)
    return total / trials


__all__ = [
    "BitMatrix",
    "HrankResult",
    "ContradictionError",
    "rank_hrank",
    "subsample",
    "map_ber_linear",
]
