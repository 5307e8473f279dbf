"""Check-regular factor-graph ensembles: sampling, encoding, serialization.

A code instance is a :class:`FactorGraph`: ``k`` source variables and a list
of checks, each a Boolean function (majority, parity, or an always-observed
zero parity constraint) applied to distinct variable indices, stored as
compressed sparse rows.  Systematic codes carry a prefix of ``k`` arity-1
identity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import ReceivedWord, _check_bits


# the largest block length n = round(k / rate) a spec may ask for; a sampled
# graph holds 8 n (mean arity + 1) bytes of int64 index arrays, 3.2 GB for
# MAJ3 at this bound
_MAX_CHECKS = 10**8

KIND_NAMES = ("MAJ", "XOR", "PARITY")  # position = kind code in FactorGraph.kind
MAJ, XOR, PARITY = 0, 1, 2


class InfeasibleSpecError(ValueError):
    """The ensemble specification cannot be realized."""


class SamplingFailureError(RuntimeError):
    """Rejection sampling exceeded its retry budget."""


@dataclass(frozen=True)
class CheckKind:
    """Tagged check function: MAJ (odd arity >= 1), XOR (arity >= 1) or
    PARITY (a noiselessly-observed zero-valued XOR, arity >= 2)."""

    kind: str
    arity: int

    def __post_init__(self):
        if self.kind not in ("MAJ", "XOR", "PARITY"):
            raise ValueError(f"unknown check kind {self.kind!r}")
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if self.kind == "MAJ" and self.arity % 2 == 0:
            raise ValueError("MAJ arity must be odd")
        if self.kind == "PARITY" and self.arity < 2:
            raise ValueError("PARITY arity must be >= 2")

    @classmethod
    def maj(cls, d: int) -> "CheckKind":
        return cls("MAJ", d)

    @classmethod
    def xor(cls, d: int) -> "CheckKind":
        return cls("XOR", d)

    @classmethod
    def parity(cls, d: int) -> "CheckKind":
        return cls("PARITY", d)

    @property
    def emitted(self) -> bool:
        """Whether this check produces a transmitted coded bit."""
        return self.kind != "PARITY"


@dataclass(frozen=True)
class DegreeProfile:
    """Mixture weights over check kinds; weights sum to one."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((kind, float(w)) for kind, w in self.entries)
        object.__setattr__(self, "entries", entries)
        total = sum(w for _, w in entries)
        if not all(np.isfinite(w) and w >= 0 for _, w in entries):
            raise ValueError("profile weights must be finite and non-negative")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"profile weights must sum to 1 (got {total})")

    @classmethod
    def single(cls, kind: CheckKind) -> "DegreeProfile":
        return cls(((kind, 1.0),))

    def mean_arity(self) -> float:
        return sum(k.arity * w for k, w in self.entries)


@dataclass(frozen=True)
class EnsembleSpec:
    """Ensemble parameters; the derived block length is n = round(k / rate)."""

    k: int
    rate: float
    profile: DegreeProfile
    systematic: bool = False
    regular: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise InfeasibleSpecError("k must be >= 1")
        if not 0.0 < self.rate <= 1.0:
            raise InfeasibleSpecError("rate must lie in (0, 1]")
        if self.k > _MAX_CHECKS or self.k / self.rate > _MAX_CHECKS:  # k first: k / rate could overflow
            raise InfeasibleSpecError(
                f"block length n = round(k / rate) = round({self.k} / {self.rate:g}) exceeds the limit of {_MAX_CHECKS} checks"
            )
        if self.systematic and self.n < self.k:
            raise InfeasibleSpecError("systematic code needs n >= k")

    @property
    def n(self) -> int:
        return int(round(self.k / self.rate))


@dataclass(frozen=True, eq=False)
class FactorGraph:
    """Bipartite variable/check structure in compressed sparse rows.

    Check ``c`` applies the function with kind code ``kind[c]`` (0=MAJ, 1=XOR,
    2=PARITY) to the variables ``evar[ptr[c]:ptr[c + 1]]``.  Hand-written
    graphs are built with :meth:`from_checks`.  A graph that cannot be
    encoded or decoded raises ``ValueError``: ``k < 0``, a systematic prefix
    outside [0, n_checks], a kind code other than 0, 1 or 2, or a check whose
    (kind, arity) :class:`CheckKind` rejects.
    """

    k: int
    ptr: np.ndarray
    evar: np.ndarray
    kind: np.ndarray
    systematic_prefix: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ptr", np.asarray(self.ptr, dtype=np.int64))
        object.__setattr__(self, "evar", np.asarray(self.evar, dtype=np.int64))
        object.__setattr__(self, "kind", np.asarray(self.kind, dtype=np.int8))
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        ptr = self.ptr
        if ptr.shape != (self.kind.shape[0] + 1,) or ptr[0] != 0 or ptr[-1] != self.evar.shape[0] or (self.arity < 0).any():
            raise ValueError("ptr must hold one non-decreasing offset per check plus len(evar), starting at 0")
        if self.evar.size and (self.evar.min() < 0 or self.evar.max() >= self.k):
            raise ValueError("variable index out of range")
        if not 0 <= self.systematic_prefix <= self.n_checks:
            raise ValueError(f"systematic prefix must lie in [0, {self.n_checks}], got {self.systematic_prefix}")
        if self.kind.min(initial=MAJ) < MAJ or self.kind.max(initial=MAJ) > PARITY:
            raise ValueError("kind codes must be 0 (MAJ), 1 (XOR) or 2 (PARITY)")
        # every distinct (kind, arity) pair once through CheckKind, which holds the arity rules
        base = int(self.arity.max(initial=0)) + 1
        seen = np.zeros(3 * base, dtype=bool)
        seen[self.kind.astype(np.int64) * base + self.arity] = True
        for key in np.flatnonzero(seen).tolist():
            CheckKind(KIND_NAMES[key // base], key % base)

    @classmethod
    def from_checks(cls, k: int, checks, systematic_prefix: int = 0) -> "FactorGraph":
        """Build from ``(CheckKind, indices)`` pairs."""
        checks = [(kind, [int(i) for i in idx]) for kind, idx in checks]
        for kind, idx in checks:
            if len(idx) != kind.arity:
                raise ValueError(f"{kind.kind} check of arity {kind.arity} lists {len(idx)} variables")
        arity = np.array([kind.arity for kind, _ in checks], dtype=np.int64)
        evar = np.array([i for _, idx in checks for i in idx], dtype=np.int64)
        return cls(k, _offsets(arity), evar, [KIND_NAMES.index(kind.kind) for kind, _ in checks], systematic_prefix)

    @property
    def n_checks(self) -> int:
        return int(self.kind.shape[0])

    @cached_property
    def arity(self) -> np.ndarray:
        return np.diff(self.ptr)

    @cached_property
    def checks(self) -> tuple:
        """``((CheckKind, indices), ...)`` view for small graphs, built on first use."""
        ptr, evar = self.ptr.tolist(), self.evar.tolist()
        return tuple(
            (CheckKind(KIND_NAMES[code], ptr[c + 1] - ptr[c]), tuple(evar[ptr[c] : ptr[c + 1]]))
            for c, code in enumerate(self.kind.tolist())
        )

    @cached_property
    def emitted_indices(self) -> np.ndarray:
        """Indices of the checks that emit coded bits (all but PARITY)."""
        return np.flatnonzero(self.kind != PARITY)

    @property
    def n_emitted(self) -> int:
        return int(self.emitted_indices.shape[0])

    @property
    def flat(self):
        """``(ptr, evar, kind, arity)`` with kind codes 0=MAJ, 1=XOR, 2=PARITY."""
        return self.ptr, self.evar, self.kind, self.arity


def _offsets(arity) -> np.ndarray:
    """Row offsets ``ptr`` of checks with the given arities."""
    ptr = np.zeros(len(arity) + 1, dtype=np.int64)
    np.cumsum(arity, out=ptr[1:])
    return ptr


def _largest_remainder_counts(weights, total: int) -> np.ndarray:
    """Integer counts summing to ``total`` proportional to ``weights``."""
    w = np.asarray(weights, dtype=float)
    raw = w * total
    base = np.floor(raw).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:short]] += 1
    return base


# redraws before the rows that still repeat a variable are drawn without
# replacement: an arity near k rarely draws d distinct variables at once
_REDRAW_ROUNDS = 256


def _repeats(srt: np.ndarray) -> np.ndarray:
    """Which rows of the row-sorted ``srt`` repeat a value: one compare of
    adjacent columns at a time, with no (rows, d - 1) temporary."""
    rep = np.zeros(srt.shape[0], dtype=bool)
    for j in range(1, srt.shape[1]):
        rep |= srt[:, j] == srt[:, j - 1]
    return rep


def _sample_subsets(rng: np.random.Generator, count: int, d: int, k: int) -> np.ndarray:
    """Draw ``count`` uniform d-subsets of [0, k) as rows; a row that repeats a
    variable is redrawn, and after ``_REDRAW_ROUNDS`` drawn without replacement."""
    if d > k:
        raise InfeasibleSpecError(f"arity {d} exceeds variable count {k}")
    idx = drawn = rng.integers(0, k, size=(count, d), dtype=np.int64)
    rows = np.arange(count)  # the rows drawn last: no other row can repeat a variable
    for _ in range(_REDRAW_ROUNDS):
        rows = rows[_repeats(np.sort(drawn, axis=1))]
        if not rows.size:
            return idx
        drawn = idx[rows] = rng.integers(0, k, size=(rows.size, d), dtype=np.int64)
    for r in rows.tolist():
        idx[r] = rng.choice(k, d, replace=False)
    return idx


_SWITCH_ROUNDS = 100  # edge-switching rounds before a pairing gives up


def _sample_regular(rng: np.random.Generator, arities: np.ndarray, k: int) -> np.ndarray:
    """Configuration-model pairing: each variable fills ``sum(arities) / k`` slots.

    Returns the slot-to-variable array, check by check.  A slot repeating a
    variable of its own check is swapped with a uniformly drawn slot of another
    check, provided neither check then repeats a variable (edge switching).  A
    switch keeps every variable degree and removes the repeat, so even a
    single bad check is repaired, whatever the other checks hold.
    """
    total = int(arities.sum())
    if total % k != 0:
        raise InfeasibleSpecError(f"regularity infeasible: {total} stubs over {k} variables")
    if arities.size and int(arities.max()) > k:
        raise InfeasibleSpecError(f"arity {int(arities.max())} exceeds variable count {k}")
    stubs = np.repeat(np.arange(k, dtype=np.int64), total // k)
    rng.shuffle(stubs)
    ptr = _offsets(arities)
    check_of = np.repeat(np.arange(arities.shape[0]), arities)
    for _ in range(_SWITCH_ROUNDS):
        order = np.lexsort((stubs, check_of))
        s, c = stubs[order], check_of[order]
        bad = order[1:][(s[1:] == s[:-1]) & (c[1:] == c[:-1])]
        if bad.size == 0:
            return stubs
        for slot in bad.tolist():
            here = check_of[slot]
            for other in rng.integers(0, total, size=64).tolist():
                there = check_of[other]
                if (
                    there != here
                    and stubs[other] not in stubs[ptr[here] : ptr[here + 1]]
                    and stubs[slot] not in stubs[ptr[there] : ptr[there + 1]]
                ):
                    stubs[slot], stubs[other] = stubs[other], stubs[slot]
                    break
    raise SamplingFailureError("configuration-model pairing failed within retry budget")


def sample_graph(spec: EnsembleSpec, rng: np.random.Generator | None = None) -> FactorGraph:
    """Sample a factor graph from the ensemble.

    A pure function of ``(spec, spec.seed)`` when ``rng`` is omitted.  With
    ``systematic`` set, the first ``k`` checks are identity (MAJ arity-1)
    checks.  With ``regular`` set, every variable has the same membership
    count over non-identity checks (configuration-model pairing).
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    k = spec.k
    prefix = k if spec.systematic else 0
    kinds = [kind for kind, _ in spec.profile.entries]
    counts = _largest_remainder_counts([w for _, w in spec.profile.entries], spec.n - prefix)
    per_check = [prefix, *counts]
    codes = np.repeat(np.array([MAJ] + [KIND_NAMES.index(kind.kind) for kind in kinds], dtype=np.int8), per_check)
    arity = np.repeat(np.array([1] + [kind.arity for kind in kinds], dtype=np.int64), per_check)
    if spec.regular:
        rows = [_sample_regular(rng, arity[prefix:], k)]
    else:
        rows = [_sample_subsets(rng, int(c), kind.arity, k).ravel() for kind, c in zip(kinds, counts) if c]
    evar = np.concatenate([np.arange(prefix, dtype=np.int64), *rows])
    return FactorGraph(k, _offsets(arity), evar, codes, prefix)


class ConstraintViolationError(ValueError):
    """A PARITY constraint is violated by the supplied source."""


def encode(graph: FactorGraph, source) -> np.ndarray:
    """Apply every check to the source; returns the emitted coded bits.

    MAJ outputs 1 iff a strict majority of its inputs is 1; XOR outputs the
    parity.  PARITY checks are not emitted but must evaluate to zero.  Source
    values other than 0 or 1 raise ``ValueError``.
    """
    s = _check_bits(source, "source bits").astype(np.int64, copy=False)
    if s.shape[0] != graph.k:
        raise ValueError("source length must equal k")
    ptr, evar, codes, arities = graph.flat
    sums = np.add.reduceat(s[evar], ptr[:-1])
    vals = np.where(codes == MAJ, sums > arities // 2, sums % 2).astype(np.int8)
    if np.any(vals[codes == PARITY] != 0):
        raise ConstraintViolationError("PARITY constraint violated by source")
    return vals[codes != PARITY]


def degree_stats(graph: FactorGraph) -> np.ndarray:
    """Histogram of variable degrees over non-identity-prefix checks.

    Entry ``h[d]`` counts variables belonging to exactly ``d`` checks beyond
    the systematic prefix; the mean equals (sum of arities) / k.
    """
    start = int(graph.ptr[graph.systematic_prefix])
    deg = np.bincount(graph.evar[start:], minlength=graph.k)
    return np.bincount(deg)


def _check_observations(graph: FactorGraph, received: ReceivedWord) -> np.ndarray:
    """Observed output of every check: the received symbol of an emitted check
    (``ERASED`` when erased) and 0 for a PARITY check."""
    if graph.n_emitted != len(received):
        raise ValueError("received length must match the emitted check count")
    obs = np.zeros(graph.n_checks, dtype=np.int8)
    obs[graph.emitted_indices] = received.symbols
    return obs


def serialize_graph(graph: FactorGraph) -> str:
    """Line-oriented text form: header ``k n systematic`` then one check per line."""
    lines = [f"{graph.k} {graph.n_checks} {graph.systematic_prefix}"]
    for kind, idx in graph.checks:
        lines.append(" ".join([kind.kind, str(kind.arity)] + [str(i) for i in idx]))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> FactorGraph:
    header, *lines = [ln for ln in text.strip().splitlines() if ln.strip()] or [""]
    toks = header.split()
    if len(toks) != 3:
        raise ValueError(f"graph header must hold k, n and the systematic prefix: {header!r}")
    k, n, sysprefix = (int(t) for t in toks)
    checks = []
    for ln in lines:
        toks = ln.split()
        if len(toks) < 2 or len(toks) != 2 + int(toks[1]):
            raise ValueError(f"check line must hold a kind, an arity and that many indices: {ln!r}")
        checks.append((CheckKind(toks[0], int(toks[1])), tuple(int(t) for t in toks[2:])))
    if len(checks) != n:
        raise ValueError("check count does not match header")
    return FactorGraph.from_checks(k, checks, systematic_prefix=sysprefix)


def serialize_profile(profile: DegreeProfile) -> str:
    """Profile file format: one ``KIND arity weight`` line per entry."""
    return "\n".join(f"{k.kind} {k.arity} {w:.12g}" for k, w in profile.entries) + "\n"


def parse_profile(text: str) -> DegreeProfile:
    entries = []
    for ln in text.strip().splitlines():
        if not ln.strip() or ln.lstrip().startswith("#"):
            continue
        toks = ln.split()
        if len(toks) != 3:
            raise ValueError(f"profile line must hold a kind, an arity and a weight: {ln!r}")
        entries.append((CheckKind(toks[0], int(toks[1])), float(toks[2])))
    return DegreeProfile(tuple(entries))


__all__ = [
    "CheckKind",
    "DegreeProfile",
    "EnsembleSpec",
    "FactorGraph",
    "InfeasibleSpecError",
    "SamplingFailureError",
    "ConstraintViolationError",
    "sample_graph",
    "encode",
    "degree_stats",
    "serialize_graph",
    "parse_graph",
    "serialize_profile",
    "parse_profile",
]
