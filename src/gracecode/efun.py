"""Error/entropy polynomial machinery for majority and LDGM ensembles.

A degree-d variable sees d messages drawn from a :class:`MessageAlphabet`:
likelihood-ratio magnitudes m >= 1 with q-dependent weights (events that fully
determine the bit carry zero error and are dropped from the alphabet).  The
d-th error polynomial E_d(q) averages a payoff of the posterior error over
all message-type and agreement patterns.

Every E-function takes one path: ``_table`` stacks the nonnegative term
representations of E_0..E_D, in the alphabet weights, for one payoff, and
``_averager`` sums pmf[d] * E_d(q) over a degree pmf from a slice of it.  A
degree's terms come from ``_lattice_chunks``, which streams the lattice, each
row's weight and each row's type in fixed chunks (they depend only on d and
on which entry owns each lattice column), and from coefficients that depend
on the alphabet's magnitudes and the payoff; a table is cached on the
alphabet itself.  ``eval_degree`` is the one-degree case of ``_average`` and
``EFunctionFamily`` calls it with its degree laws (on the BSC once per
distinct crossover of a call, whose alphabet is built for that call).
``mixed_efun`` multiplies the XOR closed form with the Poisson families of
the MAJ components; an LDGM(d) ensemble is the profile ``XOR:d``.
``ClosedFormFamily`` wraps it and the systematic-regular binomial-law family,
and the profile optimizer calls its ``_mixed_at``.  ``error_poly`` expands
a degree of the table in powers of q.

An evaluation takes many lanes at once: one q and, for a family or a
mixture, one load (so one degree law) per lane.  It works element by element
in a fixed order, so a lane gets the same bits whatever the other lanes are.
A family's ``_at`` and ``_mixed_at`` set up what a fixed set of loads needs
once, for a DE recursion that evaluates them step after step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import ClassVar

import numpy as np

from .channels import h_b
from .ensemble import DegreeProfile

_MAX_DEGREE = 14
_MAX_ENTRIES = 7
_BSC_MIN_P = 1e-12


@dataclass(frozen=True)
class EPolynomial:
    """Power-basis polynomial in q; coeffs[i] multiplies q**i."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def as_array(self) -> np.ndarray:
        return np.array(self.coeffs)

    def __call__(self, q):
        return np.polynomial.polynomial.polyval(q, self.as_array())


def _columns(entries):
    """Per-lattice-column scalars: log-ratio increment, branch log-prob, and
    the tuple of the columns' owning entries.

    Unit-magnitude entries occupy one column; larger magnitudes split into
    agree/disagree columns with probabilities 1/(1+m) and m/(1+m).
    """
    col_l, col_logq, col_entry = [], [], []
    for j, (m, _) in enumerate(entries):
        if m == 1.0:
            col_l.append(0.0)
            col_logq.append(0.0)
            col_entry.append(j)
        else:
            col_l.append(-math.log(m))
            col_logq.append(math.log(1.0 / (1.0 + m)))
            col_entry.append(j)
            col_l.append(math.log(m))
            col_logq.append(math.log(m / (1.0 + m)))
            col_entry.append(j)
    return np.array(col_l), np.array(col_logq), tuple(col_entry)


@dataclass(frozen=True, eq=False)
class MessageAlphabet:
    """Message types for one check seen from a variable: (magnitude, weight).

    Magnitudes are likelihood ratios folded to m >= 1; weights are
    polynomials in q (constants for BSC alphabets built at a fixed crossover).
    Total retained mass may be < 1: the remainder is fully-determining events.

    An alphabet caches its table of E_0..E_D terms per payoff (``_table``),
    so the table lives exactly as long as it does.
    """

    channel: str
    entries: tuple
    _horner: np.ndarray = field(init=False, repr=False)
    _cols: tuple = field(init=False, repr=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.channel not in ("BEC", "BSC"):
            raise ValueError(f"unknown channel tag {self.channel!r}")
        if not self.entries:
            raise ValueError("an alphabet needs at least one entry")
        if len(self.entries) > _MAX_ENTRIES:
            raise ValueError(f"alphabet limited to {_MAX_ENTRIES} entries")
        ent = []
        for m, w in self.entries:
            m = float(m)
            if not math.isfinite(m) or m < 1.0:
                raise ValueError("magnitudes must be finite and >= 1")
            if not isinstance(w, EPolynomial):
                w = EPolynomial(tuple(np.atleast_1d(w)))
            ent.append((m, w))
        object.__setattr__(self, "entries", tuple(ent))
        # the weight polynomials as rows of one matrix, highest power first and
        # zero-padded on top, so that ``_average`` runs polyval's Horner steps
        # on all entries at once
        coeffs = [w.coeffs for _, w in ent]
        horner = np.zeros((max(map(len, coeffs)), len(ent)))
        for j, c in enumerate(coeffs):
            horner[horner.shape[0] - len(c) :, j] = c[::-1]
        horner.setflags(write=False)
        object.__setattr__(self, "_horner", horner)
        object.__setattr__(self, "_cols", _columns(ent))


_BEC_ALPHABETS = {
    "LDMC3_BEC": MessageAlphabet(
        "BEC",
        (
            (1.0, EPolynomial((0.0, 0.0, 0.5))),
            (2.0, EPolynomial((0.0, 1.5, -1.5))),
            (3.0, EPolynomial((1.0, -2.0, 1.0))),
        ),
    ),
    "LDMC5_BEC": MessageAlphabet(
        "BEC",
        (
            (1.0, EPolynomial((0.0, 0.0, 0.0, 1.0, -0.375))),
            (2.0, EPolynomial((0.0, 0.0, 0.0, 2.25, -2.25))),
            (4.0 / 3.0, EPolynomial((0.0, 0.0, 2.625, -5.25, 2.625))),
            (3.0, EPolynomial((0.0, 0.0, 3.0, -6.0, 3.0))),
            (7.0 / 4.0, EPolynomial((0.0, 2.75, -8.25, 8.25, -2.75))),
            (4.0, EPolynomial((0.0, 1.25, -3.75, 3.75, -1.25))),
            (11.0 / 5.0, EPolynomial((1.0, -4.0, 6.0, -4.0, 1.0))),
        ),
    ),
}


def _ldmc3_bsc(p: float) -> MessageAlphabet:
    rho = (1.0 - p) / p
    return MessageAlphabet(
        "BSC",
        (
            (1.0 + rho + 1.0 / rho, EPolynomial((0.5,))),
            (1.0 + 2.0 * rho, EPolynomial((p / 2.0,))),
            (1.0 + 2.0 / rho, EPolynomial(((1.0 - p) / 2.0,))),
        ),
    )


def f_alphabet(family: str, p: float | None = None) -> MessageAlphabet:
    """Built-in message alphabets: LDMC3_BEC, LDMC5_BEC, LDMC3_BSC(p).

    The BEC alphabets are built once and live, with their tables, for the
    whole process.  A BSC alphabet is built anew on every call: a DE trace
    meets each crossover once, at the lanes that share it.
    """
    tag = family.upper().replace("-", "_")
    if tag in _BEC_ALPHABETS:
        return _BEC_ALPHABETS[tag]
    if tag == "LDMC3_BSC":
        if p is None or not 0.0 < p <= 0.5:
            raise ValueError("LDMC3_BSC requires a crossover p in (0, 1/2]")
        return _ldmc3_bsc(float(p))
    raise ValueError(f"unknown alphabet family {family!r}")


def _apply_payoff(e: np.ndarray, payoff: str) -> np.ndarray:
    if payoff == "error":
        return e
    if payoff == "entropy":
        return np.atleast_1d(h_b(e))
    if payoff == "chi2":
        return 1.0 - (1.0 - 2.0 * e) ** 2
    raise ValueError(f"unknown payoff {payoff!r}")


_PAYOFFS = ("error", "chi2", "entropy")
# E_d's lattice streams in chunks of this many rows, at offsets that are its
# multiples: a BLAS matrix-vector product gives a row the bits it has in the
# whole lattice only if the row's block starts where the whole lattice's does
_CHUNK_ROWS = 1 << 16
# (d, owners) -> (rows, logc, rank) of a lattice of at most _CHUNK_ROWS rows
_LATTICE_CACHE: dict = {}


def _with_first_part(blocks, t: int) -> np.ndarray:
    """Rows [i | c] for i = 0..t and c a row of ``blocks[t - i]``, in that order."""
    rest = blocks[t::-1]
    first = np.repeat(np.arange(t + 1, dtype=np.int16), [b.shape[0] for b in rest])
    return np.column_stack((first, np.concatenate(rest)))


@lru_cache(maxsize=256)
def _lattice(d: int, K: int) -> np.ndarray:
    """All weak compositions of d into K >= 1 parts, as read-only int16 rows.

    Rows come in lexicographic order (the order of the stars-and-bars
    ``itertools.combinations`` enumeration).  They are built part by part:
    the compositions of t into k parts stack, for i = 0..t, the block
    ``[i | compositions of t - i into k - 1 parts]``.
    """
    # blocks[t]: the compositions of t into the parts built so far; the last
    # part added needs only the total d
    blocks = [np.full((1, 1), t, dtype=np.int16) for t in range(d + 1)]
    for k in range(2, K + 1):
        blocks = [_with_first_part(blocks, t) for t in (range(d + 1) if k < K else (d,))]
    blocks[-1].setflags(write=False)
    return blocks[-1]


def _log_factorials(n: int):
    """(k, log k!) for k = 0..n."""
    from scipy.special import gammaln

    ks = np.arange(n + 1)
    return ks, gammaln(ks + 1)


def _log_multinomial(d: int, z: np.ndarray) -> np.ndarray:
    """Each row's log-multinomial weight log(d! / prod_c z_c!)."""
    log_fact = _log_factorials(d)[1]
    return log_fact[d] - log_fact[z].sum(axis=1)


def _check_load(alpha) -> None:
    """Reject a negative, infinite or NaN load, in any lane of an array of loads."""
    a = np.asarray(alpha, dtype=float)
    bad = ~((a >= 0.0) & (a < np.inf))  # also true for NaN
    if bad.any():
        raise ValueError(f"alpha must be >= 0 and finite, got {a[bad].ravel()[0]}")


def _check_degree(d: int) -> None:
    if not 0 <= d <= _MAX_DEGREE:
        raise ValueError(f"degree must lie in [0, {_MAX_DEGREE}]")


def _rank(counts: np.ndarray, total, d: int, parts: int) -> np.ndarray:
    """How many compositions of ``total`` (at most d) into ``parts`` parts
    precede, in lexicographic order, those that start with a row of ``counts``."""
    after = total - np.cumsum(counts, axis=1)  # what the later parts share
    j = np.arange(counts.shape[1])
    # below[j, s]: the compositions of s into parts - j parts; those whose
    # first part is at least c are the compositions of s - c
    below = np.array([[math.comb(s + parts - 1 - i, s) for s in range(d + 1)] for i in j], dtype=np.int64)
    below = below.reshape(j.shape[0], d + 1)  # also with no parts left
    return (below[j, after + counts] - below[j, after]).sum(axis=1)


def _lattice_chunks(d: int, owners: tuple):
    """E_d's lattice for an alphabet whose lattice column c belongs to entry
    ``owners[c]``, in lexicographic row order, as chunks (int16 rows, their
    log-multinomial weights, each row's type as a row of ``_lattice(d,
    entries)``) of ``_CHUNK_ROWS`` rows, the last one shorter.

    A chunk gathers its rows [head | tail] from the heads, the first P columns
    (whole entries), and the tails, the compositions of what a head leaves; a
    row's rank is its head's plus its tail's.  Only a lattice of one chunk is
    cached, per (d, owners): a new BSC crossover reuses it.
    """
    hit = _LATTICE_CACHE.get((d, owners))
    if hit is not None:
        yield hit
        return
    K, n = len(owners), owners[-1] + 1
    P = owners.index(owners[K // 2 - 1]) + owners.count(owners[K // 2 - 1])
    e = owners[P - 1] + 1
    of_entry = np.equal.outer(owners, np.arange(n)).astype(np.int64)  # (K, n)
    heads = _lattice(d, P + 1)  # the head, then the total t it leaves
    head_rank = _rank(heads[:, :P] @ of_entry[:P, :e], d, d, n)
    tails = _lattice(d, K - P + 1)  # [d - t | a tail of t], t = d, d-1, .., 0
    left = d - tails[:, :1].astype(np.int64)
    tails = tails[:, 1:]
    tail_rank = _rank(tails @ of_entry[P:, e:], left, d, n - e)
    sizes = np.bincount(left[:, 0], minlength=d + 1)  # the tails of each t
    first = np.cumsum(sizes[::-1])[::-1] - sizes  # where the tails of t start
    ends = np.cumsum(sizes[heads[:, P]])
    rows = int(ends[-1])
    for a in range(0, rows, _CHUNK_ROWS):
        g = np.arange(a, min(a + _CHUNK_ROWS, rows))
        h = np.searchsorted(ends, g, side="right")
        t = heads[h, P]
        i = first[t] + g - (ends[h] - sizes[t])
        z = np.empty((g.shape[0], K), dtype=np.int16)
        z[:, :P] = heads[h, :P]
        z[:, P:] = tails[i]
        chunk = (z, _log_multinomial(d, z), head_rank[h] + tail_rank[i])
        if rows <= _CHUNK_ROWS:
            for x in chunk:
                x.setflags(write=False)
            _LATTICE_CACHE[(d, owners)] = chunk
        yield chunk


def _degree_terms(alphabet: MessageAlphabet, degrees, payoffs):
    """Nonnegative term representations E_d(q) = sum_c coef_c prod_j w_j(q)^c_j
    of the degrees: (each degree's type-count matrix, {payoff: coefficients
    stacked in increasing degree order} for the given payoffs), in float64.

    A lattice chunk's LLRs and log-probabilities are BLAS matrix-vector
    products of their own; the payoffs run on batches of chunks of at least
    ``_CHUNK_ROWS`` rows, and each term adds to its type's coefficient in row
    order, as one ``np.bincount`` over a degree's whole lattice adds them.
    All coefficients are >= 0, so evaluation through this form is free of the
    catastrophic cancellation the expanded power basis exhibits at larger d.
    """
    col_l, col_logq, owners = alphabet._cols
    types = [_lattice(d, len(alphabet.entries)).astype(np.float64) for d in degrees]
    firsts = np.cumsum([0] + [t.shape[0] for t in types])
    coefs = {payoff: np.zeros(firsts[-1]) for payoff in payoffs}
    batch = []

    def add_batch():
        e, p, rank = map(np.concatenate, zip(*batch))
        for payoff, c in coefs.items():
            np.add.at(c, rank, p * _apply_payoff(e, payoff))
        batch.clear()

    for d, first in zip(degrees, firsts):
        for z, logc, rank in _lattice_chunks(d, owners):
            zf = z.astype(np.float64)
            batch.append((1.0 / (1.0 + np.exp(np.abs(zf @ col_l))), np.exp(logc + zf @ col_logq), first + rank))
            if sum(e.shape[0] for e, _, _ in batch) >= _CHUNK_ROWS:
                add_batch()
    if batch:
        add_batch()
    return types, coefs


def _table(alphabet: MessageAlphabet, payoff: str, dmax: int):
    """The term representations of degrees 0..dmax (at least) stacked in
    increasing degree order: (types, coefs, starts).

    ``types`` holds the type counts as an (entries, rows) matrix, ``coefs``
    each row's coefficient and ``starts`` each degree's first row, then the
    row count.  Cached on the alphabet per payoff; a larger dmax appends the
    missing degrees.  A build fills all three payoffs of a BEC alphabet, which
    serves every payoff for the process, and the one asked for of a BSC one.
    """
    if payoff not in _PAYOFFS:
        raise ValueError(f"unknown payoff {payoff!r}")
    tables = alphabet._tables
    empty = (np.zeros((len(alphabet.entries), 0)), np.zeros(0), np.zeros(1, dtype=np.int64))
    types, _, starts = tables.get(payoff, empty)
    if starts.shape[0] >= dmax + 2:
        return tables[payoff]
    payoffs = _PAYOFFS if alphabet.channel == "BEC" else (payoff,)
    new, coefs = _degree_terms(alphabet, range(starts.shape[0] - 1, dmax + 1), payoffs)
    types = np.concatenate([types] + [t.T for t in new], axis=1)
    starts = np.concatenate([starts, starts[-1] + np.cumsum([t.shape[0] for t in new])])
    for p in payoffs:
        coefs[p] = np.concatenate([tables.get(p, empty)[1], coefs[p]])
        for a in (types, coefs[p], starts):
            a.setflags(write=False)
        tables[p] = (types, coefs[p], starts)
    return tables[payoff]


# lane-major exponents per block of lanes: at most 2^16 floats (512 kB), so
# that the passes over them stay in cache and a long grid of loads at a large D
# takes bounded memory; at least one lane per block
_LANE_BLOCK = 1 << 16


def _averager(alphabet: MessageAlphabet, payoff: str, pmf):
    """q -> sum_d pmf[d] E_d(q) over the degrees of positive mass, one value per lane.

    ``pmf`` is one degree law of shape (D+1,) for every lane or one per lane,
    of shape (D+1, L); the returned function takes a 0-d or 1-d q of L lanes.
    The rows of the degrees lo..hi that hold the positive mass are sliced
    from the alphabet's table once, so a recursion that evaluates the same
    lanes at step after step pays for them once.  Every step of an evaluation
    works element by element on lane-major arrays: the exponents sum the
    entries in their order, each degree's terms are a reduction over a
    contiguous row segment, and the degrees are added in increasing order (a
    degree without mass adds exactly 0).  A lane's value is therefore the
    same bits whatever the other lanes are.
    """
    weights = np.asarray(pmf, dtype=float)
    weights = weights.reshape(weights.shape[0], -1).T  # (1 or L, D+1)
    degrees = np.flatnonzero((weights > 0.0).any(axis=0))
    if not degrees.size:
        return lambda q: np.zeros(np.size(q))
    lo, hi = int(degrees[0]), int(degrees[-1])
    types, coefs, starts = _table(alphabet, payoff, hi)
    rows = slice(starts[lo], starts[hi + 1])
    types, coefs, starts = types[:, rows], coefs[rows], starts[lo : hi + 1] - starts[lo]
    weights = weights[:, lo : hi + 1]
    block = max(1, _LANE_BLOCK // types.shape[1])

    def average(q) -> np.ndarray:
        qa = np.asarray(q, dtype=float).ravel()
        out = np.empty(qa.shape[0])
        for a in range(0, qa.shape[0], block):
            lanes = slice(a, a + block)
            w = weights if weights.shape[0] == 1 else weights[lanes]
            out[lanes] = _average_block(alphabet._horner, types, coefs, starts, w, qa[lanes])
        return out

    return average


def _average(alphabet: MessageAlphabet, payoff: str, pmf, q) -> np.ndarray:
    """The value of ``_averager(alphabet, payoff, pmf)`` at q."""
    return _averager(alphabet, payoff, pmf)(q)


def _average_block(horner, types, coefs, starts, weights, q) -> np.ndarray:
    """``_averager``'s values at the lanes q, with their (1 or L, degrees) weights."""
    x = q[:, None]
    w = horner[0] + x * 0  # polyval's steps and order, for every entry at once
    for row in horner[1:]:
        w = row + w * x
    logw = np.log(np.maximum(w, 1e-300))  # zero weights become ~exp(-690) ~ 0
    expo = logw[:, :1] * types[0]  # (lanes, rows)
    term = np.empty_like(expo)
    for j in range(1, types.shape[0]):
        np.multiply(logw[:, j : j + 1], types[j], out=term)
        expo += term
    np.exp(expo, out=expo)
    expo *= coefs
    sums = np.add.reduceat(expo, starts, axis=1)  # (lanes, degrees)
    # a lane without mass at a degree adds exactly 0, as if it skipped it
    terms = np.where(weights > 0.0, sums * weights, 0.0)
    return np.add.accumulate(terms, axis=1)[:, -1]


def eval_degree(alphabet: MessageAlphabet, d: int, payoff: str, q) -> np.ndarray:
    """Evaluate E_d at q through the stable nonnegative term representation."""
    _check_degree(d)
    pmf = np.zeros(d + 1)
    pmf[d] = 1.0
    out = _average(alphabet, payoff, pmf, q)
    return float(out[0]) if np.ndim(q) == 0 else out


def error_poly(alphabet: MessageAlphabet, d: int, payoff: str = "error") -> EPolynomial:
    """Degree-d payoff polynomial of the alphabet (payoff: error/entropy/chi2)."""
    _check_degree(d)
    types, coefs, starts = _table(alphabet, payoff, d)
    rows = slice(starts[d], starts[d + 1])
    entries = alphabet.entries
    n = len(entries)
    powers = [[np.array([1.0]), entries[j][1].as_array()] for j in range(n)]

    def power(j: int, exp: int) -> np.ndarray:
        while len(powers[j]) <= exp:
            powers[j].append(np.convolve(powers[j][-1], powers[j][1]))
        return powers[j][exp]

    total = np.zeros(1)
    for row, cf in zip(types[:, rows].T, coefs[rows]):
        poly = np.array([cf])
        for j in range(n):
            if row[j]:
                poly = np.convolve(poly, power(j, int(row[j])))
        if poly.shape[0] > total.shape[0]:
            total = np.concatenate([total, np.zeros(poly.shape[0] - total.shape[0])])
        total[: poly.shape[0]] += poly
    return EPolynomial(tuple(total))


@dataclass(frozen=True)
class DegreeLaw:
    """Degree distribution of a variable: Poisson(arity*alpha) or
    Binomial(trials, alpha*rate)."""

    kind: str
    arity: int = 0
    trials: int = 0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("poisson", "binomial"):
            raise ValueError(f"unknown degree law {self.kind!r}")
        if self.kind == "poisson" and self.arity < 1:
            raise ValueError(f"a Poisson degree law needs arity >= 1, got {self.arity}")
        if self.kind == "binomial" and not (self.trials >= 0 and 0.0 <= self.rate <= 1.0):  # NaN fails too
            raise ValueError(f"a binomial degree law needs trials >= 0, rate in [0, 1]: got {self.trials}, {self.rate}")

    @classmethod
    def poisson(cls, arity: int) -> "DegreeLaw":
        return cls("poisson", arity=int(arity))

    @classmethod
    def binomial(cls, trials: int, rate: float) -> "DegreeLaw":
        return cls("binomial", trials=int(trials), rate=float(rate))

    def probabilities(self, alpha, D: int):
        """(pmf over degrees 0..D, P(Deg > D)) at load alpha.

        An array of L loads gives one law per lane: a (D+1, L) pmf and L
        tails, each the same bits as the law at that load alone.
        """
        from scipy.special import xlog1py, xlogy

        a = np.asarray(alpha, dtype=float)
        lanes = a.reshape(-1, 1)  # lane-major: one row per load
        if self.kind == "poisson":
            ks, log_fact = _log_factorials(D)
            mu = self.arity * lanes
            pmf = np.exp(xlogy(ks, mu) - log_fact - mu)
            tail = np.maximum(1.0 - pmf.sum(axis=1), 0.0)
        else:
            pr = lanes * self.rate
            if np.any(pr > 1.0 + 1e-12):
                raise ValueError("binomial degree law needs alpha*rate <= 1")
            n, pr = self.trials, np.minimum(pr, 1.0)
            ks, log_fact = _log_factorials(n)
            logc = log_fact[n] - log_fact - log_fact[::-1]
            w = np.exp(logc + xlogy(ks, pr) + xlog1py(n - ks, -pr))
            pmf = np.zeros((w.shape[0], D + 1))
            upto = min(D + 1, w.shape[1])
            pmf[:, :upto] = w[:, :upto]
            tail = w[:, D + 1 :].sum(axis=1)
        if a.ndim == 0:
            return pmf[0], float(tail[0])
        return pmf.T, tail


class _Last(list):
    """[key, evaluator] of a family's last loads (see ``_bound``); it pickles
    empty, because the evaluator is a closure."""

    def __init__(self):
        super().__init__([None, None])

    def __reduce__(self):
        return (_Last, ())


@dataclass(frozen=True)
class EFunctionFamily:
    """Truncated ensemble E/H-function: degree-law average of E_d up to D.

    Tail convention: BEC families drop the mass beyond D (each dropped term
    only lowers the error); BSC families add 1/2 * P(Deg > D) for the error
    payoff and 1 * P(Deg > D) for entropy-type payoffs.
    """

    base: str
    channel: str
    payoff: str
    D: int
    law: DegreeLaw
    _last: list = field(default_factory=_Last, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base not in ("ldmc3", "ldmc5"):
            raise ValueError(f"unknown family base {self.base!r}")
        if self.channel not in ("BEC", "BSC"):
            raise ValueError(f"unknown channel tag {self.channel!r}")
        if self.channel == "BSC" and self.base != "ldmc3":
            raise ValueError("BSC alphabets are available for ldmc3 only")
        _check_degree(self.D)

    @property
    def arity(self) -> int:
        return 3 if self.base == "ldmc3" else 5

    def evaluate(self, alpha, q):
        """E(alpha, q); an array of loads pairs lane by lane with q (or one q)."""
        return _evaluate(self, alpha, q)

    def _at(self, alpha):
        """q -> E(alpha, q) on a 1-d q, with the degree law at alpha computed once."""
        _check_load(alpha)
        pmf, tail_p = self.law.probabilities(alpha, self.D)
        if self.channel == "BEC":
            return _averager(f_alphabet(f"{self.base}_bec"), self.payoff, pmf)
        tail = (0.5 if self.payoff == "error" else 1.0) * np.asarray(tail_p)

        def bsc(qa: np.ndarray) -> np.ndarray:
            # the BSC alphabet is built at the crossover q itself, once for
            # all the lanes at that crossover, each with its own law
            crossovers, which = np.unique(np.clip(qa, _BSC_MIN_P, 0.5), return_inverse=True)
            out = np.empty(qa.shape[0])
            for i, p in enumerate(crossovers.tolist()):
                lanes = np.flatnonzero(which == i)
                laws = pmf if pmf.ndim == 1 else pmf[:, lanes]
                out[lanes] = _average(f_alphabet("ldmc3_bsc", p), self.payoff, laws, np.zeros(lanes.shape[0]))
            return out + tail

        return bsc


def _evaluate(family, alpha, q):
    """``family.evaluate``: E at the load alpha, or at one load per lane of q."""
    qa = np.asarray(q, dtype=float)
    if np.ndim(alpha) and np.shape(alpha) != qa.shape:
        qa = np.broadcast_to(qa, np.shape(alpha))
    out = _bound(family, alpha)(qa.ravel())
    return float(out[0]) if qa.ndim == 0 else out.reshape(qa.shape)


def _bound(family, alpha):
    """``family._at(alpha)``, kept while the loads stay the same: a DE
    recursion evaluates a family at the same loads step after step."""
    a = np.asarray(alpha, dtype=float)
    key = (a.shape, a.tobytes())
    last_key, efun = family._last  # one read, so another thread cannot mix two entries
    if last_key != key:
        efun = family._at(a)
        family._last[:] = [key, efun]
    return efun


def build_family(
    base: str,
    channel: str = "BEC",
    payoff: str = "error",
    D: int = 10,
    law: DegreeLaw | None = None,
) -> EFunctionFamily:
    """Convenience constructor; the default law is Poisson(arity * alpha)."""
    base = base.lower().replace("-", "").replace("_", "")
    if law is None:
        law = DegreeLaw.poisson(3 if base == "ldmc3" else 5)
    return EFunctionFamily(base=base, channel=channel, payoff=payoff, D=D, law=law)


def mixed_efun(components, weights, alpha, q, D: int):
    """Mixture E-function (1/2) prod_j 2 E_j(alpha w_j, q) over the weights w_j > 0.

    XOR(d) components take the closed form 2E = e^{-alpha w d q^(d-1)}, and so
    does MAJ(1), whose observed check is the bit itself; the other MAJ
    components take the truncated Poisson family.  The weights need not lie on
    the simplex: the profile optimizer evaluates finite-difference points just
    off it.  Lanes: an (L, n) weight matrix, L loads or L values of q pair up
    lane by lane, and each lane gets the bits of its own one-lane call.
    """
    w = np.asarray(weights, dtype=float)
    qa = np.asarray(q, dtype=float)
    shape = np.broadcast_shapes(w.shape[:-1], np.shape(alpha), qa.shape)
    lanes = math.prod(shape)
    w = np.broadcast_to(w, shape + w.shape[-1:]).reshape(lanes, w.shape[-1])
    loads = np.broadcast_to(np.asarray(alpha, dtype=float), shape).ravel()
    out = _mixed_at(components, w, loads, D)(np.broadcast_to(qa, shape).ravel())
    return float(out[0]) if not shape else out.reshape(shape)


def _mixed_at(components, weights: np.ndarray, loads: np.ndarray, D: int):
    """q -> ``mixed_efun`` of the lanes with (L, n) weights and L loads, on a 1-d q
    of L lanes (of any length if L = 1).

    What does not depend on q (each component's active lanes, its XOR
    exponent factor or its Poisson laws) is set up once.
    """
    _check_load(loads)
    start = np.full(weights.shape[0], 0.5)
    factors = []
    for j, ck in enumerate(components):
        lam = weights[:, j]
        on = lam > 0.0
        if not on.any():
            continue
        lanes = None if on.all() else np.flatnonzero(on)
        load = loads * lam if lanes is None else loads[lanes] * lam[lanes]
        if ck.kind == "XOR" or (ck.kind == "MAJ" and ck.arity == 1):
            if ck.arity == 1 and not factors:
                # q**0 == 1 for every q: a constant factor ahead of every
                # q-dependent one multiplies the start value once
                start[on] *= np.exp(-load * ck.arity)
                continue
            factor = partial(_xor_factor, -load * ck.arity, ck.arity - 1)
        elif ck.kind == "MAJ":
            factor = partial(_maj_factor, build_family(f"ldmc{ck.arity}", D=D)._at(load))
        else:
            raise ValueError("Mixed profiles use XOR and MAJ components only")
        factors.append((lanes, factor))

    def mixed(q: np.ndarray) -> np.ndarray:
        acc = np.empty(q.shape)
        acc[:] = start  # one lane serves every q
        for lanes, factor in factors:
            if lanes is None:
                acc *= factor(q)
            else:
                acc[lanes] *= factor(q[lanes])
        return acc

    return mixed


def _xor_factor(scale: np.ndarray, power: int, q: np.ndarray) -> np.ndarray:
    return np.exp(scale * (q if power == 1 else q**power))  # q**1 == q


def _maj_factor(efun, q: np.ndarray) -> np.ndarray:
    return 2.0 * efun(q)


def d_function(family, alpha: float, q):
    """D(alpha, q) = (1-q)/2 - E(alpha, q); zeros are BP fixed points."""
    qa = np.asarray(q, dtype=float)
    out = (1.0 - qa) / 2.0 - np.asarray(family.evaluate(alpha, qa), dtype=float)
    return float(out) if qa.ndim == 0 else out


def first_zero(family, alpha: float, grid: int = 2001, tol: float = 1e-10):
    """Smallest root of q -> D(alpha, q) in (0, 1], or None."""
    qs = np.linspace(0.0, 1.0, grid)[1:]
    vals = np.asarray(d_function(family, alpha, qs), dtype=float)
    for i in range(vals.shape[0]):
        if vals[i] == 0.0:
            return float(qs[i])
        if i > 0 and vals[i - 1] * vals[i] < 0.0:
            lo, hi = float(qs[i - 1]), float(qs[i])
            flo = vals[i - 1]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = d_function(family, alpha, mid)
                if fm == 0.0:
                    return mid
                if (flo > 0) == (fm > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    return None


@dataclass(frozen=True)
class ClosedFormFamily:
    """Closed-form BEC error function of a mixed or systematic-regular ensemble.

    Mixed(profile): ``mixed_efun`` over the profile; LDGM(d) is the profile
    ``XOR:d``.  SysRegular(d, R): (1 - alpha R) * E[Bin(d(1-R)/R, alpha R)-degree
    error], with d(1-R)/R an integer.
    """

    channel: ClassVar[str] = "BEC"
    payoff: ClassVar[str] = "error"

    kind: str
    d: int | None = None
    profile: DegreeProfile | None = None
    rate: float | None = None
    D: int = 10
    _last: list = field(default_factory=_Last, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "mixed":
            if self.profile is None:
                raise ValueError("mixed requires a degree profile")
        elif self.kind == "sysregular":
            if self.d not in (3, 5) or self.rate is None or not 0.0 < self.rate <= 1.0:
                raise ValueError("sysregular requires d in {3, 5} and a rate in (0, 1]")
            m_real = self.d * (1.0 - self.rate) / self.rate
            _check_degree(m_real)
            if abs(m_real - round(m_real)) > 1e-9:
                raise ValueError("sysregular requires d(1-R)/R to be an integer")
        else:
            raise ValueError(f"unknown closed form kind {self.kind!r}")

    def evaluate(self, alpha, q):
        """E(alpha, q); an array of loads pairs lane by lane with q (or one q)."""
        return _evaluate(self, alpha, q)

    def _at(self, alpha):
        """q -> E(alpha, q) on a 1-d q, with what alpha fixes set up once."""
        if self.kind == "mixed":
            comps, lams = zip(*self.profile.entries)
            loads = np.asarray(alpha, dtype=float).reshape(-1)
            weights = np.broadcast_to(np.asarray(lams, dtype=float), (loads.shape[0], len(lams)))
            return _mixed_at(comps, weights, loads, self.D)
        m = round(self.d * (1.0 - self.rate) / self.rate)
        family = build_family(f"ldmc{self.d}", D=m, law=DegreeLaw.binomial(m, self.rate))
        scale = 1.0 - np.minimum(np.multiply(alpha, self.rate), 1.0)
        efun = family._at(alpha)
        return lambda q: scale * efun(q)


__all__ = [
    "EPolynomial",
    "MessageAlphabet",
    "EFunctionFamily",
    "DegreeLaw",
    "ClosedFormFamily",
    "f_alphabet",
    "error_poly",
    "eval_degree",
    "build_family",
    "d_function",
    "first_zero",
]
