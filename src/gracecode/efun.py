"""Error/entropy polynomial machinery for majority and LDGM ensembles.

A degree-d variable sees d messages drawn from a :class:`MessageAlphabet`:
likelihood-ratio magnitudes m >= 1 with q-dependent weights (events that fully
determine the bit carry zero error and are dropped from the alphabet).  The
d-th error polynomial E_d(q) averages a payoff of the posterior error over
all message-type and agreement patterns.

Every weight of an alphabet is a nonnegative combination of the Bernstein
terms q^j (1-q)^(m-j), j = 0..m, of one degree m (m = 0 for constants), so
E_d(q) = sum_j b_{d,j} q^j (1-q)^(md-j) with every b_{d,j} >= 0.  Every
E-function takes one path: ``_table`` keeps these b of E_0..E_D for one
payoff, and ``_averager`` sums pmf[d] * E_d(q) over a degree pmf of degrees
0..D from it.  A degree's b come from its type terms (``_degree_terms``: a
coefficient per message type, that is per count of each entry), which
``_collapse`` multiplies out in the weights' Bernstein coefficients.  A
lattice row is a head (its first columns, whole entries) and a tail (the
rest): ``_lattice_chunks`` builds one record per build, which depends only
on the degrees and on which entry owns each lattice column: their stacked
heads and tails, their type rows, and the rows as (head, tail, type) index
triples in fixed chunks.  A row's log-ratio and log-probability are the
sums of a head part and a tail part, each summed column by column once per
head or tail from the alphabet's magnitudes, so a row costs two gathers and
two adds and no sum takes a BLAS product; a table is cached on the alphabet
itself.  ``eval_degree`` is the one-degree case of ``_averager`` and
``EFunctionFamily`` calls it with its degree laws (on the BSC once per
distinct crossover of a call, whose alphabet is built for that call).
``_mixed_at`` multiplies the XOR closed form with the Poisson families of
the MAJ components; an LDGM(d) ensemble is the profile ``XOR:d``.
``ClosedFormFamily`` wraps it and the systematic-regular binomial-law family,
and the profile optimizer calls it directly.  ``error_poly`` expands
a degree's type terms in powers of q: from b that would be a change of basis,
ill-conditioned at large d.

An evaluation takes many lanes at once: one q and, for a family or a
mixture, one load (so one degree law) per lane.  It works element by element
in a fixed order, so a lane gets the same bits whatever the other lanes are.
A family's ``_at`` and ``_mixed_at`` set up what a fixed set of loads needs
once, for a DE recursion that evaluates them step after step; both families
share one ``evaluate`` (``_Family``), which keeps the last loads' ``_at``.

The lattice weights and the Poisson degree law take log k! from one table
per process (``_log_factorials``, extended on demand) of ``_log_factorial``,
which follows Cephes ``lgam`` at integer arguments, and
k log mu from libm's ``math.log``: the bits of ``scipy.special.gammaln`` and
``xlogy``, without importing ``scipy.special``.  Only the binomial law does,
for ``xlog1py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import ClassVar

import numpy as np

from .channels import bisect, h_b
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
    Every weight must have finite, nonnegative coefficients in the Bernstein
    terms of the largest weight degree (``_bernstein``).

    An alphabet caches its table of E_0..E_D per payoff (``_table``), so the
    table lives exactly as long as it does.
    """

    channel: str
    entries: tuple
    _bernstein: np.ndarray = field(init=False, repr=False)
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
        degree = max(w.degree for _, w in ent)
        bernstein = np.array([_bernstein_row(j, mag, w.coeffs, degree) for j, (mag, w) in enumerate(ent)])
        bernstein.setflags(write=False)
        object.__setattr__(self, "_bernstein", bernstein)
        object.__setattr__(self, "_cols", _columns(ent))


def _bernstein_row(j: int, magnitude: float, coeffs: tuple, m: int) -> list:
    """The coefficients of sum_i coeffs[i] q^i in the terms q^k (1-q)^(m-k),
    k = 0..m: q^i = q^i (q + 1-q)^(m-i) gives coeffs[i] C(m-i, k-i) to every
    k >= i.  Each is summed exactly, over the coefficients' common power-of-two
    denominator, and rounded once.  Entry j of magnitude ``magnitude`` is
    rejected if one of them is negative or not finite."""
    if all(map(math.isfinite, coeffs)):
        ratios = [a.as_integer_ratio() for a in coeffs]
        den = max(d for _, d in ratios)
        exact = [sum(n * (den // d) * math.comb(m - i, k - i) for i, (n, d) in enumerate(ratios[: k + 1])) for k in range(m + 1)]
        if min(exact) >= 0:
            try:
                return [b / den for b in exact]  # int / int rounds once
            except OverflowError:  # beyond the float range
                pass
    raise ValueError(f"entry {j} (magnitude {magnitude}): weight {coeffs} has a negative or non-finite Bernstein coefficient")


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
# The lattice rows of a call stream in chunks of this many (h, i, rank) index
# rows.  A row's terms are elementwise, so no chunk size moves a bit; a
# chunk's work takes about 1 MB, and larger chunks run slower
_CHUNK_ROWS = 1 << 14
# (degrees, owners) -> the lattice record of a call (``_lattice_chunks``),
# kept if it holds at most _CACHED_ROWS rows: every LDMC3 BEC and BSC table
# up to degree 14 (38,760 rows at most) and LDMC5 tables up to degree 6
_CACHED_ROWS = 1 << 16
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


# Cephes ``lgam``'s Stirling series, which ``scipy.special.gammaln`` runs from
# x = 13 on: log sqrt(2 pi) and the coefficients of its 1/x^2 polynomial,
# highest power first
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)  # fmt: skip


def _log_factorial(k: int) -> float:
    """log k!, the bits of ``scipy.special.gammaln(k + 1)``: Cephes ``lgam`` at x = k + 1."""
    x = float(k + 1)
    if x < 13.0:
        return math.log(math.factorial(k))  # lgam's product, exact below 2^53
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    s = _STIRLING[0]
    for c in _STIRLING[1:]:
        s = s * p + c
    return q + s / x


# log k! for k = 0, 1, .., read-only: one table per process, which a call for
# more values replaces with a longer one
_LOG_FACTORIALS = np.zeros(0)


def _log_factorials(n: int):
    """(k, log k!) for k = 0..n, log k! a view of the process's table."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if table.shape[0] <= n:
        table = np.concatenate([table, [_log_factorial(k) for k in range(table.shape[0], n + 1)]])
        table.setflags(write=False)
        _LOG_FACTORIALS = table
    return np.arange(n + 1), table[: n + 1]


def _xlogy(ks: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(lanes, ks) matrix of ``scipy.special.xlogy(ks, y)`` for increasing ks
    from 0 and one y per lane: k log y through libm's ``math.log``, and 0 at
    k = 0.  numpy's vectorised ``np.log`` does not round every input as libm
    does."""
    logy = np.array([math.log(v) if v > 0.0 else -math.inf if v == 0.0 else math.nan for v in y.tolist()])
    out = np.zeros((logy.shape[0], ks.shape[0]))
    out[:, 1:] = ks[1:] * logy[:, None]  # skips 0 * log 0
    return out


def _check_load(alpha) -> None:
    """Reject a negative, infinite or NaN load, in any lane of an array of loads."""
    a = np.asarray(alpha, dtype=float)
    bad = ~((a >= 0.0) & (a < np.inf))  # also true for NaN
    if bad.any():
        raise ValueError(f"alpha must be >= 0 and finite, got {a[bad].ravel()[0]}")


def _mean_degree(arity: int, load: np.ndarray) -> np.ndarray:
    """arity * load, the mean degree of a Poisson law or an XOR exponent;
    a load for which it overflows is rejected."""
    with np.errstate(over="ignore"):
        mean = arity * load
    bad = ~np.isfinite(mean)
    if bad.any():
        raise ValueError(f"load {load[bad][0]}: the mean degree {arity} * load overflows")
    return mean


def _check_degree(d: int) -> None:
    if not 0 <= d <= _MAX_DEGREE:
        raise ValueError(f"degree must lie in [0, {_MAX_DEGREE}]")


def _rank(counts, total: np.ndarray, d: int, parts: int) -> np.ndarray:
    """How many compositions of ``total`` (at most d, one per row) into
    ``parts`` parts precede, in lexicographic order, those that start with
    the given parts: ``counts`` holds one array per leading part, if any."""
    rank = np.zeros(total.shape[0], dtype=np.int64)
    after = total  # what the later parts share
    for j, count in enumerate(counts):
        after = after - count
        # the compositions of s into parts - j parts; those whose first part
        # is at least c are the compositions of s - c
        below = np.array([math.comb(s + parts - 1 - j, s) for s in range(d + 1)], dtype=np.int64)
        rank += below[after + count] - below[after]
    return rank


def _lattice_chunks(degrees, owners: tuple):
    """The lattice record of a call: the lattices of the degrees for an
    alphabet whose lattice column c belongs to entry ``owners[c]``, as
    (heads, tails, chunks, types).

    A degree's lattice rows split into heads, their first P columns (whole
    entries), and tails, the compositions of what a head leaves.  ``heads``
    and ``tails`` are each the (int16 rows, log-factorial share) of every
    degree's side, stacked in increasing degree order; ``types`` holds each
    degree's ``_lattice(d, entries)``.  A row [head | tail] has the
    log-multinomial weight log(d! / prod_c z_c!) of the sum of its sides'
    shares.  A head that leaves t to its tail has the share
    log(d! / (t! prod z_c!)) and a tail the share log(t! / prod z_c!): each
    is the log of a multinomial coefficient, so no share cancels a large
    log d! against the other side.  log k! is a multiple of 2^-53 below 2^5,
    so a share is an exact int64 sum in these units, rounded once.

    ``chunks`` yields the lattice rows in order as (h, i, rank) index arrays
    of ``_CHUNK_ROWS`` rows, the last one shorter, which may cross degree
    boundaries: a row is stacked head h and stacked tail i, and its type is
    row ``rank`` of the stacked ``types``, the sum of a head rank and a tail
    rank.  A record of at most ``_CACHED_ROWS`` rows is cached, per
    (degrees, owners): a new BSC crossover reuses it, and larger lattices
    (an LDMC5 table beyond degree 6) are streamed by the one BEC build that
    reads them.
    """
    degrees = tuple(degrees)
    key = (degrees, owners)
    hit = _LATTICE_CACHE.get(key)
    if hit is not None:
        return hit
    K, n = len(owners), owners[-1] + 1
    P = owners.index(owners[K // 2 - 1]) + owners.count(owners[K // 2 - 1])
    e = owners[P - 1] + 1
    units = (_log_factorials(degrees[-1])[1] * 2.0**53).astype(np.int64)
    heads, tails, rows, tail_ends = [], [], [], []
    types = tuple(_lattice(d, n) for d in degrees)
    first_type = first_tail = 0  # the types and tails of the degrees before
    for d, z in zip(degrees, types):
        head = _lattice(d, P + 1)  # the head, then the total t it leaves
        t, head = head[:, P], head[:, :P]
        tail = _lattice(d, K - P + 1)  # [d - t | a tail of t], t = d, d-1, .., 0
        left, tail = d - tail[:, 0].astype(np.int64), tail[:, 1:]
        sizes = np.bincount(left, minlength=d + 1)  # the tails of each t
        last = np.cumsum(sizes[::-1])[::-1]  # where the tails of t end
        # an entry's type count is the sum of its columns
        head_counts = [sum(head[:, c].astype(np.int64) for c in range(P) if owners[c] == j) for j in range(e)]
        tail_counts = [sum(tail[:, c - P].astype(np.int64) for c in range(P, K) if owners[c] == j) for j in range(e, n)]
        for side, y, share, rank in ((heads, head, units[d] - units[t], _rank(head_counts, np.full(t.shape[0], d), d, n) + first_type),
                                     (tails, tail, units[left], _rank(tail_counts, left, d, n - e))):  # fmt: skip
            for column in y.T:
                share = share - units[column]
            side.append((y, share * 2.0**-53, rank))
        rows.append(sizes[t])  # in lexicographic order head h has rows[h] rows,
        tail_ends.append(last[t] + first_tail)  # on the tails that end here in the stack
        first_type, first_tail = first_type + z.shape[0], first_tail + tail.shape[0]
    head_cols, head_share, head_rank = map(np.concatenate, zip(*heads))
    tail_cols, tail_share, tail_rank = map(np.concatenate, zip(*tails))
    del heads, tails  # each degree's sides, now stacked, go before skip adds to the peak
    ends = np.cumsum(np.concatenate(rows))
    skip = np.concatenate(tail_ends) - ends  # row g, if head h's, is stacked tail g + skip[h]
    total = int(ends[-1])

    def chunks():
        for a in range(0, total, _CHUNK_ROWS):
            b = min(a + _CHUNK_ROWS, total)
            h0, h1 = np.searchsorted(ends, (a, b - 1), side="right").tolist()
            h = np.repeat(np.arange(h0, h1 + 1), np.diff(np.minimum(ends[h0 : h1 + 1], b), prepend=a))
            i = np.arange(a, b) + skip[h]
            yield h, i, head_rank[h] + tail_rank[i]

    if total > _CACHED_ROWS:
        return (head_cols, head_share), (tail_cols, tail_share), chunks(), types
    record = (head_cols, head_share), (tail_cols, tail_share), tuple(chunks()), types
    for x in (head_cols, head_share, tail_cols, tail_share, *(x for chunk in record[2] for x in chunk)):
        x.setflags(write=False)
    _LATTICE_CACHE[key] = record
    return record


def _add_columns(total: np.ndarray, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """total + z[:, 0] x[0] + z[:, 1] x[1] + ..., added in that order: a
    lattice side's sums take no BLAS product, so no block grid moves their bits."""
    for column, value in zip(z.T, x.tolist()):
        total = total + column * value
    return total


def _degree_terms(alphabet: MessageAlphabet, degrees, payoffs):
    """Nonnegative term representations E_d(q) = sum_c coef_c prod_j w_j(q)^c_j
    of the degrees: (each degree's type-count matrix, the read-only int16
    ``_lattice(d, entries)``, and {payoff: float64 coefficients stacked in
    increasing degree order} for the given payoffs).

    A lattice row's signed log-ratio sum_c z_c l_c and log-probability (its
    log-multinomial weight plus sum_c z_c log q_c) are each the sum of a head
    part and a tail part (``_lattice_chunks``), taken once per head and per
    tail.  A row then costs two gathers and two adds, and everything after
    them (posterior errors, probabilities, payoffs) is elementwise.  Each
    term adds to its type's coefficient in row order, as one ``np.bincount``
    over a degree's whole lattice adds them.
    """
    col_l, col_logq, owners = alphabet._cols
    (heads, head_share), (tails, tail_share), chunks, types = _lattice_chunks(degrees, owners)
    P = heads.shape[1]
    head_l = _add_columns(np.zeros(head_share.shape[0]), heads, col_l[:P])
    tail_l = _add_columns(np.zeros(tail_share.shape[0]), tails, col_l[P:])
    head_q, tail_q = _add_columns(head_share, heads, col_logq[:P]), _add_columns(tail_share, tails, col_logq[P:])
    coefs = {payoff: np.zeros(sum(t.shape[0] for t in types)) for payoff in payoffs}
    for h, i, rank in chunks:
        e, p = 1.0 / (1.0 + np.exp(np.abs(head_l[h] + tail_l[i]))), np.exp(head_q[h] + tail_q[i])
        for payoff, c in coefs.items():
            np.add.at(c, rank, p * _apply_payoff(e, payoff))
    return types, coefs


def _collapse(alphabet: MessageAlphabet, degrees, types, coefs) -> dict:
    """{payoff: the b_{d,k} of q^k (1-q)^(md-k), k = 0..md, of the degrees
    stacked in increasing degree order} from their type terms (``_degree_terms``).

    A type term coef_c prod_j w_j^c_j is coef_c times the product of the c_j-th
    powers of the weights' Bernstein coefficient vectors under convolution.
    One pass over the type rows of all the degrees multiplies these out: a
    weight with one nonzero coefficient s at k adds c_j k to a term's power of
    q and multiplies it by s^c_j; a weight with more (the first LDMC5 weight)
    expands each term into the nonzero coefficients of its c_j-th power, and
    from the second such weight on, a row's terms at one power of q merge, so
    that a row keeps at most md + 1 terms from one weight to the next.  Each b
    adds its terms in type-row order.
    """
    bernstein = alphabet._bernstein
    m = bernstein.shape[1] - 1
    z = np.concatenate(types)  # (type rows, entries)
    widths = [m * d + 1 for d in degrees]
    size = sum(widths)
    at = np.repeat(list(accumulate(widths[:-1], initial=0)), [t.shape[0] for t in types])  # each row's degree in b
    counts = np.arange(degrees[-1] + 1)
    value = np.ones(z.shape[0])
    several = []
    for j, beta in enumerate(bernstein.tolist()):
        nonzero = [k for k, x in enumerate(beta) if x] or [0]
        if len(nonzero) > 1:
            several.append(j)
            continue
        k = nonzero[0]
        value *= np.power(beta[k], counts)[z[:, j]]
        if k:
            at += k * z[:, j]
    row = np.arange(z.shape[0])  # each term's type row
    for n, (beta, c) in enumerate((bernstein[j], z[:, j]) for j in several):
        vectors = [np.ones(1)]  # the powers of beta
        for _ in range(degrees[-1]):
            vectors.append(np.convolve(vectors[-1], beta))
        where = [np.flatnonzero(v) for v in vectors]
        sizes = np.array([ks.shape[0] for ks in where])
        first = np.cumsum(sizes) - sizes  # where each power's nonzero coefficients start
        c = c[row]
        grow = sizes[c]  # how many terms each term becomes
        rep = np.repeat(np.arange(row.shape[0]), grow)
        src = np.repeat(first[c] - (np.cumsum(grow) - grow), grow) + np.arange(rep.shape[0])
        row, at = row[rep], at[rep] + np.concatenate(where)[src]
        value = value[rep] * np.concatenate([v[ks] for v, ks in zip(vectors, where)])[src]
        if n:  # a row's terms at one power of q share every later factor: one term each
            key, merged = np.unique(row * size + at, return_inverse=True)
            row, at = np.divmod(key, size)
            value = np.bincount(merged, weights=value)
    return {payoff: np.bincount(at, weights=coef[row] * value, minlength=size) for payoff, coef in coefs.items()}


def _table(alphabet: MessageAlphabet, payoff: str, dmax: int):
    """E_0..E_dmax (at least) of one payoff in Bernstein coefficients: (b, starts).

    ``b`` stacks each degree's md + 1 coefficients b_{d,k} of q^k (1-q)^(md-k)
    in increasing degree order and ``starts`` holds each degree's first index,
    then their count.  Cached on the alphabet per payoff; a larger dmax
    appends the missing degrees, whose type terms go when the build ends.  A
    build fills all three payoffs of a BEC alphabet, which serves every payoff
    for the process, and the one asked for of a BSC one.
    """
    if payoff not in _PAYOFFS:
        raise ValueError(f"unknown payoff {payoff!r}")
    tables = alphabet._tables
    empty = (np.zeros(0), np.zeros(1, dtype=np.int64))
    starts = tables.get(payoff, empty)[1]
    if starts.shape[0] >= dmax + 2:
        return tables[payoff]
    payoffs = _PAYOFFS if alphabet.channel == "BEC" else (payoff,)
    degrees = range(starts.shape[0] - 1, dmax + 1)
    new = _collapse(alphabet, degrees, *_degree_terms(alphabet, degrees, payoffs))
    m = alphabet._bernstein.shape[1] - 1
    starts = np.concatenate([starts, starts[-1] + np.cumsum([m * d + 1 for d in degrees])])
    for p in payoffs:
        b = np.concatenate([tables.get(p, empty)[0], new[p]])
        for a in (b, starts):
            a.setflags(write=False)
        tables[p] = (b, starts)
    return tables[payoff]


# (m, D) -> the layout of the table coefficients of degrees 0..D for an
# alphabet of Bernstein degree m: each coefficient's power of q and of 1 - q,
# and each degree's first index.  It depends on nothing else, so every
# average over degrees 0..D shares it
_POWERS: dict = {}


def _powers(m: int, D: int):
    """(power of q, power of 1 - q, degree starts) of the coefficients of E_0..E_D."""
    hit = _POWERS.get((m, D))
    if hit is None:
        sizes = m * np.arange(D + 1) + 1
        starts = np.cumsum(sizes) - sizes
        k = np.arange(starts[-1] + sizes[-1], dtype=float) - np.repeat(starts, sizes)
        hit = (k, np.repeat(sizes - 1, sizes) - k, starts)
        for a in hit:
            a.setflags(write=False)
        _POWERS[(m, D)] = hit
    return hit


def _averager(alphabet: MessageAlphabet, payoff: str, pmf):
    """q -> sum_d pmf[d] E_d(q) over the degrees d = 0..D, one value per lane.

    ``pmf`` is one degree law of shape (D+1,) for every lane or one per lane,
    of shape (D+1, L); the returned function takes a 0-d or 1-d q of L lanes.
    The coefficients of E_0..E_D are taken from the alphabet's table once,
    with their exponents of q and 1 - q (``_powers``), so a recursion that
    evaluates the same lanes at step after step pays for them once.  Every
    step of an evaluation works element by element on lane-major arrays: a
    term b q^k (1-q)^(md-k) takes two ``np.power`` calls and two products,
    each degree's terms are a reduction over a contiguous segment, and the
    degrees are added in increasing order (a degree without mass adds exactly
    0).  A lane's value is therefore the same bits whatever the other lanes
    are.  Every term is exact at q = 0 and 1, and at m = 0 (a BSC alphabet)
    it is b itself.
    """
    weights = np.asarray(pmf, dtype=float)
    weights = weights.reshape(weights.shape[0], -1).T  # (1 or L, D+1)
    mass = weights > 0.0
    D = weights.shape[1] - 1
    k, rest, starts = _powers(alphabet._bernstein.shape[1] - 1, D)
    b = _table(alphabet, payoff, D)[0][: k.shape[0]]  # the table may hold more degrees

    def average(q) -> np.ndarray:
        x = np.asarray(q, dtype=float).reshape(-1, 1)
        terms = np.power(x, k)
        terms *= np.power(1.0 - x, rest)
        terms *= b
        sums = np.add.reduceat(terms, starts, axis=1)  # (lanes, degrees)
        # a lane without mass at a degree adds exactly 0, as if it skipped it
        return np.add.accumulate(np.where(mass, sums * weights, 0.0), axis=1)[:, -1]

    return average


def eval_degree(alphabet: MessageAlphabet, d: int, payoff: str, q) -> np.ndarray:
    """Evaluate E_d at q through its nonnegative Bernstein coefficients."""
    _check_degree(d)
    pmf = np.zeros(d + 1)
    pmf[d] = 1.0
    out = _averager(alphabet, payoff, pmf)(q)
    return float(out[0]) if np.ndim(q) == 0 else out


def error_poly(alphabet: MessageAlphabet, d: int, payoff: str = "error") -> EPolynomial:
    """Degree-d payoff polynomial of the alphabet (payoff: error/entropy/chi2),
    expanded from the degree's type terms: a change of basis from its Bernstein
    coefficients is ill-conditioned (LDMC5 power coefficients reach 5e6)."""
    _check_degree(d)
    (types,), coefs = _degree_terms(alphabet, (d,), (payoff,))
    entries = alphabet.entries
    n = len(entries)
    powers = [[np.array([1.0]), entries[j][1].as_array()] for j in range(n)]

    def power(j: int, exp: int) -> np.ndarray:
        while len(powers[j]) <= exp:
            powers[j].append(np.convolve(powers[j][-1], powers[j][1]))
        return powers[j][exp]

    total = np.zeros(1)
    for row, cf in zip(types, coefs[payoff]):
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
        tails, each the same bits as the law at that load alone.  The bits
        are scipy's: log k! follows Cephes ``lgam`` and k log mu is libm's.
        Only the binomial law imports ``scipy.special``, for ``xlog1py``,
        whose Cephes ``log1p`` libm's ``math.log1p`` does not match bit for
        bit; of the families, only the systematic-regular closed form uses it.
        """
        a = np.asarray(alpha, dtype=float)
        lanes = a.reshape(-1, 1)  # lane-major: one row per load
        if self.kind == "poisson":
            ks, log_fact = _log_factorials(D)
            mu = _mean_degree(self.arity, lanes)
            pmf = np.exp(_xlogy(ks, mu[:, 0]) - log_fact - mu)
            tail = np.maximum(1.0 - pmf.sum(axis=1), 0.0)
        else:
            from scipy.special import xlog1py

            pr = lanes * self.rate
            if np.any(pr > 1.0 + 1e-12):
                raise ValueError("binomial degree law needs alpha*rate <= 1")
            n, pr = self.trials, np.minimum(pr, 1.0)
            ks, log_fact = _log_factorials(n)
            logc = log_fact[n] - log_fact - log_fact[::-1]
            w = np.exp(logc + _xlogy(ks, pr[:, 0]) + xlog1py(n - ks, -pr))
            pmf = np.zeros((w.shape[0], D + 1))
            upto = min(D + 1, w.shape[1])
            pmf[:, :upto] = w[:, :upto]
            tail = w[:, D + 1 :].sum(axis=1)
        if a.ndim == 0:
            return pmf[0], float(tail[0])
        return pmf.T, tail


@dataclass(frozen=True)
class _Family:
    """The ``evaluate`` of an E-function family whose ``_at(alpha)`` gives
    q -> E(alpha, q) on a 1-d q.  ``_last`` keeps [key, ``_at``] of the last
    loads: a DE recursion evaluates a family at the same loads step after step."""

    _last: list = field(default_factory=lambda: [None, None], init=False, repr=False, compare=False)

    def __getstate__(self):
        # the evaluator is a closure, so a pickled family starts without one
        return {**self.__dict__, "_last": [None, None]}

    def evaluate(self, alpha, q):
        """E(alpha, q); an array of loads pairs lane by lane with q (or one q)."""
        a = np.asarray(alpha, dtype=float)
        qa = np.asarray(q, dtype=float)
        if a.ndim and a.shape != qa.shape:
            qa = np.broadcast_to(qa, a.shape)
        key = (a.shape, a.tobytes())
        last_key, efun = self._last  # one read, so another thread cannot mix two entries
        if last_key != key:
            efun = self._at(a)
            self._last[:] = [key, efun]
        out = efun(qa.ravel())
        return float(out[0]) if qa.ndim == 0 else out.reshape(qa.shape)


@dataclass(frozen=True)
class EFunctionFamily(_Family):
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

    def __post_init__(self):
        if self.base not in ("ldmc3", "ldmc5"):
            raise ValueError(f"unknown family base {self.base!r}")
        if self.channel not in ("BEC", "BSC"):
            raise ValueError(f"unknown channel tag {self.channel!r}")
        if self.channel == "BSC" and self.base != "ldmc3":
            raise ValueError("BSC alphabets are available for ldmc3 only")
        _check_degree(self.D)

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
                out[lanes] = _averager(f_alphabet("ldmc3_bsc", p), self.payoff, laws)(np.zeros(lanes.shape[0]))
            return out + tail

        return bsc


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


def _mixed_at(components, weights: np.ndarray, loads: np.ndarray, D: int):
    """q -> the mixture E-function (1/2) prod_j 2 E_j(alpha w_j, q) of the lanes
    with (L, n) weights w and L loads alpha, on a 1-d q of L lanes (of any
    length if L = 1); each lane gets the bits of its own one-lane call.

    XOR(d) components take the closed form 2E = e^{-alpha w d q^(d-1)}, and so
    does MAJ(1), whose observed check is the bit itself; the other MAJ
    components, the only ones with soft messages, take the truncated Poisson
    family, and the product is exact only with at most one of them.  A
    component with w <= 0 in a lane is off there: the weights need not lie on
    the simplex, because the profile optimizer evaluates finite-difference
    points just off it.  Components that compare equal are one component, in
    the order of their first appearance, with the sum of their weights per
    lane.  What does not depend on q (each component's active lanes, its XOR
    exponent factor or its Poisson laws) is set up once.
    """
    _check_load(loads)
    _check_degree(D)
    columns = {}
    for j, ck in enumerate(components):
        columns.setdefault(ck, []).append(j)
    start = np.full(weights.shape[0], 0.5)
    factors = []  # (lanes, XOR exponent scale, power of q, MAJ evaluator)
    for ck, (first, *rest) in columns.items():
        lam = sum((weights[:, j] for j in rest), weights[:, first])
        on = lam > 0.0
        if not on.any():
            continue
        lanes = None if on.all() else np.flatnonzero(on)
        load = loads * lam if lanes is None else loads[lanes] * lam[lanes]
        if ck.kind == "XOR" or (ck.kind == "MAJ" and ck.arity == 1):
            scale = -_mean_degree(ck.arity, load)
            if ck.arity == 1 and not factors:
                # q**0 == 1 for every q: a constant factor ahead of every
                # q-dependent one multiplies the start value once
                start[on] *= np.exp(scale)
                continue
            factors.append((lanes, scale, ck.arity - 1, None))
        elif ck.kind == "MAJ":
            pmf = DegreeLaw.poisson(ck.arity).probabilities(load, D)[0]  # loads checked above
            factors.append((lanes, None, None, _averager(f_alphabet(f"ldmc{ck.arity}_bec"), "error", pmf)))
        else:
            raise ValueError("Mixed profiles use XOR and MAJ components only")

    def mixed(q: np.ndarray) -> np.ndarray:
        acc = np.empty(q.shape)
        acc[:] = start  # one lane serves every q
        for lanes, scale, power, efun in factors:
            ql = q if lanes is None else q[lanes]
            factor = 2.0 * efun(ql) if efun is not None else np.exp(scale * (ql if power == 1 else ql**power))
            if lanes is None:
                acc *= factor
            else:
                acc[lanes] *= factor
        return acc

    return mixed


def d_function(family, alpha: float, q):
    """D(alpha, q) = (1-q)/2 - E(alpha, q); zeros are BP fixed points."""
    qa = np.asarray(q, dtype=float)
    out = (1.0 - qa) / 2.0 - np.asarray(family.evaluate(alpha, qa), dtype=float)
    return float(out) if qa.ndim == 0 else out


_ZERO_GRID = 2001
_ZERO_TOL = 1e-10


def first_zero(family, alpha: float):
    """Smallest root of q -> D(alpha, q) in (0, 1], or None: the first zero or
    sign change on a 2001-point grid of [0, 1], bisected to 1e-10."""
    qs = np.linspace(0.0, 1.0, _ZERO_GRID)[1:]
    vals = np.asarray(d_function(family, alpha, qs), dtype=float)
    for i in range(vals.shape[0]):
        if vals[i] == 0.0:
            return float(qs[i])
        if i > 0 and vals[i - 1] * vals[i] < 0.0:
            sign = vals[i - 1] > 0.0
            lo, hi = bisect(lambda q: (d_function(family, alpha, q) > 0.0) == sign, float(qs[i - 1]), float(qs[i]), _ZERO_TOL)
            return 0.5 * (lo + hi)
    return None


@dataclass(frozen=True)
class ClosedFormFamily(_Family):
    """Closed-form BEC error function of a mixed or systematic-regular ensemble.

    Mixed(profile): the ``_mixed_at`` product, exact with at most one distinct
    majority of arity >= 3 (LDGM(d) is ``XOR:d``).  SysRegular(d, R): (1 - alpha R) *
    E[Bin(d(1-R)/R, alpha R)-degree error], with d(1-R)/R an integer.
    """

    channel: ClassVar[str] = "BEC"
    payoff: ClassVar[str] = "error"

    kind: str
    d: int | None = None
    profile: DegreeProfile | None = None
    rate: float | None = None
    D: int = 10

    def __post_init__(self):
        _check_degree(self.D)
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
