"""Error/entropy polynomial machinery for majority and LDGM ensembles.

A degree-d variable sees d messages drawn from a :class:`MessageAlphabet`:
likelihood-ratio magnitudes m >= 1 with q-dependent weights (events that fully
determine the bit carry zero error and are dropped from the alphabet).  The
d-th error polynomial E_d(q) averages a payoff of the posterior error over
all message-type and agreement patterns.

Every E-function takes one path: ``_term_rep`` writes E_d as nonnegative
terms in the alphabet weights, and ``_average`` sums pmf[d] * E_d(q) over a
degree pmf.  ``_term_rep`` splits in two: ``_structure`` holds the lattice,
its types and each row's type, which depend only on d and on which entry owns
each lattice column; the coefficients depend on the alphabet's magnitudes and
the payoff and are cached on the alphabet itself.  ``eval_degree`` is the
one-degree case of ``_average`` and ``EFunctionFamily`` calls it with its
degree law (on the BSC once per crossover, which sets the alphabet).
``mixed_efun`` multiplies the XOR closed form with the Poisson
families of the MAJ components; an LDGM(d) ensemble is the profile ``XOR:d``.
``ClosedFormFamily`` wraps it and the systematic-regular binomial-law family,
and the profile optimizer calls it directly.  ``error_poly`` expands
``_term_rep`` in powers of q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, NamedTuple

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

    An alphabet caches its E_d term representations (``_term_rep``), so they
    live exactly as long as it does.
    """

    channel: str
    entries: tuple
    _horner: np.ndarray = field(init=False, repr=False)
    _cols: tuple = field(init=False, repr=False)
    _terms: dict = field(default_factory=dict, init=False, repr=False)

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


@lru_cache(maxsize=64)
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

    Alphabets are immutable, so each one is built once and then shared: the
    BEC ones for the life of the process, the last 64 crossovers' BSC ones in
    their own LRU, which a DE trace over many crossovers cycles without
    evicting the BEC alphabets and the term representations they hold.
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


_STRUCTURE_CACHE: dict = {}
# enough for the LDMC5 lattices (13 columns) up to the default truncation
# D = 10: 646,646 rows at d = 10, about 42 MB for d = 0..10 together
_LATTICE_CACHE_MAX_ROWS = 650_000


def _with_first_part(blocks, t: int) -> np.ndarray:
    """Rows [i | c] for i = 0..t and c a row of ``blocks[t - i]``, in that order."""
    rest = blocks[t::-1]
    first = np.repeat(np.arange(t + 1, dtype=np.int16), [b.shape[0] for b in rest])
    return np.column_stack((first, np.concatenate(rest)))


def _compositions(d: int, K: int):
    """All weak compositions of d into K parts with log-multinomial weights.

    Rows come in lexicographic order (the order of the stars-and-bars
    ``itertools.combinations`` enumeration).  They are built part by part:
    the compositions of t into k parts stack, for i = 0..t, the block
    ``[i | compositions of t - i into k - 1 parts]``.
    """
    if K == 0:
        z = np.zeros((1, 0), dtype=np.int16)
        logc = np.zeros(1)
    else:
        from scipy.special import gammaln

        # blocks[t]: the compositions of t into the parts built so far; the
        # last part added needs only the total d
        blocks = [np.full((1, 1), t, dtype=np.int16) for t in range(d + 1)]
        for k in range(2, K + 1):
            blocks = [_with_first_part(blocks, t) for t in (range(d + 1) if k < K else (d,))]
        z = blocks[-1]
        table = gammaln(np.arange(d + 1) + 1.0)
        logc = gammaln(d + 1) - table[z].sum(axis=1)
    return z, logc


def _check_load(alpha: float) -> None:
    if not alpha >= 0.0:  # also false for NaN
        raise ValueError(f"alpha must be >= 0, got {alpha}")


def _check_degree(d: int) -> None:
    if not 0 <= d <= _MAX_DEGREE:
        raise ValueError(f"degree must lie in [0, {_MAX_DEGREE}]")


class _Structure(NamedTuple):
    """The part of E_d's term representation that no magnitude or payoff moves."""

    z: np.ndarray  # the lattice, int16 (rows, columns)
    logc: np.ndarray  # each row's log-multinomial weight
    inv: np.ndarray  # each row's type: its row of ``types``
    types: np.ndarray  # the entries' type counts as floats (types, entries)


def _structure(d: int, owners: tuple) -> _Structure:
    """The lattice of E_d's terms for an alphabet whose lattice column c
    belongs to entry ``owners[c]``, with its types.

    Cached per (d, owners) up to ``_LATTICE_CACHE_MAX_ROWS`` rows, so a second
    payoff or another magnitude set with the same layout (a new BSC
    crossover) reuses it.
    """
    key = (d, owners)
    hit = _STRUCTURE_CACHE.get(key)
    if hit is not None:
        return hit
    z, logc = _compositions(d, len(owners))
    # an entry's type count sums its columns; the counts of a row sum to d, so
    # their base-(d+1) number orders the rows as np.unique(axis=0) would
    radix = (d + 1) ** np.arange(owners[-1], -1, -1)  # owners[-1] + 1 entries
    keys = np.zeros(z.shape[0], dtype=np.int64)
    for c, j in enumerate(owners):
        keys += z[:, c] * radix[j]
    keys, inv = np.unique(keys, return_inverse=True)
    types = (keys[:, None] // radix % (d + 1)).astype(np.float64)
    out = _Structure(z, logc, inv.astype(np.min_scalar_type(keys.shape[0])), types)
    for a in out:
        a.setflags(write=False)
    if z.shape[0] <= _LATTICE_CACHE_MAX_ROWS:
        _STRUCTURE_CACHE[key] = out
    return out


def _term_rep(alphabet: MessageAlphabet, d: int, payoff: str):
    """Nonnegative term representation: E_d(q) = sum_c coef_c prod_j w_j(q)^c_j.

    Returned as (type-count matrix, coefficients), in float64, and cached on
    the alphabet.  All coefficients are >= 0, so evaluation through
    this form is free of the catastrophic cancellation the expanded power
    basis exhibits at larger d.
    """
    key = (d, payoff)
    hit = alphabet._terms.get(key)
    if hit is not None:
        return hit
    col_l, col_logq, owners = alphabet._cols
    s = _structure(d, owners)
    zf = s.z.astype(np.float64)
    llr = zf @ col_l
    logp = s.logc + zf @ col_logq
    del zf
    e = 1.0 / (1.0 + np.exp(np.abs(llr)))
    vals = np.exp(logp) * _apply_payoff(e, payoff)
    coefs = np.bincount(s.inv, weights=vals, minlength=s.types.shape[0])
    coefs.setflags(write=False)
    alphabet._terms[key] = out = (s.types, coefs)
    return out


def _average(alphabet: MessageAlphabet, payoff: str, pmf, q) -> np.ndarray:
    """sum_d pmf[d] E_d(q) over the degrees of positive mass, at a 0-d or 1-d q.

    The alphabet weights are evaluated once per q; each E_d goes through its
    stable nonnegative term representation.  Returns a 1-d array.  Each
    degree keeps its own two products, with the shapes of a one-degree call,
    so that BLAS sums them in the same order; ``np.exp`` and the running sum
    over the degrees work element by element, so they run once over all
    degrees with the same values.
    """
    qa = np.asarray(q, dtype=float).ravel()
    x = qa[:, None]
    h = alphabet._horner
    w = h[0] + x * 0  # polyval's steps and order, for every entry at once
    for row in h[1:]:
        w = row + w * x
    logw = np.log(np.maximum(w, 1e-300))  # zero weights become ~exp(-690) ~ 0
    degrees = np.flatnonzero(pmf > 0.0)
    # each degree's term representation and its rows in the stacked exponents
    parts, rows = [], 0
    for d in degrees.tolist():
        types, coefs = _term_rep(alphabet, d, payoff)
        parts.append((types, coefs, rows, rows + types.shape[0]))
        rows += types.shape[0]
    expo = np.empty((rows, qa.shape[0]))
    for types, _, a, b in parts:
        np.dot(types, logw.T, out=expo[a:b])
    np.exp(expo, out=expo)
    # row 0 stays 0, the start of the sum 0 + pmf[d0] E_d0 + pmf[d1] E_d1 + ...
    terms = np.zeros((len(parts) + 1, qa.shape[0]))
    for i, (_, coefs, a, b) in enumerate(parts, 1):
        np.dot(coefs, expo[a:b], out=terms[i])
    terms[1:] *= pmf[degrees][:, None]
    return np.add.accumulate(terms)[-1]


def eval_degree(alphabet: MessageAlphabet, d: int, payoff: str, q) -> np.ndarray:
    """Evaluate E_d at q through the stable nonnegative term representation."""
    pmf = np.zeros(d + 1)
    pmf[d] = 1.0
    out = _average(alphabet, payoff, pmf, q)
    return float(out[0]) if np.ndim(q) == 0 else out


@lru_cache(maxsize=512)
def _error_poly_cached(alphabet: MessageAlphabet, d: int, payoff: str) -> EPolynomial:
    entries = alphabet.entries
    n = len(entries)
    uniq, coefs = _term_rep(alphabet, d, payoff)
    powers = [[np.array([1.0]), entries[j][1].as_array()] for j in range(n)]

    def power(j: int, exp: int) -> np.ndarray:
        while len(powers[j]) <= exp:
            powers[j].append(np.convolve(powers[j][-1], powers[j][1]))
        return powers[j][exp]

    total = np.zeros(1)
    for row, cf in zip(uniq, coefs):
        poly = np.array([cf])
        for j in range(n):
            if row[j]:
                poly = np.convolve(poly, power(j, int(row[j])))
        if poly.shape[0] > total.shape[0]:
            total = np.concatenate([total, np.zeros(poly.shape[0] - total.shape[0])])
        total[: poly.shape[0]] += poly
    return EPolynomial(tuple(total))


def error_poly(alphabet: MessageAlphabet, d: int, payoff: str = "error") -> EPolynomial:
    """Degree-d payoff polynomial of the alphabet (payoff: error/entropy/chi2)."""
    _check_degree(d)
    if payoff not in ("error", "entropy", "chi2"):
        raise ValueError(f"unknown payoff {payoff!r}")
    return _error_poly_cached(alphabet, d, payoff)


@lru_cache(maxsize=64)
def _log_factorials(n: int):
    """(k, log k!) for k = 0..n, as read-only arrays."""
    from scipy.special import gammaln

    ks = np.arange(n + 1)
    log_fact = gammaln(ks + 1)
    ks.setflags(write=False)
    log_fact.setflags(write=False)
    return ks, log_fact


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

    @classmethod
    def poisson(cls, arity: int) -> "DegreeLaw":
        return cls("poisson", arity=int(arity))

    @classmethod
    def binomial(cls, trials: int, rate: float) -> "DegreeLaw":
        return cls("binomial", trials=int(trials), rate=float(rate))

    def probabilities(self, alpha: float, D: int):
        """(pmf over degrees 0..D, P(Deg > D)) at load alpha."""
        from scipy.special import xlog1py, xlogy

        if self.kind == "poisson":
            ks, log_fact = _log_factorials(D)
            mu = self.arity * alpha
            pmf = np.exp(xlogy(ks, mu) - log_fact - mu)
            return pmf, max(1.0 - float(pmf.sum()), 0.0)
        pr = alpha * self.rate
        if pr > 1.0 + 1e-12:
            raise ValueError("binomial degree law needs alpha*rate <= 1")
        n, pr = self.trials, min(pr, 1.0)
        ks, log_fact = _log_factorials(n)
        logc = log_fact[n] - log_fact - log_fact[::-1]
        w = np.exp(logc + xlogy(ks, pr) + xlog1py(n - ks, -pr))
        pmf = np.zeros(D + 1)
        upto = min(D + 1, w.shape[0])
        pmf[:upto] = w[:upto]
        return pmf, float(w[D + 1 :].sum())


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

    def evaluate(self, alpha: float, q):
        _check_load(alpha)
        pmf, tail_p = self.law.probabilities(alpha, self.D)
        qa = np.asarray(q, dtype=float)
        if self.channel == "BEC":
            out = _average(f_alphabet(f"{self.base}_bec"), self.payoff, pmf, qa)
        else:
            # the BSC alphabet is built at the crossover q itself
            tail = (0.5 if self.payoff == "error" else 1.0) * tail_p
            bsc = [f_alphabet("ldmc3_bsc", min(max(p, _BSC_MIN_P), 0.5)) for p in qa.ravel().tolist()]
            out = np.array([_average(alph, self.payoff, pmf, 0.0)[0] + tail for alph in bsc])
        return float(out[0]) if qa.ndim == 0 else out.reshape(qa.shape)


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


def mixed_efun(components, weights, alpha: float, q, D: int):
    """Mixture E-function (1/2) prod_j 2 E_j(alpha w_j, q) over the weights w_j > 0.

    XOR(d) components take the closed form 2E = e^{-alpha w d q^(d-1)}, and so
    does MAJ(1), whose observed check is the bit itself; the other MAJ
    components take the truncated Poisson family.  The weights need not lie on
    the simplex: the profile optimizer evaluates finite-difference points just
    off it.
    """
    _check_load(alpha)
    qa = np.asarray(q, dtype=float)
    acc = np.full_like(qa, 0.5)
    for ck, lam in zip(components, weights):
        if lam <= 0.0:
            continue
        if ck.kind == "XOR" or (ck.kind == "MAJ" and ck.arity == 1):
            factor = np.exp(-(alpha * lam) * ck.arity * qa ** (ck.arity - 1))
        elif ck.kind == "MAJ":
            factor = 2.0 * build_family(f"ldmc{ck.arity}", D=D).evaluate(alpha * lam, qa)
        else:
            raise ValueError("Mixed profiles use XOR and MAJ components only")
        acc = acc * factor
    return float(acc) if qa.ndim == 0 else acc


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

    def __post_init__(self):
        if self.kind not in ("mixed", "sysregular"):
            raise ValueError(f"unknown closed form kind {self.kind!r}")

    def evaluate(self, alpha: float, q):
        if self.kind == "mixed":
            if self.profile is None:
                raise ValueError("mixed requires a degree profile")
            comps, lams = zip(*self.profile.entries)
            return mixed_efun(comps, lams, alpha, q, self.D)
        if self.d is None or self.rate is None:
            raise ValueError("sysregular requires d and rate")
        m_real = self.d * (1.0 - self.rate) / self.rate
        m = round(m_real)
        if abs(m_real - m) > 1e-9:
            raise ValueError("sysregular requires d(1-R)/R to be an integer")
        family = build_family(f"ldmc{self.d}", D=m, law=DegreeLaw.binomial(m, self.rate))
        return (1.0 - min(alpha * self.rate, 1.0)) * family.evaluate(alpha, q)


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
