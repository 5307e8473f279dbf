"""Independent reference implementations used as test oracles.

Everything here is deliberately written in the most direct (and slow) way
possible — exhaustive enumeration and exact rational arithmetic — so that
agreement with the library is meaningful.
"""

from __future__ import annotations

import bisect
import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from gracecode.bp import LLR_CLAMP, BeliefState, DecodeResult, run_bp
from gracecode.channels import ERASED, ReceivedWord, h_b, h_b_inv
from gracecode.efun import f_alphabet
from gracecode.ensemble import MAJ, XOR, CheckKind, DegreeProfile, FactorGraph, _check_observations, _offsets
from gracecode.exactdec import BitMatrix, ContradictionError
from gracecode.optimize import _BASE_STEP, _FD_STEP, _MAX_ITERS, OptProblem, OptResult, _objective_raw, project_simplex


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


# ---------------------------------------------------------------------------
# The check message in exact rational arithmetic, the observed sub-graph of
# a graph and its variable degrees, and the posterior marginals by
# enumeration of every source word: references of BP that the library
# itself never calls.
# ---------------------------------------------------------------------------

_TINY = Fraction(math.ulp(0.0))
_HUGE = Fraction(sys.float_info.max)


def check_message(kind: CheckKind, observed: int, incoming) -> float:
    """Reference check-to-target message in the likelihood-ratio domain.

    ``incoming`` holds the ratios P(0)/P(1) from the other arity-1 neighbors.
    An erased observation returns 1 (no message).  For a majority check with
    observed 0 the result is P(T <= (d-1)/2) / P(T <= (d-3)/2) with T the
    count of ones among the other neighbors; observed 1 is the mirror image.
    The count distribution is computed in exact rational arithmetic and
    rounded once, into [smallest positive, largest finite] float unless the
    exact ratio is 0 or inf, which needs an incoming ratio of 0 or inf.
    ``ContradictionError`` means the observation is impossible.
    XOR/PARITY checks are informative only when every other neighbor is
    certain.
    """
    r = np.asarray(incoming, dtype=float)
    if r.shape[0] != kind.arity - 1:
        raise ValueError("incoming must hold arity-1 ratios")
    if np.any(r < 0):
        raise ValueError("likelihood ratios must lie in [0, inf]")
    if observed == ERASED:
        return 1.0
    obs = int(observed)
    if kind.kind == "MAJ":
        thr = (kind.arity - 1) // 2
        # point masses of T up to a common factor: a neighbor weighs (r, 1)
        # for (zero, one), a certain zero (1, 0); observed 1 counts zeros
        dist = [Fraction(1)]
        for x in r.tolist():
            p0, p1 = (Fraction(1), Fraction(0)) if x == np.inf else (Fraction(x), Fraction(1))
            if obs == 1:
                p0, p1 = p1, p0
            dist = [a * p0 + b * p1 for a, b in zip(dist + [Fraction(0)], [Fraction(0)] + dist)]
        a_sum = sum(dist[: thr + 1])
        b_sum = sum(dist[:thr])
        if a_sum == 0:
            raise ContradictionError("conflicting certain messages at a majority check")
        if b_sum == 0:
            return np.inf if obs == 0 else 0.0
        ratio = a_sum / b_sum if obs == 0 else b_sum / a_sum
        return float(min(max(ratio, _TINY), _HUGE))
    certain = (r == 0.0) | np.isinf(r)
    if not np.all(certain):
        return 1.0
    parity = (int((r == 0.0).sum()) + obs) % 2
    return np.inf if parity == 0 else 0.0


def subgraph(graph: FactorGraph, keep) -> FactorGraph:
    """The checks selected by the boolean mask ``keep``, in their order."""
    keep = np.asarray(keep, dtype=bool)
    return FactorGraph(
        graph.k,
        _offsets(graph.arity[keep]),
        graph.evar[np.repeat(keep, graph.arity)],
        graph.kind[keep],
        int(keep[: graph.systematic_prefix].sum()),
    )


def observed_subgraph(graph: FactorGraph, received: ReceivedWord) -> FactorGraph:
    """Sub-graph keeping PARITY checks and emitted checks with unerased output."""
    return subgraph(graph, _check_observations(graph, received) != ERASED)


def observed_degrees(graph: FactorGraph, received: ReceivedWord) -> np.ndarray:
    """Per-variable membership count over observed (active) checks."""
    return np.bincount(observed_subgraph(graph, received).evar, minlength=graph.k)


def brute_force_marginals(graph: FactorGraph, received: ReceivedWord) -> np.ndarray:
    """Exact posterior P(S_i = 0) by enumerating all 2^k sources (k <= 24).

    Sources inconsistent with any unerased coded bit (or PARITY constraint)
    are discarded; marginals are empirical frequencies under a uniform prior.
    """
    k = graph.k
    if k > 24:
        raise ValueError("brute force limited to k <= 24")
    n_src = 1 << k
    states = np.arange(n_src, dtype=np.int64)
    mask = np.ones(n_src, dtype=bool)
    pos = 0
    for kind, idx in graph.checks:
        if kind.emitted:
            obs = int(received.symbols[pos])
            pos += 1
            if obs == ERASED:
                continue
        else:
            obs = 0
        count = np.zeros(n_src, dtype=np.int8)
        for i in idx:
            count += ((states >> i) & 1).astype(np.int8)
        if kind.kind == "MAJ":
            out = count > (kind.arity // 2)
        else:
            out = (count % 2).astype(bool)
        mask &= out == bool(obs)
    total = int(mask.sum())
    if total == 0:
        raise ContradictionError("no source word is consistent with the observations")
    marg = np.empty(k, dtype=float)
    for i in range(k):
        ones = int((((states >> i) & 1).astype(bool) & mask).sum())
        marg[i] = 1.0 - ones / total
    return marg


# ---------------------------------------------------------------------------
# E-function evaluation as it was before the per-alphabet caches and the shared
# lattice structure: one BLAS product pair, one exp and one vector add per
# degree, a fresh np.unique per (alphabet, d, payoff).  The library must
# return the same bits.
# ---------------------------------------------------------------------------


def _columns_plain(entries):
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
    return np.array(col_l), np.array(col_logq), np.array(col_entry, dtype=np.int64)


def _apply_payoff(e: np.ndarray, payoff: str) -> np.ndarray:
    if payoff == "error":
        return e
    if payoff == "entropy":
        return np.atleast_1d(h_b(e))
    if payoff == "chi2":
        return 1.0 - (1.0 - 2.0 * e) ** 2
    raise ValueError(f"unknown payoff {payoff!r}")


@lru_cache(maxsize=512)
def term_rep_plain(alphabet, d: int, payoff: str):
    entries = alphabet.entries
    col_l, col_logq, col_entry = _columns_plain(entries)
    z, logc = _compositions(d, col_l.shape[0])
    zf = z.astype(np.float64)
    llr = zf @ col_l
    logp = logc + zf @ col_logq
    e = 1.0 / (1.0 + np.exp(np.abs(llr)))
    vals = np.exp(logp) * _apply_payoff(e, payoff)
    radix = (d + 1) ** np.arange(len(entries) - 1, -1, -1)
    keys, inv = np.unique((zf @ radix[col_entry]).astype(np.int64), return_inverse=True)
    coefs = np.bincount(inv, weights=vals, minlength=keys.shape[0])
    return (keys[:, None] // radix % (d + 1)).astype(np.int16), coefs


# The whole-lattice term build that the chunked stream of ``efun._degree_terms``
# replaced, verbatim: one lattice, its types from ``np.unique`` and one
# ``np.bincount`` per payoff.  The library's coefficients must match it bit
# for bit.  It holds its own copies of the helpers it shares with the
# library (``_with_first_part`` here, ``_apply_payoff`` above), so it runs
# none of the code it checks.
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


_STRUCTURE_CACHE: dict = {}
# enough for the LDMC5 lattices (13 columns) up to the default truncation
# D = 10: 646,646 rows at d = 10, about 42 MB for d = 0..10 together
_LATTICE_CACHE_MAX_ROWS = 650_000


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


def _degree_terms(alphabet: MessageAlphabet, d: int, payoff: str):
    """Nonnegative term representation: E_d(q) = sum_c coef_c prod_j w_j(q)^c_j.

    Returned as (type-count matrix, coefficients), in float64; the float
    lattice and its row vectors go on return.  All coefficients are >= 0.
    """
    col_l, col_logq, owners = alphabet._cols
    s = _structure(d, owners)
    zf = s.z.astype(np.float64)
    llr = zf @ col_l
    logp = s.logc + zf @ col_logq
    del zf
    e = 1.0 / (1.0 + np.exp(np.abs(llr)))
    vals = np.exp(logp) * _apply_payoff(e, payoff)
    return s.types, np.bincount(s.inv, weights=vals, minlength=s.types.shape[0])


def bernstein_vector(coeffs, m: int) -> np.ndarray:
    """The polynomial sum_i coeffs[i] q^i in the terms q^k (1-q)^(m-k), k = 0..m.

    Its coefficients in the scaled terms C(m, k) q^k (1-q)^(m-k) are
    sum_i C(k, i) / C(m, i) coeffs[i]; each is taken in exact rationals and
    rounded once.
    """
    return np.array([float(math.comb(m, k) * sum(Fraction(math.comb(k, i), math.comb(m, i)) * Fraction(a)
                                                 for i, a in enumerate(coeffs[: k + 1])))
                     for k in range(m + 1)])  # fmt: skip


def bernstein_terms(alphabet, d: int, payoff: str) -> np.ndarray:
    """E_d's coefficients b_k of q^k (1-q)^(md-k), k = 0..md, from the
    whole-lattice type terms: each term's coefficient convolved, row by row,
    with each weight's Bernstein vector as often as the type counts that
    weight, and the rows added in order."""
    m = max(w.degree for _, w in alphabet.entries)
    beta = [bernstein_vector(w.coeffs, m) for _, w in alphabet.entries]
    types, coefs = _degree_terms(alphabet, d, payoff)
    total = np.zeros(m * d + 1)
    for row, coef in zip(types.astype(np.int64).tolist(), coefs.tolist()):
        poly = np.array([coef])
        for j, count in enumerate(row):
            for _ in range(count):
                poly = np.convolve(poly, beta[j])
        total += poly
    return total


def average_plain(alphabet, payoff: str, pmf, q) -> np.ndarray:
    qa = np.atleast_1d(np.asarray(q, dtype=float))
    w = np.stack([wp(qa) for _, wp in alphabet.entries], axis=1)  # (nq, entries)
    logw = np.log(np.maximum(w, 1e-300))  # zero weights become ~exp(-690) ~ 0
    tot = np.zeros(qa.shape[0])
    for d in np.flatnonzero(pmf > 0.0):
        uniq, coefs = term_rep_plain(alphabet, int(d), payoff)
        tot = tot + pmf[d] * (coefs @ np.exp(uniq.astype(float) @ logw.T))
    return tot


def probabilities_plain(law, alpha: float, D: int):
    if law.kind == "poisson":
        ds = np.arange(D + 1)
        mu = law.arity * alpha
        pmf = np.exp(xlogy(ds, mu) - gammaln(ds + 1) - mu)
        return pmf, max(1.0 - float(pmf.sum()), 0.0)
    pr = alpha * law.rate
    if pr > 1.0 + 1e-12:
        raise ValueError("binomial degree law needs alpha*rate <= 1")
    n, pr = law.trials, min(pr, 1.0)
    ks = np.arange(n + 1)
    logc = gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)
    w = np.exp(logc + xlogy(ks, pr) + xlog1py(n - ks, -pr))
    pmf = np.zeros(D + 1)
    upto = min(D + 1, w.shape[0])
    pmf[:upto] = w[:upto]
    return pmf, float(w[D + 1 :].sum())


def evaluate_plain(family, alpha: float, q):
    """``EFunctionFamily.evaluate`` through the functions above."""
    pmf, tail_p = probabilities_plain(family.law, alpha, family.D)
    qa = np.asarray(q, dtype=float)
    if family.channel == "BEC":
        out = average_plain(f_alphabet(f"{family.base}_bec"), family.payoff, pmf, qa)
    else:
        tail = (0.5 if family.payoff == "error" else 1.0) * tail_p
        bsc = [f_alphabet("ldmc3_bsc", min(max(p, 1e-12), 0.5)) for p in qa.ravel().tolist()]
        out = np.array([average_plain(alph, family.payoff, pmf, 0.0)[0] + tail for alph in bsc])
    return float(out[0]) if qa.ndim == 0 else out.reshape(qa.shape)


def mixed_efun_plain(components, weights, alpha: float, q, D: int):
    """``mixed_efun`` through ``evaluate_plain`` (XOR and MAJ3/MAJ5 components)."""
    from gracecode.efun import build_family

    qa = np.asarray(q, dtype=float)
    acc = np.full_like(qa, 0.5)
    for ck, lam in zip(components, weights):
        if lam <= 0.0:
            continue
        if ck.kind == "XOR":
            factor = np.exp(-(alpha * lam) * ck.arity * qa ** (ck.arity - 1))
        else:
            factor = 2.0 * evaluate_plain(build_family(f"ldmc{ck.arity}", D=D), alpha * lam, qa)
        acc = acc * factor
    return float(acc) if qa.ndim == 0 else acc


# ---------------------------------------------------------------------------
# The general two-point converse with every h_b / h_b_inv call on a 1-element
# array, as it ran before those functions had a Python-float path.
# ---------------------------------------------------------------------------


def _h_b_1(x) -> float:
    return float(h_b(np.array([x], dtype=float))[0])


def _h_b_inv_1(y) -> float:
    return float(h_b_inv(np.array([y], dtype=float))[0])


def _eta_plain(delta_star: float, eps: float, tau: float, R: float) -> float:
    from gracecode.converse import _GRID, _sup

    if delta_star >= 0.5:
        return 0.5
    base = 1.0 - (1.0 - tau) / R
    scale = (1.0 - tau) / (1.0 - eps) if eps < 1.0 else 0.0
    hd = _h_b_1(delta_star)

    def val(q):
        conv = q * (1.0 - delta_star) + (1.0 - q) * delta_star
        if np.ndim(q) == 0:
            arg = np.clip(base + scale * (_h_b_1(conv) - hd), 0.0, 1.0)
            return np.where(q < 0.5 - 1e-9, (_h_b_inv_1(arg) - q) / (1.0 - 2.0 * q), -np.inf)
        arg = np.clip(base + scale * (h_b(conv) - hd), 0.0, 1.0)
        return np.where(q < 0.5 - 1e-9, (h_b_inv(arg) - q) / (1.0 - 2.0 * q), -np.inf)

    best = _sup(val, np.linspace(0.0, 0.5, _GRID + 1)[:-1], 0.0, 0.5)
    return min(max(best, 0.0), 0.5)


def general_two_point_plain(R: float, delta_a: float, eps_a: float, eps: float) -> float:
    """``general_two_point`` for a valid anchor, through ``_eta_plain``."""
    from gracecode.converse import _GRID, _REFINE_TOL

    if eps >= eps_a:
        return _eta_plain(delta_a, eps_a, eps, R)
    ys = np.linspace(0.0, 0.5, _GRID + 1)

    def feasible(y: float) -> bool:
        return _eta_plain(y, eps, eps_a, R) <= delta_a + 1e-12

    j = bisect.bisect_left(range(_GRID), True, key=lambda i: feasible(float(ys[i])))
    if j in (0, _GRID):
        return 0.0
    lo, hi = float(ys[j - 1]), float(ys[j])
    while hi - lo > _REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# The profile optimizer's search as it ran one point at a time: the gradient
# ascent, the pattern polish and the multistart screening, verbatim but for
# their names, driven by the library's one-row objective.  The batched search
# must return the same bits.
# ---------------------------------------------------------------------------


def ascend_plain(x: np.ndarray, problem: OptProblem):
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
            x, f, improved = pattern_polish_plain(x, f, problem)
        history.append(f)
        if not improved:
            converged = True
            break
    return x, f, np.array(history), converged


def pattern_polish_plain(x: np.ndarray, f: float, problem: OptProblem):
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


def optimize_profile_plain(problem: OptProblem) -> OptResult:
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
        x, fv, hist, conv = ascend_plain(x0, problem)
        trajectories.append(hist)
        all_conv = all_conv and conv
        if fv > best_f:
            best_f, best_x = fv, x
    # keep the exact iterate: renormalizing can step across a cliff
    w = np.maximum(best_x, 0.0)
    prof = DegreeProfile(tuple(zip(problem.components, w.tolist())))
    return OptResult(prof, best_f, tuple(trajectories), all_conv)


# ---------------------------------------------------------------------------
# BP kernels with boolean masks and int64 counts, kept as the bit-for-bit
# reference of the branch-free ones in gracecode.bp
# ---------------------------------------------------------------------------

_HALF_CLAMP = LLR_CLAMP / 2
_E_HALF_CLAMP = math.exp(_HALF_CLAMP)


def maj_group_update_plain(lam, obs, out) -> bool:
    """Majority update of a (d, C) block of incoming LLRs into ``out``;
    True if some check saw a contradiction."""
    d = lam.shape[0]
    thr = (d - 1) // 2
    sign = np.where(obs == 1, -1.0, 1.0)
    if d in (3, 5):
        bad = _maj_closed_form(lam * -sign, thr, out)  # -s
    else:
        bad = _maj_sweep(lam * sign, thr, out)  # s
    out *= sign
    return bad


def _maj_closed_form(w, thr, out) -> bool:
    """Write log1p(x) for MAJ3/MAJ5 (thr 1/2) into ``out`` from ``w`` = -s,
    which it overwrites with the ratios w; True on a contradiction."""
    if thr == 2:
        w -= _HALF_CLAMP
    np.exp(w, out=w)
    ones = w == np.inf
    certain = bool(ones.any())
    if certain:
        w[ones] = 0.0
    if thr == 1:
        np.add(w[1], w[2], out=out[0])
        np.add(w[0], w[2], out=out[1])
        np.add(w[0], w[1], out=out[2])
    else:
        e1 = _maj5_sums(w, out)
        out /= e1 + 1.0 / _E_HALF_CLAMP
        out *= _E_HALF_CLAMP
    contradiction = False
    if certain:
        n1 = ones.sum(axis=0) - ones  # certain ones among the others
        if thr == 2:
            np.multiply(e1, _E_HALF_CLAMP, out=out, where=n1 == 1)
        out[n1 == thr] = np.inf
        bad = n1 > thr
        out[bad] = 0.0
        contradiction = bool(bad.any())
    np.log1p(out, out=out)
    return contradiction


def _maj5_sums(w, e2):
    """Leave-one-out e1 and e2 of five rows of ratios: e2 goes into ``e2``,
    e1 is returned."""
    w0, w1, w2, w3, w4 = w
    p2 = w0 + w1  # prefix sums
    p3 = p2 + w2
    s3 = w3 + w4  # suffix sums
    s2 = s3 + w2
    q3 = w0 * w1 + p2 * w2  # e2(w0, w1, w2)
    r2 = w3 * w4 + s3 * w2  # e2(w2, w3, w4)
    e1 = np.empty_like(w)
    np.add(s2, w1, out=e1[0])
    np.add(s2, w0, out=e1[1])
    np.add(p2, s3, out=e1[2])
    np.add(p3, w4, out=e1[3])
    np.add(p3, w3, out=e1[4])
    np.add(r2, s2 * w1, out=e2[0])
    np.add(r2, s2 * w0, out=e2[1])
    np.add(w0 * w1 + p2 * s3, w3 * w4, out=e2[2])
    np.add(q3, p3 * w4, out=e2[3])
    np.add(q3, p3 * w3, out=e2[4])
    return e1


def _maj_sweep(s, thr, out) -> bool:
    """log P(T <= thr) - log P(T <= thr-1) for any degree, by a forward table
    of point masses and a backward table of cumulative counts, in logs."""
    d, C = s.shape
    lu = -np.logaddexp(0.0, s)  # log P(one)
    lv = -np.logaddexp(0.0, -s)  # log P(zero)
    # fw[i, t]: t ones among neighbors 0..i-1; bw[i, t]: at most t among i..d-1
    fw = np.full((d, thr + 1, C), -np.inf)
    fw[0, 0] = 0.0
    for i in range(d - 1):
        np.add(fw[i], lv[i], out=fw[i + 1])
        np.logaddexp(fw[i + 1, 1:], fw[i, :-1] + lu[i], out=fw[i + 1, 1:])
    bw = np.zeros((d + 1, thr + 1, C))
    for i in range(d - 1, 0, -1):
        np.add(bw[i + 1], lv[i], out=bw[i])
        np.logaddexp(bw[i, 1:], bw[i + 1, :-1] + lu[i], out=bw[i, 1:])
    # leave neighbor i out: a = log P(T <= thr), b = log P(T <= thr - 1)
    a = np.logaddexp.reduce([fw[:, t] + bw[1:, thr - t] for t in range(thr + 1)], axis=0)
    b = np.logaddexp.reduce([fw[:, t] + bw[1:, thr - 1 - t] for t in range(thr)], axis=0)  # -inf if thr = 0
    bad = a == -np.inf
    with np.errstate(invalid="ignore"):
        np.subtract(a, b, out=out)
    out[bad] = 0.0
    return bool(bad.any())


_CODE_LLR = np.array([0.0, np.inf, -np.inf])


def as_llr(code):
    """The LLRs of BP certainty codes: 0 (unsure) is 0, 1 (a certain 0) is
    +inf and 2 (a certain 1) is -inf, so that code messages meet the float
    references here."""
    return _CODE_LLR[code]


def xor_group_update_plain(lam, obs, out) -> None:
    """Parity update of a (d, C) block of incoming LLRs into ``out``.

    Edge i is certain only when every other neighbor is; its bit is then the
    parity of the observation and the other neighbors' bits.
    """
    ones = lam == -np.inf
    unsure = ~np.isinf(lam)
    others_unsure = unsure.sum(axis=0) - unsure
    bit = (ones.sum(axis=0) - ones + obs) % 2
    out[:] = np.where(others_unsure == 0, np.where(bit == 0, np.inf, -np.inf), 0.0)


def check_update_plain(groups, lam, c2v) -> bool:
    """Write the check-to-variable messages into ``c2v``; True on a contradiction.

    Each group's kernel reads its slice of ``lam`` and writes its slice of
    ``c2v`` as (d, C) views.  Every kind other than MAJ (XOR and observed
    PARITY) takes the parity update.
    """
    contradiction = False
    for (kind, d), (blk, obs) in groups.items():
        shape = (d, obs.shape[0])
        if kind == MAJ:
            contradiction |= maj_group_update_plain(lam[blk].reshape(shape), obs, c2v[blk].reshape(shape))
        else:
            xor_group_update_plain(lam[blk].reshape(shape), obs, c2v[blk].reshape(shape))
    return contradiction


def var_step_plain(evar, c2v, k, lam=None):
    """Beliefs p0 and the contradiction flag from the check-to-variable
    messages ``c2v``; with ``lam`` given, also write the next
    variable-to-check messages into it.

    A variable's belief sums its messages, certain if one of them is; its
    message to a check sums the others.  Both clip finite sums at
    +/-``LLR_CLAMP``.  A variable certain of both values is a contradiction.
    """
    pinf = c2v == np.inf
    ninf = c2v == -np.inf
    fin = np.where(np.isfinite(c2v), c2v, 0.0)
    tot = np.bincount(evar, weights=fin, minlength=k)
    npos = np.bincount(evar[pinf], minlength=k)
    nneg = np.bincount(evar[ninf], minlength=k)
    contradiction = bool(np.any((npos > 0) & (nneg > 0)))
    with np.errstate(over="ignore"):
        p0 = 1.0 / (1.0 + np.exp(-np.clip(tot, -LLR_CLAMP, LLR_CLAMP)))
    p0 = np.where(npos > 0, 1.0, np.where(nneg > 0, 0.0, p0))
    if lam is not None:
        np.clip(tot[evar] - fin, -LLR_CLAMP, LLR_CLAMP, out=lam)
        lam[nneg[evar] > ninf] = -np.inf  # another message is certain
        lam[npos[evar] > pinf] = np.inf
    return p0, contradiction


# The variable step as it was before it kept its state across iterations: it
# recounts every edge's certainty on every call and does float work on every
# edge.  Kept verbatim as the bit-for-bit reference of gracecode.bp._var_step.


def _certain_llr(npos, nneg) -> float:
    return np.inf if npos > 0 else -np.inf if nneg > 0 else 0.0


_BELIEF_SCALE = np.exp(-np.array([_certain_llr(c % 3, c // 3) for c in range(9)]))
_EXTRINSIC_ADD = np.array([_certain_llr(c // 3 % 3 - (c % 3 == 1), c // 9 - (c % 3 == 2)) for c in range(27)])
_BOTH_CERTAIN = np.array([c % 3 > 0 and c // 3 > 0 for c in range(9)])


def _work(buf, name, n, dtype):
    """The per-edge work array ``name`` of ``buf``, made on first use."""
    a = buf.get(name)
    if a is None:
        a = buf[name] = np.empty(n, dtype=dtype)
    return a


def _clip(x):
    """Clip ``x`` in place to +/-``LLR_CLAMP``."""
    return np.clip(x, -LLR_CLAMP, LLR_CLAMP, out=x)


def _beliefs(tot, scale=None):
    """p0 = 1 / (1 + e^-x) of the clipped sums ``tot`` (overwritten), with
    e^-x times ``scale``."""
    x = np.negative(_clip(tot), out=tot)
    np.exp(x, out=x)
    if scale is not None:
        x *= scale
    x += 1.0
    return np.divide(1.0, x, out=x)


def var_step_recounted(evar, c2v, k, lam=None, buf=None):
    """Beliefs p0 and the contradiction flag from the check-to-variable
    messages ``c2v``; with ``lam`` given, also write the next
    variable-to-check messages into it.

    A variable's belief sums its messages, certain if one of them is; its
    message to a check sums the others.  Both clip finite sums at
    +/-``LLR_CLAMP``.  A variable certain of both values is a contradiction.
    ``buf`` holds the per-edge work arrays, which ``run_bp`` keeps across
    iterations; its float array ``"idx"``, which the step reads as int64
    indices before it writes ``lam``, may be ``lam`` itself.
    """
    if buf is None:
        buf = {}
    n = c2v.shape[0]
    inf = np.isinf(c2v, out=buf.get("inf"))
    if not inf.any():
        tot = np.bincount(evar, weights=c2v, minlength=k).astype(float, copy=False)  # int64 without edges
        if lam is not None:
            np.take(tot, evar, out=lam, mode="clip")
            lam -= c2v
            _clip(lam)
        return _beliefs(tot), False
    buf["inf"] = inf
    # the finite part: the float bits ANDed with 0 on the certain messages
    code = _work(buf, "code", n, np.uint8)
    np.subtract(inf.view(np.int8), 1, out=code.view(np.int8))  # -1 where finite
    fin = _work(buf, "fin", n, float)
    np.bitwise_and(c2v.view(np.int64), code.view(np.int8), out=fin.view(np.int64))
    np.signbit(c2v, out=code.view(bool))
    np.left_shift(inf.view(np.uint8), code, out=code)  # e
    tot = np.bincount(evar, weights=fin, minlength=k)
    # certain messages per variable in one pass: slots 3v + 1 and 3v + 2
    idx = np.multiply(evar, 3, out=_work(buf, "idx", n, float).view(np.intp))
    idx += code
    counts = np.bincount(idx, minlength=3 * k)
    np.minimum(counts, 2, out=counts)
    vcode = (counts[1::3] + 3 * counts[2::3]).astype(np.uint8)
    del counts  # freed before the per-edge arrays below
    contradiction = bool(_BOTH_CERTAIN.take(vcode, mode="clip").any())
    if lam is not None:
        np.take(tot, evar, out=lam, mode="clip")
        lam -= fin
        _clip(lam)
        ext = np.take(vcode, evar, out=inf.view(np.uint8), mode="clip")
        ext *= 3
        ext += code
        lam += np.take(_EXTRINSIC_ADD, ext, out=fin, mode="clip")
    return _beliefs(tot, _BELIEF_SCALE.take(vcode, mode="clip")), contradiction


def build_groups_plain(sub, obs):
    """Lay the edges of the observed sub-graph ``sub`` out group-major, given
    the observations ``obs`` of its checks.

    The C checks of one (kind, arity d) group own one contiguous slice of the
    edge arrays, read as a (d, C) block whose row i holds every check's i-th
    edge; every arity-1 check, MAJ1 or XOR1, is in the one group (XOR, 1).
    Returns the permuted edge-variable array and, per (kind, d), the slice
    and the C observations.
    """
    ptr, a_evar, a_kind, a_ar = sub.flat
    groups = {}
    evar = np.empty_like(a_evar)
    base = int(a_ar.max(initial=0)) + 1
    keys = a_kind.astype(np.int64) * base + a_ar
    keys[a_ar == 1] = XOR * base + 1
    off = 0
    for key in np.unique(keys).tolist():
        kind, d = divmod(key, base)
        sel = np.nonzero(keys == key)[0]
        blk = slice(off, off + d * sel.shape[0])
        evar[blk] = a_evar[ptr[sel][None, :] + np.arange(d)[:, None]].ravel()
        groups[(kind, d)] = (blk, obs[sel])
        off = blk.stop
    return evar, groups


def observed_groups_plain(graph, received):
    """The observations of every check of ``graph``, and ``build_groups_plain``
    on its observed sub-graph."""
    obs = _check_observations(graph, received)
    active = obs != ERASED
    return obs, *build_groups_plain(subgraph(graph, active), obs[active])


def run_bp_plain(graph, received, iters: int):
    """Flooding BP with the kernels above; arity-1 groups run every iteration.

    Computes both traces on every iteration and returns the ``DecodeResult``
    and the soft-information trace.
    """
    _, evar, groups = observed_groups_plain(graph, received)
    c2v = np.zeros(evar.shape[0])
    for (_, d), (blk, bits) in groups.items():
        if d == 1:
            c2v[blk] = np.where(bits == 0, np.inf, -np.inf)
    lam = np.empty(evar.shape[0])
    ber_trace = []
    soft_trace = []
    for t in range(iters + 1):
        bad = t > 0 and check_update_plain(groups, lam, c2v)
        p0, contradiction = var_step_plain(evar, c2v, graph.k, lam if t < iters else None)
        ber_trace.append(float(np.minimum(p0, 1.0 - p0).mean()))
        soft_trace.append(1.0 - float(np.mean(h_b(p0))))
        failed = bad or contradiction
        if failed:
            break
    hard = np.where(p0 > 0.5, 0, np.where(p0 < 0.5, 1, -1)).astype(np.int8)
    result = DecodeResult(
        beliefs=BeliefState(p0=p0, iteration=t),
        hard=hard,
        ber_trace=np.array(ber_trace),
        soft_info=soft_trace[-1],
        failed=failed,
    )
    return result, np.array(soft_trace)


def run_bp_traced(graph, received, iters: int):
    """``run_bp`` and its soft-information trace, 1 - mean h_b(p0) per
    iteration as ``run_bp_plain`` computes it, taken through the ``observe``
    hook."""
    soft_trace = []
    result = run_bp(graph, received, iters, observe=lambda t, p0: soft_trace.append(1.0 - float(np.mean(h_b(p0)))))
    return result, np.array(soft_trace)
