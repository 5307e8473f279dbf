"""Flooding belief propagation on factor graphs over erasure observations.

Messages are log-likelihood ratios ``log P(bit=0) - log P(bit=1)``;
certainty is the explicit value +/-inf, and finite variable-side values
saturate at +/-``LLR_CLAMP`` nats.  One iteration is a check update, then a
variable step: the checks turn variable-to-check into check-to-variable
messages, which the variable step sums into beliefs and the next
variable-to-check messages.  Iteration 0 is the variable step alone, on zero
messages except those of observed arity-1 (identity) checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import ERASED, ReceivedWord, h_b
from .ensemble import MAJ, CheckKind, FactorGraph, _check_observations, observed_subgraph
from .exactdec import ContradictionError

LLR_CLAMP = 500.0
_TINY = Fraction(math.ulp(0.0))
_HUGE = Fraction(sys.float_info.max)


@dataclass
class BeliefState:
    """Per-variable posterior probability-of-zero at an iteration."""

    p0: np.ndarray
    iteration: int


@dataclass
class DecodeResult:
    """Decoded beliefs, hard decisions and per-iteration traces.

    ``hard`` is 0/1 with -1 for undecided (p0 exactly 1/2).  ``ber_trace``
    is the posterior-expected error (mean of min(p0, 1-p0)), the decoder's
    own estimate.  It equals the truth-based count-undecided-as-half BER of
    ``measure`` only when every posterior is 0, 1/2 or 1, as on XOR-only
    graphs over erasures; on majority graphs the posteriors can be
    overconfident and it can sit far below the truth (0.07 against 0.40 on
    ldmc5 at k = 2000, alpha 1.0, ten iterations).  ``soft_trace`` is
    1 - mean h_b(p0).  ``failed`` flags a contradiction (impossible
    observation set) for the trial.
    """

    beliefs: BeliefState
    hard: np.ndarray
    ber_trace: np.ndarray
    soft_trace: np.ndarray
    failed: bool = False


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


def _layout(graph: FactorGraph, obs):
    """Lay the edges of the observed checks of ``graph`` out group-major, in
    one pass over the graph, given the observations ``obs`` of all its checks.

    The C observed checks of one (kind, arity d) group own one contiguous
    slice of the edge arrays, read as a (d, C) block whose row i holds every
    check's i-th edge in check order; the groups follow in (kind, d) order.
    Returns the permuted edge-variable array, the initial check-to-variable
    messages, which clamp the observed arity-1 checks to +/-inf, and the
    ``_check_update`` plan of the other groups.
    """
    ptr, g_evar, kind, arity = graph.flat
    base = int(arity.max(initial=0)) + 1
    keys = kind.astype(np.int64) * base + arity
    keys[obs == ERASED] = 0  # key 0 is free: every check has arity >= 1
    count = np.bincount(keys, minlength=1)
    count[0] = 0
    stops = np.cumsum(count * (np.arange(count.shape[0]) % base))
    evar = np.empty(stops[-1], dtype=g_evar.dtype)
    c2v = np.zeros(evar.shape[0])
    plan = []
    for key in np.flatnonzero(count).tolist():
        code, d = divmod(key, base)
        sel = np.flatnonzero(keys == key)
        blk = slice(stops[key] - d * sel.shape[0], stops[key])
        evar[blk] = g_evar[ptr[sel][None, :] + np.arange(d)[:, None]].ravel()
        bits = obs[sel]
        if d == 1:
            # observed arity-1 checks need no incoming information, and these
            # stay their messages, so the check update leaves them out
            c2v[blk] = np.where(bits == 0, np.inf, -np.inf)
        else:
            plan.append((blk, (d, sel.shape[0]), bits, _obs_sign(bits) if code == MAJ else None))
    return evar, c2v, plan


# Majority checks.  Mirror the incoming LLRs for an observed 1 (s = -lam) and
# let w_j = e^{-s_j} = P(1)/P(0).  The count T of ones among the target's d-1
# other neighbors has P(T = t) proportional to e_t(w), the elementary
# symmetric sum over those others, so the target's ratio
# P(T <= thr) / P(T <= thr-1), thr = (d-1)//2, is 1 + x with
# x = e_thr / sum_{i<thr} e_i, and the message is log1p(x):
#   MAJ3: x = w_j + w_k, at most 2 e^500 for |s| <= LLR_CLAMP.
#   MAJ5: x = e2 / (1 + e1) over the four others, with e1 and e2 built from
#     prefix and suffix sums of non-negative terms, so nothing cancels.  w is
#     scaled by e^-250 (e2 itself would overflow), and
#     x = e^250 e2' / (e^-250 + e1') stays below 4 e^500.
#   Other degrees: the count distribution swept in the log domain.
# Certainty: a certain 0 (s = +inf) is w = 0.  Each certain 1 (s = -inf) among
# the others lowers thr by one, so thr' = 0 sends +inf and thr' < 0 is a
# contradiction (message 0, flag set).  A message is +/-inf only if a +/-inf
# came in.

# columns per block of the MAJ5 update: its (5, block) work arrays stay in a
# core's cache through all of its steps.  On ldmc5 traffic at k = 1e5, blocks
# of 4096-8192 took the least time per call, 2048 and 16384 took longer and
# whole groups about 1.5 times as long.
_MAJ5_BLOCK = 8192
_HALF_CLAMP = LLR_CLAMP / 2
_E_HALF_CLAMP = math.exp(_HALF_CLAMP)
# what a message adds to log1p(x) by the count of certain ones among the
# others, capped at thr + 1
_MAJ_CERTAIN = {thr: np.array([0.0] * thr + [np.inf, 0.0]) for thr in (1, 2)}


def _obs_sign(obs):
    """The mirror of each majority check: -1.0 where it observed a 1."""
    return np.where(obs == 1, -1.0, 1.0)


def _maj_group_update(lam, obs, out, sign=None) -> bool:
    """Majority update of a (d, C) block of incoming LLRs into ``out``;
    True if some check saw a contradiction.  ``sign`` is ``_obs_sign(obs)``,
    which ``run_bp`` computes once per call.  The MAJ5 closed form runs over
    blocks of ``_MAJ5_BLOCK`` columns, each through every step while it is in
    cache; MAJ3 runs as one block, where smaller ones were measured no faster."""
    d, C = lam.shape
    thr = (d - 1) // 2
    if sign is None:
        sign = _obs_sign(obs)
    if d not in (3, 5):
        bad = _maj_sweep(lam * sign, thr, out)  # s
        out *= sign
        return bad
    step = _MAJ5_BLOCK if d == 5 else max(C, 1)
    work = np.empty(d * min(C, step))
    bad = False
    for lo in range(0, C, step):
        hi = min(lo + step, C)
        blk_sign, blk_out = sign[lo:hi], out[:, lo:hi]
        w = work[: d * (hi - lo)].reshape(d, hi - lo)
        np.multiply(lam[:, lo:hi], -blk_sign, out=w)  # -s
        bad |= _maj_closed_form(w, thr, blk_out)
        blk_out *= blk_sign
    return bad


def _maj_closed_form(w, thr, out) -> bool:
    """Write log1p(x) for MAJ3/MAJ5 (thr 1/2) into ``out`` from ``w`` = -s,
    which it overwrites with the ratios w; True on a contradiction."""
    if thr == 2:
        w -= _HALF_CLAMP
    inf = np.isinf(w)
    certain = bool(inf.any())
    if certain:
        # a certain neighbor weighs 0; its w goes through exp as e^0 and is
        # then ANDed with 0, so exp sees finite arguments only
        ones = np.isposinf(w).view(np.int8)
        keep = np.subtract(inf.view(np.int8), 1, out=inf.view(np.int8))
        np.bitwise_and(w.view(np.int64), keep, out=w.view(np.int64))
        np.exp(w, out=w)
        np.bitwise_and(w.view(np.int64), keep, out=w.view(np.int64))
    else:
        np.exp(w, out=w)
    if thr == 1:
        np.add(w[1], w[2], out=out[0])
        np.add(w[0], w[2], out=out[1])
        np.add(w[0], w[1], out=out[2])
    else:
        e1 = _maj5_sums(w, out)
        out /= e1 + 1.0 / _E_HALF_CLAMP
        out *= _E_HALF_CLAMP
    if not certain:
        np.log1p(out, out=out)
        return False
    n1 = np.add.reduce(ones, axis=0, dtype=np.int8) - ones  # certain ones among the others
    if thr == 2:
        np.multiply(e1, _E_HALF_CLAMP, out=out, where=n1 == 1)
    # below thr the message keeps x, at thr it is +inf, above thr (a
    # contradiction) 0; log1p also sees finite arguments only
    np.multiply(out, n1 < thr, out=out)
    np.log1p(out, out=out)
    np.minimum(n1, thr + 1, out=n1)
    out += _MAJ_CERTAIN[thr].take(n1, mode="clip")
    return bool((n1 > thr).any())


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


_PARITY_MESSAGE = np.array([0.0, np.inf, -np.inf])  # unsure, certain 0, certain 1


def _xor_group_update(lam, obs, out) -> None:
    """Parity update of a (d, C) block of incoming LLRs into ``out``.

    Edge i is certain only when every other neighbor is; its bit is then the
    parity of the observation and the other neighbors' bits.  On int8 flags a
    XOR-reduce gives the parity and a sum the count of unsure neighbors; the
    message is read from ``_PARITY_MESSAGE``.
    """
    d = lam.shape[0]
    ones = np.equal(lam, -np.inf).view(np.int8)
    unsure = np.isfinite(lam).view(np.int8)
    parity = np.bitwise_xor.reduce(ones, axis=0) ^ obs.astype(np.int8, copy=False)
    np.bitwise_xor(ones, parity, out=ones)  # the others' parity with the observation
    n_unsure = np.add.reduce(unsure, axis=0, dtype=np.int8 if d < 128 else np.intp)
    code = np.equal(unsure, n_unsure).view(np.uint8)  # 1 if no other neighbor is unsure
    np.left_shift(code, ones.view(np.uint8), out=code)
    np.take(_PARITY_MESSAGE, code, out=out, mode="clip")


def _check_update(plan, lam, c2v) -> bool:
    """Write the check-to-variable messages into ``c2v``; True on a contradiction.

    ``plan`` holds ``(slice, (d, C), observations, sign)`` per group, where
    ``sign`` is the majority mirror ``_obs_sign`` and None for every other
    kind (XOR and observed PARITY), which takes the parity update.  Each
    group reads its slice of ``lam`` and writes its slice of ``c2v`` as
    (d, C) views.
    """
    contradiction = False
    for blk, shape, obs, sign in plan:
        if sign is None:
            _xor_group_update(lam[blk].reshape(shape), obs, c2v[blk].reshape(shape))
        else:
            contradiction |= _maj_group_update(lam[blk].reshape(shape), obs, c2v[blk].reshape(shape), sign)
    return contradiction


# Certain messages in the variable step.  An edge's code e is 0 for a finite
# message, 1 for +inf and 2 for -inf; a variable that received n+ and n-
# certain messages has the code c = min(n+, 2) + 3 min(n-, 2).  Its belief is
# certain if one of its messages is, +inf first: _BELIEF_SCALE[c] multiplies
# e^-x of its clipped finite sum x by 0 (p0 = 1), inf (p0 = 0) or 1.  Its
# message along an edge of code e is certain if one of the others is:
# _EXTRINSIC_ADD[3c + e] is that +/-inf, or 0, added to the clipped sum.


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


def _var_step(evar, c2v, k, lam=None, buf=None):
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


def run_bp(graph: FactorGraph, received: ReceivedWord, iters: int) -> DecodeResult:
    """Flooding BP for ``iters`` iterations; traces have length iters + 1.

    Only erasure (BEC) observations are modelled; other channels raise
    ``ValueError``, as does an ``iters`` that is not an integer >= 0.
    """
    if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 0:
        raise ValueError(f"iters must be an integer >= 0, got {iters!r}")
    if received.channel.kind != "BEC":
        raise ValueError(f"run_bp decodes BEC observations only, not {received.channel.kind}")
    evar, c2v, plan = _layout(graph, _check_observations(graph, received))
    lam = np.empty(evar.shape[0])
    buf = {"idx": lam}  # lam is written after the step's last read of "idx"
    ber_trace = []
    soft_trace = []
    for t in range(iters + 1):
        bad = t > 0 and _check_update(plan, lam, c2v)
        p0, contradiction = _var_step(evar, c2v, graph.k, lam if t < iters else None, buf)
        ber_trace.append(float(np.minimum(p0, 1.0 - p0).mean()))
        soft_trace.append(1.0 - float(np.mean(h_b(p0))))
        failed = bad or contradiction
        if failed:
            break
    hard = np.where(p0 > 0.5, 0, np.where(p0 < 0.5, 1, -1)).astype(np.int8)
    return DecodeResult(
        beliefs=BeliefState(p0=p0, iteration=t),
        hard=hard,
        ber_trace=np.array(ber_trace),
        soft_trace=np.array(soft_trace),
        failed=failed,
    )


def measure(result: DecodeResult, truth, bins: int = 20):
    """Truth-based BER (undecided counts 1/2), soft information, histogram."""
    truth = np.asarray(truth, dtype=np.int8)
    hard = result.hard
    if truth.shape[0] != hard.shape[0]:
        raise ValueError("truth length must equal k")
    err = np.where(hard == -1, 0.5, (hard != truth).astype(float))
    ber = float(err.mean())
    iota = float(result.soft_trace[-1])
    hist, _ = np.histogram(result.beliefs.p0, bins=bins, range=(0.0, 1.0))
    return ber, iota, hist


def observed_degrees(graph: FactorGraph, received: ReceivedWord) -> np.ndarray:
    """Per-variable membership count over observed (active) checks."""
    return np.bincount(observed_subgraph(graph, received).evar, minlength=graph.k)


__all__ = [
    "BeliefState",
    "DecodeResult",
    "check_message",
    "run_bp",
    "measure",
    "observed_degrees",
]
