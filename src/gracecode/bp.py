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
from dataclasses import dataclass

import numpy as np

from .channels import ERASED, ReceivedWord, _check_bits, h_b
from .ensemble import MAJ, FactorGraph, _check_observations

LLR_CLAMP = 500.0


@dataclass
class BeliefState:
    """Per-variable posterior probability-of-zero at an iteration."""

    p0: np.ndarray
    iteration: int


@dataclass
class DecodeResult:
    """Decoded beliefs, hard decisions, the decoder's BER trace and the final
    soft information.

    ``hard`` is 0/1 with -1 for undecided (p0 exactly 1/2).  ``ber_trace``
    holds, per iteration, the posterior-expected error (mean of
    min(p0, 1-p0)), the decoder's own estimate.  It equals the
    truth-based count-undecided-as-half BER of ``measure`` only when every
    posterior is 0, 1/2 or 1, as on XOR-only graphs over erasures; on
    majority graphs the posteriors can be overconfident and it can sit far
    below the truth (0.07 against 0.40 on ldmc5 at k = 2000, alpha 1.0, ten
    iterations).  ``soft_info`` is 1 - mean h_b(p0) of the final beliefs;
    other per-iteration quantities are taken through ``run_bp``'s
    ``observe`` hook.  ``failed`` flags a contradiction (impossible
    observation set) for the trial.
    """

    beliefs: BeliefState
    hard: np.ndarray
    ber_trace: np.ndarray
    soft_info: float
    failed: bool = False


def _layout(graph: FactorGraph, obs):
    """Lay the edges of the observed checks of ``graph`` out group-major, in
    one pass over the graph, given the observations ``obs`` of all its checks.

    The C observed checks of one (kind, arity d) group own one contiguous
    slice of the edge arrays, read as a (d, C) block whose row i holds every
    check's i-th edge in check order; the groups follow in (kind, d) order.
    Returns the permuted edge-variable array, the initial check-to-variable
    messages, which clamp the observed arity-1 checks to +/-inf, the
    ``_check_update`` plan of the other groups and the number m of majority
    edges: the majority groups come first (MAJ is kind 0), so edges [0, m)
    are theirs and [m, n) those of the XOR and PARITY groups.
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
        first, block = ptr[sel], evar[blk].reshape(d, sel.shape[0])
        # row by row, with no (d, C) index matrix; the indices are in range,
        # and with "clip" np.take writes into out without a buffer
        for i in range(d):
            np.take(g_evar, first + i, out=block[i], mode="clip")
        bits = obs[sel]
        if d == 1:
            # observed arity-1 checks need no incoming information, and these
            # stay their messages, so the check update leaves them out
            c2v[blk] = np.where(bits == 0, np.inf, -np.inf)
        else:
            plan.append((blk, (d, sel.shape[0]), bits, _obs_sign(bits) if code == MAJ else None))
    return evar, c2v, plan, int(stops[min(base, stops.shape[0]) - 1])


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
#   Other degrees: the count distribution swept in logs, block by block.
# Certainty: a certain 0 (s = +inf) is w = 0.  Each certain 1 (s = -inf) among
# the others lowers thr by one, so thr' = 0 sends +inf and thr' < 0 is a
# contradiction (message 0, flag set).  A message is +/-inf only if a +/-inf
# came in.

# columns per block of the majority update of every degree: a block's work
# arrays and count tables stay in a core's cache through all of its steps.
# On ldmc5 traffic at k = 1e5, MAJ5 blocks of 4096-8192 took the least time
# per call, 2048 and 16384 longer and whole groups about 1.5 times as long;
# on sim-mixed traffic MAJ3 takes about as long over blocks as whole.
_MAJ_BLOCK = 8192
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
    which ``run_bp`` computes once per call.  Every degree runs over blocks
    of ``_MAJ_BLOCK`` columns, each through every step while it is in cache;
    the columns are independent, so blocks change no bit."""
    d, C = lam.shape
    thr = (d - 1) // 2
    sign = _obs_sign(obs) if sign is None else sign
    update = _maj_closed_form if d in (3, 5) else _maj_sweep
    work = np.empty(d * min(C, _MAJ_BLOCK))
    bad = False
    for lo in range(0, C, _MAJ_BLOCK):
        hi = min(lo + _MAJ_BLOCK, C)
        blk_sign, blk_out = sign[lo:hi], out[:, lo:hi]
        w = work[: d * (hi - lo)].reshape(d, hi - lo)
        np.multiply(lam[:, lo:hi], -blk_sign, out=w)  # -s
        bad |= update(w, thr, blk_out)
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


def _maj_sweep(w, thr, out) -> bool:
    """log P(T <= thr) - log P(T <= thr-1) for any degree from ``w`` = -s:
    forward point masses and backward cumulative counts, in logs."""
    d, C = w.shape
    lu = -np.logaddexp(0.0, -w)  # log P(one)
    lv = -np.logaddexp(0.0, w)  # log P(zero)
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
#
# The step keeps each edge's code and each variable's counts of +inf and -inf
# messages across iterations and moves only the edges whose code changed,
# from their old code's count to their new one's, so the counts are exact
# whatever the messages do.  On run_bp's traffic a certain message keeps its
# value up to the iteration that flags a contradiction, so codes only turn
# certain.
#
# Float work runs on the majority edges [0, m) only.  A parity check reads of
# its incoming messages only whether they are certain and of which value, so
# the message along an XOR or PARITY edge is its certain extrinsic part alone
# (0 when unsure), rewritten on every call; its check-to-variable messages
# are 0 or +/-inf, so leaving them out of the sums changes no bit.


def _certain_llr(npos, nneg) -> float:
    return np.inf if npos > 0 else -np.inf if nneg > 0 else 0.0


_BELIEF_SCALE = np.exp(-np.array([_certain_llr(c % 3, c // 3) for c in range(9)]))
_EXTRINSIC_ADD = np.array([_certain_llr(c // 3 % 3 - (c % 3 == 1), c // 9 - (c % 3 == 2)) for c in range(27)])


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


def _new_state(n, k, inf):
    """The variable step's state, with every message finite before: an
    int32 (3, k) count whose rows 1 and 2 hold each variable's number of
    +inf and -inf messages (row 0, which takes the moves of finite
    messages, starts at 0 and is not read), the certainty codes of this and
    the last iteration, the extrinsic indices and the variable codes.  They
    share one uint8 block, the counts at its front: made as separate arrays
    among an iteration's temporaries, they let the heap grow from trial to
    trial (a peak RSS of 73-76 MB against 70 MB over 45 in-process k = 1e5
    simulate sweeps)."""
    block = np.zeros(12 * k + 3 * n + k, dtype=np.uint8)
    cnt = block[: 12 * k].view(np.int32).reshape(3, k)
    new, code, ext, vcode = np.split(block[12 * k :], [n, 2 * n, 3 * n])
    return {"inf": inf, "cnt": cnt, "new": new, "code": code, "ext": ext, "vcode": vcode}


def _count_certain(evar, code, buf) -> bool:
    """Move every edge whose certainty code changed from ``buf``'s count of
    its old code to that of its new one ``code``, rewrite those variables'
    codes and return whether some variable is certain of both values.
    Overwrites ``buf["inf"]``."""
    old, cnt, vcode = buf["code"], buf["cnt"], buf["vcode"]
    k = cnt.shape[1]
    chg = np.flatnonzero(np.not_equal(code, old, out=buf["inf"]))
    v = evar.take(chg)
    # flat index e k + v counts the messages of code e at variable v; an
    # int32 scalar keeps ufunc.at on its fast path
    np.subtract.at(cnt.reshape(-1), np.multiply(old.take(chg), k, dtype=v.dtype) + v, np.int32(1))
    np.add.at(cnt.reshape(-1), np.multiply(code.take(chg), k, dtype=v.dtype) + v, np.int32(1))
    npos = np.minimum(cnt[1].take(v), 2)
    nneg = np.minimum(cnt[2].take(v), 2)
    nneg *= 3
    nneg += npos
    vcode[v] = nneg
    return bool(np.logical_and(cnt[1], cnt[2]).any())


def _var_step(evar, c2v, k, lam=None, buf=None, m=None):
    """Beliefs p0 and the contradiction flag from the check-to-variable
    messages ``c2v``; with ``lam`` given, also write the next
    variable-to-check messages into it.

    A variable's belief sums its messages, certain if one of them is; its
    message to a check sums the others.  Both clip finite sums at
    +/-``LLR_CLAMP``.  A variable certain of both values is a contradiction.
    Edges [0, ``m``) (all of them when ``m`` is None) are majority edges,
    whose messages are summed in floats; on the others ``lam`` receives only
    the certain part of the message, 0 when unsure.

    ``buf`` holds, from the first certain message on, the step's state: each
    edge's certainty code, each variable's counts of +inf and -inf messages
    and each edge's index into ``_EXTRINSIC_ADD``.  ``run_bp`` keeps it
    across the iterations of one run and passes the same ``lam`` to every
    call but the last; without ``buf`` the step starts from scratch.
    """
    if buf is None:
        buf = {}
    n = c2v.shape[0]
    m = n if m is None else m
    inf = np.isinf(c2v, out=buf.get("inf"))
    if "code" not in buf:
        if not inf.any():
            tot = np.bincount(evar, weights=c2v, minlength=k).astype(float, copy=False)  # int64 without edges
            if lam is not None:
                np.take(tot, evar, out=lam, mode="clip")
                lam -= c2v
                _clip(lam)
            return _beliefs(tot), False
        buf.update(_new_state(n, k, inf))
    u8 = inf.view(np.uint8)
    code = np.signbit(c2v, out=buf["new"].view(bool)).view(np.uint8)
    code &= u8
    code += u8  # e
    # the finite part of the majority messages, the float bits ANDed with 0
    # on the certain ones, in lam's place: the check update has read lam
    keep = np.subtract(inf[:m].view(np.int8), 1, out=inf[:m].view(np.int8))  # -1 where finite
    fin = np.bitwise_and(c2v[:m].view(np.int64), keep, out=None if lam is None else lam[:m].view(np.int64))
    fin = fin.view(float)
    tot = np.bincount(evar[:m], weights=fin, minlength=k).astype(float, copy=False)
    both = _count_certain(evar, code, buf)
    buf["code"], buf["new"] = code, buf["code"]
    if lam is not None:
        ext = np.take(buf["vcode"], evar, out=buf["ext"], mode="clip")
        ext *= 3
        ext += code
        np.take(_EXTRINSIC_ADD, ext[m:], out=lam[m:], mode="clip")
        rest = np.take(tot, evar[:m], mode="clip")
        rest -= fin
        _clip(rest)
        np.take(_EXTRINSIC_ADD, ext[:m], out=fin, mode="clip")
        fin += rest
    return _beliefs(tot, _BELIEF_SCALE.take(buf["vcode"], mode="clip")), both


def run_bp(graph: FactorGraph, received: ReceivedWord, iters: int, observe=None) -> DecodeResult:
    """Flooding BP for ``iters`` iterations; ``ber_trace`` has length
    iters + 1, or less when a contradiction stops the run early.

    ``observe(t, p0)``, when given, is called after the variable step of
    every iteration t that runs, with that iteration's beliefs as a
    read-only array of its own, which the run does not change later.  The
    soft information is computed of the final beliefs only.

    Only erasure (BEC) observations are modelled; other channels raise
    ``ValueError``, as does an ``iters`` that is not an integer >= 0.
    """
    if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 0:
        raise ValueError(f"iters must be an integer >= 0, got {iters!r}")
    if received.channel.kind != "BEC":
        raise ValueError(f"run_bp decodes BEC observations only, not {received.channel.kind}")
    evar, c2v, plan, m = _layout(graph, _check_observations(graph, received))
    lam = np.empty(evar.shape[0])
    buf = {}
    ber_trace = []
    for t in range(iters + 1):
        bad = t > 0 and _check_update(plan, lam, c2v)
        p0, contradiction = _var_step(evar, c2v, graph.k, lam if t < iters else None, buf, m)
        ber_trace.append(float(np.minimum(p0, 1.0 - p0).mean()))
        if observe is not None:
            seen = p0.view()
            seen.flags.writeable = False
            observe(t, seen)
        failed = bad or contradiction
        if failed:
            break
    hard = np.where(p0 > 0.5, 0, np.where(p0 < 0.5, 1, -1)).astype(np.int8)
    return DecodeResult(
        beliefs=BeliefState(p0=p0, iteration=t),
        hard=hard,
        ber_trace=np.array(ber_trace),
        soft_info=1.0 - float(np.mean(h_b(p0))),
        failed=failed,
    )


def measure(result: DecodeResult, truth, bins: int | None = None):
    """Truth-based BER (undecided counts 1/2), the result's soft information
    and, only when ``bins`` is given, a ``bins``-bin histogram of the final
    beliefs over [0, 1] (None otherwise).

    ``truth`` must hold k bits, each 0 or 1; anything else raises
    ``ValueError``.
    """
    truth = _check_bits(truth, "truth bits")
    hard = result.hard
    if truth.shape[0] != hard.shape[0]:
        raise ValueError("truth length must equal k")
    err = np.where(hard == -1, 0.5, (hard != truth).astype(float))
    ber = float(err.mean())
    hist = None if bins is None else np.histogram(result.beliefs.p0, bins=bins, range=(0.0, 1.0))[0]
    return ber, result.soft_info, hist


__all__ = [
    "BeliefState",
    "DecodeResult",
    "run_bp",
    "measure",
]
