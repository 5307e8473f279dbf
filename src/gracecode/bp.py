"""Flooding belief propagation on factor graphs over erasure observations.

Majority messages are log-likelihood ratios ``log P(bit=0) - log P(bit=1)``,
+/-inf when certain, finite variable-side values saturating at
+/-``LLR_CLAMP`` nats; clamp, XOR and PARITY edges carry only a uint8
certainty code: 0 unsure, 1 certain 0, 2 certain 1.  One iteration is a
check update, then a variable step: the checks turn variable-to-check into
check-to-variable messages, which the variable step sums into beliefs and
the next variable-to-check messages.  Iteration 0 is the variable step
alone, on unsure messages except the clamps of observed arity-1 checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ERASED, ReceivedWord, _check_bits, h_b
from .ensemble import XOR, FactorGraph, _check_observations

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
    check's i-th edge in check order; the groups follow in (kind, d) order,
    every arity-1 check (MAJ1 or XOR1) in one clamp group keyed as XOR1.
    Edges [0, m), the majority groups' (MAJ is kind 0, of arity >= 3), carry
    floats; [m, n), the clamp, XOR and PARITY groups', carry codes.  Returns
    the permuted edge-variable array, the initial codes of [m, n), which
    clamp the observed arity-1 checks, the ``_check_update`` plan of the
    other groups (a parity group's slice indexes the codes) and m.
    """
    ptr, g_evar, kind, arity = graph.flat
    base = int(arity.max(initial=0)) + 1
    keys = np.where(arity == 1, XOR * base + 1, kind.astype(np.int64) * base + arity)
    keys[obs == ERASED] = 0  # key 0 is free: every check has arity >= 1
    count = np.bincount(keys, minlength=1)
    count[0] = 0
    stops = np.cumsum(count * (np.arange(count.shape[0]) % base))
    m = int(stops[min(base, stops.shape[0]) - 1])
    evar = np.empty(stops[-1], dtype=g_evar.dtype)
    c2v_code = np.zeros(evar.shape[0] - m, dtype=np.uint8)
    plan = []
    for key in np.flatnonzero(count).tolist():
        d, lo = key % base, 0 if key < base else m
        sel = np.flatnonzero(keys == key)
        blk = slice(stops[key] - lo - d * sel.shape[0], stops[key] - lo)
        first, block = ptr[sel], evar[lo:][blk].reshape(d, sel.shape[0])
        # row by row, with no (d, C) index matrix; the indices are in range,
        # and with "clip" np.take writes into out without a buffer
        for i in range(d):
            np.take(g_evar, first + i, out=block[i], mode="clip")
        bits = obs[sel]
        if d == 1:
            # observed arity-1 checks need no incoming information, and these
            # stay their messages, so the check update leaves them out
            c2v_code[blk] = bits + 1
        else:
            plan.append((blk, (d, sel.shape[0]), bits, _obs_sign(bits) if key < base else None))
    return evar, c2v_code, plan, m


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


def _maj_group_update(lam, sign, out) -> bool:
    """Majority update of a (d, C) block of incoming LLRs into ``out``;
    True if some check saw a contradiction.  ``sign`` is the checks'
    ``_obs_sign``, which ``run_bp`` computes once per call.  Every degree
    runs over blocks of ``_MAJ_BLOCK`` columns, each through every step while
    it is in cache; the columns are independent, so blocks change no bit."""
    d, C = lam.shape
    thr = (d - 1) // 2
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


def _xor_group_update(code, obs, out) -> None:
    """Parity update of a (d, C) block of incoming certainty codes into
    ``out``, a (d, C) uint8 block.

    Edge i is certain only when every other neighbor is; its bit is then the
    parity of the observation and the other neighbors' bits.  A code's bit is
    ``code >> 1``; a XOR-reduce gives the parity and a sum the count of
    unsure neighbors.
    """
    ones = np.right_shift(code, 1)
    parity = np.bitwise_xor.reduce(ones, axis=0) ^ obs.astype(np.uint8, copy=False)
    np.bitwise_xor(ones, parity, out=ones)  # the others' parity with the observation
    unsure = np.equal(code, 0).view(np.uint8)
    n_unsure = np.add.reduce(unsure, axis=0, dtype=np.uint8 if code.shape[0] < 256 else np.intp)
    np.equal(unsure, n_unsure, out=out.view(bool))  # 1 if no other neighbor is unsure
    np.left_shift(out, ones, out=out)


def _check_update(plan, lam, c2v, lam_code, c2v_code) -> bool:
    """Write the check-to-variable messages; True on a contradiction.

    ``plan`` holds ``(slice, (d, C), observations, sign)`` per group, where
    ``sign`` is the majority mirror ``_obs_sign`` and None for every other
    kind (XOR and observed PARITY), which takes the parity update on codes.
    Each group reads its slice of ``lam`` or ``lam_code`` and writes that of
    ``c2v`` or ``c2v_code`` as (d, C) views.
    """
    contradiction = False
    for blk, shape, obs, sign in plan:
        if sign is None:
            _xor_group_update(lam_code[blk].reshape(shape), obs, c2v_code[blk].reshape(shape))
        else:
            contradiction |= _maj_group_update(lam[blk].reshape(shape), sign, c2v[blk].reshape(shape))
    return contradiction


# Certain messages in the variable step.  An edge's code e is 0 for an unsure
# message, 1 for +inf (a certain 0) and 2 for -inf; a variable that received
# n+ and n- certain messages has the code c = min(n+, 2) + 3 min(n-, 2).  Its
# belief is certain if one of its messages is, +inf first: _BELIEF_SCALE[c]
# multiplies e^-x of its clipped finite sum x by 0 (p0 = 1), inf (p0 = 0) or
# 1.  Its message along an edge of code e is certain if one of the others is:
# _EXTRINSIC_ADD[3c + e] is that +/-inf, or 0, added to the clipped sum, and
# _EXTRINSIC_CODE[3c + e] its code.
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
# the message along a clamp, XOR or PARITY edge is the code of its certain
# extrinsic part alone, rewritten on every call; the certain messages of
# those edges add nothing to the finite sums.


def _certain_llr(npos, nneg) -> float:
    return np.inf if npos > 0 else -np.inf if nneg > 0 else 0.0


_BELIEF_SCALE = np.exp(-np.array([_certain_llr(c % 3, c // 3) for c in range(9)]))
_EXTRINSIC_ADD = np.array([_certain_llr(c // 3 % 3 - (c % 3 == 1), c // 9 - (c % 3 == 2)) for c in range(27)])
_EXTRINSIC_CODE = (np.isinf(_EXTRINSIC_ADD) * (1 + np.signbit(_EXTRINSIC_ADD))).astype(np.uint8)


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
    """The variable step's state, with every message unsure before: an
    int32 (3, k) count whose rows 1 and 2 hold each variable's number of
    +inf and -inf messages (row 0, which takes the moves of unsure
    messages, starts at 0 and is not read), the certainty codes of this and
    the last iteration, the extrinsic indices and the variable codes.  They
    share one uint8 block, the counts at its front: made as separate arrays
    among an iteration's temporaries, they let the heap grow from trial to
    trial (a peak RSS of 73-76 MB against 70 MB over 45 in-process k = 1e5
    simulate sweeps).  ``inf`` is the majority edges' certainty mask."""
    block = np.zeros(12 * k + 3 * n + k, dtype=np.uint8)
    cnt = block[: 12 * k].view(np.int32).reshape(3, k)
    new, code, ext, vcode = np.split(block[12 * k :], [n, 2 * n, 3 * n])
    return {"inf": inf, "cnt": cnt, "new": new, "code": code, "ext": ext, "vcode": vcode}


def _count_certain(evar, code, buf) -> bool:
    """Move every edge whose certainty code changed from ``buf``'s count of
    its old code to that of its new one ``code``, rewrite those variables'
    codes and return whether some variable is certain of both values.
    Overwrites ``buf["ext"]``, its change mask."""
    old, cnt, vcode = buf["code"], buf["cnt"], buf["vcode"]
    k = cnt.shape[1]
    chg = np.flatnonzero(np.not_equal(code, old, out=buf["ext"].view(bool)))
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


def _var_step(evar, c2v, c2v_code, k, lam=None, lam_code=None, buf=None):
    """Beliefs p0 and the contradiction flag from the check-to-variable
    messages, floats ``c2v`` on the majority edges [0, m) and codes
    ``c2v_code`` on [m, n); with ``lam`` and ``lam_code`` given, also write
    the next variable-to-check messages into them.

    A variable's belief sums its messages, certain if one of them is; its
    message to a check sums the others.  Both clip finite sums at
    +/-``LLR_CLAMP``.  A variable certain of both values is a contradiction.
    Only majority messages are summed in floats; ``lam_code`` receives the
    code of the certain part of each message alone.

    ``buf`` holds, from the first certain message on, the step's state: each
    edge's certainty code, each variable's counts of +inf and -inf messages
    and each edge's index into the ``_EXTRINSIC_*`` tables.  ``run_bp`` keeps it
    across the iterations of one run and passes the same ``lam`` and
    ``lam_code`` to every call but the last; without ``buf`` it starts anew.
    """
    buf = {} if buf is None else buf
    m = c2v.shape[0]
    inf = np.isinf(c2v, out=buf.get("inf"))
    if "code" not in buf:
        if not (inf.any() or c2v_code.any()):
            tot = np.bincount(evar[:m], weights=c2v, minlength=k).astype(float, copy=False)  # int64 without edges
            if lam is not None:
                np.take(tot, evar[:m], out=lam, mode="clip")
                lam -= c2v
                _clip(lam)
                lam_code.fill(0)
            return _beliefs(tot), False
        buf.update(_new_state(evar.shape[0], k, inf))
    code = buf["new"]
    e = np.signbit(c2v, out=code[:m].view(bool)).view(np.uint8)
    np.left_shift(inf.view(np.uint8), e, out=e)  # 1 for +inf, 2 for -inf
    code[m:] = c2v_code
    # the finite part of the majority messages, the float bits ANDed with 0
    # on the certain ones, in lam's place: the check update has read lam
    keep = np.subtract(inf.view(np.int8), 1, out=inf.view(np.int8))  # -1 where finite
    fin = np.bitwise_and(c2v.view(np.int64), keep, out=None if lam is None else lam.view(np.int64)).view(float)
    tot = np.bincount(evar[:m], weights=fin, minlength=k).astype(float, copy=False)
    both = _count_certain(evar, code, buf)
    buf["code"], buf["new"] = code, buf["code"]
    if lam is not None:
        ext = np.take(buf["vcode"], evar, out=buf["ext"], mode="clip")
        ext *= 3
        ext += code
        np.take(_EXTRINSIC_CODE, ext[m:], out=lam_code, mode="clip")
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
    evar, c2v_code, plan, m = _layout(graph, _check_observations(graph, received))
    c2v, lam, lam_code = np.zeros(m), np.empty(m), np.empty_like(c2v_code)
    buf = {}
    ber_trace = []
    for t in range(iters + 1):
        bad = t > 0 and _check_update(plan, lam, c2v, lam_code, c2v_code)
        p0, contradiction = _var_step(evar, c2v, c2v_code, graph.k, lam if t < iters else None, lam_code, buf)
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
