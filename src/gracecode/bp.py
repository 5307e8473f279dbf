"""Flooding belief propagation on factor graphs over erasure observations.

Messages are log-likelihood ratios ``log P(bit=0) - log P(bit=1)``; finite
values saturate at +/-``LLR_CLAMP`` nats and certainty is the explicit value
+/-inf.  One iteration is a full variable-to-check then check-to-variable
sweep.  The iteration-0 state is all-1/2 beliefs except variables clamped by
observed arity-1 (identity) checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ERASED, ReceivedWord, h_b
from .ensemble import MAJ, CheckKind, FactorGraph, _check_observations
from .exactdec import ContradictionError

LLR_CLAMP = 500.0


@dataclass
class BeliefState:
    """Per-variable posterior probability-of-zero at an iteration."""

    p0: np.ndarray
    iteration: int


@dataclass
class DecodeResult:
    """Decoded beliefs, hard decisions and per-iteration traces.

    ``hard`` is 0/1 with -1 for undecided (p0 exactly 1/2).  ``ber_trace``
    is the posterior-expected error (mean of min(p0, 1-p0)); on erasure
    observations this coincides with the truth-based count-undecided-as-half
    convention.  ``soft_trace`` is 1 - mean h_b(p0).  ``failed`` flags a
    contradiction (impossible observation set) for the trial.
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
        with np.errstate(invalid="ignore"):
            p1 = np.where(np.isinf(r), 0.0, 1.0 / (1.0 + r))
        if obs == 1:
            p1 = 1.0 - p1
        d = kind.arity
        thr = (d - 1) // 2
        dist = np.array([1.0])
        for u in p1:
            nxt = np.zeros(dist.shape[0] + 1)
            nxt[: dist.shape[0]] += dist * (1.0 - u)
            nxt[1:] += dist * u
            dist = nxt
        a_sum = float(dist[: thr + 1].sum())
        b_sum = float(dist[:thr].sum())
        if a_sum <= 0.0:
            raise ContradictionError("conflicting certain messages at a majority check")
        ratio = np.inf if b_sum <= 0.0 else a_sum / b_sum
        return ratio if obs == 0 else (0.0 if ratio == np.inf else 1.0 / ratio)
    certain = (r == 0.0) | np.isinf(r)
    if not np.all(certain):
        return 1.0
    parity = (int((r == 0.0).sum()) + obs) % 2
    return np.inf if parity == 0 else 0.0


def _active_arrays(graph: FactorGraph, received: ReceivedWord):
    """Flat arrays for the observed checks (unerased emitted + PARITY)."""
    obs = _check_observations(graph, received)
    active = obs != ERASED
    sub = graph.subgraph(active)
    return sub.ptr, sub.evar, sub.kind, obs[active], sub.arity


def _build_groups(a_ptr, a_kind, a_ar, a_obs):
    """One (C, d) edge-index matrix and its C observations per (kind, arity)."""
    groups = {}
    base = int(a_ar.max(initial=0)) + 1
    keys = a_kind.astype(np.int64) * base + a_ar
    for key in np.unique(keys).tolist():
        kind, d = divmod(key, base)
        sel = np.nonzero(keys == key)[0]
        groups[(kind, d)] = (a_ptr[sel][:, None] + np.arange(d)[None, :], a_obs[sel])
    return groups


def _var_extrinsic(evar, c2v, totals, lam):
    """Write the variable-to-check messages into ``lam``, given the posterior's
    per-variable (finite sum, +inf count, -inf count) ``totals`` of ``c2v``.

    The posterior stops BP at a variable certain of both values, so none occurs here.
    """
    tot, npos, nneg = totals
    pinf = c2v == np.inf
    ninf = c2v == -np.inf
    fin = np.where(np.isfinite(c2v), c2v, 0.0)
    pos = npos[evar] - pinf
    neg = nneg[evar] - ninf
    rest = np.clip(tot[evar] - fin, -LLR_CLAMP, LLR_CLAMP)
    lam[:] = np.where(pos > 0, np.inf, np.where(neg > 0, -np.inf, rest))


# Majority checks: the target-bit likelihood ratio for an observed 0 is
# P(T <= thr) / P(T <= thr - 1), thr = (d-1)//2, where T counts ones among the
# other d-1 neighbors.  A forward table (point masses of the count over the
# first i neighbors) and a backward table (cumulative counts over neighbors
# i..d-1) are swept once per block; each entry is a contiguous length-C row,
# indexed [neighbor, count].  Only counts t <= thr are swept: the leave-one-out
# sums read no other entry.  An observed 1 is the mirror image (negate
# incoming and outgoing LLRs).


def _maj_group_update(lam, obs):
    """Majority update for a (C, d) block of incoming LLRs; returns the
    outgoing block and whether some check saw a contradiction."""
    C, d = lam.shape
    thr = (d - 1) // 2
    sign = np.where(obs == 1, -1.0, 1.0)
    s = np.multiply(lam.T, sign, order="C")
    with np.errstate(over="ignore"):
        u = np.where(s == np.inf, 0.0, np.where(s == -np.inf, 1.0, 1.0 / (1.0 + np.exp(np.clip(s, -LLR_CLAMP, LLR_CLAMP)))))
    v = 1.0 - u
    fw = np.zeros((d, thr + 1, C))
    fw[0, 0] = 1.0
    for i in range(d - 1):
        m = min(i + 1, thr) + 1
        np.multiply(fw[i, :m], v[i], out=fw[i + 1, :m])
        fw[i + 1, 1:m] += fw[i, : m - 1] * u[i]
    bw = np.empty((d + 1, thr + 1, C))
    bw[d] = 1.0
    for i in range(d - 1, 0, -1):
        np.multiply(v[i], bw[i + 1], out=bw[i])
        bw[i, 1:] += u[i] * bw[i + 1, :-1]
    # leave neighbor i out: a = P(T <= thr), b = P(T <= thr - 1), summed over t
    # in increasing order for every i at once
    a_sum = np.zeros((d, C))
    b_sum = np.zeros((d, C))
    for t in range(thr + 1):
        a_sum[t:] += fw[t:, t] * bw[t + 1 :, thr - t]
        if t < thr:
            b_sum[t:] += fw[t:, t] * bw[t + 1 :, thr - t - 1]
    bad = a_sum <= 0.0
    sure = b_sum <= 0.0
    ratio = np.log(np.maximum(a_sum, 1e-300, out=a_sum), out=a_sum)
    ratio -= np.log(np.maximum(b_sum, 1e-300, out=b_sum), out=b_sum)
    msg = np.where(bad, 0.0, np.where(sure, np.inf, np.minimum(ratio, LLR_CLAMP, out=ratio)))
    return sign[:, None] * msg.T, bool(bad.any())


def _xor_group_update(lam, obs):
    """Parity update for a (C, d) block of incoming LLRs.

    Edge i is certain only when every other neighbor is; its bit is then the
    parity of the observation and the other neighbors' bits.
    """
    ones = lam == -np.inf
    unsure = ~np.isinf(lam)
    others_unsure = unsure.sum(axis=1, keepdims=True) - unsure
    bit = (ones.sum(axis=1, keepdims=True) - ones + obs[:, None]) % 2
    return np.where(others_unsure == 0, np.where(bit == 0, np.inf, -np.inf), 0.0)


def _check_update(groups, lam, c2v) -> bool:
    """Write the check-to-variable messages into ``c2v``; True on a contradiction.

    Every kind other than MAJ (XOR and observed PARITY) takes the parity update.
    """
    contradiction = False
    for (kind, _), (emat, obs) in groups.items():
        if kind == MAJ:
            out, bad = _maj_group_update(lam[emat], obs)
            contradiction = contradiction or bad
        else:
            out = _xor_group_update(lam[emat], obs)
        c2v[emat] = out
    return contradiction


def _posterior(evar, c2v, k):
    """Beliefs, the contradiction flag and the per-variable totals of ``c2v``."""
    pinf = c2v == np.inf
    ninf = c2v == -np.inf
    fin = np.where(np.isfinite(c2v), c2v, 0.0)
    tot = np.bincount(evar, weights=fin, minlength=k)
    npos = np.bincount(evar, weights=pinf, minlength=k)
    nneg = np.bincount(evar, weights=ninf, minlength=k)
    contradiction = bool(np.any((npos > 0) & (nneg > 0)))
    with np.errstate(over="ignore"):
        p0 = 1.0 / (1.0 + np.exp(-np.clip(tot, -LLR_CLAMP, LLR_CLAMP)))
    p0 = np.where(npos > 0, 1.0, np.where(nneg > 0, 0.0, p0))
    return p0, contradiction, (tot, npos, nneg)


def run_bp(graph: FactorGraph, received: ReceivedWord, iters: int) -> DecodeResult:
    """Flooding BP for ``iters`` iterations; traces have length iters + 1.

    Only erasure (BEC) observations are modelled; other channels raise
    ``ValueError``.
    """
    if iters < 0:
        raise ValueError("iters must be >= 0")
    if received.channel.kind != "BEC":
        raise ValueError(f"run_bp decodes BEC observations only, not {received.channel.kind}")
    k = graph.k
    a_ptr, a_evar, a_kind, a_obs, a_ar = _active_arrays(graph, received)
    ne = int(a_ptr[-1])
    c2v = np.zeros(ne)
    # iteration-0 clamps: observed arity-1 checks need no incoming information
    unit = np.nonzero(a_ar == 1)[0]
    if unit.shape[0]:
        c2v[a_ptr[unit]] = np.where(a_obs[unit] == 0, np.inf, -np.inf)
    ber_trace = []
    soft_trace = []
    p0, failed, totals = _posterior(a_evar, c2v, k)
    ber_trace.append(float(np.minimum(p0, 1.0 - p0).mean()))
    soft_trace.append(1.0 - float(np.mean(h_b(p0))))
    done = 0
    if not failed:
        lam = np.zeros(ne)
        groups = _build_groups(a_ptr, a_kind, a_ar, a_obs)
        for _ in range(iters):
            _var_extrinsic(a_evar, c2v, totals, lam)
            bad2 = _check_update(groups, lam, c2v)
            p0, bad3, totals = _posterior(a_evar, c2v, k)
            done += 1
            ber_trace.append(float(np.minimum(p0, 1.0 - p0).mean()))
            soft_trace.append(1.0 - float(np.mean(h_b(p0))))
            if bad2 or bad3:
                failed = True
                break
    hard = np.where(p0 > 0.5, 0, np.where(p0 < 0.5, 1, -1)).astype(np.int8)
    return DecodeResult(
        beliefs=BeliefState(p0=p0, iteration=done),
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
    p0 = result.beliefs.p0
    iota = 1.0 - float(np.mean(h_b(p0)))
    hist, _ = np.histogram(p0, bins=bins, range=(0.0, 1.0))
    return ber, iota, hist


def observed_degrees(graph: FactorGraph, received: ReceivedWord) -> np.ndarray:
    """Per-variable membership count over observed (active) checks."""
    a_ptr, a_evar, _, _, _ = _active_arrays(graph, received)
    return np.bincount(a_evar, minlength=graph.k)


__all__ = [
    "BeliefState",
    "DecodeResult",
    "check_message",
    "run_bp",
    "measure",
    "observed_degrees",
]
