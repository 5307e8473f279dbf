"""Binary erasure/symmetric channels, BMS metrics, and matched surrogates.

All entropies are in bits (base-2 logarithms).  Erased symbols are encoded as
``ERASED`` (-1) in received words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ERASED = -1


def _h_b_float(x: float) -> float:
    """``h_b`` of one Python float, with the array path's ``np.log2`` and IEEE
    operations in its order, so the two paths agree bit for bit."""
    if not 0.0 < x < 1.0:
        return x if math.isnan(x) else 0.0
    return -x * float(np.log2(x)) - (1.0 - x) * float(np.log2(1.0 - x))


def _h_b_open(x: np.ndarray) -> np.ndarray:
    """``h_b`` of an array whose entries all lie in (0, 1)."""
    return -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)


def h_b(x):
    """Binary entropy in bits; accepts scalars or arrays, h_b(0)=h_b(1)=0.

    NaN stays NaN: an undefined probability is not a certain bit.
    """
    if np.ndim(x) == 0:
        return _h_b_float(float(x))
    arr = np.asarray(x, dtype=float)
    out = np.where(np.isnan(arr), arr, 0.0)
    mask = (arr > 0.0) & (arr < 1.0)
    out[mask] = _h_b_open(arr[mask])
    return out


def _check_entropy(y) -> None:
    ok = -1e-9 <= y <= 1.0 + 1e-9 if isinstance(y, float) else np.all((y >= -1e-9) & (y <= 1.0 + 1e-9))
    if not ok:  # ok is false for NaN
        raise ValueError("h_b_inv argument must lie in [0, 1]")


def bisect(below, lo: float, hi: float, tol: float):
    """Halve [lo, hi] until it is at most ``tol`` wide, moving ``lo`` to each
    midpoint where ``below`` holds and ``hi`` to the others; returns (lo, hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


_H_B_INV_TOL = 1e-12
# the bisection's last width, the widest power of 2 not above the tolerance
_H_B_INV_LAST = 2.0 ** math.floor(math.log2(_H_B_INV_TOL))
# Every term of h_b's series about 1/2 rises towards 1/2, so on [0, 1/2]
# h_b(u) - h_b(u - w) >= (2 / ln 2) w (w + 2 (1/2 - u)).  A jump takes the
# deepest level whose steps w keep that bound at 1e-13 or more (float h_b's
# largest error measured is 2e-16) up to one step past its interval, where
# u <= x + 5w/2 for the root estimate x.  With t = 1/2 - x that holds for
# w >= K / t when w <= t / 4 (t^2 >= 8 K), and for w >= sqrt(K) always,
# where K = (ln 2 / 2) 1e-13.
_H_B_RISE = 0.5 * math.log(2.0) * 1e-13
_NEWTON_STEPS = 5


def _h_b_inv_jump(y: float):
    """The dyadic interval of ``h_b_inv``'s bisection for ``y`` in (0, 1) at
    the level that a Newton estimate of the root selects, or [0, 1/2] if
    ``h_b`` at its ends contradicts the bisection's choices.

    The level's grid point nearest the estimate is compared with ``y`` first,
    and decides on which side of it the interval lies; then the interval's
    other end is compared.  h_b(0) = 0 < y and h_b(1/2) = 1 > y, so the ends
    of [0, 1/2] compare as the bisection takes them.
    """
    if y < 0.8:
        x = y / (2.0 * (1.0 - math.log2(y)))
    else:
        x = 0.5 - math.sqrt((1.0 - y) * (0.5 * math.log(2.0)))
    for _ in range(_NEWTON_STEPS):
        if not 0.0 < x < 0.5:
            break
        l1x = math.log2(1.0 - x)  # h_b(x) = x h_b'(x) - l1x; l1x > log2(x)
        x = (y + l1x) / (l1x - math.log2(x))
    x = min(max(x, 0.0), 0.5)
    t = 0.5 - x
    w = _H_B_RISE / t if t * t >= 8.0 * _H_B_RISE else math.sqrt(_H_B_RISE)
    w = max(math.ldexp(1.0, math.ceil(math.log2(w))), _H_B_INV_LAST)
    b = round(x / w) * w
    upper = _h_b_float(b) >= y
    lo = b - w if upper else b
    if (_h_b_float(lo if upper else b + w) >= y) != upper:
        return lo, lo + w
    return 0.0, 0.5


def _h_b_inv_jumps(y: np.ndarray):
    """``_h_b_inv_jump`` lane by lane, for ``y`` in (0, 1)."""
    x = np.where(y < 0.8, y / (2.0 * (1.0 - np.log2(y))), 0.5 - np.sqrt((1.0 - y) * (0.5 * math.log(2.0))))
    with np.errstate(divide="ignore", invalid="ignore"):  # a lane leaving (0, 1/2) turns inf or NaN
        for _ in range(_NEWTON_STEPS):
            l1x = np.log2(1.0 - x)
            x = (y + l1x) / (l1x - np.log2(x))
    x = np.fmin(np.fmax(x, 0.0), 0.5)  # a NaN lane goes to 0
    t = 0.5 - x
    w = np.where(t * t >= 8.0 * _H_B_RISE, _H_B_RISE / np.maximum(t, math.sqrt(8.0 * _H_B_RISE)), math.sqrt(_H_B_RISE))
    w = np.maximum(np.ldexp(1.0, np.ceil(np.log2(w)).astype(np.int64)), _H_B_INV_LAST)
    b = np.round(x / w) * w
    upper = h_b(b) >= y
    lo = np.where(upper, b - w, b)
    ok = (h_b(np.where(upper, lo, b + w)) >= y) != upper
    return np.where(ok, lo, 0.0), np.where(ok, lo + w, 0.5)


def h_b_inv(y):
    """Inverse of binary entropy on [0, 1/2] by bisection to 1e-12.

    The bisection halves [0, 1/2], moving ``lo`` to each midpoint whose
    ``h_b`` is below ``y`` and ``hi`` to the others.  It starts from the
    interval of one of its levels that a Newton estimate of the root selects
    and ``h_b`` at both ends confirms (``_h_b_inv_jump``).  Across each
    interval of that level ``h_b`` rises by 1e-13 or more, hundreds of times
    its float error, so every comparison skipped would have chosen that
    interval: the result has the bits of the bisection from [0, 1/2].  A
    scalar runs ``bisect`` on Python floats; an array takes the same steps
    lane by lane, each lane halved until it is 1e-12 wide.
    """
    if isinstance(y, float) or np.ndim(y) == 0:
        yf = float(y)
        _check_entropy(yf)
        if yf >= 1.0:
            return 0.5
        if yf <= 0.0:
            return 0.0
        lo, hi = bisect(lambda mid: _h_b_float(mid) < yf, *_h_b_inv_jump(yf), _H_B_INV_TOL)
        return 0.5 * (lo + hi)
    y_arr = np.asarray(y, dtype=float)
    _check_entropy(y_arr)
    y_arr = np.clip(y_arr, 0.0, 1.0)
    y_in = np.where((y_arr > 0.0) & (y_arr < 1.0), y_arr, 0.5)  # 0 and 1 are set below
    lo, hi = _h_b_inv_jumps(y_in)
    width = hi - lo
    lanes = np.flatnonzero(width > _H_B_INV_TOL)
    lanes = lanes[np.argsort(-width[lanes], kind="stable")]  # widest first
    a, w, y_open = lo[lanes], width[lanes], y_in[lanes]
    n = lanes.size
    while n:  # the first n lanes are still wider than the tolerance
        w[:n] *= 0.5
        mid = a[:n] + w[:n]  # the midpoint, exactly: a and w are dyadic
        np.copyto(a[:n], mid, where=_h_b_open(mid) < y_open[:n])
        n = np.count_nonzero(w[:n] > _H_B_INV_TOL)
    lo[lanes], hi[lanes] = a, a + w
    out = 0.5 * (lo + hi)
    out = np.where(y_arr >= 1.0, 0.5, out)
    return np.where(y_arr <= 0.0, 0.0, out)


def _check_bits(values, what: str, erasures: bool = False) -> np.ndarray:
    """``values`` as an array, each 0 or 1 (or ``ERASED`` with ``erasures``);
    any other value raises ``ValueError`` naming ``what``."""
    arr = np.asarray(values)
    ok = (arr == 0) | (arr == 1)
    if erasures:
        ok |= arr == ERASED
    if not np.all(ok):
        raise ValueError(f"{what} must be {'0, 1 or -1 (erased)' if erasures else '0 or 1'}")
    return arr


@dataclass(frozen=True)
class ChannelParam:
    """Tagged channel parameter: BEC(erasure eps) or BSC(crossover delta)."""

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in ("BEC", "BSC"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind == "BEC" and not 0.0 <= self.param <= 1.0:
            raise ValueError("BEC erasure probability must lie in [0, 1]")
        if self.kind == "BSC" and not 0.0 <= self.param <= 0.5:
            raise ValueError("BSC crossover must lie in [0, 1/2]")

    @classmethod
    def bec(cls, eps: float) -> "ChannelParam":
        return cls("BEC", float(eps))

    @classmethod
    def bsc(cls, delta: float) -> "ChannelParam":
        return cls("BSC", float(delta))


@dataclass
class ReceivedWord:
    """Per-position channel output: 0, 1 or ERASED (-1); a BSC output is 0
    or 1.  Any other symbol raises ``ValueError``, checked before the cast
    to int8."""

    symbols: np.ndarray
    channel: ChannelParam

    def __post_init__(self):
        kind = self.channel.kind
        self.symbols = _check_bits(self.symbols, f"{kind} symbols", kind == "BEC").astype(np.int8, copy=False)

    def __len__(self) -> int:
        return int(self.symbols.shape[0])


@dataclass(frozen=True)
class BMSummary:
    """Error probability, capacity (bits) and chi-square capacity of a BMS."""

    pe: float
    capacity: float
    chi2_capacity: float


def transmit(codeword, ch: ChannelParam, rng: np.random.Generator) -> ReceivedWord:
    """Send a bit sequence through the channel with i.i.d. per-symbol noise; a
    value other than 0 or 1 raises ``ValueError`` (checked before the int8 cast)."""
    bits = _check_bits(codeword, "codeword bits").astype(np.int8, copy=False)
    if ch.kind == "BEC":
        erased = rng.random(bits.shape[0]) < ch.param
        out = np.where(erased, np.int8(ERASED), bits)
    else:
        flips = rng.random(bits.shape[0]) < ch.param
        out = np.where(flips, 1 - bits, bits).astype(np.int8)
    return ReceivedWord(out, ch)


def bms_metrics(ch: ChannelParam) -> BMSummary:
    """Closed-form BMS metrics: BEC_eps -> (eps/2, 1-eps, 1-eps);
    BSC_delta -> (delta, 1-h_b(delta), (1-2 delta)^2)."""
    if ch.kind == "BEC":
        eps = ch.param
        return BMSummary(pe=eps / 2.0, capacity=1.0 - eps, chi2_capacity=1.0 - eps)
    delta = ch.param
    return BMSummary(pe=delta, capacity=1.0 - h_b(delta), chi2_capacity=(1.0 - 2.0 * delta) ** 2)


def matched_surrogates(value, matching: str):
    """Extremal BEC/BSC pair matched to a channel or metric value.

    ``matching`` selects the matched quantity: ``degradation`` (error
    probability delta -> (BEC(2 delta), BSC(delta))), ``capacity``
    (C -> (BEC(1-C), BSC(h_b_inv(1-C)))) or ``chi2``
    (eta -> (BEC(1-eta), BSC((1-sqrt(eta))/2))).  ``value`` may be a float or
    a ChannelParam whose corresponding metric is used.
    """
    if isinstance(value, ChannelParam):
        metrics = bms_metrics(value)
        value = {"degradation": metrics.pe, "capacity": metrics.capacity, "chi2": metrics.chi2_capacity}[matching]
    v = float(value)
    if matching == "degradation":
        if not 0.0 <= v <= 0.5:
            raise ValueError("error probability must lie in [0, 1/2]")
        return ChannelParam.bec(min(2.0 * v, 1.0)), ChannelParam.bsc(v)
    if matching == "capacity":
        if not 0.0 <= v <= 1.0:
            raise ValueError("capacity must lie in [0, 1]")
        return ChannelParam.bec(1.0 - v), ChannelParam.bsc(h_b_inv(1.0 - v))
    if matching == "chi2":
        if not 0.0 <= v <= 1.0:
            raise ValueError("chi-square capacity must lie in [0, 1]")
        return ChannelParam.bec(1.0 - v), ChannelParam.bsc((1.0 - np.sqrt(v)) / 2.0)
    raise ValueError(f"unknown matching {matching!r}")


def binary_divergence(a, b):
    """KL divergence d(a || b) between Bernoulli parameters, in nats."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(a > 0, a * np.log(a / b), 0.0)
        t2 = np.where(a < 1, (1.0 - a) * np.log((1.0 - a) / (1.0 - b)), 0.0)
    return t1 + t2


def _f_surface(u, v):
    """The auxiliary two-variable function whose diagonal vanishes."""
    term1 = 2.0 * np.log((1.0 - u) * (1.0 + v) / ((1.0 + u) * (1.0 - v)))
    term2 = -4.0 * (v / (u * (1.0 - v**2))) * (u + v)
    term3 = 4.0 * u / (1.0 - u**2)
    term4 = (4.0 * v**2 / (u * (1.0 - v**2) ** 2)) * (2.0 * (1.0 - u) * v + (1.0 - v) ** 2)
    return term1 + term2 + term3 + term4


def mgl_variant_check(p: float, q: float, grid_size: int):
    """Numeric convexity probe of x -> d(p * delta(x) || q * delta(x)).

    ``delta(x) = (1 - sqrt(x))/2`` and ``*`` is binary convolution.  Returns
    ``(min_second_difference, max |f(u,u)|)`` over an open-interval grid;
    convexity holds when the first value is >= -tolerance and the diagonal
    identity when the second is ~0.
    """
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError("p, q must lie in (0, 1)")
    if grid_size < 3:
        raise ValueError("grid_size must be >= 3")
    xs = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    delta = (1.0 - np.sqrt(xs)) / 2.0
    a = p * (1.0 - delta) + (1.0 - p) * delta
    b = q * (1.0 - delta) + (1.0 - q) * delta
    vals = binary_divergence(a, b)
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    us = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    diag = np.abs(_f_surface(us, us))
    return float(second.min()), float(diag.max())


__all__ = [
    "ERASED",
    "ChannelParam",
    "ReceivedWord",
    "BMSummary",
    "transmit",
    "bms_metrics",
    "matched_surrogates",
    "mgl_variant_check",
    "binary_divergence",
    "h_b",
    "h_b_inv",
]
