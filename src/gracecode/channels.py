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


def h_b(x):
    """Binary entropy in bits; accepts scalars or arrays, h_b(0)=h_b(1)=0.

    NaN stays NaN: an undefined probability is not a certain bit.
    """
    if np.ndim(x) == 0:
        return _h_b_float(float(x))
    arr = np.asarray(x, dtype=float)
    out = np.where(np.isnan(arr), arr, 0.0)
    mask = (arr > 0.0) & (arr < 1.0)
    xm = arr[mask]
    out[mask] = -xm * np.log2(xm) - (1.0 - xm) * np.log2(1.0 - xm)
    return out


def _check_entropy(y) -> None:
    if not np.all((y >= -1e-9) & (y <= 1.0 + 1e-9)):  # also false for NaN
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


def h_b_inv(y):
    """Inverse of binary entropy on [0, 1/2] by bisection to 1e-12.

    A scalar runs ``bisect`` on Python floats; an array takes the same steps
    lane by lane, so both return the same bits.
    """
    if np.ndim(y) == 0:
        yf = float(y)
        _check_entropy(yf)
        if yf >= 1.0:
            return 0.5
        if yf <= 0.0:
            return 0.0
        lo, hi = bisect(lambda mid: _h_b_float(mid) < yf, 0.0, 0.5, _H_B_INV_TOL)
        return 0.5 * (lo + hi)
    y_arr = np.asarray(y, dtype=float)
    _check_entropy(y_arr)
    y_arr = np.clip(y_arr, 0.0, 1.0)
    lo = np.zeros_like(y_arr)
    hi = np.full_like(y_arr, 0.5)
    for _ in range(64):
        if np.all(hi - lo <= _H_B_INV_TOL):
            break
        mid = 0.5 * (lo + hi)
        below = h_b(mid) < y_arr
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
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
