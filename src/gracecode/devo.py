"""Density-evolution recursions and the BER / soft-information bounds.

A trace tracks a scalar surrogate-channel parameter through the tree
recursion: BEC traces carry a reveal probability q in [0, 1], BSC traces a
crossover in [0, 1/2].  Endpoint values convert into lower/upper bounds on
the MAP and BP bit error rate and on the delivered soft information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import h_b, h_b_inv

_QUANTITIES = ("error", "chi2-soft", "capacity-soft")
_PAYOFF_FOR = {"error": "error", "chi2-soft": "chi2", "capacity-soft": "entropy"}


@dataclass(frozen=True)
class DETrace:
    """One density-evolution run: q_0 .. q_ell at a fixed load alpha."""

    surrogate: str
    quantity: str
    x0: float
    alpha: float
    values: np.ndarray
    conjectured: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def final(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True)
class DEBounds:
    """Endpoint bounds; fields are None when no matching trace was supplied.

    BER: map_lower <= MAP BER; BP BER in [bp_lower, bp_upper].
    Soft information: BP iota in [soft_lower, soft_upper]; the chi-square
    matched genie bound soft_map_upper caps the optimal iota.
    """

    map_lower: float | None = None
    bp_lower: float | None = None
    bp_upper: float | None = None
    soft_lower: float | None = None
    soft_upper: float | None = None
    soft_map_upper: float | None = None


def _range_for(surrogate: str) -> float:
    return 1.0 if surrogate == "BEC" else 0.5


def _check_tags(family, surrogate: str, quantity: str) -> None:
    if surrogate not in ("BEC", "BSC"):
        raise ValueError(f"unknown surrogate {surrogate!r}")
    if quantity not in _QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    fam_channel = getattr(family, "channel", surrogate)
    fam_payoff = getattr(family, "payoff", _PAYOFF_FOR[quantity])
    if fam_channel != surrogate:
        raise ValueError(f"family channel {fam_channel!r} does not match surrogate {surrogate!r}")
    if fam_payoff != _PAYOFF_FOR[quantity]:
        raise ValueError(f"family payoff {fam_payoff!r} does not match quantity {quantity!r}")


def _step(family, alpha: float, q: float, surrogate: str, quantity: str) -> float:
    e = float(family.evaluate(alpha, q))
    if quantity == "error":
        nxt = 1.0 - 2.0 * e if surrogate == "BEC" else e
    elif quantity == "chi2-soft":
        if surrogate == "BEC":
            nxt = 1.0 - e
        else:
            nxt = 0.5 - 0.5 * math.sqrt(max(1.0 - e, 0.0))
    else:  # capacity-soft (conjectured)
        nxt = 1.0 - e if surrogate == "BEC" else float(h_b_inv(min(max(e, 0.0), 1.0)))
    return min(max(nxt, 0.0), _range_for(surrogate))


def iterate(family, alpha: float, x0: float, ell: int, surrogate: str = "BEC", quantity: str = "error") -> DETrace:
    """Run the tagged recursion for ``ell`` steps from ``x0``."""
    _check_tags(family, surrogate, quantity)
    hi = _range_for(surrogate)
    if not 0.0 <= x0 <= hi:
        raise ValueError(f"x0 must lie in [0, {hi}] for a {surrogate} surrogate")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    vals = np.empty(ell + 1)
    vals[0] = x0
    q = float(x0)
    for t in range(ell):
        q = _step(family, alpha, q, surrogate, quantity)
        vals[t + 1] = q
    return DETrace(
        surrogate=surrogate,
        quantity=quantity,
        x0=float(x0),
        alpha=alpha,
        values=vals,
        conjectured=(quantity == "capacity-soft"),
    )


def bounds_from_traces(traces) -> DEBounds:
    """Convert trace endpoints into BER and soft-information bounds.

    Among BEC-error traces the smallest x0 gives the BP lower bound
    (1 - q_ell)/2 and the largest x0 the MAP (genie-initialized) lower
    bound; a BSC-error trace gives the BP upper bound q_ell.  Chi-square
    traces give the soft-information bounds analogously.
    """
    bec_err = sorted(
        (t for t in traces if t.surrogate == "BEC" and t.quantity == "error"),
        key=lambda t: t.x0,
    )
    bsc_err = [t for t in traces if t.surrogate == "BSC" and t.quantity == "error"]
    bec_chi = sorted(
        (t for t in traces if t.surrogate == "BEC" and t.quantity == "chi2-soft"),
        key=lambda t: t.x0,
    )
    bsc_chi = [t for t in traces if t.surrogate == "BSC" and t.quantity == "chi2-soft"]
    out = {}
    if bec_err:
        out["bp_lower"] = (1.0 - bec_err[0].final) / 2.0
        out["map_lower"] = (1.0 - bec_err[-1].final) / 2.0
    if bsc_err:
        out["bp_upper"] = bsc_err[0].final
    if bsc_chi:
        out["soft_lower"] = 1.0 - float(h_b(bsc_chi[0].final))
    if bec_chi:
        out["soft_upper"] = bec_chi[0].final
        out["soft_map_upper"] = bec_chi[-1].final
    return DEBounds(**out)


def fixed_point(
    family,
    alpha: float,
    x0: float,
    tol: float = 1e-10,
    surrogate: str = "BEC",
    quantity: str = "error",
    max_steps: int = 100_000,
):
    """Iterate to |q_{t+1} - q_t| < tol; returns (q*, converged)."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    _check_tags(family, surrogate, quantity)
    q = float(x0)
    for _ in range(max_steps):
        nxt = _step(family, alpha, q, surrogate, quantity)
        if abs(nxt - q) < tol:
            return nxt, True
        q = nxt
    return q, False


def large_d_bound(alpha: float, r: float) -> float:
    """Large-arity limit of the one-step error under a chi-square load.

    Integrates phi(z) / (1 + exp|a z + b|) over z in [-8, 8] with
    a = 2 sqrt(2 alpha (1-r) / (pi (1-p))), b = 4 alpha (1-r)/(pi sqrt(1-p)),
    p = 1/2, by adaptive quadrature to 1e-8.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if not 0.0 <= r < 1.0:
        raise ValueError("r must lie in [0, 1)")
    p = 0.5
    a = 2.0 * math.sqrt(2.0 * alpha * (1.0 - r) / (math.pi * (1.0 - p)))
    b = 4.0 * alpha * (1.0 - r) / (math.pi * math.sqrt(1.0 - p))

    def integrand(z: float) -> float:
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return phi / (1.0 + math.exp(abs(a * z + b)))

    from scipy.integrate import quad

    val, err = quad(integrand, -8.0, 8.0, epsabs=1e-8, epsrel=1e-8, limit=200)
    if not math.isfinite(val) or err > 1e-6:
        raise RuntimeError("quadrature failed to converge")
    return val


__all__ = [
    "DETrace",
    "DEBounds",
    "iterate",
    "bounds_from_traces",
    "fixed_point",
    "large_d_bound",
]
