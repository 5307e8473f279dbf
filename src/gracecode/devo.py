"""Density-evolution recursions and the BER / soft-information bounds.

A trace tracks a scalar surrogate-channel parameter through the tree
recursion: BEC traces carry a reveal probability q in [0, 1], BSC traces a
crossover in [0, 1/2].  Endpoint values convert into lower/upper bounds on
the MAP and BP bit error rate and on the delivered soft information.

``iterate`` and ``fixed_point`` are the one-lane cases of a lane recursion
(``_trace``, ``_settle``): many independent recursions, for example one per
load, step together through one E-function evaluation, and each lane gets the
bits of its own one-lane run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channels import h_b, h_b_inv

_QUANTITIES = ("error", "chi2-soft", "capacity-soft")
_MAX_STEPS = 100_000  # fixed_point's step cap and the largest ell a trace takes
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


def _next(e: np.ndarray, surrogate: str, quantity: str) -> np.ndarray:
    """One step of the tagged recursion from the E-function values, lane by lane.

    The clamps keep NaN, as the scalar min/max did.
    """
    if quantity == "error":
        nxt = 1.0 - 2.0 * e if surrogate == "BEC" else e
    elif quantity == "chi2-soft":
        nxt = 1.0 - e if surrogate == "BEC" else 0.5 - 0.5 * np.sqrt(np.maximum(1.0 - e, 0.0))
    else:  # capacity-soft (conjectured)
        nxt = 1.0 - e if surrogate == "BEC" else h_b_inv(np.minimum(np.maximum(e, 0.0), 1.0))
    return np.minimum(np.maximum(nxt, 0.0), _range_for(surrogate))


def _trace(bind, x0: np.ndarray, ell: int, surrogate: str, quantity: str) -> np.ndarray:
    """(ell + 1, L) values of L lanes of the recursion from the values x0.

    ``bind(idx)`` gives the E-function of the lanes ``idx`` as a function of
    their values q.
    """
    vals = np.empty((ell + 1, x0.shape[0]))
    vals[0] = x0
    efun = bind(np.arange(x0.shape[0]))
    for t in range(ell):
        vals[t + 1] = _next(np.asarray(efun(vals[t]), dtype=float), surrogate, quantity)
    return vals


def _settle(bind, x0: np.ndarray, tol: float, max_steps: int, surrogate: str, quantity: str):
    """Lanes of the recursion run until each one's own step is below ``tol``.

    A lane leaves the active set at its first step below ``tol``, so every
    lane returns (q*, converged) as the one-lane loop does.
    """
    q = np.array(x0, dtype=float)
    converged = np.zeros(q.shape[0], dtype=bool)
    active, cur = np.arange(q.shape[0]), q.copy()
    efun = bind(active)
    for _ in range(max_steps if active.size else 0):
        nxt = _next(np.asarray(efun(cur), dtype=float), surrogate, quantity)
        done = np.abs(nxt - cur) < tol
        if not np.count_nonzero(done):
            cur = nxt
            continue
        q[active[done]] = nxt[done]
        converged[active[done]] = True
        active, cur = active[~done], nxt[~done]
        if not active.size:
            break
        efun = bind(active)
    q[active] = cur
    return q, converged


def _at_loads(family, alphas):
    """``bind`` for the lanes of ``family`` at the loads ``alphas``."""
    alphas = np.asarray(alphas, dtype=float)
    return lambda idx: partial(family.evaluate, alphas[idx])


def _traces(family, alphas, x0: float, ell: int, surrogate: str = "BEC", quantity: str = "error") -> np.ndarray:
    """The (ell + 1, L) traces of ``iterate`` at every load of ``alphas``, in one run."""
    _check_tags(family, surrogate, quantity)
    hi = _range_for(surrogate)
    if not 0.0 <= x0 <= hi:
        raise ValueError(f"x0 must lie in [0, {hi}] for a {surrogate} surrogate")
    if not 0 <= ell <= _MAX_STEPS:
        raise ValueError(f"ell must lie in [0, {_MAX_STEPS}], got {ell}")
    return _trace(_at_loads(family, alphas), np.full(len(alphas), float(x0)), ell, surrogate, quantity)


def iterate(family, alpha: float, x0: float, ell: int, surrogate: str = "BEC", quantity: str = "error") -> DETrace:
    """Run the tagged recursion for ``ell`` steps from ``x0``."""
    vals = _traces(family, [alpha], x0, ell, surrogate, quantity)[:, 0]
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
    max_steps: int = _MAX_STEPS,
):
    """Iterate to |q_{t+1} - q_t| < tol; returns (q*, converged)."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    _check_tags(family, surrogate, quantity)
    q, converged = _settle(_at_loads(family, [alpha]), np.array([float(x0)]), tol, max_steps, surrogate, quantity)
    return float(q[0]), bool(converged[0])


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
