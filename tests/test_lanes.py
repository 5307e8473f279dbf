"""Lanes: an E-function or DE recursion over many independent inputs at once.

Every lane must get the bits of its own one-lane call, whatever the other
lanes are and however many there are.  Every comparison is ``==`` on the
bytes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from gracecode.devo import _at_loads, _settle, _traces, fixed_point, iterate
from gracecode.efun import ClosedFormFamily, DegreeLaw, _averager, _mixed_at, build_family, f_alphabet
from gracecode.ensemble import CheckKind, parse_profile

LANES = (1, 2, 7, 33, 500)
FAMILIES = {
    **{f"{b}-{p}": build_family(b, payoff=p) for b in ("ldmc3", "ldmc5") for p in ("error", "chi2", "entropy")},
    **{f"ldmc3-bsc-{p}": build_family("ldmc3", channel="BSC", payoff=p) for p in ("error", "chi2")},
    # the systematic-regular family of ClosedFormFamily("sysregular", d=3, rate=0.5)
    "sysregular": build_family("ldmc3", D=3, law=DegreeLaw.binomial(3, 0.5)),
    "closed-sysregular": ClosedFormFamily("sysregular", d=3, rate=0.5),
    "closed-mixed": ClosedFormFamily("mixed", profile=parse_profile("MAJ 3 0.5\nXOR 3 0.25\nXOR 1 0.25\n")),
}
MIXED = (CheckKind.xor(1), CheckKind.maj(3), CheckKind.xor(3), CheckKind.maj(5), CheckKind.maj(1))


def same(a, b) -> bool:
    return np.asarray(a).dtype == np.asarray(b).dtype and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def points(rng, L: int, hi: float = 1.0) -> np.ndarray:
    """L values of q in [0, hi], starting with 0, hi/2 and hi."""
    return np.concatenate([[0.0, hi / 2, hi], rng.random(L) * hi])[:L]


def loads(rng, L: int, hi: float = 2.0) -> np.ndarray:
    """L loads in [0, hi], starting with 0."""
    return np.concatenate([[0.0], rng.random(L) * hi])[:L]


@pytest.mark.parametrize("L", LANES)
@pytest.mark.parametrize("alphabet", ["ldmc3_bec", "ldmc5_bec"])
def test_average_lanes_match_one_lane_calls(alphabet, L):
    alph = f_alphabet(alphabet)
    rng = np.random.default_rng(L)
    qs = points(rng, L)
    for payoff in ("error", "chi2", "entropy"):
        shared = rng.random(11)
        shared[rng.random(11) < 0.3] = 0.0  # degrees without mass
        one = np.array([_averager(alph, payoff, shared)(q)[0] for q in qs.tolist()])
        assert same(_averager(alph, payoff, shared)(qs), one), payoff
        # one degree law per lane, with different degree sets
        per_lane = rng.random((11, L)) * (rng.random((11, L)) < 0.7)
        one = np.array([_averager(alph, payoff, per_lane[:, i])(q)[0] for i, q in enumerate(qs.tolist())])
        assert same(_averager(alph, payoff, per_lane)(qs), one), payoff


@pytest.mark.parametrize("L", LANES)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_evaluate_lanes_match_one_lane_calls(name, L):
    family = FAMILIES[name]
    rng = np.random.default_rng(sum(map(ord, name)) + L)
    qs = points(rng, L, 0.5 if family.channel == "BSC" else 1.0)
    alphas = loads(rng, L)  # the binomial law allows alpha <= 2
    one = np.array([family.evaluate(a, q) for a, q in zip(alphas.tolist(), qs.tolist())])
    assert same(family.evaluate(alphas, qs), one)
    # one load for all lanes of q, and one q for all loads
    assert same(family.evaluate(float(alphas[-1]), qs), np.array([family.evaluate(float(alphas[-1]), q) for q in qs]))
    assert same(family.evaluate(alphas, 0.25), np.array([family.evaluate(a, 0.25) for a in alphas.tolist()]))


@pytest.mark.parametrize("L", LANES)
def test_mixed_efun_lanes_match_one_lane_calls(L):
    rng = np.random.default_rng(100 + L)
    weights = rng.random((L, len(MIXED))) - 0.2  # some components off in some lanes
    weights[0, :] = [0.3, 0.0, 0.7, -0.1, 0.0]
    alphas = loads(rng, L)
    qs = points(rng, L)
    one = np.array([_mixed_at(MIXED, weights[i : i + 1], alphas[i : i + 1], 10)(qs[i : i + 1])[0] for i in range(L)])
    assert same(_mixed_at(MIXED, weights, alphas, 10)(qs), one)
    # one weight vector and load for all lanes of q
    last = _mixed_at(MIXED, weights[-1:], alphas[-1:], 10)
    one = np.array([last(np.array([q]))[0] for q in qs.tolist()])
    assert same(last(qs), one)


@pytest.mark.parametrize("bad", [np.nan, -0.5, np.inf])
def test_a_bad_load_in_any_lane_raises(bad):
    alphas = np.array([0.5, 1.0, 1.5, 2.0])
    for lane in range(alphas.shape[0]):
        wrong = alphas.copy()
        wrong[lane] = bad
        for family in FAMILIES.values():
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                family.evaluate(wrong, 0.3)
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            _mixed_at(MIXED, np.full((4, len(MIXED)), 0.2), wrong, 10)


def test_a_load_whose_mean_degree_overflows_raises():
    # arity * alpha = inf would make the Poisson law and the XOR factor NaN
    for call in (
        lambda: DegreeLaw.poisson(3).probabilities(1e308, 3),
        lambda: DegreeLaw.poisson(3).probabilities(np.array([1.0, 1e308]), 3),
        lambda: build_family("ldmc3", channel="BSC").evaluate(1e308, 0.3),
        lambda: _mixed_at((CheckKind.xor(3),), np.ones((2, 1)), np.array([1.0, 1e308]), 10),
    ):
        with pytest.raises(ValueError, match=r"load 1e\+308: the mean degree 3 \* load overflows"):
            call()
    pmf, tail = DegreeLaw.poisson(3).probabilities(1e307, 3)  # just below: all the mass is past D
    assert not pmf.any() and tail == 1.0


def test_degree_law_lanes_match_one_load():
    rng = np.random.default_rng(3)
    alphas = loads(rng, 40)
    for law, D in ((DegreeLaw.poisson(3), 10), (DegreeLaw.poisson(5), 14), (DegreeLaw.binomial(6, 0.5), 4)):
        pmf, tail = law.probabilities(alphas, D)
        assert pmf.shape == (D + 1, alphas.shape[0]) and tail.shape == alphas.shape
        for i, a in enumerate(alphas.tolist()):
            p1, t1 = law.probabilities(a, D)
            assert same(pmf[:, i].copy(), p1) and tail[i] == t1 and type(t1) is float


@pytest.mark.parametrize("name", ["ldmc3-error", "ldmc3-chi2", "ldmc3-bsc-error", "ldmc3-bsc-chi2", "ldmc5-error"])
def test_trace_lanes_match_iterate(name):
    family = FAMILIES[name]
    surrogate = family.channel
    quantity = {"error": "error", "chi2": "chi2-soft"}[family.payoff]
    alphas = np.linspace(0.0, 1.5, 7)
    x0 = 0.5 if surrogate == "BSC" else 0.0
    traces = _traces(family, alphas, x0, 6, surrogate, quantity)
    for i, a in enumerate(alphas.tolist()):
        assert same(traces[:, i].copy(), iterate(family, a, x0, 6, surrogate, quantity).values)


def test_fixed_point_lanes_stop_one_by_one():
    # the loads converge after different step counts: at max_steps = 10 some
    # lanes have stopped and some have not
    alphas = np.array([0.3, 0.8, 0.93, 1.2, 2.0])
    for family in (build_family("ldmc3"), ClosedFormFamily("mixed", profile=parse_profile("XOR 1 0.3\nMAJ 3 0.7\n"))):
        for tol, max_steps in ((1e-10, 100_000), (1e-12, 10)):
            q, converged = _settle(_at_loads(family, alphas), np.zeros(5), tol, max_steps, "BEC", "error")
            for i, a in enumerate(alphas.tolist()):
                assert (float(q[i]), bool(converged[i])) == fixed_point(family, a, 0.0, tol=tol, max_steps=max_steps)
        assert converged.any() and not converged.all()


def test_an_evaluated_family_pickles():
    for family in FAMILIES.values():
        family.evaluate(np.array([0.5, 1.0]), 0.25)  # keeps a bound evaluator
        copy = pickle.loads(pickle.dumps(family))
        assert copy == family and same(copy.evaluate(np.array([0.5, 1.0]), 0.25), family.evaluate(np.array([0.5, 1.0]), 0.25))
