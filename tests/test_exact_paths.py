"""The cached and scalar analytic paths return the same bits as the plain ones.

E-functions are compared with the pre-cache evaluation in ``_oracles`` (one
BLAS product pair, one exp and one add per degree), ``h_b``/``h_b_inv`` on a
float with the same call on a 1-element array, and ``general_two_point`` with
a run whose every entropy call goes through such an array.  Every comparison
is ``==`` on the bytes, not a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from _oracles import average_plain, evaluate_plain, general_two_point_plain, mixed_efun_plain

from gracecode import efun
from gracecode.channels import h_b, h_b_inv
from gracecode.converse import general_two_point
from gracecode.efun import (
    DegreeLaw,
    EPolynomial,
    MessageAlphabet,
    build_family,
    eval_degree,
    f_alphabet,
    mixed_efun,
)
from gracecode.ensemble import CheckKind

FAMILIES = {
    **{f"{b}-{p}": build_family(b, payoff=p) for b in ("ldmc3", "ldmc5") for p in ("error", "chi2", "entropy")},
    **{f"ldmc3-bsc-{p}": build_family("ldmc3", channel="BSC", payoff=p) for p in ("error", "chi2")},
    # the systematic-regular family of ClosedFormFamily("sysregular", d=3, rate=0.5)
    "sysregular": build_family("ldmc3", D=3, law=DegreeLaw.binomial(3, 0.5)),
}


def same(a, b) -> bool:
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def grid(rng, n: int, hi: float = 1.0) -> np.ndarray:
    return np.concatenate([[0.0, hi, hi / 2], rng.random(n) * hi])


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_evaluate_matches_uncached_evaluation(name):
    family = FAMILIES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    qs = grid(rng, 9, 0.5 if family.channel == "BSC" else 1.0)
    alphas = np.concatenate([[0.0, 1.0, 2.0], rng.random(4) * 2.0])  # the binomial law allows alpha <= 2
    for alpha in alphas.tolist():
        for q in qs.tolist():
            assert same(family.evaluate(alpha, q), evaluate_plain(family, alpha, q)), (alpha, q)
        assert same(family.evaluate(alpha, qs), evaluate_plain(family, alpha, qs)), alpha


def test_eval_degree_matches_uncached_evaluation():
    # the last alphabet's polynomials have different lengths, which the
    # zero-padded Horner matrix must evaluate as polyval does
    ragged = MessageAlphabet(
        "BEC",
        ((1.0, EPolynomial((0.0, 1.0))), (2.0, EPolynomial((0.25,))), (3.0, EPolynomial((0.1, 0.2, -0.05)))),
    )
    rng = np.random.default_rng(11)
    qs = grid(rng, 7)
    for alphabet in (f_alphabet("ldmc3_bec"), f_alphabet("ldmc5_bec"), ragged):
        for d in range(11):
            pmf = np.zeros(d + 1)
            pmf[d] = 1.0
            for payoff in ("error", "chi2", "entropy"):
                assert same(eval_degree(alphabet, d, payoff, qs), average_plain(alphabet, payoff, pmf, qs)), (d, payoff)
                for q in qs[:4].tolist():
                    assert eval_degree(alphabet, d, payoff, q) == average_plain(alphabet, payoff, pmf, q)[0]


def test_mixed_efun_matches_uncached_evaluation():
    comps = (CheckKind.xor(1), CheckKind.maj(3), CheckKind.xor(3), CheckKind.maj(5))
    rng = np.random.default_rng(12)
    qs = grid(rng, 7)
    for _ in range(12):
        weights = rng.random(4) - 0.15  # some components off, as the optimizer's points can be
        alpha = float(rng.random() * 2.0)
        assert same(mixed_efun(comps, weights, alpha, qs, 10), mixed_efun_plain(comps, weights, alpha, qs, 10))
        for q in qs[:5].tolist():
            assert same(mixed_efun(comps, weights, alpha, q, 10), mixed_efun_plain(comps, weights, alpha, q, 10))
    assert same(mixed_efun(comps, weights, 0.0, qs, 10), mixed_efun_plain(comps, weights, 0.0, qs, 10))


def test_maj1_takes_the_xor1_factor():
    qs = np.linspace(0.0, 1.0, 11)
    for alpha in (0.0, 0.4, 1.7):
        for q in (0.3, qs):
            maj1 = mixed_efun((CheckKind.maj(1), CheckKind.maj(3)), (0.4, 0.6), alpha, q, 10)
            xor1 = mixed_efun((CheckKind.xor(1), CheckKind.maj(3)), (0.4, 0.6), alpha, q, 10)
            assert same(maj1, xor1)


ENTROPY_POINTS = [0.0, 1.0, 1e-300, 1.0 - 1e-16, 0.5, 5e-324, -0.0, 1e-16, 0.11, 0.25]


def test_h_b_float_path_matches_array_path():
    rng = np.random.default_rng(13)
    xs = np.concatenate([ENTROPY_POINTS, [-0.5, 1.5, np.nan, np.inf, -np.inf], rng.random(20000), rng.random(2000) ** 40])
    for x in xs.tolist():
        got = h_b(x)
        assert type(got) is float and same(got, float(h_b(np.array([x]))[0])), x
    assert same(h_b(np.float64(0.3)), h_b(0.3)) and same(h_b(np.array(0.3)), h_b(0.3))


def test_h_b_inv_float_path_matches_array_path():
    rng = np.random.default_rng(14)
    ys = np.concatenate([ENTROPY_POINTS, [-1e-9, 1.0 + 1e-9], rng.random(1000), rng.random(100) ** 40])
    for y in ys.tolist():
        got = h_b_inv(y)
        assert type(got) is float and same(got, float(h_b_inv(np.array([y]))[0])), y
    assert same(h_b_inv(ys), np.array([h_b_inv(y) for y in ys.tolist()]))


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1, np.inf, -np.inf])
def test_h_b_inv_rejects_nan_and_out_of_range(bad):
    with pytest.raises(ValueError):
        h_b_inv(bad)
    with pytest.raises(ValueError):
        h_b_inv(np.array([0.5, bad]))


@pytest.mark.parametrize(
    "R, delta_a, eps_a, eps",
    [
        (0.5, 0.2501, 0.75, 0.75),
        (0.5, 0.2501, 0.75, 0.85),
        (0.5, 0.15, 0.6, 0.9),
        (0.5, 0.2501, 0.75, 0.7),  # upgraded side: a search over y
        (0.5, 0.15, 0.6, 0.5),
    ],
)
def test_general_two_point_matches_array_entropy_calls(R, delta_a, eps_a, eps):
    assert same(general_two_point(R, delta_a, eps_a, eps), general_two_point_plain(R, delta_a, eps_a, eps))


def test_bsc_crossovers_keep_the_bec_term_reps():
    ldmc5 = f_alphabet("ldmc5_bec")
    before = [efun._term_rep(ldmc5, d, "error") for d in range(11)]
    build_family("ldmc3", channel="BSC").evaluate(1.0, np.linspace(0.005, 0.5, 60))
    assert f_alphabet("ldmc5_bec") is ldmc5
    assert all(a is b for a, b in zip(before, (efun._term_rep(ldmc5, d, "error") for d in range(11))))


def test_lattice_structure_is_built_once_per_layout(monkeypatch):
    built = []
    compositions = efun._compositions
    monkeypatch.setattr(efun, "_compositions", lambda d, K: built.append((d, K)) or compositions(d, K))
    monkeypatch.setattr(efun, "_STRUCTURE_CACHE", {})
    # fresh alphabets: their term representations are not cached yet
    ldmc3 = MessageAlphabet("BEC", f_alphabet("ldmc3_bec").entries)
    for d in range(11):
        efun._term_rep(ldmc3, d, "error")
    assert built == [(d, 5) for d in range(11)]
    for d in range(11):
        efun._term_rep(ldmc3, d, "chi2")
    assert len(built) == 11  # the second payoff reuses the structure
    for p in (0.1, 0.2, 0.3):  # so do the BSC crossovers, after the first
        bsc = MessageAlphabet("BSC", f_alphabet("ldmc3_bsc", p).entries)
        for d in range(11):
            efun._term_rep(bsc, d, "error")
    assert built[11:] == [(d, 6) for d in range(11)]
