"""The cached and scalar analytic paths agree with the plain ones.

E-functions are compared with the pre-cache evaluation in ``_oracles`` (one
BLAS product pair, one exp and one add per degree).  The library sums each
term's exponent over the alphabet entries in a fixed order instead of through
BLAS, so it may differ from that oracle in the last bits: the comparison is
to 1e-13 relative (the largest shift measured is 45 ulps, on
single LDMC5 degrees 8-10 with thousands of terms).  Byte equality of
E-functions is checked between lanes and one-lane calls in ``test_lanes``.
``h_b``/``h_b_inv`` on a float are compared with the same call on a 1-element
array, and ``general_two_point`` with a run whose every entropy call goes
through such an array; those comparisons are ``==`` on the bytes.
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


def near(a, b) -> bool:
    """Same type and shape, and equal to 1e-13 relative."""
    a_arr, b_arr = np.asarray(a), np.asarray(b)
    close = np.abs(a_arr - b_arr) <= 1e-13 * np.abs(b_arr)
    return type(a) is type(b) and a_arr.shape == b_arr.shape and bool(np.all(close))


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
            assert near(family.evaluate(alpha, q), evaluate_plain(family, alpha, q)), (alpha, q)
        assert near(family.evaluate(alpha, qs), evaluate_plain(family, alpha, qs)), alpha


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
                assert near(eval_degree(alphabet, d, payoff, qs), average_plain(alphabet, payoff, pmf, qs)), (d, payoff)
                for q in qs[:4].tolist():
                    assert near(eval_degree(alphabet, d, payoff, q), float(average_plain(alphabet, payoff, pmf, q)[0]))


def test_mixed_efun_matches_uncached_evaluation():
    comps = (CheckKind.xor(1), CheckKind.maj(3), CheckKind.xor(3), CheckKind.maj(5))
    rng = np.random.default_rng(12)
    qs = grid(rng, 7)
    for _ in range(12):
        weights = rng.random(4) - 0.15  # some components off, as the optimizer's points can be
        alpha = float(rng.random() * 2.0)
        assert near(mixed_efun(comps, weights, alpha, qs, 10), mixed_efun_plain(comps, weights, alpha, qs, 10))
        for q in qs[:5].tolist():
            assert near(mixed_efun(comps, weights, alpha, q, 10), mixed_efun_plain(comps, weights, alpha, q, 10))
    assert near(mixed_efun(comps, weights, 0.0, qs, 10), mixed_efun_plain(comps, weights, 0.0, qs, 10))


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
    before = efun._table(ldmc5, "error", 10)
    build_family("ldmc3", channel="BSC").evaluate(1.0, np.linspace(0.005, 0.5, 60))
    assert f_alphabet("ldmc5_bec") is ldmc5
    assert efun._table(ldmc5, "error", 10) is before


def test_a_bsc_table_holds_only_the_payoff_asked_for():
    bsc = f_alphabet("ldmc3_bsc", 0.2)
    efun._table(bsc, "chi2", 10)
    assert set(bsc._tables) == {"chi2"}
    bec = MessageAlphabet("BEC", f_alphabet("ldmc3_bec").entries)
    efun._table(bec, "chi2", 3)
    assert set(bec._tables) == {"error", "chi2", "entropy"}
    # a payoff built alone has the bits of one built with the other two
    together = MessageAlphabet("BEC", bsc.entries)
    for payoff in ("error", "chi2", "entropy"):
        for a, b in zip(efun._table(bsc, payoff, 10), efun._table(together, payoff, 10), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_one_bsc_evaluation_builds_each_crossover_once(monkeypatch):
    built = []
    ldmc3_bsc = efun._ldmc3_bsc
    monkeypatch.setattr(efun, "_ldmc3_bsc", lambda p: built.append(p) or ldmc3_bsc(p))
    loads = np.linspace(0.25, 1.5, 26)
    family = build_family("ldmc3", channel="BSC")
    values = family.evaluate(loads, 0.5)
    assert built == [0.5]
    # each lane keeps the bits of its own one-lane call
    assert values.tobytes() == np.array([family.evaluate(a, 0.5) for a in loads]).tobytes()
    assert f_alphabet("ldmc3_bsc", 0.5) is not f_alphabet("ldmc3_bsc", 0.5)
    assert [name for name, obj in vars(efun).items() if hasattr(obj, "cache_info")] == ["_lattice"]


def test_lattice_structure_is_built_once_per_layout(monkeypatch):
    # every chunk of a lattice takes its log-multinomial weights once, and
    # each of these lattices is one chunk
    built = []
    log_multinomial = efun._log_multinomial
    monkeypatch.setattr(efun, "_log_multinomial", lambda d, z: built.append((d, z.shape[1])) or log_multinomial(d, z))
    monkeypatch.setattr(efun, "_LATTICE_CACHE", {})
    # fresh alphabets: their tables are not cached yet
    ldmc3 = MessageAlphabet("BEC", f_alphabet("ldmc3_bec").entries)
    efun._table(ldmc3, "error", 10)
    assert built == [(d, 5) for d in range(11)]
    efun._table(ldmc3, "chi2", 10)
    assert len(built) == 11  # the second payoff reuses the structure
    for p in (0.1, 0.2, 0.3):  # so do the BSC crossovers, after the first
        bsc = MessageAlphabet("BSC", f_alphabet("ldmc3_bsc", p).entries)
        efun._table(bsc, "error", 10)
    assert built[11:] == [(d, 6) for d in range(11)]
    assert sorted(efun._LATTICE_CACHE) == sorted((d, c) for d in range(11) for c in (ldmc3._cols[2], bsc._cols[2]))


@pytest.mark.parametrize("payoff", ["error", "chi2"])
@pytest.mark.parametrize("name", ["ldmc3_bec", "ldmc5_bec"])
def test_an_extended_table_equals_one_built_at_once(name, payoff):
    entries = f_alphabet(name).entries
    grown, fresh = MessageAlphabet("BEC", entries), MessageAlphabet("BEC", entries)
    small = efun._table(grown, payoff, 3)
    assert small[2].shape[0] == 5
    extended = efun._table(grown, payoff, 10)
    assert extended is not small and efun._table(grown, payoff, 7) is extended
    for a, b in zip(extended, efun._table(fresh, payoff, 10), strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# _average of the pmf 0.1, 0.4, 0.3, 0.2 at degrees 0, 3, 7, 10 and q = 0, 1/4,
# 1/2, 3/4, 1, as evaluated when only the degrees with mass were stacked
GAP_PMF_VALUES = {
    "ldmc3_bec": ["0x1.25ca666666668p-3", "0x1.e483af062051ep-4", "0x1.93d5b59c5999ap-4",
                  "0x1.57457bf9e8a3ap-4", "0x1.3866666666667p-4"],
    "ldmc5_bec": ["0x1.ab31303166666p-3", "0x1.82dcad42b5f59p-3", "0x1.44d448a299678p-3",
                  "0x1.02b2fca4de672p-3", "0x1.af69d96cccccdp-4"],
}


@pytest.mark.parametrize("name", sorted(GAP_PMF_VALUES))
def test_degrees_without_mass_add_exactly_zero(name):
    alphabet = f_alphabet(name)
    pmf = np.zeros(11)
    pmf[[0, 3, 7, 10]] = [0.1, 0.4, 0.3, 0.2]
    qs = np.linspace(0.0, 1.0, 5)
    got = efun._average(alphabet, "error", pmf, qs)
    assert [x.hex() for x in got.tolist()] == GAP_PMF_VALUES[name]
    # the same sum, degree by degree in increasing order
    want = np.zeros(qs.shape)
    for d in (0, 3, 7, 10):
        want = want + pmf[d] * eval_degree(alphabet, d, "error", qs)
    assert same(got, want)
