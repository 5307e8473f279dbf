"""The cached and scalar analytic paths agree with the plain ones.

E-functions are compared with the pre-cache evaluation in ``_oracles`` (one
BLAS product pair, one exp and one add per degree, over the type terms).  The
library evaluates each degree's Bernstein coefficients with ``np.power``
instead, so it may differ from that oracle in the last bits: the comparison
is to 1e-13 relative (the largest shift measured is 87 ulps, 1.7e-14, on
single LDMC5 degrees near 10, where the oracle's exp of a sum of logs is the
less accurate side).  Byte equality of E-functions is checked between lanes
and one-lane calls in ``test_lanes``.
``h_b``/``h_b_inv`` on a float are compared with the same call on a 1-element
array, ``h_b_inv`` on both paths with the bisection from [0, 1/2] that its
jump shortens (``h_b_inv_bisect``), and ``general_two_point`` with a run whose
every entropy call goes through a 1-element array and that bisection; those
comparisons are ``==`` on the bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from _oracles import average_plain, evaluate_plain, general_two_point_plain, h_b_inv_bisect, mixed_efun_plain

from gracecode import channels, converse, efun
from gracecode.channels import h_b, h_b_inv
from gracecode.converse import general_two_point
from gracecode.efun import (
    DegreeLaw,
    EPolynomial,
    MessageAlphabet,
    build_family,
    eval_degree,
    f_alphabet,
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


# weights of different degrees, each with more than one Bernstein coefficient
RAGGED = MessageAlphabet(
    "BEC",
    ((1.0, EPolynomial((0.0, 1.0))), (2.0, EPolynomial((0.25,))), (3.0, EPolynomial((0.1, 0.2, -0.05)))),
)


def test_eval_degree_matches_uncached_evaluation():
    assert RAGGED._bernstein.tolist() == [[0.0, 1.0, 1.0], [0.25, 0.5, 0.25], [0.1, 0.4, 0.25]]
    rng = np.random.default_rng(11)
    qs = grid(rng, 7)
    for alphabet in (f_alphabet("ldmc3_bec"), f_alphabet("ldmc5_bec"), RAGGED):
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
        mixed = efun._mixed_at(comps, weights[None, :], np.array([alpha]), 10)  # one lane, any number of q
        assert near(mixed(qs), mixed_efun_plain(comps, weights, alpha, qs, 10))
        for q in qs[:5].tolist():
            assert near(mixed(np.array([q])), mixed_efun_plain(comps, weights, alpha, np.array([q]), 10))
    mixed = efun._mixed_at(comps, weights[None, :], np.array([0.0]), 10)
    assert near(mixed(qs), mixed_efun_plain(comps, weights, 0.0, qs, 10))


def test_maj1_takes_the_xor1_factor():
    qs = np.linspace(0.0, 1.0, 11)
    weights = np.array([[0.4, 0.6]])
    for alpha in (0.0, 0.4, 1.7):
        for q in (np.array([0.3]), qs):
            maj1 = efun._mixed_at((CheckKind.maj(1), CheckKind.maj(3)), weights, np.array([alpha]), 10)(q)
            xor1 = efun._mixed_at((CheckKind.xor(1), CheckKind.maj(3)), weights, np.array([alpha]), 10)(q)
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


def _entropy_sets(rng) -> dict:
    """Arguments of ``h_b_inv`` that exercise every level of its jump."""
    u = rng.random(20000)
    j = rng.integers(1, 2**39, 4000).astype(float)
    on_grid = h_b(j * 2.0**-40)  # the bisection compares equal at these
    tiny = 10.0 ** -rng.uniform(11.0, 320.0, 2000)
    return {
        "uniform": u,
        "u^8": u**8,
        "1-1e-3u^4": 1.0 - 1e-3 * u**4,
        "1-1e-12u": 1.0 - 1e-12 * u,
        "tiny": np.concatenate([tiny, [5e-324, 1e-320, np.finfo(float).tiny, 1.0 - 2.0**-53]]),
        "h_b(j 2^-40)": np.concatenate([on_grid, np.nextafter(on_grid, 0.0), np.nextafter(on_grid, 1.0)]),
    }


def test_h_b_inv_has_the_bits_of_the_full_bisection(monkeypatch):
    # and on what one upgraded-side general_two_point point (the benchmark's,
    # eps 0.70) passes to h_b_inv: its grids' arrays and its refinement's floats
    arrays, floats = [], []

    def record(y):
        if np.ndim(y) == 0:
            floats.append(float(y))
        else:
            arrays.append(np.array(y, dtype=float))
        return h_b_inv(y)

    monkeypatch.setattr(converse, "h_b_inv", record)
    general_two_point(0.5, 0.2501, 0.75, 0.70)
    monkeypatch.undo()
    sets = {**_entropy_sets(np.random.default_rng(37)), "eta arrays": np.concatenate(arrays), "eta floats": np.array(floats)}
    for name, ys in sets.items():
        assert same(h_b_inv(ys), h_b_inv_bisect(ys)), name
        # the float path on a spread of each set (all of the refinement's floats)
        for y in ys[:: max(1, ys.size // 1500)].tolist():
            assert same(h_b_inv(y), h_b_inv_bisect(y)), (name, y)


@pytest.mark.parametrize("steps", [0, 1, 2])
def test_h_b_inv_bits_hold_from_poor_root_estimates(steps, monkeypatch):
    # fewer Newton steps leave estimates off by more than an interval: the
    # checks must turn those lanes back to [0, 1/2], and the bits must hold
    monkeypatch.setattr(channels, "_NEWTON_STEPS", steps)
    ys = np.random.default_rng(39).random(3000)
    lo, hi = channels._h_b_inv_jumps(ys)
    assert np.any((lo == 0.0) & (hi == 0.5))
    assert any(channels._h_b_inv_jump(y) == (0.0, 0.5) for y in ys.tolist())
    assert same(h_b_inv(ys), h_b_inv_bisect(ys))
    for y in ys[::10].tolist():
        assert same(h_b_inv(y), h_b_inv_bisect(y)), y


def test_eta_float_value_is_its_array_lane():
    rng = np.random.default_rng(38)
    for delta_star, eps, tau in ((0.05, 0.70, 0.75), (0.2501, 0.75, 0.70), (0.15, 0.6, 0.9), (0.3, 0.99, 0.5)):
        val = converse._eta_val(delta_star, eps, tau, 0.5)
        qs = np.concatenate([[0.0, 0.25, 0.5 - 2e-9, 0.5 - 1e-9, np.nextafter(0.5, 0.0)], rng.random(300) * 0.5])
        lanes = val(qs)
        for q, lane in zip(qs.tolist(), lanes.tolist()):
            got = val(q)
            assert type(got) is float and same(got, lane), (delta_star, eps, tau, q)


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
    # every LDMC3 table's lattice record up to degree 14 is built once per
    # (degrees, owners), for every payoff and BSC crossover
    built = []
    record = efun._lattice_chunks

    def counted(degrees, owners):
        if (tuple(degrees), owners) not in efun._LATTICE_CACHE:
            built.append((tuple(degrees), len(owners)))
        return record(degrees, owners)

    monkeypatch.setattr(efun, "_lattice_chunks", counted)
    monkeypatch.setattr(efun, "_LATTICE_CACHE", {})
    # fresh alphabets: their tables are not cached yet
    ldmc3 = MessageAlphabet("BEC", f_alphabet("ldmc3_bec").entries)
    efun._table(ldmc3, "error", 10)
    assert built == [(tuple(range(11)), 5)]
    efun._table(MessageAlphabet("BEC", ldmc3.entries), "chi2", 10)
    assert len(built) == 1  # the second table reuses the record
    for p in (0.1, 0.2, 0.3):  # so do the BSC crossovers, after the first
        bsc = MessageAlphabet("BSC", f_alphabet("ldmc3_bsc", p).entries)
        efun._table(bsc, "error", 10)
    assert built[1:] == [(tuple(range(11)), 6)]
    for p in (0.1, 0.2):  # a larger truncation builds its record once too
        efun._table(MessageAlphabet("BSC", f_alphabet("ldmc3_bsc", p).entries), "error", 14)
    efun._table(ldmc3, "error", 14)  # a grown table builds its new degrees' record
    assert built[2:] == [(tuple(range(15)), 6), (tuple(range(11, 15)), 5)]
    owners = (ldmc3._cols[2], bsc._cols[2])
    tables = [(tuple(range(11)), c) for c in owners] + [(tuple(range(15)), owners[1]), (tuple(range(11, 15)), owners[0])]
    assert sorted(efun._LATTICE_CACHE, key=str) == sorted(tables, key=str)


@pytest.mark.parametrize("payoff", ["error", "chi2"])
@pytest.mark.parametrize("name", ["ldmc3_bec", "ldmc5_bec"])
def test_an_extended_table_equals_one_built_at_once(name, payoff):
    entries = f_alphabet(name).entries
    grown, fresh = MessageAlphabet("BEC", entries), MessageAlphabet("BEC", entries)
    small = efun._table(grown, payoff, 3)
    assert small[1].shape[0] == 5
    extended = efun._table(grown, payoff, 10)
    assert extended is not small and efun._table(grown, payoff, 7) is extended
    for a, b in zip(extended, efun._table(fresh, payoff, 10), strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# _averager of the pmf 0.1, 0.4, 0.3, 0.2 at degrees 0, 3, 7, 10 and q = 0, 1/4,
# 1/2, 3/4, 1, as evaluated from the degrees' Bernstein coefficients
GAP_PMF_VALUES = {
    "ldmc3_bec": ["0x1.25ca666666668p-3", "0x1.e483af062051ep-4", "0x1.93d5b59c59999p-4",
                  "0x1.57457bf9e8a3ap-4", "0x1.3866666666667p-4"],
    "ldmc5_bec": ["0x1.ab31303166666p-3", "0x1.82dcad42b5f58p-3", "0x1.44d448a299678p-3",
                  "0x1.02b2fca4de673p-3", "0x1.af69d96cccccdp-4"],
}


@pytest.mark.parametrize("name", sorted(GAP_PMF_VALUES))
def test_degrees_without_mass_add_exactly_zero(name):
    alphabet = f_alphabet(name)
    pmf = np.zeros(11)
    pmf[[0, 3, 7, 10]] = [0.1, 0.4, 0.3, 0.2]
    qs = np.linspace(0.0, 1.0, 5)
    got = efun._averager(alphabet, "error", pmf)(qs)
    assert [x.hex() for x in got.tolist()] == GAP_PMF_VALUES[name]
    # the same sum, degree by degree in increasing order
    want = np.zeros(qs.shape)
    for d in (0, 3, 7, 10):
        want = want + pmf[d] * eval_degree(alphabet, d, "error", qs)
    assert same(got, want)
