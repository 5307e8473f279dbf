"""Golden coefficient vectors and structural identities for E-polynomials."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from _oracles import probabilities_plain
from gracecode import efun
from gracecode.channels import h_b
from gracecode.efun import (
    ClosedFormFamily,
    DegreeLaw,
    EPolynomial,
    MessageAlphabet,
    build_family,
    d_function,
    error_poly,
    eval_degree,
    f_alphabet,
    first_zero,
)
from gracecode.ensemble import CheckKind, DegreeProfile, parse_profile

# Reference coefficients (ascending powers of q) for the LDMC(3)/BEC
# erasure polynomials E_d, d = 0..10.
GOLDEN_LDMC3 = {
    0: [0.5],
    1: [0.25],
    2: [0.25, -0.25, 0.25, -0.25, 0.125],
    3: [0.15625, -0.09375, 4.440892e-16, -0.1875, 0.46875, -0.46875, 0.1875],
    4: [0.15625, -0.3125, 0.65625, -1.6875, 3.28125, -4.3125, 3.71875, -1.9375, 0.46875],
    5: [
        0.103515625, -0.126953125, 0.0390625, -0.4296875, 2.24609375, -6.15234375,
        10.9765625, -13.0859375, 10.087890625, -4.58007812500001, 0.9375,
    ],
    6: [
        0.103515625, -0.310546875, 0.981445312499996, -3.99414062499997,
        13.5791015624999, -34.7460937499998, 66.5722656249995, -95.5664062499994,
        102.12890625, -79.5214843749996, 42.9462890624997, -14.455078125, 2.2900390625,
    ],
    7: [
        0.070556640625, -0.131591796874999, 0.0820312499999894, -0.68359374999993,
        5.18676757812476, -22.3791503906245, 68.3422851562493, -156.953124999999,
        274.061279296874, -361.612548828124, 354.7236328125, -251.26171875,
        121.872802734375, -36.368896484375, 5.05517578125,
    ],
    8: [
        0.070556640625, -0.282226562499999, 1.18603515624997, -6.56933593749975,
        31.8554687499987, -121.303710937495, 361.467285156233, -849.672851562463,
        1587.56103515619, -2368.68652343741, 2821.08544921866, -2661.41503906243,
        1953.12304687496, -1078.21191406248, 421.901855468746, -104.389648437499,
        12.2824707031249,
    ],
    9: [
        0.0489273071289062, -0.122840881347652, 0.115905761718657, -0.913879394530327,
        8.86129760741628, -51.2509460448973, 216.904724121012, -722.934997558378,
        1938.88133239697, -4200.8187103263, 7337.84271240106, -10284.0617065415,
        11474.6510925279, -10066.1437683096, 6803.52593994091, -3426.34039306621,
        1213.44797515864, -270.209632873528, 28.517944335937,
    ],
    10: [
        0.0489273071289063, -0.244636535644538, 1.28042221069343, -8.95305633544941,
        56.3512229919426, -285.082305908195, 1154.60105895993, -3780.88119506833,
        10117.3594665529, -22326.4821624763, 40908.980049135, -62487.5754547145,
        79613.6392593413, -84300.01968384, 73535.9429168715, -52039.3605651862,
        29158.0880355837, -12453.0257034302, 3808.84984970093, -742.947502136231,
        69.4315452575683,
    ],
}

LDMC3 = f_alphabet("ldmc3_bec")
LDMC5 = f_alphabet("ldmc5_bec")


def test_golden_coefficients():
    for d, ref in GOLDEN_LDMC3.items():
        poly = error_poly(LDMC3, d)
        width = max(len(ref), len(poly.coeffs))
        got = np.zeros(width)
        got[: len(poly.coeffs)] = poly.coeffs
        want = np.zeros(width)
        want[: len(ref)] = ref
        assert np.max(np.abs(got - want)) < 1e-6, f"degree {d}"


def test_e1_constant_quarter():
    qs = np.linspace(0.0, 1.0, 101)
    vals = eval_degree(LDMC3, 1, "error", qs)
    assert np.max(np.abs(vals - 0.25)) < 1e-12


def test_e1_ldmc5_constant():
    qs = np.linspace(0.0, 1.0, 101)
    vals = eval_degree(LDMC5, 1, "error", qs)
    assert np.max(np.abs(vals - 5.0 / 16.0)) < 1e-12


def test_e0_is_half():
    assert eval_degree(LDMC3, 0, "error", 0.37) == 0.5
    assert eval_degree(LDMC5, 0, "error", 0.37) == 0.5


def test_eval_degree_matches_power_basis_ldmc3():
    qs = np.linspace(0.0, 1.0, 21)
    for d in range(11):
        poly = error_poly(LDMC3, d)
        assert np.max(np.abs(eval_degree(LDMC3, d, "error", qs) - poly(qs))) < 1e-9


def test_monotone_decreasing_in_degree():
    for alph in (LDMC3, LDMC5):
        for q in (0.1, 0.5, 0.92):
            vals = [eval_degree(alph, d, "error", q) for d in range(11)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_monotone_decreasing_in_q():
    qs = np.linspace(0.0, 1.0, 201)
    for alph in (LDMC3, LDMC5):
        for d in (2, 5, 10):
            vals = eval_degree(alph, d, "error", qs)
            assert np.all(np.diff(vals) <= 1e-12)


def test_entropy_payoff_bounds():
    # Jensen/Fano: averaging h_b over patterns lies below h_b of the mean,
    # and above twice the error payoff (h_b(x) >= 2x on [0, 1/2]).
    qs = np.linspace(0.0, 1.0, 51)
    for d in (1, 3, 6):
        e = eval_degree(LDMC3, d, "error", qs)
        h = eval_degree(LDMC3, d, "entropy", qs)
        assert np.all(h <= h_b(e) + 1e-9)
        assert np.all(h >= 2.0 * e - 1e-9)


def test_bsc_alphabet_single_message_identities():
    p = 0.11
    alph = f_alphabet("ldmc3_bsc", p)
    # total retained mass is 1 for BSC (no fully-determining events)
    mass = sum(float(w(0.0)) for _, w in alph.entries)
    assert abs(mass - 1.0) < 1e-12
    # chi2 payoff of a single uninformative message: weights already certain
    e1 = eval_degree(alph, 1, "error", 0.0)
    assert 0.0 < e1 < 0.5


def test_retained_mass_ldmc5():
    # at q = 1/2 the fully-determining mass is 3/32
    mass = sum(float(w(0.5)) for _, w in LDMC5.entries)
    assert abs(mass - 0.90625) < 1e-12


def test_alphabet_validation():
    with pytest.raises(ValueError):
        MessageAlphabet("BEC", ((0.5, EPolynomial((1.0,))),))  # magnitude < 1
    with pytest.raises(ValueError, match="at least one entry"):
        MessageAlphabet("BEC", ())
    # no weight here is a finite, nonnegative Bernstein combination; unchecked,
    # the NaN gives E_2(0.3) = NaN, and -0.5 + q alone at magnitude 2 gives
    # E_1(0.2) = 3.3e-301 where it is -0.1; 1e308 (1 + q) has the coefficient 2e308
    for weight in (EPolynomial((float("nan"),)), EPolynomial((-0.5, 1.0)), EPolynomial((1e308, 1e308))):
        with pytest.raises(ValueError, match=r"entry 1 \(magnitude 2.0\).*negative or non-finite Bernstein"):
            MessageAlphabet("BEC", ((1.0, EPolynomial((0.5,))), (2.0, weight)))
    with pytest.raises(ValueError):
        f_alphabet("ldmc7_bec")
    with pytest.raises(ValueError):
        f_alphabet("ldmc3_bsc")  # missing crossover
    with pytest.raises(ValueError):
        error_poly(LDMC3, 15)  # beyond the supported truncation
    with pytest.raises(ValueError):
        error_poly(LDMC3, 3, "nonsense")


@pytest.mark.parametrize("d", [-1, 15])
def test_eval_degree_rejects_a_degree_out_of_range(d):
    with pytest.raises(ValueError, match="degree must lie in"):
        eval_degree(LDMC3, d, "error", 0.5)


def test_degree_law_probabilities():
    pois = DegreeLaw.poisson(3)
    pmf, tail = pois.probabilities(1.0, 10)
    assert abs(pmf.sum() + tail - 1.0) < 1e-12
    assert abs(pmf[0] - np.exp(-3.0)) < 1e-12
    binom = DegreeLaw.binomial(6, 0.5)
    pmf, tail = binom.probabilities(1.0, 10)
    assert tail == 0.0
    assert abs(pmf[3] - 0.3125) < 1e-12
    with pytest.raises(ValueError):
        DegreeLaw.binomial(6, 0.9).probabilities(1.2, 10)


def test_log_factorials_are_gammaln_bit_for_bit():
    # k = 0..20000 crosses lgam's switch from the exact product to the Stirling
    # series at x = k + 1 = 13
    from scipy.special import gammaln

    ks, log_fact = efun._log_factorials(20000)
    assert ks.tolist() == list(range(20001))
    assert log_fact.tobytes() == gammaln(ks + 1).tobytes()


@pytest.mark.parametrize("arity", [1, 3, 5])
def test_poisson_law_is_the_scipy_law_bit_for_bit(arity):
    # the last three loads times arity 1, 3 and 5 are inputs on which numpy's
    # vectorised np.log rounds otherwise than libm's log on an AVX-512 machine
    loads = np.concatenate([np.linspace(0.0, 45.0, 181), [1e-300, 1e-12, 0.2732625, 0.1472625, 0.164025]])
    law = DegreeLaw.poisson(arity)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for D in range(efun._MAX_DEGREE + 1):
            pmf, tail = law.probabilities(loads, D)
            for i, alpha in enumerate(loads.tolist()):
                ref_pmf, ref_tail = probabilities_plain(law, alpha, D)
                assert pmf[:, i].tobytes() == ref_pmf.tobytes(), (alpha, D)
                assert tail[i] == ref_tail, (alpha, D)
                one_pmf, one_tail = law.probabilities(alpha, D)
                assert one_pmf.tobytes() == ref_pmf.tobytes() and one_tail == ref_tail


BAD_LAWS = [("poisson", -3), ("poisson", 0), ("binomial", -1, 0.5), ("binomial", 4, -0.5),
            ("binomial", 4, 1.5), ("binomial", 4, float("nan")), ("binomial", 4, float("inf"))]


@pytest.mark.parametrize("law", BAD_LAWS, ids=[f"{k}{args}" for k, *args in BAD_LAWS])
def test_degree_law_validates_at_construction(law):
    kind, *args = law
    with pytest.raises(ValueError, match="degree law needs"):
        getattr(DegreeLaw, kind)(*args)


def test_binomial_law_matches_scipy():
    from scipy.stats import binom

    for n in range(20):
        for pr in (0.0, 1e-3, 0.1, 0.5, 0.7, 0.999, 1.0):
            pmf, tail = DegreeLaw.binomial(n, 1.0).probabilities(pr, 10)
            ref = binom.pmf(np.arange(11), n, pr)
            assert pmf == pytest.approx(ref, rel=1e-12, abs=0.0), (n, pr)
            if n <= 10:
                assert tail == 0.0
            else:
                assert tail == pytest.approx(binom.sf(10, n, pr), rel=1e-12, abs=1e-15), (n, pr)


def test_family_evaluate_is_degree_mixture():
    fam = build_family("ldmc3", D=10)
    alpha, q = 1.3, 0.4
    pmf, _ = DegreeLaw.poisson(3).probabilities(alpha, 10)
    ref = sum(pmf[d] * eval_degree(LDMC3, d, "error", q) for d in range(11))
    assert abs(fam.evaluate(alpha, q) - ref) < 1e-14


def test_family_channel_payoff_validation():
    with pytest.raises(ValueError):
        build_family("ldmc5", channel="BSC")  # no arity-5 BSC alphabet
    with pytest.raises(ValueError):
        build_family("ldmc7")


def _xor(d):
    return DegreeProfile(((CheckKind.xor(d), 1.0),))


def test_closed_form_ldgm():
    q = 0.6
    val = ClosedFormFamily("mixed", profile=_xor(3)).evaluate(1.2, q)
    assert abs(val - 0.5 * np.exp(-1.2 * 3 * q * q)) < 1e-15
    with pytest.raises(ValueError):
        ClosedFormFamily("mixed").evaluate(1.0, 0.5)  # missing profile
    with pytest.raises(ValueError):
        ClosedFormFamily("ldgm", d=3)  # LDGM(d) is the profile XOR:d


def test_closed_form_mixed_takes_any_component_of_weight_zero():
    # a component of weight 0 is off: _mixed_at never evaluates it
    off = ClosedFormFamily("mixed", profile=parse_profile("XOR 3 1\nMAJ 7 0\nPARITY 2 0\n"))
    assert off.evaluate(0.9, 0.5) == ClosedFormFamily("mixed", profile=_xor(3)).evaluate(0.9, 0.5)


def test_closed_form_mixed_reduces_to_components():
    # one XOR(d) component is the LDGM closed form (1/2) e^{-alpha d q^(d-1)}
    fam = ClosedFormFamily("mixed", profile=_xor(3))
    assert fam.evaluate(0.9, 0.5) == 0.5 * np.exp(-0.9 * 3 * 0.5**2)
    qs = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(fam.evaluate(0.9, qs), 0.5 * np.exp(-0.9 * 3 * qs**2))
    prof = DegreeProfile(((CheckKind.maj(3), 1.0),))
    mixed = ClosedFormFamily("mixed", profile=prof, D=10)
    assert abs(mixed.evaluate(0.9, 0.5) - build_family("ldmc3", D=10).evaluate(0.9, 0.5)) < 1e-14


def test_closed_form_mixed_merges_equal_components():
    # equal components are one, in the order of first appearance, with the
    # sum of their weights: the bits of the profile written once
    qs = np.linspace(0.0, 1.0, 11)
    for twice, once in [
        ("MAJ 3 0.5\nMAJ 3 0.5\n", "MAJ 3 1.0\n"),
        ("XOR 1 0.15\nXOR 3 0.7\nXOR 1 0.15\n", "XOR 1 0.3\nXOR 3 0.7\n"),
    ]:
        split = ClosedFormFamily("mixed", profile=parse_profile(twice))
        whole = ClosedFormFamily("mixed", profile=parse_profile(once))
        for alpha in (0.5, 1.0, 1.5):
            assert split.evaluate(alpha, 0.3) == whole.evaluate(alpha, 0.3), (twice, alpha)
            assert np.array_equal(split.evaluate(alpha, qs), whole.evaluate(alpha, qs)), (twice, alpha)
    assert ClosedFormFamily("mixed", profile=parse_profile("MAJ 3 1.0\n")).evaluate(1.0, 0.3) == float.fromhex(
        "0x1.469fcf73ab2d6p-3"
    )


def test_closed_form_sysregular_validation():
    # d(1-R)/R must be an integer
    with pytest.raises(ValueError):
        ClosedFormFamily("sysregular", d=3, rate=0.4).evaluate(1.0, 0.5)
    val = ClosedFormFamily("sysregular", d=3, rate=0.5).evaluate(1.0, 0.5)
    assert 0.0 < val < 0.5


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kind": "mixed"}, "mixed requires a degree profile"),
        ({"kind": "sysregular", "d": 3, "rate": 0.4}, "d(1-R)/R to be an integer"),
        ({"kind": "sysregular", "d": 7, "rate": 0.5}, "d in {3, 5}"),
        ({"kind": "sysregular", "d": 3}, "a rate in (0, 1]"),
        ({"kind": "sysregular", "d": 3, "rate": 0.0}, "a rate in (0, 1]"),
        ({"kind": "sysregular", "d": 3, "rate": 1.5}, "a rate in (0, 1]"),
        ({"kind": "sysregular", "d": 3, "rate": float("nan")}, "a rate in (0, 1]"),
        ({"kind": "sysregular", "d": 3, "rate": 0.1}, "degree must lie in [0, 14]"),
        ({"kind": "ldgm"}, "unknown closed form kind"),
        # the components OptProblem rejects, named when the family is built
        ({"kind": "mixed", "profile": parse_profile("MAJ 7 1\n")}, "component MAJ 7 of weight 1: the mixed closed form"),
        ({"kind": "mixed", "profile": parse_profile("MAJ 3 0.25\nMAJ 9 0.75\n")}, "component MAJ 9 of weight 0.75"),
        ({"kind": "mixed", "profile": parse_profile("XOR 2 0.5\nPARITY 2 0.5\n")}, "component PARITY 2 of weight 0.5"),
    ],
)
def test_closed_form_validates_at_construction(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ClosedFormFamily(**kwargs)


def test_closed_form_channel_and_payoff_are_fixed():
    fam = ClosedFormFamily("mixed", profile=_xor(3))
    assert (fam.channel, fam.payoff) == ("BEC", "error")
    with pytest.raises(TypeError):
        ClosedFormFamily("mixed", profile=_xor(3), channel="BSC")


def test_families_reject_negative_and_nan_loads():
    families = [
        build_family("ldmc3"),
        build_family("ldmc3", channel="BSC"),
        ClosedFormFamily("mixed", profile=_xor(3)),
        ClosedFormFamily("mixed", profile=DegreeProfile(((CheckKind.maj(3), 1.0),))),
        ClosedFormFamily("sysregular", d=3, rate=0.5),
    ]
    for fam in families:
        assert fam.evaluate(0.0, 0.5) >= 0.0
        for alpha in (-1.0, -1e-300, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                fam.evaluate(alpha, 0.5)


def test_d_function_and_first_zero():
    fam = build_family("ldmc3", D=10)
    q0 = first_zero(fam, 1.0)
    assert q0 is not None
    assert abs(d_function(fam, 1.0, q0)) < 1e-8
    # trivially-zero E never crosses (1-q)/2 in (0, 1)

    class ZeroFam:
        channel = "BEC"
        payoff = "error"

        def evaluate(self, alpha, q):
            return np.zeros_like(np.asarray(q, dtype=float))

    assert first_zero(ZeroFam(), 1.0) == 1.0  # (1-q)/2 hits 0 exactly at q=1
