"""Cross-check E-polynomials against an exhaustive depth-1 tree oracle, and
the composition lattice against the stars-and-bars enumeration."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from _oracles import compositions_itertools, maj_depth1_error
from gracecode import efun
from gracecode.efun import EPolynomial, MessageAlphabet, error_poly, eval_degree, f_alphabet

QS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]

LDMC3 = f_alphabet("ldmc3_bec")
LDMC5 = f_alphabet("ldmc5_bec")


def test_error_poly_matches_depth1_oracle_arity3():
    for d in range(5):
        poly = error_poly(LDMC3, d)
        for q in QS:
            exact = float(maj_depth1_error(3, d, q))
            assert abs(poly(float(q)) - exact) < 1e-12, (d, q)
            assert abs(eval_degree(LDMC3, d, "error", float(q)) - exact) < 1e-12


def test_error_poly_matches_depth1_oracle_arity5():
    for d in range(3):
        for q in QS:
            exact = float(maj_depth1_error(5, d, q))
            assert abs(eval_degree(LDMC5, d, "error", float(q)) - exact) < 1e-12, (d, q)


def test_chi2_payoff_matches_depth1_oracle():
    for d in range(4):
        for q in QS:
            exact = maj_depth1_error(3, d, q, payoff="chi2")
            assert abs(eval_degree(LDMC3, d, "chi2", float(q)) - exact) < 1e-12, (d, q)


def test_oracle_self_consistency():
    # d = 0: no observations, error 1/2; d = 1: a single arity-3 check
    # leaves residual error 1/4 regardless of the reveal probability.
    assert maj_depth1_error(3, 0, Fraction(1, 3)) == Fraction(1, 2)
    for q in QS:
        assert maj_depth1_error(3, 1, q) == Fraction(1, 4)
        assert maj_depth1_error(5, 1, q) == Fraction(5, 16)


def test_oracle_dense_q_grid_arity3():
    # beyond the lattice points: random rational reveal probabilities
    rng = np.random.default_rng(6)
    for _ in range(4):
        q = Fraction(int(rng.integers(1, 31)), 32)
        for d in (2, 3):
            exact = float(maj_depth1_error(3, d, q))
            assert abs(eval_degree(LDMC3, d, "error", float(q)) - exact) < 1e-12


def test_compositions_match_stars_and_bars():
    sizes = [(d, K) for d in range(15) for K in range(1, 14) if comb(d + K - 1, K - 1) <= 200_000]
    for d, K in sizes + [(10, 13)]:
        z = efun._lattice(d, K)
        z_ref = compositions_itertools(d, K)
        assert z.dtype == z_ref.dtype and z.shape == z_ref.shape, (d, K)
        assert np.array_equal(z, z_ref), (d, K)
    efun._lattice.cache_clear()  # drop the large lattices the library never asks for


def test_one_column_alphabet_closed_form():
    # one unit-magnitude message type of weight q: every message has LLR 0,
    # so E_d(q) = q^d / 2
    alphabet = MessageAlphabet("BEC", ((1.0, EPolynomial((0.0, 1.0))),))
    qs = np.linspace(0.0, 1.0, 9)
    for d in range(15):
        assert abs(eval_degree(alphabet, d, "error", 0.3) - 0.3**d / 2.0) <= 1e-15
        assert np.allclose(eval_degree(alphabet, d, "error", qs), qs**d / 2.0, rtol=1e-12, atol=1e-300)
