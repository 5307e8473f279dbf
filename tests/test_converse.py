"""Converse bounds: single/two-point curves, EXIT areas, thresholds."""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction

import numpy as np
import pytest

from _oracles import exact_map_ber, exit_counts_per_pattern
from gracecode.channels import h_b, h_b_inv
from gracecode.converse import (
    _eta,
    area_two_point,
    exit_tools,
    general_two_point,
    linear_single_point,
    linear_two_point,
    repetition_domination,
    shannon_single_point,
    threshold_comparison,
)
from gracecode.exactdec import BitMatrix


def test_shannon_single_point_values():
    # R(1 - h_b(delta)) = C at R = 1/2, C = 1/4 gives h_b(delta) = 1/2
    val = shannon_single_point(0.5, 0.25)
    assert abs(val - h_b_inv(0.5)) < 1e-12
    assert abs(val - 0.11002786443859) < 1e-9
    assert shannon_single_point(0.5, 0.6) == 0.0  # above capacity
    with pytest.raises(ValueError):
        shannon_single_point(0.0, 0.5)
    with pytest.raises(ValueError):
        shannon_single_point(0.5, 1.5)


def test_linear_single_point_values():
    assert linear_single_point(2.0, 0.75) == 0.25
    assert abs(linear_single_point(5.0, 0.9) - 0.25) < 1e-12
    assert linear_single_point(2.0, 0.3) == 0.0  # below threshold
    with pytest.raises(ValueError):
        linear_single_point(0.5, 0.5)


def test_linear_two_point_anchor_identity():
    assert linear_two_point(2.0, 0.1, 0.6, 0.6) == 0.1


def test_linear_two_point_reference_value():
    val = linear_two_point(2.0, 0.2501, 0.75, 0.5)
    assert abs(val - 0.08326666666666671) < 1e-12


def test_linear_two_point_perfect_anchor_upward():
    # a rate-1/2 code perfect at its threshold eps1 = 1/2: above it the
    # bound degrades gracefully toward the single-point line
    for eps2 in (0.6, 0.8, 1.0):
        val = linear_two_point(2.0, 0.0, 0.5, eps2)
        single = linear_single_point(2.0, eps2)
        assert val >= single - 1e-12
    assert abs(linear_two_point(2.0, 0.0, 0.5, 1.0) - 0.5) < 1e-12


def test_linear_two_point_validation():
    with pytest.raises(ValueError):
        linear_two_point(0.5, 0.1, 0.6, 0.4)
    with pytest.raises(ValueError):
        linear_two_point(2.0, 0.4, 0.6, 0.4)  # delta1 > eps1/2
    for args in [
        (2.0, 0.1, 1.0, 0.5),  # degenerate anchor at eps1 = 1
        (2.0, 0.1, 1.0, 1.0),
        (2.0, 0.1, 0.6, 1.1),  # eps2 outside [0, 1]
        (2.0, 0.1, 0.6, -0.1),
        (2.0, 0.1, 1.2, 0.5),  # eps1 outside [0, 1]
        (2.0, -0.1, 0.6, 0.4),  # anchor BER outside [0, 1/2]
    ]:
        with pytest.raises(ValueError):
            linear_two_point(*args)


def test_general_two_point_reference_values():
    assert abs(general_two_point(0.5, 0.15, 0.75, 0.75) - 0.11002786443859) < 1e-8
    assert abs(general_two_point(0.5, 0.15, 0.75, 0.9) - 0.24300385380911) < 1e-8
    assert general_two_point(0.5, 0.15, 0.75, 0.5) == 0.0


def test_general_two_point_monotone_in_eps():
    vals = [general_two_point(0.5, 0.15, 0.75, e) for e in (0.75, 0.8, 0.85, 0.9)]
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


def test_general_two_point_anchor_below_shannon():
    # BER 0.01 at eps = 0.75 is impossible for a rate-1/2 code
    with pytest.raises(ValueError):
        general_two_point(0.5, 0.01, 0.75, 0.9)
    for args in [
        (0.5, 0.15, 0.75, 1.1),  # eps outside [0, 1]
        (0.5, 0.15, 0.75, -0.1),
        (0.5, 0.15, 1.2, 0.9),  # anchor eps outside [0, 1]
        (0.5, 0.6, 0.75, 0.9),  # anchor BER outside [0, 1/2]
        (0.5, -0.1, 0.25, 0.9),
    ]:
        with pytest.raises(ValueError):
            general_two_point(*args)


@pytest.mark.parametrize("R, eps, tau", [(0.5, 0.7, 0.75), (0.25, 0.5, 0.9), (0.8, 0.2, 0.3)])
def test_eta_nonincreasing_in_y(R, eps, tau):
    # the upgraded side of general_two_point bisects over y on this property
    vals = [_eta(float(y), eps, tau, R) for y in np.linspace(0.0, 0.5, 21)[:-1]]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert vals[0] > vals[-1]
    assert _eta(0.5, eps, tau, R) == 0.5  # by convention at y = 1/2


def test_area_two_point_reference_value():
    val = area_two_point(0.5, 0.0, 0.475, 0.6, "linear_systematic")
    assert abs(val - 0.18) < 1e-6


def test_area_two_point_validation_and_modes():
    with pytest.raises(ValueError):
        area_two_point(0.5, 0.1, 0.6, 0.5)  # eps2 >= eps1
    with pytest.raises(ValueError):
        area_two_point(0.5, 0.1, 0.4, 0.6, "bogus")
    for args in [
        (0.5, 0.1, 0.4, 1.1),  # eps1 outside [0, 1]
        (0.5, 0.1, -0.1, 0.6),  # eps2 outside [0, 1]
        (0.5, 0.6, 0.4, 0.6),  # anchor BER outside [0, 1/2]
        (0.5, -0.1, 0.4, 0.6),
    ]:
        with pytest.raises(ValueError):
            area_two_point(*args)
    assert area_two_point(0.5, 0.0, 0.0, 0.5) == 0.0  # anchor at eps 0 bounds nothing
    v1 = area_two_point(0.5, 0.0, 0.475, 0.6, "systematic")
    assert 0.0 <= v1 <= 0.5


def test_repetition_domination_values():
    assert abs(repetition_domination(0.5, 0.9) - 0.95) < 1e-12
    assert repetition_domination(0.9, 0.0) == 0.9  # max() branch
    with pytest.raises(ValueError):
        repetition_domination(1.0, 0.5)
    with pytest.raises(ValueError):
        repetition_domination(0.5, 1.0)


def test_threshold_comparison_values():
    lo, hi = threshold_comparison(0.4294)
    assert abs(lo - 0.0484) < 1e-4
    assert abs(hi - 0.1223) < 1e-4
    assert threshold_comparison(0.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        threshold_comparison(1.2)


def _spc_generator(k: int) -> BitMatrix:
    dense = np.hstack([np.eye(k, dtype=np.uint8), np.ones((k, 1), dtype=np.uint8)])
    return BitMatrix.from_dense(dense)


def _small_codes():
    rng = np.random.default_rng(13)
    rand = (rng.random((4, 8)) < 0.5).astype(np.uint8)
    rand[:, :4] = np.eye(4, dtype=np.uint8)  # keep it full rank
    return [
        BitMatrix.identity(4),
        BitMatrix.repetition(3, 2),
        BitMatrix.repetition(2, 4),
        _spc_generator(4),
        BitMatrix.from_dense(rand),
    ]


def test_exit_area_equals_rate():
    for G in _small_codes():
        res = exit_tools(G)
        assert abs(res.area - G.k / G.m) < 1e-12


def test_exit_repetition_closed_form():
    res = exit_tools(BitMatrix.repetition(3, 2))
    eps = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(res.h(eps) - eps)) < 1e-12  # partner must be erased
    assert np.max(np.abs(res.p_b(eps) - eps ** 2 / 2.0)) < 1e-12


def test_exit_spc_closed_form():
    res = exit_tools(_spc_generator(4))
    eps = np.linspace(0.0, 1.0, 11)
    ref = 1.0 - (1.0 - eps) ** 4  # any other erasure breaks the parity
    assert np.max(np.abs(res.h(eps) - ref)) < 1e-12


def test_exit_h_monotone():
    for G in _small_codes():
        res = exit_tools(G)
        vals = res.h(np.linspace(0.0, 1.0, 41))
        assert np.all(np.diff(vals) >= -1e-12)


def test_exit_limited_size():
    with pytest.raises(ValueError):
        exit_tools(BitMatrix.repetition(11, 2))
    # no column, no coordinate: h and the area would divide by m = 0
    with pytest.raises(ValueError, match="at least one column"):
        exit_tools(BitMatrix.from_dense(np.zeros((3, 0), dtype=np.uint8)))


def test_exit_slope_bounded_by_data_ber():
    # h(eps) <= 2 R BER(eps0) / (eps0 - eps) for eps < eps0, checked with
    # the exhaustive bit-MAP oracle on a small code
    G = BitMatrix.repetition(3, 2)
    res = exit_tools(G)
    R = G.k / G.m
    for eps0 in np.linspace(0.3, 0.9, 7):
        ber0 = exact_map_ber(G, float(eps0))
        for eps in np.linspace(0.05, eps0 - 0.1, 7):
            assert res.h(float(eps)) <= 2.0 * R * ber0 / (eps0 - eps) + 1e-12


def test_exit_fraction_area_cross_check():
    # independent rational-area computation straight from the counts
    import math as _math

    G = _spc_generator(3)
    res = exit_tools(G)
    m = G.m
    total = Fraction(0)
    csum = res.counts.sum(axis=0)
    for a in range(m):
        total += int(csum[a]) * Fraction(
            _math.factorial(a) * _math.factorial(m - 1 - a), _math.factorial(m)
        )
    assert float(total / m) == res.area


def test_exit_counts_match_per_pattern_elimination():
    rng = np.random.default_rng(31)
    codes = list(_small_codes())
    for _ in range(20):
        k = int(rng.integers(1, 7))
        m = int(rng.integers(k, 13))
        r = (rng.random((k, m - k)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        codes.append(BitMatrix.from_dense(np.hstack([np.eye(k, dtype=np.uint8), r])))
    # the [I7 | R] generator of the benchmark's analytic workload at seed 1
    state = np.random.SeedSequence(1).generate_state(64)
    r = (np.random.default_rng(int(state[3])).random((7, 7)) < 0.5).astype(np.uint8)
    codes.append(BitMatrix.from_dense(np.hstack([np.eye(7, dtype=np.uint8), r])))
    for G in codes:
        counts = exit_tools(G).counts
        ref = exit_counts_per_pattern(G)
        assert counts.dtype == ref.dtype and np.array_equal(counts, ref), (G.k, G.m)


def _tall_generator(k: int = 2000, m: int = 12) -> BitMatrix:
    # m columns that mix 7 sparse vectors of F2^k: rank 7, so that many
    # erasure patterns leave a coordinate determined
    rng = np.random.default_rng(38)
    base = (rng.random((k, 7)) < 0.01).astype(np.uint8)
    mix = (rng.random((7, m)) < 0.4).astype(np.uint8)
    return BitMatrix.from_dense(base @ mix % 2)


def test_exit_tools_on_a_tall_generator():
    tall = _tall_generator()
    counts = exit_tools(tall).counts
    assert np.array_equal(counts, exit_counts_per_pattern(tall))
    # the counts of the walk that copied a pivot dict per depth
    assert hashlib.sha256(counts.tobytes()).hexdigest() == "76a447766913cb4b77f189071c9aa88a9e7bec088a661a5e750e2dcb4dd995f8"
    # the walk sets and clears one pivot list of k + 1 slots and never copies
    # it, so k = 2000 costs about what k = 7 does at the same m
    r = (np.random.default_rng(3).random((7, 5)) < 0.5).astype(np.uint8)
    short = BitMatrix.from_dense(np.hstack([np.eye(7, dtype=np.uint8), r]))
    best = {}
    for _ in range(5):
        for name, G in (("tall", tall), ("short", short)):
            start = time.perf_counter()
            exit_tools(G)
            best[name] = min(best.get(name, np.inf), time.perf_counter() - start)
    assert best["tall"] < 3.0 * best["short"], best
