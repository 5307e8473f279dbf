"""Density-evolution recursions, fixed points, and reference BER table."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gracecode.channels import h_b
from gracecode.devo import (
    bounds_from_traces,
    fixed_point,
    iterate,
    large_d_bound,
)
from gracecode.efun import ClosedFormFamily, DegreeLaw, EFunctionFamily, build_family
from gracecode.ensemble import CheckKind, DegreeProfile

# Reference fixed-point BERs for the mixture profile lambda = (0.08, 0.22,
# 0.70) over XOR arities {1, 2, 3} at capacity-to-rate ratios 2 .. 0.8.
MIX_I = (0.08, 0.22, 0.70)
MIX_II = (0.1099, 0.1409, 0.7492)
RATIOS = (2.0, 1.5, 1.2, 1.1, 1.0, 0.9, 0.8)
BERS_I = (0.00279, 0.0115, 0.0297, 0.0425, 0.06336, 0.10367, 0.43652)
BERS_II = (0.00268, 0.01118, 0.02915, 0.04183, 0.06278, 0.10459, 0.42548)


def _xor_mixture(lams):
    prof = DegreeProfile(tuple((CheckKind.xor(d + 1), lam) for d, lam in enumerate(lams)))
    return ClosedFormFamily("mixed", profile=prof)


def _mixture_bers(lams):
    fam = _xor_mixture(lams)
    out = []
    for ratio in RATIOS:
        alpha = ratio  # load equals the capacity-to-rate ratio
        q_star, ok = fixed_point(fam, alpha, 1.0, tol=1e-12)
        assert ok
        out.append((1.0 - q_star) / 2.0)
    return out


def test_xor_mixture_reference_bers():
    got = _mixture_bers(MIX_I)
    assert np.max(np.abs(np.array(got) - np.array(BERS_I))) < 1e-4
    got = _mixture_bers(MIX_II)
    assert np.max(np.abs(np.array(got) - np.array(BERS_II))) < 1e-4


def test_pure_ldgm_zero_stays_zero():
    fam = ClosedFormFamily("mixed", profile=DegreeProfile(((CheckKind.xor(3), 1.0),)))
    trace = iterate(fam, 1.2, 0.0, 20)
    # E(alpha, 0) = 1/2 for pure XOR(d>=2), so q stays pinned at 0
    assert np.all(trace.values == 0.0)


def test_ldmc3_unique_fixed_point_from_both_ends():
    fam = build_family("ldmc3", D=10)
    lo = iterate(fam, 1.0, 0.0, 50).final
    hi = iterate(fam, 1.0, 1.0, 50).final
    assert abs(lo - hi) < 1e-6
    assert 0.0 < lo < 1.0


def test_fixed_point_agrees_with_iterate():
    fam = build_family("ldmc3", D=10)
    q_star, ok = fixed_point(fam, 0.9, 1.0, tol=1e-12)
    assert ok
    long_run = iterate(fam, 0.9, 1.0, 200).final
    assert abs(q_star - long_run) < 1e-9


def test_trace_values_in_range():
    fam = build_family("ldmc3", D=10)
    tr = iterate(fam, 1.4, 0.7, 30)
    assert tr.values.shape == (31,)
    assert np.all((tr.values >= 0.0) & (tr.values <= 1.0))
    assert tr.x0 == 0.7 and tr.values[0] == 0.7
    fam_bsc = EFunctionFamily("ldmc3", "BSC", "error", 10, DegreeLaw.poisson(3))
    tr = iterate(fam_bsc, 1.0, 0.5, 5, surrogate="BSC")
    assert np.all((tr.values >= 0.0) & (tr.values <= 0.5))


def test_sysregular_family_iterates():
    fam = ClosedFormFamily("sysregular", d=3, rate=0.5)
    alpha = 1.0
    tr = iterate(fam, alpha, alpha * 0.5, 40)
    assert 0.0 <= tr.final <= 1.0


def test_tag_mismatch_errors():
    fam = build_family("ldmc3", D=10)  # BEC / error
    with pytest.raises(ValueError):
        iterate(fam, 1.0, 0.2, 3, surrogate="BSC")
    with pytest.raises(ValueError):
        iterate(fam, 1.0, 0.2, 3, quantity="chi2-soft")
    with pytest.raises(ValueError):
        iterate(fam, 1.0, 0.2, 3, surrogate="BEC", quantity="nonsense")
    with pytest.raises(ValueError):
        iterate(fam, 1.0, 1.5, 3)  # x0 out of range
    with pytest.raises(ValueError):
        iterate(fam, 1.0, 0.2, -1)
    with pytest.raises(ValueError):
        fixed_point(fam, 1.0, 0.5, tol=0.0)
    # fixed_point takes the starts and step counts iterate takes: these ran
    # to a converged value, (nan, False) or 100,000 steps
    for x0 in (1.5, -0.2, math.nan):
        with pytest.raises(ValueError, match="x0 must lie in"):
            fixed_point(fam, 1.0, x0)
    with pytest.raises(ValueError, match="tol must be > 0"):
        fixed_point(fam, 1.0, 0.5, tol=math.nan)
    for max_steps in (-1, 100_001):
        with pytest.raises(ValueError, match="max_steps must lie in"):
            fixed_point(fam, 1.0, 0.5, max_steps=max_steps)
    # closed forms are BEC/error families: a BSC run of one is refused
    closed = ClosedFormFamily("mixed", profile=DegreeProfile(((CheckKind.xor(3), 1.0),)))
    iterate(closed, 1.0, 0.25, 3)
    with pytest.raises(ValueError, match="does not match surrogate"):
        iterate(closed, 1.0, 0.25, 3, "BSC", "error")


def test_capacity_soft_marked_conjectured():
    fam = EFunctionFamily("ldmc3", "BEC", "entropy", 10, DegreeLaw.poisson(3))
    tr = iterate(fam, 1.0, 0.5, 3, quantity="capacity-soft")
    assert tr.conjectured
    tr = iterate(build_family("ldmc3", D=10), 1.0, 0.5, 3)
    assert not tr.conjectured


def test_bounds_from_traces_mapping():
    fam_bec = build_family("ldmc3", D=10)
    fam_bsc = EFunctionFamily("ldmc3", "BSC", "error", 10, DegreeLaw.poisson(3))
    fam_chi = EFunctionFamily("ldmc3", "BEC", "chi2", 10, DegreeLaw.poisson(3))
    t_bp = iterate(fam_bec, 1.0, 0.0, 10)
    t_map = iterate(fam_bec, 1.0, 1.0, 10)
    t_up = iterate(fam_bsc, 1.0, 0.5, 10, surrogate="BSC")
    t_chi = iterate(fam_chi, 1.0, 1.0, 10, quantity="chi2-soft")
    b = bounds_from_traces([t_bp, t_map, t_up, t_chi])
    assert b.bp_lower == (1.0 - t_bp.final) / 2.0
    assert b.map_lower == (1.0 - t_map.final) / 2.0
    assert b.bp_upper == t_up.final
    assert b.soft_upper == t_chi.final
    assert b.soft_map_upper == t_chi.final
    assert b.soft_lower is None
    # ordering: the genie start (larger x0) can only improve the endpoint
    assert b.map_lower <= b.bp_lower + 1e-12
    empty = bounds_from_traces([])
    assert empty.bp_lower is None and empty.bp_upper is None


def test_bounds_bracket_is_consistent():
    fam_bec = build_family("ldmc3", D=10)
    fam_bsc = EFunctionFamily("ldmc3", "BSC", "error", 10, DegreeLaw.poisson(3))
    for alpha in (0.5, 1.0, 1.5):
        lo = bounds_from_traces([iterate(fam_bec, alpha, 0.0, 10)]).bp_lower
        up = bounds_from_traces([iterate(fam_bsc, alpha, 0.5, 10, surrogate="BSC")]).bp_upper
        assert lo <= up + 1e-12


def test_large_d_limits_and_monotonicity():
    # alpha -> 0 removes all information: error 1/2
    assert abs(large_d_bound(0.0, 0.5) - 0.5) < 1e-8
    alphas = np.linspace(0.1, 3.0, 30)
    vals = [large_d_bound(a, 0.5) for a in alphas]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        large_d_bound(-1.0, 0.5)
    with pytest.raises(ValueError):
        large_d_bound(1.0, 1.0)


def test_large_d_matches_independent_quadrature():
    # independent evaluation of the same Gaussian integral
    alpha, r = 2.0, 0.5
    a = 2.0 * math.sqrt(2.0 * alpha * (1.0 - r) / (math.pi * 0.5))
    b = 4.0 * alpha * (1.0 - r) / (math.pi * math.sqrt(0.5))

    def f(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) / (1.0 + math.exp(abs(a * z + b)))

    ref, _ = quad(f, -8.0, 8.0, epsabs=1e-12, epsrel=1e-12, limit=400)
    assert abs(large_d_bound(alpha, r) - ref) < 1e-6


def test_chi2_recursion_monotone_alpha():
    # more load -> more revealed soft information at the fixed point
    fam = EFunctionFamily("ldmc3", "BEC", "chi2", 10, DegreeLaw.poisson(3))
    finals = [
        fixed_point(fam, a, 1.0, tol=1e-12, quantity="chi2-soft")[0] for a in (0.5, 1.0, 2.0)
    ]
    assert finals[0] <= finals[1] + 1e-12 <= finals[2] + 2e-12
