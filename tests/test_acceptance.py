"""End-to-end acceptance checks with fixed tolerances and verdict lines.

Each test prints one PASS/FAIL line summarizing the measured deviation and
the wall time against its budget.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from _oracles import brute_force_marginals, exact_map_ber, maj_depth1_error, observed_degrees
from test_efun_golden import GOLDEN_LDMC3
from gracecode.bp import measure, run_bp
from gracecode.channels import ChannelParam, ERASED, ReceivedWord, mgl_variant_check, transmit
from gracecode.cli import main as cli_main
from gracecode.converse import (
    area_two_point,
    exit_tools,
    linear_two_point,
    repetition_domination,
    threshold_comparison,
)
from gracecode.devo import bounds_from_traces, fixed_point, iterate
from gracecode.efun import (
    ClosedFormFamily,
    DegreeLaw,
    EFunctionFamily,
    build_family,
    error_poly,
    eval_degree,
    f_alphabet,
)
from gracecode.ensemble import (
    CheckKind,
    DegreeProfile,
    EnsembleSpec,
    FactorGraph,
    encode,
    sample_graph,
)
from gracecode.exactdec import BitMatrix, map_ber_linear, rank_hrank, subsample

LDMC3 = f_alphabet("ldmc3_bec")
QS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]

# Reference per-degree table for simulated MAJ(3) mixtures at rate 1/2:
# ratio -> degree -> (predicted E_d at the empirical q-hat, simulated BER)
TABLE2 = {
    0.25: {2: (0.194, 0.202), 3: (0.127, 0.146), 4: (0.097, 0.117), 5: (0.068, 0.093)},
    0.5: {2: (0.166, 0.177), 3: (0.106, 0.124), 4: (0.070, 0.090), 5: (0.047, 0.066)},
    1.0: {2: (0.137, 0.139), 3: (0.077, 0.081), 4: (0.044, 0.047), 5: (0.025, 0.028)},
}

MIX_RATIOS = (2.0, 1.5, 1.2, 1.1, 1.0, 0.9, 0.8)
MIX_BERS = (0.00279, 0.0115, 0.0297, 0.0425, 0.06336, 0.10367, 0.43652)


def _verdict(n, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    tag = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[ACCEPTANCE] criterion {n}: {tag} — {detail} ({elapsed:.1f}s < {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"time budget exceeded: {elapsed:.1f}s >= {budget}s"


def test_criterion_1_reference_polynomials():
    t0 = time.time()
    dev = 0.0
    for d, ref in GOLDEN_LDMC3.items():
        got = error_poly(LDMC3, d).as_array()
        width = max(len(ref), got.shape[0])
        a = np.zeros(width)
        a[: got.shape[0]] = got
        b = np.zeros(width)
        b[: len(ref)] = ref
        dev = max(dev, float(np.max(np.abs(a - b))))
    e1 = eval_degree(LDMC3, 1, "error", np.linspace(0.0, 1.0, 101))
    dev1 = float(np.max(np.abs(e1 - 0.25)))
    ok = dev < 1e-6 and dev1 < 1e-12
    _verdict(1, ok, f"coeff dev {dev:.1e} < 1e-6, E_1 dev {dev1:.1e} < 1e-12", time.time() - t0, 10.0)


def test_criterion_2_tree_oracles():
    t0 = time.time()
    dev = 0.0
    for d in range(5):
        poly = error_poly(LDMC3, d)
        for q in QS:
            dev = max(dev, abs(poly(float(q)) - float(maj_depth1_error(3, d, q))))
    maj1, maj3 = CheckKind.maj(1), CheckKind.maj(3)
    star = FactorGraph.from_checks(
        k=7,
        checks=(
            (maj3, (0, 1, 2)), (maj3, (0, 3, 4)), (maj3, (0, 5, 6)),
            (maj1, (1,)), (maj1, (3,)), (maj1, (5,)), (maj1, (6,)),
        ),
    )
    deep = FactorGraph.from_checks(
        k=12,
        checks=(
            (maj3, (0, 1, 2)), (maj3, (0, 3, 4)), (maj3, (1, 5, 6)),
            (maj3, (3, 7, 8)), (maj3, (6, 9, 10)), (CheckKind.xor(2), (4, 11)),
            (maj1, (2,)), (maj1, (5,)), (maj1, (7,)), (maj1, (9,)), (maj1, (11,)),
        ),
    )
    bp_dev = 0.0
    rng = np.random.default_rng(2)
    cases = [(star, [0, 0, ERASED, 1, 0, ERASED, 1]), (star, [1, ERASED, 0, ERASED, 1, 0, 0])]
    for _ in range(2):
        # consistent observations: encode a random source, erase at random
        src = rng.integers(0, 2, size=deep.k).astype(np.int8)
        symbols = encode(deep, src)
        symbols[rng.random(symbols.shape[0]) < 0.4] = ERASED
        cases.append((deep, symbols))
    for graph, symbols in cases:
        received = ReceivedWord(np.asarray(symbols, dtype=np.int8), ChannelParam.bec(0.5))
        res = run_bp(graph, received, 12)
        exact = brute_force_marginals(graph, received)
        bp_dev = max(bp_dev, float(np.max(np.abs(res.beliefs.p0 - exact))))
    ok = dev < 1e-12 and bp_dev < 1e-12
    _verdict(2, ok, f"oracle dev {dev:.1e} < 1e-12, BP-vs-exact dev {bp_dev:.1e} < 1e-12", time.time() - t0, 60.0)


def test_criterion_3_repetition_law():
    t0 = time.time()
    k = 100_000
    checks = tuple((CheckKind.maj(1), (i,)) for i in range(k)) * 2
    graph = FactorGraph.from_checks(k=k, checks=checks)
    rng = np.random.default_rng(1)
    src = rng.integers(0, 2, size=k).astype(np.int8)
    G = BitMatrix.repetition(k, 2)
    worst = 0.0
    ok = True
    for eps in (0.2, 0.5, 0.8):
        p = eps * eps / 2.0
        sigma = float(np.sqrt(p * (1.0 - p) / k))
        rec = transmit(encode(graph, src), ChannelParam.bec(eps), rng)
        ber_bp, _, _ = measure(run_bp(graph, rec, 2), src)
        ber_map = map_ber_linear(G, eps, 1, np.random.default_rng(2))
        for ber in (ber_bp, ber_map):
            worst = max(worst, abs(ber - p) / sigma)
            ok = ok and abs(ber - p) <= 3.0 * sigma
    _verdict(3, ok, f"worst dev {worst:.2f} sigma <= 3 sigma", time.time() - t0, 60.0)


def test_criterion_4_mixture_fixed_points():
    t0 = time.time()
    prof = DegreeProfile(
        ((CheckKind.xor(1), 0.08), (CheckKind.xor(2), 0.22), (CheckKind.xor(3), 0.70))
    )
    fam = ClosedFormFamily("mixed", profile=prof)
    dev = 0.0
    for ratio, ref in zip(MIX_RATIOS, MIX_BERS):
        q_star, conv = fixed_point(fam, ratio, 1.0, tol=1e-12)
        assert conv
        dev = max(dev, abs((1.0 - q_star) / 2.0 - ref))
    _verdict(4, dev < 2e-3, f"max BER dev {dev:.2e} < 2e-3", time.time() - t0, 10.0)


def test_criterion_5_per_degree_table():
    t0 = time.time()
    prof = DegreeProfile.single(CheckKind.maj(3))
    k, trials = 100_000, 6
    ber_dev = 0.0
    e_dev = 0.0
    for ratio, rows in TABLE2.items():
        eps = 1.0 - ratio * 0.5
        counts = {d: 0 for d in rows}
        sums = {d: 0.0 for d in rows}
        overall = 0.0
        for trial in range(trials):
            rng = np.random.default_rng([5, int(ratio * 100), trial])
            g = sample_graph(EnsembleSpec(k=k, rate=0.5, profile=prof), rng)
            src = rng.integers(0, 2, size=k).astype(np.int8)
            rec = transmit(encode(g, src), ChannelParam.bec(eps), rng)
            res = run_bp(g, rec, 10)
            ber, _, _ = measure(res, src)
            overall += ber
            deg = observed_degrees(g, rec)
            err = np.where(res.hard == -1, 0.5, (res.hard != src).astype(float))
            for d in rows:
                mask = deg == d
                counts[d] += int(mask.sum())
                sums[d] += float(err[mask].sum())
        q_hat = 1.0 - 2.0 * overall / trials
        for d, (e_ref, ber_ref) in rows.items():
            ber_dev = max(ber_dev, abs(sums[d] / counts[d] - ber_ref))
            e_dev = max(e_dev, abs(eval_degree(LDMC3, d, "error", q_hat) - e_ref))
    ok = ber_dev < 0.015 and e_dev < 1e-3
    _verdict(5, ok, f"per-degree BER dev {ber_dev:.4f} < 0.015, E dev {e_dev:.2e} < 1e-3", time.time() - t0, 600.0)


def test_criterion_6_de_bound_bracketing():
    t0 = time.time()
    k, ell = 100_000, 10
    ok = True
    worst = ""
    for base, arity in (("ldmc3", 3), ("ldmc5", 5)):
        fam_bec = build_family(base, D=10)
        fam_chi = EFunctionFamily(base, "BEC", "chi2", 10, DegreeLaw.poisson(arity))
        fams_bsc = None
        if base == "ldmc3":
            fams_bsc = (
                EFunctionFamily(base, "BSC", "error", 10, DegreeLaw.poisson(3)),
                EFunctionFamily(base, "BSC", "chi2", 10, DegreeLaw.poisson(3)),
            )
        prof = DegreeProfile.single(CheckKind.maj(arity))
        for alpha in (0.25, 0.5, 1.0, 1.5):
            eps = 1.0 - alpha * 0.5
            traces = [
                iterate(fam_bec, alpha, 0.0, ell),
                iterate(fam_chi, alpha, 0.0, ell, quantity="chi2-soft"),
            ]
            if fams_bsc:
                traces.append(iterate(fams_bsc[0], alpha, 0.5, ell, surrogate="BSC"))
                traces.append(
                    iterate(fams_bsc[1], alpha, 0.5, ell, surrogate="BSC", quantity="chi2-soft")
                )
            b = bounds_from_traces(traces)
            rng = np.random.default_rng([6, arity, int(alpha * 100)])
            g = sample_graph(EnsembleSpec(k=k, rate=0.5, profile=prof), rng)
            src = rng.integers(0, 2, size=k).astype(np.int8)
            rec = transmit(encode(g, src), ChannelParam.bec(eps), rng)
            ber, iota, _ = measure(run_bp(g, rec, ell), src)
            sig = 3.0 * float(np.sqrt(max(ber * (1.0 - ber), 1e-12) / k))
            sigi = 3.0 * float(np.sqrt(0.25 / k))
            lo = (b.bp_lower or 0.0) - sig
            hi = (b.bp_upper if b.bp_upper is not None else 0.5) + sig
            lo_i = (b.soft_lower or 0.0) - sigi
            hi_i = (b.soft_upper if b.soft_upper is not None else 1.0) + sigi
            here = lo <= ber <= hi and lo_i <= iota <= hi_i
            if not here:
                worst = f"{base} alpha={alpha}: ber {ber:.4f} not in [{lo:.4f},{hi:.4f}] or iota {iota:.4f} not in [{lo_i:.4f},{hi_i:.4f}]"
            ok = ok and here
    _verdict(6, ok, worst or "all 8 points inside [lower-3sigma, upper+3sigma]", time.time() - t0, 900.0)


def test_criterion_7_threshold_comparison():
    t0 = time.time()
    lo, hi = threshold_comparison(0.4294)
    dev = max(abs(lo - 0.0484), abs(hi - 0.1223))
    _verdict(7, dev < 1e-4, f"(lo, hi) dev {dev:.2e} < 1e-4", time.time() - t0, 1.0)


def test_criterion_8_exit_areas_and_slope():
    t0 = time.time()

    def spc(k):
        dense = np.hstack([np.eye(k, dtype=np.uint8), np.ones((k, 1), dtype=np.uint8)])
        return BitMatrix.from_dense(dense)

    rng = np.random.default_rng(13)
    rand = (rng.random((4, 8)) < 0.5).astype(np.uint8)
    rand[:, :4] = np.eye(4, dtype=np.uint8)
    codes = [
        BitMatrix.repetition(4, 2),
        BitMatrix.repetition(2, 4),
        spc(5),
        spc(7),
        BitMatrix.from_dense(rand),
    ]
    area_dev = 0.0
    slope_violation = 0.0
    for G in codes:
        res = exit_tools(G)
        R = G.k / G.m
        area_dev = max(area_dev, abs(res.area - R))
        for eps0 in np.linspace(0.15, 0.95, 10):
            ber0 = exact_map_ber(G, float(eps0))
            for eps in np.linspace(0.02, float(eps0) - 0.05, 5):
                lhs = res.h(float(eps))
                rhs = 2.0 * R * ber0 / (float(eps0) - eps)
                slope_violation = max(slope_violation, lhs - rhs)
    ok = area_dev < 1e-12 and slope_violation <= 1e-12
    _verdict(
        8,
        ok,
        f"area dev {area_dev:.1e} < 1e-12, slope violation {slope_violation:.1e} <= 0",
        time.time() - t0,
        60.0,
    )


def _inverted_area_bound(R, delta1, eps2, eps1) -> float:
    """Smallest anchor BER at eps2 consistent with BER(eps1) <= delta1."""
    if area_two_point(R, 0.0, eps2, eps1) <= delta1 + 1e-12:
        return 0.0
    lo, hi = 0.0, 0.5
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if area_two_point(R, mid, eps2, eps1) <= delta1 + 1e-12:
            hi = mid
        else:
            lo = mid
    return hi


def test_criterion_9_two_point_domination():
    t0 = time.time()
    rho, delta1, eps1 = 2.0, 0.2501, 0.75
    violation = 0.0
    for eps2 in np.linspace(0.76, 0.99, 24):
        lin = linear_two_point(rho, delta1, eps1, float(eps2))
        area = area_two_point(0.5, delta1, eps1, float(eps2))
        violation = max(violation, area - lin)
    for eps2 in np.linspace(0.05, 0.74, 24):
        lin = linear_two_point(rho, delta1, eps1, float(eps2))
        inv = _inverted_area_bound(0.5, delta1, float(eps2), eps1)
        violation = max(violation, inv - lin)
    rep = repetition_domination(0.5, 0.9)
    ok = violation <= 1e-9 and abs(rep - 0.95) < 1e-12
    _verdict(9, ok, f"max domination violation {violation:.1e} <= 1e-9, rep point dev {abs(rep-0.95):.1e}", time.time() - t0, 10.0)


def test_criterion_10_convexity_and_determinism(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(10)
    worst_second = np.inf
    worst_diag = 0.0
    for _ in range(20):
        p, q = rng.uniform(0.05, 0.95, size=2)
        second_min, diag_max = mgl_variant_check(float(p), float(q), 100)
        worst_second = min(worst_second, second_min)
        worst_diag = max(worst_diag, diag_max)
    argv = [
        "simulate", "--ensemble", "ldmc3", "--k", "2000", "--rate", "0.5",
        "--bp-iters", "5", "--trials", "2", "--seed", "5",
        "--alpha-grid", "0.8:1.2:0.2", "--out", None,
    ]
    outs = []
    for name in ("det_a.csv", "det_b.csv"):
        argv[-1] = str(tmp_path / name)
        assert cli_main(argv) == 0
        with open(argv[-1], "rb") as fh:
            outs.append(fh.read())
    deterministic = outs[0] == outs[1]
    # sub-sampling inequalities for rank and half-rank, 3 sigma
    rng2 = np.random.default_rng(7)
    A = BitMatrix.from_dense((rng2.random((50, 100)) < 0.5).astype(np.uint8))
    base_rank = rank_hrank(A).rank
    e1, e2, trials = 0.8, 0.4, 300
    r2 = np.array([rank_hrank(subsample(A, e2, 1.0, rng2)).rank for _ in range(trials)])
    h1 = np.array([rank_hrank(subsample(A, e1, 1.0, rng2)).hrank for _ in range(trials)])
    sig = np.sqrt(r2.var() / trials + (1 - e2 / e1) ** 2 * h1.var() / trials)
    rows_ok = r2.mean() <= base_rank - (1 - e2 / e1) * h1.mean() + 3 * sig
    p, qq = 0.6, 0.3
    rp = np.array([rank_hrank(subsample(A, 1.0, p, rng2)).rank for _ in range(trials)])
    rq = np.array([rank_hrank(subsample(A, 1.0, qq, rng2)).rank for _ in range(trials)])
    sig2 = np.sqrt(rp.var() / trials + (p / qq) ** 2 * rq.var() / trials)
    cols_ok = rp.mean() <= min(p * A.m, (p / qq) * rq.mean() + 3 * sig2)
    ok = worst_second >= -1e-9 and worst_diag <= 1e-9 and deterministic and rows_ok and cols_ok
    _verdict(
        10,
        ok,
        f"second-diff min {worst_second:.1e} >= -1e-9, diag max {worst_diag:.1e} <= 1e-9, "
        f"byte-identical {deterministic}, rank bounds {rows_ok and cols_ok}",
        time.time() - t0,
        300.0,
    )


def test_cliff_versus_graceful_degradation():
    t0 = time.time()
    prof7 = DegreeProfile.single(CheckKind.xor(7))
    xor_ber = []
    for alpha in (0.95, 1.05):
        eps = 1.0 - alpha * 0.5
        g = sample_graph(EnsembleSpec(k=2000, rate=0.5, profile=prof7, seed=11))
        G = BitMatrix.from_columns([idx for _, idx in g.checks], g.k)
        xor_ber.append(map_ber_linear(G, eps, 8, np.random.default_rng(7)))
    prof5 = DegreeProfile.single(CheckKind.maj(5))
    maj_ber = []
    for alpha in (0.95, 1.05):
        eps = 1.0 - alpha * 0.5
        rng = np.random.default_rng(21)
        g = sample_graph(EnsembleSpec(k=50_000, rate=0.5, profile=prof5), rng)
        src = rng.integers(0, 2, size=50_000).astype(np.int8)
        rec = transmit(encode(g, src), ChannelParam.bec(eps), rng)
        ber, _, _ = measure(run_bp(g, rec, 30), src)
        maj_ber.append(ber)
    cliff = xor_ber[0] - xor_ber[1]
    graceful = abs(maj_ber[0] - maj_ber[1])
    ok = cliff > 0.2 and graceful < 0.05
    tag = "PASS" if ok else "FAIL"
    print(
        f"[ACCEPTANCE] cliff-vs-graceful: {tag} — XOR(7) drop {cliff:.3f} > 0.2, "
        f"MAJ(5) change {graceful:.3f} < 0.05 ({time.time()-t0:.1f}s)"
    )
    assert ok
