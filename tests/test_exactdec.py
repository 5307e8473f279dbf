"""Exact F2 decoding: rank/hrank, sub-sampling laws, MAP oracles."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_force_marginals,
    exact_map_ber,
    forced_set_dense,
    gf2_rank_dense,
    rank_forced_left_null,
    rank_forced_per_coordinate,
)
from gracecode import _kernels
from gracecode.channels import ChannelParam, ReceivedWord
from gracecode.ensemble import CheckKind, DegreeProfile, EnsembleSpec, FactorGraph, sample_graph
from gracecode.exactdec import (
    BitMatrix,
    map_ber_linear,
    rank_hrank,
    subsample,
)


def test_identity_rank_hrank():
    res = rank_hrank(BitMatrix.identity(5))
    assert res.rank == 5
    assert res.forced == frozenset(range(5))
    assert res.hrank == 5


def test_single_repeated_column():
    res = rank_hrank(BitMatrix.from_dense([[1], [1]]))
    assert res.rank == 1
    assert res.hrank == 0  # kernel contains (1, 1)


def test_zero_matrix():
    res = rank_hrank(BitMatrix.from_dense(np.zeros((3, 4), dtype=int)))
    assert res.rank == 0
    assert res.hrank == 0


def test_repetition_generator_shape():
    G = BitMatrix.repetition(4, 3)
    assert (G.k, G.m) == (4, 12)
    res = rank_hrank(G)
    assert res.rank == 4
    assert res.hrank == 4


def test_rank_forced_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(3, 12))
        m = int(rng.integers(1, 14))
        dense = (rng.random((k, m)) < 0.35).astype(np.uint8)
        res = rank_hrank(BitMatrix.from_dense(dense))
        assert res.rank == gf2_rank_dense(dense)
        assert res.forced == frozenset(forced_set_dense(dense))


def test_rank_forced_kernel_matches_dense_oracle_with_masks():
    # includes k = 0, m = 0 and the all-kept and none-kept masks
    rng = np.random.default_rng(21)
    for t in range(200):
        k = int(rng.integers(0, 11))
        m = int(rng.integers(0, 13))
        dense = (rng.random((k, m)) < rng.uniform(0.1, 0.7)).astype(np.uint8)
        keep = [rng.random(m) < 0.6, np.ones(m, dtype=bool), np.zeros(m, dtype=bool)][t % 3]
        A = BitMatrix.from_dense(dense)
        rank, forced = _kernels.gf2_rank_forced(_kernels.gf2_columns(A.indptr, A.rowidx), keep.astype(np.uint8), k)
        assert rank == gf2_rank_dense(dense[:, keep]), (t, k, m)
        assert set(np.flatnonzero(forced).tolist()) == forced_set_dense(dense[:, keep]), (t, k, m)


@pytest.mark.parametrize("eps", [0.2, 0.4, 0.6])
def test_rank_forced_kernel_matches_per_coordinate_reduction(eps):
    # 67 seeded LDGM3 erasure trials per eps at k = 2000, rate 1/2, against
    # the left null space of the kept columns (201 trials in all), and each
    # new graph's first trial against the reduction of every unit vector too
    rng = np.random.default_rng(int(eps * 10))
    spec = EnsembleSpec(k=2000, rate=0.5, profile=DegreeProfile.single(CheckKind.xor(3)))
    for t in range(67):
        oracles = [rank_forced_left_null]
        if t % 17 == 0:
            G = BitMatrix.from_columns([idx for _, idx in sample_graph(spec, rng).checks], spec.k)
            cols = _kernels.gf2_columns(G.indptr, G.rowidx)
            oracles.append(rank_forced_per_coordinate)
        keep = (rng.random(G.m) >= eps).astype(np.uint8)
        rank, forced = _kernels.gf2_rank_forced(cols, keep, G.k)
        for oracle in oracles:
            rank_ref, forced_ref = oracle(G, keep)
            assert rank == rank_ref, (eps, t, oracle.__name__)
            assert np.array_equal(forced, forced_ref), (eps, t, oracle.__name__)


def test_component_elimination_matches_whole_matrix_elimination():
    # sparse random matrices split into many components of one row, a few
    # rows and a giant one; empty rows and columns included; every mask keeps
    # a different share of the columns
    rng = np.random.default_rng(31)
    for t in range(60):
        k = int(rng.integers(0, 300))
        m = int(rng.integers(0, 400))
        weight = rng.choice([0, 1, 1, 2, 3], size=m)
        cols = [rng.choice(k, size=min(int(w), k), replace=False) for w in weight]
        A = BitMatrix.from_columns(cols, k)
        parts = _kernels.gf2_components(A.indptr, A.rowidx, A.k)
        whole = _kernels.gf2_columns(A.indptr, A.rowidx)
        for keep in (rng.random(m) < rng.uniform(0.0, 1.0), np.ones(m, dtype=bool)):
            keep = keep.astype(np.uint8)
            rank, forced = _kernels.gf2_rank_forced_components(parts, keep, k)
            rank_ref, forced_ref = _kernels.gf2_rank_forced(whole, keep, k)
            assert rank == rank_ref and np.array_equal(forced, forced_ref), t
        if k:
            assert rank_hrank(A).forced == frozenset(np.flatnonzero(forced_ref).tolist())


def test_bit_map_on_the_large_repetition_code_runs_in_bounded_memory():
    # one bit-MAP trial of the k = 100,000 repetition code: bitsets as wide
    # as the highest row took the process to 1.3 GB; component by component
    # it stays under 300 MB and gives the same BER.  The child reads its own
    # VmHWM: its ru_maxrss would include the RSS of the forking test process.
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status for the peak resident set size")
    code = (
        "import numpy as np\n"
        "from gracecode.exactdec import BitMatrix, map_ber_linear\n"
        "ber = map_ber_linear(BitMatrix.repetition(100_000, 2), 0.5, 1, np.random.default_rng(2))\n"
        "kb = next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(repr(ber), kb / 1024)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    ber, peak_mb = out.stdout.split()
    assert float(ber) == 0.124315
    assert float(peak_mb) < 300.0, peak_mb


def _uneven_columns(rng, k, m):
    """Columns of weight 1-6 plus a few rows that sit in about half of the
    columns, so the row degrees run from 0 to about m / 2."""
    cols = [set(rng.choice(k, size=min(int(rng.integers(1, 7)), k), replace=False).tolist()) for _ in range(m)]
    for r in rng.choice(k, size=min(int(rng.integers(1, 4)), k), replace=False).tolist():
        for c in np.flatnonzero(rng.random(m) < 0.5).tolist():
            cols[c].add(r)
    return BitMatrix.from_columns(cols, k)


def _assert_component_labels(A, parts):
    # rows by descending degree (ties by global row), columns by ascending
    # lowest local row, bitsets over the local labels; returns whether some
    # component's labels differ from global row order
    deg = np.bincount(A.rowidx, minlength=A.k)
    reordered = False
    for rows, cols, bits in parts[2]:
        rows = rows.tolist()
        assert rows == sorted(rows, key=lambda r: (-deg[r], r))
        reordered |= rows != sorted(rows)
        local = {r: i for i, r in enumerate(rows)}
        lows = [min(local[r] for r in A.column(c).tolist()) for c in cols.tolist()]
        assert lows == sorted(lows)
        assert bits == [sum(1 << local[r] for r in A.column(c).tolist()) for c in cols.tolist()]
    return reordered


@pytest.mark.parametrize("size", ["dense", "per_coordinate"])
def test_elimination_on_uneven_row_degrees(size):
    # small matrices against the dense rank and rank-augmentation oracles,
    # larger ones against the reduction of every unit vector
    rng = np.random.default_rng(41 if size == "dense" else 43)
    reordered = 0
    for t in range(40):
        if size == "dense":
            k, m = int(rng.integers(2, 20)), int(rng.integers(1, 30))
        else:
            k, m = int(rng.integers(50, 400)), int(rng.integers(20, 300))
        A = _uneven_columns(rng, k, m)
        parts = _kernels.gf2_components(A.indptr, A.rowidx, A.k)
        reordered += _assert_component_labels(A, parts)
        for keep in (rng.random(m) < rng.uniform(0.2, 0.9), np.ones(m, dtype=bool)):
            rank, forced = _kernels.gf2_rank_forced_components(parts, keep.astype(np.uint8), k)
            if size == "dense":
                dense = A.to_dense()[:, keep]
                rank_ref, forced_ref = gf2_rank_dense(dense), forced_set_dense(dense)
            else:
                rank_ref, forced_ref = rank_forced_per_coordinate(A, keep)
                forced_ref = set(np.flatnonzero(forced_ref).tolist())
            assert rank == rank_ref, (size, t)
            assert set(np.flatnonzero(forced).tolist()) == forced_ref, (size, t)
        res = rank_hrank(A)
        assert (res.rank, res.forced) == (rank, frozenset(forced_ref)), (size, t)
    assert reordered >= 30, reordered


def test_map_ber_linear_is_pinned_on_an_ldgm3_generator():
    # 16 bit-MAP trials of an LDGM3 generator at k = 2000, rate 1/2, eps 0.4:
    # the elimination's pivot convention and row labels must not move the
    # exact result (1075 undecoded bits over 16 trials)
    spec = EnsembleSpec(k=2000, rate=0.5, profile=DegreeProfile.single(CheckKind.xor(3)))
    G = BitMatrix.from_columns([idx for _, idx in sample_graph(spec, np.random.default_rng(19)).checks], spec.k)
    assert map_ber_linear(G, 0.4, 16, np.random.default_rng(20)) == 0.016796875


def test_kernels_key_pivots_by_the_top_bit():
    # the echelon basis is keyed by bit_length(); a lowest-bit key
    # ``(v & -v)`` allocates two bitsets per reduction step
    assert "& -" not in inspect.getsource(_kernels)


def test_map_ber_linear_rejects_an_empty_generator_and_non_integer_trials():
    empty = BitMatrix(k=0, m=3, indptr=np.zeros(4, dtype=np.int64), rowidx=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="k = 0"):
        map_ber_linear(empty, 0.5, 2, np.random.default_rng(0))
    res = rank_hrank(empty)
    assert (res.rank, res.forced) == (0, frozenset())
    G = BitMatrix.repetition(4, 2)
    for trials in (2.5, True, False, "2", None):
        with pytest.raises(ValueError, match="trials"):
            map_ber_linear(G, 0.5, trials, np.random.default_rng(0))
    assert map_ber_linear(G, 0.5, np.int64(3), np.random.default_rng(1)) == map_ber_linear(G, 0.5, 3, np.random.default_rng(1))


@given(st.integers(min_value=0, max_value=2 ** 30), st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_hrank_le_rank_le_dims(seed, k, m):
    rng = np.random.default_rng(seed)
    dense = (rng.random((k, m)) < 0.4).astype(np.uint8)
    res = rank_hrank(BitMatrix.from_dense(dense))
    assert res.hrank <= res.rank <= min(k, m)


def test_subsample_extremes():
    rng = np.random.default_rng(0)
    A = BitMatrix.from_dense((np.random.default_rng(1).random((6, 8)) < 0.5).astype(np.uint8))
    full = subsample(A, 1.0, 1.0, rng)
    assert np.array_equal(full.to_dense(), A.to_dense())
    empty = subsample(A, 0.0, 1.0, rng)
    assert empty.k == 0
    with pytest.raises(ValueError):
        subsample(A, 1.5, 1.0, rng)


def test_row_subsampling_rank_bound():
    # E[rank(A~(e2,1))] <= rank(A) - (1 - e2/e1) E[hrank(A~(e1,1))], 3 sigma
    rng = np.random.default_rng(7)
    A = BitMatrix.from_dense((rng.random((50, 100)) < 0.5).astype(np.uint8))
    base_rank = rank_hrank(A).rank
    e1, e2 = 0.8, 0.4
    trials = 400
    ranks2 = np.empty(trials)
    hranks1 = np.empty(trials)
    for t in range(trials):
        ranks2[t] = rank_hrank(subsample(A, e2, 1.0, rng)).rank
        hranks1[t] = rank_hrank(subsample(A, e1, 1.0, rng)).hrank
    lhs = ranks2.mean()
    rhs = base_rank - (1.0 - e2 / e1) * hranks1.mean()
    sigma = np.sqrt(ranks2.var() / trials + (1.0 - e2 / e1) ** 2 * hranks1.var() / trials)
    assert lhs <= rhs + 3.0 * sigma


def test_column_subsampling_rank_bound():
    # E[rank(A~(1,p))] <= min(p m, (p/q) E[rank(A~(1,q))]) for p > q, 3 sigma
    rng = np.random.default_rng(8)
    A = BitMatrix.from_dense((rng.random((50, 100)) < 0.5).astype(np.uint8))
    p, q = 0.6, 0.3
    trials = 400
    rp = np.empty(trials)
    rq = np.empty(trials)
    for t in range(trials):
        rp[t] = rank_hrank(subsample(A, 1.0, p, rng)).rank
        rq[t] = rank_hrank(subsample(A, 1.0, q, rng)).rank
    sigma = np.sqrt(rp.var() / trials + (p / q) ** 2 * rq.var() / trials)
    assert rp.mean() <= p * A.m + 1e-9
    assert rp.mean() <= (p / q) * rq.mean() + 3.0 * sigma


def _hrank_ber_identity(A_block: np.ndarray, eps: float):
    """Both sides of the systematic hrank/BER relation, computed exactly.

    For G = [I | A], sub-sample A's rows w.p. eps and columns w.p. 1-eps;
    the exact expectation of hrank should equal (eps - 2 BER(eps)) k where
    BER is the exact bit-MAP error of the code with generator G.
    """
    k, mb = A_block.shape
    e_hrank = 0.0
    for rmask in range(1 << k):
        rkeep = np.array([(rmask >> i) & 1 for i in range(k)], dtype=bool)
        pr = eps ** int(rkeep.sum()) * (1.0 - eps) ** int(k - rkeep.sum())
        sub_rows = A_block[rkeep]
        for cmask in range(1 << mb):
            ckeep = np.array([(cmask >> j) & 1 for j in range(mb)], dtype=bool)
            pc = (1.0 - eps) ** int(ckeep.sum()) * eps ** int(mb - ckeep.sum())
            sub = sub_rows[:, ckeep]
            if sub.size == 0:
                hr = 0
            else:
                hr = len(forced_set_dense(sub))
            e_hrank += pr * pc * hr
    G = BitMatrix.from_dense(np.hstack([np.eye(k, dtype=np.uint8), A_block]))
    ber = exact_map_ber(G, eps)
    return e_hrank, (eps - 2.0 * ber) * k


def test_hrank_ber_relation_exact():
    rng = np.random.default_rng(4)
    A_block = (rng.random((3, 3)) < 0.5).astype(np.uint8)
    for eps in (0.2, 0.5, 0.8):
        lhs, rhs = _hrank_ber_identity(A_block, eps)
        assert abs(lhs - rhs) < 1e-12


def test_hrank_ber_relation_repetition():
    # 2-fold repetition: E[hrank] = k eps (1 - eps) and BER = eps^2 / 2
    lhs, rhs = _hrank_ber_identity(np.eye(3, dtype=np.uint8), 0.3)
    assert abs(lhs - 3 * 0.3 * 0.7) < 1e-12
    assert abs(lhs - rhs) < 1e-12


def test_map_ber_linear_extremes():
    G = BitMatrix.from_dense(np.hstack([np.eye(4, dtype=np.uint8), np.ones((4, 1), dtype=np.uint8)]))
    rng = np.random.default_rng(0)
    assert map_ber_linear(G, 0.0, 3, rng) == 0.0
    assert map_ber_linear(G, 1.0, 3, rng) == 0.5
    with pytest.raises(ValueError):
        map_ber_linear(G, 1.2, 3, rng)
    with pytest.raises(ValueError):
        map_ber_linear(G, 0.5, 0, rng)


def test_map_ber_linear_matches_exact_enumeration():
    rng = np.random.default_rng(5)
    dense = (rng.random((4, 9)) < 0.5).astype(np.uint8)
    G = BitMatrix.from_dense(dense)
    eps = 0.45
    exact = exact_map_ber(G, eps)
    est = map_ber_linear(G, eps, 4000, np.random.default_rng(12))
    assert abs(est - exact) < 0.01


def test_map_ber_repetition_law():
    G = BitMatrix.repetition(500, 2)
    eps = 0.6
    est = map_ber_linear(G, eps, 40, np.random.default_rng(3))
    sigma = np.sqrt(0.18 * (1 - 0.18) / (500 * 40))
    assert abs(est - 0.5 * eps * eps) < 3.0 * sigma


def test_brute_force_single_maj3():
    graph = FactorGraph.from_checks(k=3, checks=((CheckKind.maj(3), (0, 1, 2)),))
    received = ReceivedWord(np.array([0], dtype=np.int8), ChannelParam.bec(0.0))
    marg = brute_force_marginals(graph, received)
    assert np.allclose(marg, 0.75)


def test_brute_force_systematic_point_mass():
    graph = FactorGraph.from_checks(
        k=2,
        checks=((CheckKind.maj(1), (0,)), (CheckKind.maj(1), (1,))),
    )
    received = ReceivedWord(np.array([1, 0], dtype=np.int8), ChannelParam.bec(0.0))
    marg = brute_force_marginals(graph, received)
    assert np.allclose(marg, [0.0, 1.0])


def test_brute_force_linear_matches_forced_set():
    rng = np.random.default_rng(9)
    k = 6
    cols = [sorted(rng.choice(k, size=3, replace=False).tolist()) for _ in range(8)]
    graph = FactorGraph.from_checks(k=k, checks=tuple((CheckKind.xor(3), tuple(c)) for c in cols))
    src = np.zeros(k, dtype=np.int8)
    received = ReceivedWord(np.zeros(8, dtype=np.int8), ChannelParam.bec(0.0))
    marg = brute_force_marginals(graph, received)
    forced = rank_hrank(BitMatrix.from_columns(cols, k)).forced
    for i in range(k):
        if i in forced:
            assert marg[i] == 1.0  # pinned to the all-zero truth
        else:
            assert abs(marg[i] - 0.5) < 1e-12


def test_brute_force_k_limit():
    graph = FactorGraph.from_checks(k=25, checks=((CheckKind.maj(3), (0, 1, 2)),))
    received = ReceivedWord(np.array([0], dtype=np.int8), ChannelParam.bec(0.0))
    with pytest.raises(ValueError):
        brute_force_marginals(graph, received)


def test_rank_forced_with_nothing_kept():
    rng = np.random.default_rng(38)
    k, m = 60, 90
    G = BitMatrix.from_columns([rng.choice(k, 3, replace=False) for _ in range(m)], k)
    nothing = np.zeros(m, dtype=np.uint8)
    rank, forced = _kernels.gf2_rank_forced(_kernels.gf2_columns(G.indptr, G.rowidx), nothing, k)
    assert rank == 0 and forced.dtype == np.uint8 and forced.shape == (k,) and not forced.any()
    rank, forced = _kernels.gf2_rank_forced_components(_kernels.gf2_components(G.indptr, G.rowidx, k), nothing, k)
    assert rank == 0 and forced.shape == (k,) and not forced.any()
