"""The branch-free BP kernels against the mask-based ones they replace.

``tests/_oracles.py`` keeps the variable step, the parity and majority
updates and the check update as they were written with boolean masks, int64
counts and an update of every group on every iteration.  The kernels in
``gracecode.bp`` must give the same bits: every field of a ``DecodeResult``
is compared byte for byte over a sweep of seeds, loads and block lengths.
"""

from __future__ import annotations

import numpy as np
import pytest

from _oracles import maj_group_update_plain, run_bp_plain, var_step_plain, xor_group_update_plain
from gracecode.bp import LLR_CLAMP, _maj_group_update, _var_step, _xor_group_update, run_bp
from gracecode.channels import ChannelParam, transmit
from gracecode.ensemble import PARITY, CheckKind, DegreeProfile, EnsembleSpec, FactorGraph, encode, parse_profile, sample_graph

PROFILES = {
    "mixed": (parse_profile("MAJ 3 0.5\nXOR 3 0.25\nXOR 1 0.25\n"), False),
    "ldmc3": (DegreeProfile.single(CheckKind.maj(3)), False),
    "ldmc3-systematic": (DegreeProfile.single(CheckKind.maj(3)), True),
    "ldmc5": (DegreeProfile.single(CheckKind.maj(5)), False),
    "maj7": (parse_profile("MAJ 7 0.25\nMAJ 3 0.45\nXOR 1 0.3\n"), False),
    "parity": (parse_profile("MAJ 3 0.45\nXOR 3 0.3\nXOR 1 0.2\nPARITY 4 0.05\n"), False),
}
SEEDS = range(4)
ALPHAS = (0.5, 1.0, 1.5)
KS = (2000, 20000)
RATE = 0.5


def _repetition(k: int) -> FactorGraph:
    """Every variable observed twice through MAJ:1 (identity) checks, as in
    ``test_acceptance.py::test_criterion_3_repetition_law``."""
    return FactorGraph.from_checks(k=k, checks=tuple((CheckKind.maj(1), (i,)) for i in range(k)) * 2)


def _assert_same(got, want):
    assert got.failed == want.failed
    assert got.beliefs.iteration == want.beliefs.iteration
    for field in ("ber_trace", "soft_trace", "hard"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.beliefs.p0.tobytes() == want.beliefs.p0.tobytes()


def _source(graph, rng):
    """A uniform source, then each PARITY check met through a pivot variable
    by peeling: a check is peeled once one of its variables lies in no other
    unpeeled PARITY check, and the pivots are set in reverse peeling order.  A
    check left unpeeled may stay unmet; BP then meets an impossible
    observation, which both versions must flag alike."""
    source = rng.integers(0, 2, size=graph.k).astype(np.int8)
    members = [graph.evar[graph.ptr[c] : graph.ptr[c + 1]].tolist() for c in np.flatnonzero(graph.kind == PARITY)]
    held = np.zeros(graph.k, dtype=np.int64)
    for idx in members:
        held[idx] += 1
    peeled, left = [], list(range(len(members)))
    while left:
        rest = []
        for c in left:
            pivot = next((v for v in members[c] if held[v] == 1), None)
            if pivot is None:
                rest.append(c)
            else:
                peeled.append((c, pivot))
                held[members[c]] -= 1
        if len(rest) == len(left):
            break
        left = rest
    for c, pivot in reversed(peeled):
        source[pivot] ^= np.bitwise_xor.reduce(source[members[c]])
    return source


def _trial(graph, seed, alpha, iters=10):
    rng = np.random.default_rng([seed, int(round(alpha * 1e9)), 1])
    source = _source(graph, rng)
    eps = min(max(1.0 - alpha * RATE, 0.0), 1.0)
    coded = encode(graph.subgraph(graph.kind != PARITY), source)
    received = transmit(coded, ChannelParam.bec(eps), rng)
    _assert_same(run_bp(graph, received, iters), run_bp_plain(graph, received, iters))


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_run_bp_matches_mask_kernels_bit_for_bit(name, k):
    profile, systematic = PROFILES[name]
    spec = EnsembleSpec(k=k, rate=RATE, profile=profile, systematic=systematic)
    for seed in SEEDS:
        for alpha in ALPHAS:
            _trial(sample_graph(spec, np.random.default_rng([seed, int(round(alpha * 1e9)), 0])), seed, alpha)


@pytest.mark.parametrize("k", KS)
def test_run_bp_on_the_repetition_law_graph_matches_bit_for_bit(k):
    graph = _repetition(k)
    for seed in SEEDS:
        for alpha in ALPHAS:
            _trial(graph, seed, alpha, iters=2)


@pytest.mark.parametrize("name", ["ldmc3-systematic", "parity"])
def test_the_sweep_reaches_certain_beliefs(name):
    # the sweep above checks the certainty paths only if it takes them: here
    # certain and unsure beliefs after ten iterations, without a contradiction
    profile, systematic = PROFILES[name]
    spec = EnsembleSpec(k=2000, rate=RATE, profile=profile, systematic=systematic)
    graph = sample_graph(spec, np.random.default_rng([0, 10**9, 0]))
    rng = np.random.default_rng([0, 10**9, 1])
    received = transmit(encode(graph, _source(graph, rng)), ChannelParam.bec(0.5), rng)
    result = run_bp(graph, received, 10)
    p0 = result.beliefs.p0
    assert not result.failed and result.beliefs.iteration == 10
    assert (p0 == 1.0).any() and (p0 == 0.0).any() and ((p0 > 0.0) & (p0 < 1.0)).any()


def _messages(rng, n, certain=0.3):
    """LLRs with +/-inf, zeros, small values and values up to the clamp."""
    pick = rng.random(n)
    lam = np.where(rng.random(n) < 0.5, rng.uniform(-3.0, 3.0, n), rng.uniform(-LLR_CLAMP, LLR_CLAMP, n))
    lam[pick < certain / 2] = np.inf
    lam[(pick >= certain / 2) & (pick < certain)] = -np.inf
    lam[(pick >= certain) & (pick < certain + 0.05)] = 0.0
    return lam


@pytest.mark.parametrize("seed", range(4))
def test_var_step_matches_mask_version_with_hundreds_of_certain_messages(seed):
    # variable 0 gets 512 to 1280 messages of each certain sign, multiples of
    # 256 (plus one), so counts kept in a byte or packed into few bits would
    # wrap; variable 1 gets 512 of one sign only, so its messages stay
    # certain without a contradiction
    rng = np.random.default_rng(seed)
    k = 200
    evar = rng.integers(2, k, size=3000)
    c2v = _messages(rng, evar.shape[0])
    n = 256 * (seed + 2)
    finite = np.where(np.isinf(c2v[:80]), 0.25, c2v[:80])
    heavy = np.concatenate([np.full(n, np.inf), np.full(n + 1, -np.inf), finite[:40]])
    one_sided = np.concatenate([np.full(512, -np.inf), finite[40:]])
    evar = np.concatenate([evar, np.zeros(heavy.shape[0], np.int64), np.ones(one_sided.shape[0], np.int64)])
    c2v = np.concatenate([c2v, heavy, one_sided])
    order = rng.permutation(evar.shape[0])
    evar, c2v = evar[order], c2v[order]
    lam, lam_plain = np.full(evar.shape[0], np.nan), np.full(evar.shape[0], np.nan)
    p0, flag = _var_step(evar, c2v, k, lam)
    p0_plain, flag_plain = var_step_plain(evar, c2v, k, lam_plain)
    assert flag and flag == flag_plain
    assert p0.tobytes() == p0_plain.tobytes() and lam.tobytes() == lam_plain.tobytes()
    assert p0[0] == 1.0 and p0[1] == 0.0
    assert (lam[evar == 1] == -np.inf).all()
    # without infinite messages the step skips the certainty bookkeeping
    finite = np.where(np.isinf(c2v), 1.5, c2v)
    p0, flag = _var_step(evar, finite, k, lam)
    p0_plain, flag_plain = var_step_plain(evar, finite, k, lam_plain)
    assert not flag and not flag_plain
    assert p0.tobytes() == p0_plain.tobytes() and lam.tobytes() == lam_plain.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 9, 300])
@pytest.mark.parametrize("certain", [0.0, 0.3, 0.9])
def test_group_kernels_match_mask_versions(d, certain):
    # at d = 300, checks with 256 or 257 unsure neighbors wrap a byte count
    rng = np.random.default_rng(d * 10 + int(certain * 10))
    C = 400 if d < 100 else 40
    lam = _messages(rng, d * C, certain).reshape(d, C)
    if d == 300:
        lam[:, :20] = np.where(rng.random((d, 20)) < 0.5, np.inf, -np.inf)
        lam[0, 5:10] = 0.5  # one unsure neighbor: certain messages to it only
        lam[:256, 10:15] = 0.5
        lam[:257, 15:20] = 0.5
    obs = rng.integers(0, 2, size=C).astype(np.int8)
    out, out_plain = np.empty((d, C)), np.empty((d, C))
    _xor_group_update(lam, obs, out)
    xor_group_update_plain(lam, obs, out_plain)
    assert out.tobytes() == out_plain.tobytes()
    if d % 2 == 1 and d < 100:
        flag = _maj_group_update(lam, obs, out)
        flag_plain = maj_group_update_plain(lam, obs, out_plain)
        assert flag == flag_plain and out.tobytes() == out_plain.tobytes()
