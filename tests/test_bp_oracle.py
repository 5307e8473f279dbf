"""The branch-free BP kernels against the mask-based ones they replace.

``tests/_oracles.py`` keeps the variable step, the parity and majority
updates and the check update as they were written with boolean masks, int64
counts and an update of every group on every iteration, and the edge layout
as it was built on the observed sub-graph through a dict of groups.  The
kernels in ``gracecode.bp`` must give the same bits: every field of a
``DecodeResult``, and the layout ``run_bp`` decodes on, is compared byte for
byte over a sweep of seeds, loads and block lengths.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from _oracles import (
    as_llr,
    check_update_plain,
    maj_group_update_plain,
    observed_groups_plain,
    run_bp_plain,
    run_bp_traced,
    subgraph,
    var_step_plain,
    var_step_recounted,
    xor_group_update_plain,
)
from gracecode.bp import (
    _MAJ_BLOCK,
    LLR_CLAMP,
    _check_update,
    _layout,
    _maj_group_update,
    _var_step,
    _xor_group_update,
    run_bp,
)
from gracecode.channels import ERASED, ChannelParam, ReceivedWord, transmit
from gracecode.ensemble import (
    MAJ,
    PARITY,
    CheckKind,
    DegreeProfile,
    EnsembleSpec,
    FactorGraph,
    _check_observations,
    encode,
    parse_profile,
    sample_graph,
)

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
NO_CODES = np.empty(0, dtype=np.uint8)  # the codes of a step whose messages are all floats


def _repetition(k: int) -> FactorGraph:
    """Every variable observed twice through MAJ:1 (identity) checks, as in
    ``test_acceptance.py::test_criterion_3_repetition_law``."""
    return FactorGraph.from_checks(k=k, checks=tuple((CheckKind.maj(1), (i,)) for i in range(k)) * 2)


def _assert_same(got, want):
    """Two (``DecodeResult``, soft-information trace) pairs hold the same bits."""
    (got, got_soft), (want, want_soft) = got, want
    assert got.failed == want.failed
    assert got.beliefs.iteration == want.beliefs.iteration
    pairs = {"ber_trace": (got.ber_trace, want.ber_trace), "soft trace": (got_soft, want_soft), "hard": (got.hard, want.hard)}
    for field, (a, b) in pairs.items():
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.beliefs.p0.tobytes() == want.beliefs.p0.tobytes()
    assert got.soft_info == want.soft_info == want_soft[-1]


def _assert_same_layout(graph, received):
    """``_layout`` against the groups of the observed sub-graph, with the
    clamps and the plan built from them as ``run_bp`` built them on float
    messages; the clamps and the parity slices index the codes past edge m."""
    obs, evar_old, groups = observed_groups_plain(graph, received)
    evar, c2v_code, plan, m = _layout(graph, obs)
    assert evar.dtype == evar_old.dtype and evar.tobytes() == evar_old.tobytes()
    c2v_old = np.zeros(evar_old.shape[0])
    plan_old = []
    for (kind, d), (blk, bits) in groups.items():
        if d == 1:
            c2v_old[blk] = np.where(bits == 0, np.inf, -np.inf)
        else:
            plan_old.append((blk, (d, bits.shape[0]), bits, np.where(bits == 1, -1.0, 1.0) if kind == MAJ else None))
    assert m == sum(blk.stop - blk.start for (kind, _), (blk, _) in groups.items() if kind == MAJ)
    assert np.concatenate([np.zeros(m), as_llr(c2v_code)]).tobytes() == c2v_old.tobytes()
    assert len(plan) == len(plan_old)
    for (blk, shape, bits, sign), (blk_old, shape_old, bits_old, sign_old) in zip(plan, plan_old):
        lo = 0 if sign_old is not None else m
        assert blk == slice(blk_old.start - lo, blk_old.stop - lo) and shape == shape_old
        assert bits.dtype == bits_old.dtype and bits.tobytes() == bits_old.tobytes()
        assert (sign is None) == (sign_old is None)
        assert sign is None or sign.tobytes() == sign_old.tobytes()


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
    coded = encode(subgraph(graph, graph.kind != PARITY), source)
    received = transmit(coded, ChannelParam.bec(eps), rng)
    _assert_same_layout(graph, received)
    _assert_same(run_bp_traced(graph, received, iters), run_bp_plain(graph, received, iters))


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


def _codes(rng, n, certain=0.3):
    """Certainty codes, certain 0 and 1 each at ``certain`` / 2."""
    pick = rng.random(n)
    return np.select([pick < certain / 2, pick < certain], [1, 2], 0).astype(np.uint8)


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
    p0, flag = _var_step(evar, c2v, NO_CODES, k, lam, NO_CODES)
    p0_plain, flag_plain = var_step_plain(evar, c2v, k, lam_plain)
    assert flag and flag == flag_plain
    assert p0.tobytes() == p0_plain.tobytes() and lam.tobytes() == lam_plain.tobytes()
    assert p0[0] == 1.0 and p0[1] == 0.0
    assert (lam[evar == 1] == -np.inf).all()
    # without infinite messages the step skips the certainty bookkeeping
    finite = np.where(np.isinf(c2v), 1.5, c2v)
    p0, flag = _var_step(evar, finite, NO_CODES, k, lam, NO_CODES)
    p0_plain, flag_plain = var_step_plain(evar, finite, k, lam_plain)
    assert not flag and not flag_plain
    assert p0.tobytes() == p0_plain.tobytes() and lam.tobytes() == lam_plain.tobytes()


def _flipped(graph, received, rng, share):
    """``received`` with ``share`` of the observed symbols of its checks of
    arity > 1 read flipped: with certain messages about, BP then meets
    contradictions."""
    symbols = received.symbols.copy()
    arity = graph.flat[3][graph.kind != PARITY]
    symbols[(arity > 1) & (symbols != ERASED) & (rng.random(symbols.shape[0]) < share)] ^= 1
    return ReceivedWord(symbols, received.channel)


# decodes for the kept-state variable step: the sim-mixed profile, a
# MAJ/XOR/PARITY mix, a systematic graph (a MAJ1 prefix) and systematic
# ldmc5, each trial once as sent and once with 0.2% of its observations read
# flipped; 5 to 9 of the 12 flipped trials of each graph stop on a
# contradiction (5 of 24 ldmc5 trials)
STEP_GRAPHS = {
    "mixed": PROFILES["mixed"],
    "parity": PROFILES["parity"],
    "ldmc3-systematic": PROFILES["ldmc3-systematic"],
    "ldmc5-systematic": (PROFILES["ldmc5"][0], True),
}


def _step_trials(name, k=2000):
    """The (graph, received) trials of ``STEP_GRAPHS[name]`` over the seeds
    and loads of the sweep above, each as sent and with flipped symbols."""
    profile, systematic = STEP_GRAPHS[name]
    spec = EnsembleSpec(k=k, rate=RATE, profile=profile, systematic=systematic)
    for seed in SEEDS:
        for alpha in ALPHAS:
            graph = sample_graph(spec, np.random.default_rng([seed, int(round(alpha * 1e9)), 0]))
            rng = np.random.default_rng([seed, int(round(alpha * 1e9)), 1])
            source = _source(graph, rng)
            eps = min(max(1.0 - alpha * RATE, 0.0), 1.0)
            received = transmit(encode(subgraph(graph, graph.kind != PARITY), source), ChannelParam.bec(eps), rng)
            yield graph, received
            yield graph, _flipped(graph, received, rng, 0.002)


def _assert_same_lam(lam, lam_code, want):
    """Majority-edge messages ``lam`` bit for bit; on the other edges, whose
    codes ``lam_code`` carry only the certain part, whether each is certain
    and of which sign."""
    m = lam.shape[0]
    assert lam.tobytes() == want[:m].tobytes()
    inf = np.isinf(want[m:])
    got = as_llr(lam_code)
    assert np.array_equal(np.isinf(got), inf)
    assert np.array_equal(got[inf], want[m:][inf])


@pytest.mark.parametrize("name", sorted(STEP_GRAPHS))
def test_kept_state_variable_step_matches_the_recounted_one(name):
    # two whole decodes in lockstep, one with the variable step that keeps
    # its state and code messages, one with the step that recounted every
    # edge on every call and the mask-based check update, on floats alone
    failed = 0
    for graph, received in _step_trials(name):
        _, _, groups = observed_groups_plain(graph, received)
        evar, c2v_code, plan, m = _layout(graph, _check_observations(graph, received))
        c2v, lam, lam_code = np.zeros(m), np.empty(m), np.empty_like(c2v_code)
        c2v_old = np.concatenate([c2v, as_llr(c2v_code)])
        lam_old = np.empty(evar.shape[0])
        buf, buf_old = {}, {"idx": lam_old}
        for t in range(11):
            bad = t > 0 and _check_update(plan, lam, c2v, lam_code, c2v_code)
            assert bad == (t > 0 and check_update_plain(groups, lam_old, c2v_old))
            assert np.concatenate([c2v, as_llr(c2v_code)]).tobytes() == c2v_old.tobytes()
            out, out_old = (lam, lam_old) if t < 10 else (None, None)
            p0, flag = _var_step(evar, c2v, c2v_code, graph.k, out, lam_code, buf)
            p0_old, flag_old = var_step_recounted(evar, c2v_old, graph.k, out_old, buf_old)
            assert flag == flag_old and p0.tobytes() == p0_old.tobytes(), t
            if out is not None:
                _assert_same_lam(lam, lam_code, lam_old)
            if bad or flag:
                failed += 1
                break
    assert 0 < failed < len(SEEDS) * len(ALPHAS)


@pytest.mark.parametrize("seed", range(3))
def test_kept_state_variable_step_on_messages_that_revert_and_flip(seed):
    # run_bp never feeds the step a certain message that goes back to finite
    # or flips sign, but its counts follow such a change as they follow any
    # other: here calls on arbitrary messages, floats on edges [0, m) and
    # codes on [m, n), against the recounting step called afresh on floats
    rng = np.random.default_rng(seed)
    k, n, m = 300, 3000, 1800
    evar = rng.integers(0, k, size=n)
    lam, lam_code, lam_old = np.empty(m), np.empty(n - m, dtype=np.uint8), np.empty(n)
    buf = {}
    c2v, code = _messages(rng, m, certain=0.0), np.zeros(n - m, dtype=np.uint8)
    changed = 0
    for step in range(12):
        p0, flag = _var_step(evar, c2v, code, k, lam, lam_code, buf)
        p0_old, flag_old = var_step_recounted(evar, np.concatenate([c2v, as_llr(code)]), k, lam_old)
        assert flag == flag_old and p0.tobytes() == p0_old.tobytes(), step
        _assert_same_lam(lam, lam_code, lam_old)
        # some messages turn certain; every third call some certain ones
        # revert to unsure or flip sign
        turn = rng.random(n) < 0.02 * (step + 1)
        c2v = np.where(turn[:m] & ~np.isinf(c2v), _messages(rng, m, certain=0.3), c2v)
        code = np.where(turn[m:] & (code == 0), _codes(rng, n - m, certain=0.3), code).astype(np.uint8)
        if step % 3 == 2:
            back = rng.random(n) < 0.05
            flip = rng.random(n) < 0.5
            back_f, back_c = back[:m] & np.isinf(c2v), back[m:] & (code > 0)
            c2v[back_f] = np.where(flip[:m], -c2v, 0.5)[back_f]
            code[back_c] = np.where(flip[m:], 3 - code, 0)[back_c]  # 1 and 2 swap
            changed += back_f.any() or back_c.any()
    assert changed == 4 and flag  # the last calls see variables certain of both values


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 9, 300])
@pytest.mark.parametrize("certain", [0.0, 0.3, 0.9])
def test_group_kernels_match_mask_versions(d, certain):
    # at d = 300, checks with 256 or 257 unsure neighbors wrap a byte count
    rng = np.random.default_rng(d * 10 + int(certain * 10))
    C = 400 if d < 100 else 40
    lam = _messages(rng, d * C, certain).reshape(d, C)
    obs = rng.integers(0, 2, size=C).astype(np.int8)
    code = _codes(rng, d * C, certain).reshape(d, C)
    if d == 300:
        code[:, :20] = np.where(rng.random((d, 20)) < 0.5, 1, 2)
        code[0, 5:10] = 0  # one unsure neighbor: certain messages to it only
        code[:256, 10:15] = 0
        code[:257, 15:20] = 0
    out, out_plain = np.empty((d, C), dtype=np.uint8), np.empty((d, C))
    _xor_group_update(code, obs, out)
    xor_group_update_plain(as_llr(code), obs, out_plain)
    assert as_llr(out).tobytes() == out_plain.tobytes()
    out = np.empty((d, C))
    if d % 2 == 1 and d < 100:
        flag = _maj_group_update(lam, obs, out)
        flag_plain = maj_group_update_plain(lam, obs, out_plain)
        assert flag == flag_plain and out.tobytes() == out_plain.tobytes()



@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("where", ["none", "edge", "inner", "tail"])
def test_majority_update_across_column_blocks(d, where):
    # 2.5 blocks of the majority update (the last one ragged), the MAJ3 and
    # MAJ5 closed forms and the MAJ7 count sweep alike: block 0 holds no
    # certain message, blocks 1 and 2 hold +/-inf messages on both sides of
    # their shared edge, at most thr certain ones (s = -inf) per column; a
    # column is made a contradiction on both sides of that edge ("edge"),
    # inside block 1 only ("inner"), in the last column only ("tail") or
    # nowhere ("none")
    B = _MAJ_BLOCK
    C = 2 * B + B // 2 + 37
    thr = (d - 1) // 2
    rng = np.random.default_rng([d, len(where)])
    lam = _messages(rng, d * C, 0.0).reshape(d, C)
    lam[:, B:] = _messages(rng, d * (C - B), 0.3).reshape(d, C - B)
    obs = rng.integers(0, 2, size=C).astype(np.int8)
    ones = lam == np.where(obs == 0, -np.inf, np.inf)  # certain of the value the observation rules out
    lam[:, ones.sum(axis=0) > thr] = 0.5
    bad = {"none": [], "edge": [2 * B - 1, 2 * B], "inner": [B + 5], "tail": [C - 1]}[where]
    lam[:, bad] = np.where(obs[bad] == 0, -np.inf, np.inf)
    assert not np.isinf(lam[:, :B]).any() and np.isinf(lam[:, B : B + 2 * d]).any()
    assert np.isinf(lam[:, 2 * B - 2 * d : 2 * B]).any() and np.isinf(lam[:, 2 * B : 2 * B + 2 * d]).any()
    out, out_plain = np.empty((d, C)), np.empty((d, C))
    flag = _maj_group_update(lam, obs, out)
    flag_plain = maj_group_update_plain(lam, obs, out_plain)
    assert flag == flag_plain == (where != "none")
    assert out.tobytes() == out_plain.tobytes()
    assert np.isinf(out[:, B:]).any()

# SHA-256 over beliefs.p0, hard, ber_trace, the soft-information trace (taken
# through the observe hook) and failed of one
# 10-iteration decode of a k = 1e5, rate 0.5 trial, seeded as the CLI seeds
# `simulate --seed 41` trial 0 at each load
FULL_SIZE_DIGESTS = {
    ("sim-mixed", 0.5): "c94c1d255ba85c45719d818f152c4dc154b4573832077acca12bbab0432c9df5",
    ("sim-mixed", 1.0): "54e09a1559b29637b9818601717af22056cb1e4188da0822527627f41e0b7a93",
    ("sim-mixed", 1.5): "aa2ed7f843823bb9c30fc7d09676479310cc75ebd02239b1d9371111f36a717b",
    ("ldmc5", 0.5): "2c830e305d0737559d8d6296639929b4c421a1644c9d72b5fb8ac33993edf5d6",
    ("ldmc5", 1.0): "3c25034635a7b9c08ad2faf855587a5a43135098c82efa24104501ccac24214a",
    ("ldmc5", 1.5): "9a0a85597e26477f9099f412ee178928d2b039301fc8d3dfbe854dcb6bb3ef7c",
}


@pytest.mark.parametrize("name", ["sim-mixed", "ldmc5"])
def test_run_bp_bits_at_full_size_are_pinned(name):
    # the k = 1e5 decodes of the simulate benchmark, where every majority
    # group spans many column blocks of the check update
    profile = PROFILES["mixed" if name == "sim-mixed" else name][0]
    spec = EnsembleSpec(k=100_000, rate=RATE, profile=profile)
    for alpha in ALPHAS:
        rng = np.random.default_rng([41, int(round(alpha * 1e9)), 0])
        graph = sample_graph(spec, rng)
        source = rng.integers(0, 2, size=spec.k).astype(np.int8)
        eps = min(max(1.0 - alpha * RATE, 0.0), 1.0)
        result, soft_trace = run_bp_traced(graph, transmit(encode(graph, source), ChannelParam.bec(eps), rng), 10)
        assert result.soft_info == soft_trace[-1]
        digest = hashlib.sha256()
        for a in (result.beliefs.p0, result.hard, result.ber_trace, soft_trace, np.array([result.failed])):
            digest.update(a.tobytes())
        assert digest.hexdigest() == FULL_SIZE_DIGESTS[name, alpha], alpha
