"""Belief propagation: message semantics, tree exactness, traces."""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

from _oracles import as_llr, brute_force_marginals, check_message, observed_degrees, subgraph
from gracecode.bp import (
    LLR_CLAMP,
    _check_update,
    _layout,
    _maj_group_update,
    _obs_sign,
    _var_step,
    _xor_group_update,
    measure,
    run_bp,
)
from gracecode.channels import ERASED, ChannelParam, ReceivedWord, h_b, transmit
from gracecode.ensemble import (
    MAJ,
    PARITY,
    XOR,
    CheckKind,
    DegreeProfile,
    EnsembleSpec,
    FactorGraph,
    _check_observations,
    encode,
    parse_profile,
    sample_graph,
)
from gracecode.exactdec import ContradictionError

MAJ1, MAJ3, MAJ5 = CheckKind.maj(1), CheckKind.maj(3), CheckKind.maj(5)
NO_CODES = np.empty(0, dtype=np.uint8)  # the codes of a step whose messages are all floats


def test_check_message_examples_maj3():
    # observed 0, neighbors uninformative: P(T<=1)/P(T<=0) = (3/4)/(1/4) = 3
    assert abs(check_message(MAJ3, 0, [1.0, 1.0]) - 3.0) < 1e-12
    # one neighbor certainly 0: (1/2 + 1/2*1/2) / (1/2) = ... = 2
    assert abs(check_message(MAJ3, 0, [np.inf, 1.0]) - 2.0) < 1e-12
    # erased observation carries no information
    assert check_message(MAJ3, ERASED, [1.0, 1.0]) == 1.0
    # observed 1 mirrors observed 0
    assert abs(check_message(MAJ3, 1, [1.0, 1.0]) - 1.0 / 3.0) < 1e-12


def test_check_message_maj_contradiction():
    # both other inputs certainly 1 and output observed 0: impossible
    with pytest.raises(ContradictionError):
        check_message(MAJ3, 0, [0.0, 0.0])


def test_check_message_xor():
    xor3 = CheckKind.xor(3)
    # any uncertain neighbor: uninformative
    assert check_message(xor3, 0, [np.inf, 2.0]) == 1.0
    # all certain: parity resolves the target
    assert check_message(xor3, 0, [np.inf, np.inf]) == np.inf  # 0+0+t=0 -> t=0
    assert check_message(xor3, 0, [0.0, np.inf]) == 0.0  # 1+0+t=0 -> t=1
    assert check_message(xor3, 1, [0.0, np.inf]) == np.inf


def test_check_message_exact_for_finite_ratios():
    # float products of these ratios underflow; the rational count DP is exact
    assert check_message(MAJ5, 0, [1e-200] * 4) == pytest.approx(1.5e200, rel=1e-15)
    assert check_message(MAJ3, 0, [1e-20, 1.0]) == pytest.approx(1e20, rel=1e-15)
    assert check_message(MAJ3, 1, [1e300, 1e300]) == pytest.approx(5e-301, rel=1e-15)
    # finite ratios give a finite, nonzero message even beyond the float range
    assert check_message(MAJ3, 0, [5e-324, 5e-324]) == sys.float_info.max
    assert 0.0 < check_message(MAJ5, 1, [sys.float_info.max] * 4) < 1e-300
    # 0 and inf come only from certain inputs
    assert check_message(MAJ5, 0, [0.0, 0.0, 1e-300, 1e300]) == np.inf
    assert check_message(MAJ5, 1, [np.inf, np.inf, 1e-300, 1e300]) == 0.0
    with pytest.raises(ContradictionError):
        check_message(MAJ5, 0, [0.0, 0.0, 0.0, 1e300])


def test_check_message_validation():
    with pytest.raises(ValueError):
        check_message(MAJ3, 0, [1.0])
    with pytest.raises(ValueError):
        check_message(MAJ3, 0, [-1.0, 1.0])


def _by_rows(update, lam, per_check):
    """Run a group kernel, which reads and writes (d, C) blocks of one
    dtype, on C rows; ``per_check`` is its per-check argument (the XOR
    observations, the majority signs)."""
    out = np.empty(lam.shape[::-1], dtype=lam.dtype)
    flag = update(np.ascontiguousarray(lam.T), per_check, out)
    return out.T, flag


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
@pytest.mark.parametrize("observed", [0, 1])
def test_maj_kernel_matches_check_message(d, observed):
    # incoming LLRs mix certainty (+/-inf), no information (0), |llr| <= 3 and
    # |llr| up to LLR_CLAMP, where probability products underflow; the share
    # of -inf varies by row so that some rows contradict an observed 0.  The
    # reference is exact, so the kernel must match it to 1e-12 relative.
    rng = np.random.default_rng(100 * d + observed)
    C = 60
    lam = np.where(rng.random((C, d)) < 0.5, rng.uniform(-3.0, 3.0, (C, d)), rng.uniform(-LLR_CLAMP, LLR_CLAMP, (C, d)))
    pick = rng.random((C, d))
    neg = 0.2 + rng.uniform(0.0, 0.6, size=(C, 1))
    lam[pick < 0.1] = np.inf
    lam[(pick >= 0.1) & (pick < 0.2)] = 0.0
    lam[(pick >= 0.2) & (pick < neg)] = -np.inf
    if observed == 1:  # the mirror image contradicts on +inf instead
        lam = -lam
    obs = np.full(C, observed, dtype=np.int8)
    block, _ = _by_rows(_maj_group_update, lam, _obs_sign(obs))
    kind = CheckKind.maj(d)
    contradicted = 0
    for c in range(C):
        row, flag = _by_rows(_maj_group_update, lam[c : c + 1], _obs_sign(obs[c : c + 1]))
        assert np.array_equal(row, block[c : c + 1])
        raised = False
        for i in range(d):
            try:
                ref = check_message(kind, observed, np.exp(np.delete(lam[c], i)))
            except ContradictionError:
                raised = True
                assert block[c, i] == 0.0
                continue
            with np.errstate(divide="ignore"):
                llr = np.log(ref)
            if np.isinf(llr):
                assert block[c, i] == llr
            else:
                got, want = np.clip([block[c, i], llr], -LLR_CLAMP, LLR_CLAMP)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert flag == raised
        contradicted += raised
    if d >= 3:
        assert 0 < contradicted < C


@pytest.mark.parametrize(
    "check",
    [CheckKind.xor(d) for d in (1, 2, 3, 4, 6)] + [CheckKind.parity(d) for d in (2, 3, 4, 6)],
    ids=lambda ck: f"{ck.kind}{ck.arity}",
)
@pytest.mark.parametrize("observed", [0, 1])
def test_xor_kernel_matches_check_message(check, observed):
    # row c has c % (d + 1) unsure neighbors (code 0); the certain ones are
    # certain 0 or 1 at random, so the all-certain rows both satisfy and
    # contradict the observed parity
    d = check.arity
    rng = np.random.default_rng(10 * d + observed)
    C = 12 * (d + 1)
    code = np.where(rng.random((C, d)) < 0.5, 1, 2).astype(np.uint8)
    n_unsure = np.arange(C) % (d + 1)
    for c in range(C):
        code[c, rng.permutation(d)[: n_unsure[c]]] = 0
    obs = np.full(C, observed, dtype=np.int8)
    block, _ = _by_rows(_xor_group_update, code, obs)
    lam, block = as_llr(code), as_llr(block)
    parity_ok = (np.sum(lam == -np.inf, axis=1) + observed) % 2 == 0
    assert parity_ok[n_unsure == 0].any() and not parity_ok[n_unsure == 0].all()
    for c in range(C):
        for i in range(d):
            ratio = check_message(check, observed, np.exp(np.delete(lam[c], i)))
            with np.errstate(divide="ignore"):
                assert block[c, i] == np.log(ratio)


def test_layout_partitions_active_checks():
    profile = parse_profile("MAJ 1 0.1\nMAJ 3 0.3\nXOR 3 0.3\nXOR 1 0.2\nPARITY 4 0.1\n")
    graph = sample_graph(EnsembleSpec(k=400, rate=0.5, profile=profile, seed=3))
    ptr, evar, kind, arity = graph.flat
    obs = (np.arange(graph.n_checks) % 3 - 1).astype(np.int8)  # every third check erased
    active = obs != ERASED
    evar_g, c2v_code, plan, m = _layout(graph, obs)
    # the (kind, d) groups in key order; MAJ1 and XOR1 are one clamp group,
    # keyed as XOR1, the others are planned, with a majority sign for MAJ3 only
    groups = [((MAJ,), 3), ((MAJ, XOR), 1), ((XOR,), 3), ((PARITY,), 4)]
    assert [(shape[0], sign is not None) for _, shape, _, sign in plan] == [(3, True), (3, False), (4, False)]
    # the slices tile the edge arrays in key order; row i of a group's (d, C)
    # block holds the i-th edge of each of its active checks, in check order.
    # The slices past the majority edges [0, m) index the code arrays
    stop = 0
    blocks = iter(plan)
    for kinds, d in groups:
        sel = np.nonzero(active & np.isin(kind, kinds) & (arity == d))[0]
        assert sel.shape[0] > 0
        lo = 0 if kinds == (MAJ,) else m
        if d == 1:
            blk = slice(stop - lo, stop - lo + sel.shape[0])
            assert np.array_equal(as_llr(c2v_code[blk]), np.where(obs[sel] == 0, np.inf, -np.inf))
            assert set(kind[sel].tolist()) == {MAJ, XOR}  # both clamp kinds carry codes
            obs_g = obs[sel]
        else:
            blk, shape, obs_g, _ = next(blocks)
            assert shape == (d, sel.shape[0])
            assert lo == 0 or not c2v_code[blk].any()
        assert blk.start + lo == stop and blk.stop - blk.start == d * sel.shape[0]
        stop = blk.stop + lo
        want = evar[ptr[sel][None, :] + np.arange(d)[:, None]]
        assert np.array_equal(evar_g[lo:][blk].reshape(d, -1), want)
        assert np.array_equal(obs_g, obs[sel])
    assert stop == arity[active].sum() == evar_g.shape[0] == m + c2v_code.shape[0] < ptr[-1]
    # the MAJ3 edges come first, and [0, m) holds no other edge
    assert m == plan[0][0].stop == 3 * np.count_nonzero(active & (kind == MAJ) & (arity >= 3))
    none = np.full(graph.n_checks, ERASED, dtype=np.int8)
    evar_g, c2v_code, plan, m = _layout(graph, none)
    assert plan == [] and evar_g.shape == c2v_code.shape == (0,) and m == 0


def test_layout_of_interleaved_partly_erased_checks():
    xor1, xor3 = CheckKind.xor(1), CheckKind.xor(3)
    checks = [
        (MAJ3, (0, 1, 2)),  # 0: 1
        (xor1, (3,)),  # 1: 0
        (MAJ5, (4, 5, 6, 7, 8)),  # 2: erased
        (xor3, (9, 0, 1)),  # 3: 1
        (CheckKind.parity(2), (2, 3)),  # 4: not emitted, observed 0
        (MAJ3, (5, 6, 7)),  # 5: erased
        (xor1, (8,)),  # 6: 1
        (MAJ5, (9, 8, 7, 6, 5)),  # 7: 0
        (xor3, (4, 3, 2)),  # 8: erased
        (MAJ3, (1, 3, 5)),  # 9: 0
        (xor1, (7,)),  # 10: erased
        (MAJ5, (0, 2, 4, 6, 8)),  # 11: 1
        (xor3, (1, 4, 7)),  # 12: 0
        (xor1, (9,)),  # 13: 1
    ]
    graph = FactorGraph.from_checks(k=10, checks=checks)
    symbols = [1, 0, ERASED, 1, ERASED, 1, 0, ERASED, 0, ERASED, 1, 0, 1]  # checks 0-3 and 5-13
    obs = _check_observations(graph, ReceivedWord(np.array(symbols, dtype=np.int8), ChannelParam.bec(0.5)))
    evar, c2v_code, plan, m = _layout(graph, obs)
    # (kind, d) order, each group a row-major (d, C) block of its observed
    # checks in check order: MAJ3 (0, 9), MAJ5 (7, 11), XOR1 (1, 6, 13),
    # XOR3 (3, 12), PARITY2 (4)
    assert evar.tolist() == [
        *(0, 1, 1, 3, 2, 5),
        *(9, 0, 8, 2, 7, 4, 6, 6, 5, 8),
        *(3, 8, 9),
        *(9, 1, 0, 4, 1, 7),
        *(2, 3),
    ]
    # the XOR1 group is clamped by its observations 0, 1, 1 and left out of
    # the plan; its codes, and the XOR3 and PARITY2 slices, start at edge m
    want = np.zeros(27)
    want[16:19] = [np.inf, -np.inf, -np.inf]
    assert as_llr(c2v_code).tobytes() == want[m:].tobytes()
    got = [(blk, shape, bits.tolist(), None if sign is None else sign.tolist()) for blk, shape, bits, sign in plan]
    assert got == [
        (slice(0, 6), (3, 2), [1, 0], [-1.0, 1.0]),
        (slice(6, 16), (5, 2), [0, 1], [1.0, -1.0]),
        (slice(19 - 16, 25 - 16), (3, 2), [1, 0], None),
        (slice(25 - 16, 27 - 16), (2, 1), [0], None),
    ]
    assert m == 16  # the MAJ3 and MAJ5 edges
    # the plan's blocks read the same edges as the (d, C) views _check_update takes
    assert evar[plan[1][0]].reshape(plan[1][1])[:, 1].tolist() == [0, 2, 4, 6, 8]


@pytest.mark.parametrize("seed", range(4))
def test_var_step_matches_per_variable_sums(seed):
    rng = np.random.default_rng(seed)
    k = 300
    evar = rng.integers(0, k, size=1500)  # degrees 0 to about 15
    # messages: certain 0 or 1, uninformative, small and up to the clamp
    pick = rng.choice(5, size=evar.shape[0], p=[0.04, 0.04, 0.12, 0.4, 0.4])
    c2v = np.select(
        [pick == 0, pick == 1, pick == 2, pick == 3],
        [np.inf, -np.inf, 0.0, rng.uniform(-3.0, 3.0, evar.shape[0])],
        rng.uniform(-LLR_CLAMP, LLR_CLAMP, evar.shape[0]),
    )
    lam = np.full(evar.shape[0], np.nan)
    p0, flag = _var_step(evar, c2v, NO_CODES, k, lam, NO_CODES.copy())
    p0_only, flag_only = _var_step(evar, c2v, NO_CODES, k)
    assert np.array_equal(p0, p0_only) and flag == flag_only
    both = 0
    for v in range(k):
        edges = np.nonzero(evar == v)[0]
        msgs = c2v[edges]
        pos, neg = np.isposinf(msgs), np.isneginf(msgs)
        if pos.any() and neg.any():
            both += 1
            assert p0[v] in (0.0, 1.0)
            continue
        total = np.clip(sum(msgs[~pos & ~neg].tolist(), 0.0), -LLR_CLAMP, LLR_CLAMP)
        want = 1.0 if pos.any() else 0.0 if neg.any() else 1.0 / (1.0 + np.exp(-total))
        assert p0[v] == want  # the same sum, in edge order
        for j, e in enumerate(edges):
            others = np.delete(msgs, j)
            if np.isposinf(others).any():
                assert lam[e] == np.inf
            elif np.isneginf(others).any():
                assert lam[e] == -np.inf
            else:
                # leave-one-out by subtraction from the total: the rounding
                # error is a few ulps of the variable's summed magnitudes
                scale = 1e-13 * (1.0 + np.abs(msgs[np.isfinite(msgs)]).sum())
                rest = np.clip(sum(others.tolist(), 0.0), -LLR_CLAMP, LLR_CLAMP)
                assert abs(lam[e] - rest) <= scale
    assert flag and 0 < both < k // 10
    # p0 is 1/2 exactly without messages, and a single +/-inf pair flags
    p0, flag = _var_step(np.array([1, 1, 2]), np.array([np.inf, -np.inf, 0.0]), NO_CODES, 3)
    assert flag and p0[0] == 0.5 and p0[2] == 0.5


INVARIANT_GRAPHS = {
    "sim-mixed": ("MAJ 3 0.5\nXOR 3 0.25\nXOR 1 0.25\n", False),
    "parity": ("MAJ 3 0.45\nXOR 3 0.3\nXOR 1 0.2\nPARITY 4 0.05\n", False),
    "ldmc5-systematic": ("MAJ 5 1\n", True),
}


@pytest.mark.parametrize("name", sorted(INVARIANT_GRAPHS))
def test_certain_check_messages_keep_their_value(name):
    # a property of BP, which the variable step's counts do not rely on: a
    # +/-inf check-to-variable message keeps its value once sent.  Decodes
    # driven as run_bp drives them, k = 2000; every other
    # trial reads 0.2% of its observations of arity > 1 flipped, and on the
    # PARITY graph the random source leaves checks unmet, so trials stop on
    # a contradiction too, the iteration in which a contradicted majority
    # check sends 0.  Not one certain message changed there either.
    text, systematic = INVARIANT_GRAPHS[name]
    spec = EnsembleSpec(k=2000, rate=0.5, profile=parse_profile(text), systematic=systematic)
    failed = 0
    for seed in range(4):
        for alpha in (0.5, 1.0, 1.5):
            rng = np.random.default_rng([seed, int(round(alpha * 1e9)), 0])
            graph = sample_graph(spec, rng)
            source = rng.integers(0, 2, size=spec.k).astype(np.int8)
            sent = encode(subgraph(graph, graph.kind != PARITY), source)
            received = transmit(sent, ChannelParam.bec(1.0 - alpha * 0.5), rng)
            symbols = received.symbols.copy()
            if seed % 2:
                arity = graph.flat[3][graph.kind != PARITY]
                symbols[(arity > 1) & (symbols != ERASED) & (rng.random(symbols.shape[0]) < 0.002)] ^= 1
            obs = _check_observations(graph, ReceivedWord(symbols, received.channel))
            evar, c2v_code, plan, m = _layout(graph, obs)
            c2v, lam, lam_code, buf = np.zeros(m), np.empty(m), np.empty_like(c2v_code), {}
            msgs = np.concatenate([c2v, as_llr(c2v_code)])
            certain = np.isinf(msgs)
            value = msgs[certain]
            for t in range(11):
                bad = t > 0 and _check_update(plan, lam, c2v, lam_code, c2v_code)
                msgs = np.concatenate([c2v, as_llr(c2v_code)])
                assert msgs[certain].tobytes() == value.tobytes(), (seed, alpha, t)
                certain = np.isinf(msgs)
                value = msgs[certain]
                _, contradiction = _var_step(evar, c2v, c2v_code, graph.k, lam, lam_code, buf)
                if bad or contradiction:
                    failed += 1
                    break
            assert certain.any()
    assert failed


def test_run_bp_without_active_checks():
    # eps = 1 erases every emitted bit: no check is active, yet iterations run
    spec = EnsembleSpec(k=50, rate=0.5, profile=DegreeProfile.single(MAJ3), seed=1)
    graph = sample_graph(spec)
    rng = np.random.default_rng(0)
    received = transmit(encode(graph, np.zeros(50, dtype=np.int8)), ChannelParam.bec(1.0), rng)
    result = run_bp(graph, received, 3)
    assert not result.failed
    assert result.beliefs.iteration == 3
    assert np.all(result.beliefs.p0 == 0.5)
    assert np.all(result.ber_trace == 0.5) and result.ber_trace.shape == (4,)


def test_run_bp_ldmc5_never_fails():
    # pure ldmc5 has no arity-1 check, so no message is ever certain and no
    # trial may stop on a contradiction; seeded as the CLI seeds its trials
    spec = EnsembleSpec(k=2000, rate=0.5, profile=DegreeProfile.single(MAJ5))
    for alpha in (0.5, 0.75, 1.0, 1.25, 1.5):
        for seed in range(20):
            rng = np.random.default_rng([seed, int(round(alpha * 1e9)), 0])
            graph = sample_graph(spec, rng)
            source = rng.integers(0, 2, size=spec.k).astype(np.int8)
            received = transmit(encode(graph, source), ChannelParam.bec(1.0 - alpha * spec.rate), rng)
            result = run_bp(graph, received, 10)
            assert not result.failed, (seed, alpha)


def _tree_graph_maj3():
    """Star around variable 0: three MAJ(3) checks with fresh leaves, plus
    identity checks on some leaves."""
    checks = (
        (MAJ3, (0, 1, 2)),
        (MAJ3, (0, 3, 4)),
        (MAJ3, (0, 5, 6)),
        (MAJ1, (1,)),
        (MAJ1, (3,)),
        (MAJ1, (5,)),
        (MAJ1, (6,)),
    )
    return FactorGraph.from_checks(k=7, checks=checks)


def _assert_bp_equals_brute_force(graph, symbols, iters=6):
    received = ReceivedWord(np.asarray(symbols, dtype=np.int8), ChannelParam.bec(0.5))
    result = run_bp(graph, received, iters)
    exact = brute_force_marginals(graph, received)
    assert np.max(np.abs(result.beliefs.p0 - exact)) < 1e-9


def test_bp_exact_on_maj3_tree():
    graph = _tree_graph_maj3()
    # several observation patterns incl. erasures
    for symbols in (
        [0, 0, 0, 0, 0, 0, 0],
        [0, 0, ERASED, 1, 0, ERASED, 1],
        [1, ERASED, 0, ERASED, 1, 0, 0],
        [ERASED, ERASED, ERASED, 0, 1, 0, 1],
    ):
        _assert_bp_equals_brute_force(graph, symbols)


def test_bp_exact_on_maj5_tree():
    checks = (
        (MAJ5, (0, 1, 2, 3, 4)),
        (MAJ5, (0, 5, 6, 7, 8)),
        (MAJ1, (1,)),
        (MAJ1, (2,)),
        (MAJ1, (5,)),
    )
    graph = FactorGraph.from_checks(k=9, checks=checks)
    for symbols in (
        [0, 0, 1, 0, 1],
        [1, ERASED, 1, 1, ERASED],
        [ERASED, 0, 0, 1, 1],
    ):
        _assert_bp_equals_brute_force(graph, symbols)


def test_bp_exact_on_mixed_tree_with_xor():
    checks = (
        (CheckKind.xor(2), (0, 1)),
        (MAJ3, (0, 2, 3)),
        (MAJ1, (1,)),
        (MAJ1, (2,)),
    )
    graph = FactorGraph.from_checks(k=4, checks=checks)
    for symbols in ([0, 0, 1, 0], [1, 1, 0, ERASED], [0, ERASED, 1, 1]):
        _assert_bp_equals_brute_force(graph, symbols)


def test_bp_iteration_zero_semantics():
    graph = _tree_graph_maj3()
    received = ReceivedWord(
        np.array([0, 0, 0, 1, 0, ERASED, 1], dtype=np.int8), ChannelParam.bec(0.5)
    )
    result = run_bp(graph, received, 0)
    p0 = result.beliefs.p0
    # only identity-clamped variables deviate from 1/2 at iteration 0
    assert p0[1] == 0.0  # identity check on variable 1 observed 1
    assert p0[3] == 1.0  # identity check on variable 3 observed 0
    assert p0[5] == 0.5  # erased identity check
    assert p0[0] == 0.5
    assert result.ber_trace.shape == (1,)
    assert result.hard[0] == -1


def test_bp_trace_lengths_and_types():
    graph = _tree_graph_maj3()
    received = ReceivedWord(np.array([0, 0, 0, 0, 0, 0, 0], dtype=np.int8), ChannelParam.bec(0.5))
    seen = []
    result = run_bp(graph, received, 4, observe=lambda t, p0: seen.append(t))
    assert result.ber_trace.shape == (5,)
    assert seen == [0, 1, 2, 3, 4]
    assert isinstance(result.soft_info, float)
    assert not result.failed
    with pytest.raises(ValueError):
        run_bp(graph, received, -1)


def test_bp_pure_ldgm_stays_uninformative():
    prof = DegreeProfile.single(CheckKind.xor(3))
    spec = EnsembleSpec(k=50, rate=0.5, profile=prof, seed=3)
    graph = sample_graph(spec)
    rng = np.random.default_rng(1)
    src = rng.integers(0, 2, size=50).astype(np.int8)
    received = transmit(encode(graph, src), ChannelParam.bec(0.2), rng)
    result = run_bp(graph, received, 5)
    assert np.all(result.beliefs.p0 == 0.5)
    assert np.all(result.hard == -1)


def test_bp_deterministic():
    spec = EnsembleSpec(k=200, rate=0.5, profile=DegreeProfile.single(MAJ3), seed=5)
    graph = sample_graph(spec)
    rng = np.random.default_rng(2)
    src = rng.integers(0, 2, size=200).astype(np.int8)
    received = transmit(encode(graph, src), ChannelParam.bec(0.5), rng)
    a = run_bp(graph, received, 6)
    b = run_bp(graph, received, 6)
    assert np.array_equal(a.beliefs.p0, b.beliefs.p0)
    assert np.array_equal(a.ber_trace, b.ber_trace)


def test_bp_contradiction_flag():
    # two identity checks on the same variable with conflicting observations
    graph = FactorGraph.from_checks(k=1, checks=((MAJ1, (0,)), (MAJ1, (0,))))
    received = ReceivedWord(np.array([0, 1], dtype=np.int8), ChannelParam.bec(0.0))
    result = run_bp(graph, received, 2)
    assert result.failed


@pytest.mark.parametrize("first", ["MAJ1", "XOR1"])
def test_maj1_and_xor1_clamps_that_disagree_fail_at_iteration_0(first):
    # MAJ1 and XOR1 clamps share one group: a MAJ1 observing 0 and an XOR1
    # observing 1 on variable 1 contradict before any check update, in
    # either check order; observing the same bit, they agree
    clamps = [(MAJ1, (1,)), (CheckKind.xor(1), (1,))]
    checks = [(MAJ3, (0, 1, 2)), *(clamps if first == "MAJ1" else clamps[::-1])]
    graph = FactorGraph.from_checks(k=3, checks=checks)
    bits = [0, 0, 1] if first == "MAJ1" else [0, 1, 0]
    result = run_bp(graph, ReceivedWord(np.array(bits, dtype=np.int8), ChannelParam.bec(0.0)), 5)
    assert result.failed and result.beliefs.iteration == 0
    result = run_bp(graph, ReceivedWord(np.array([0, 0, 0], dtype=np.int8), ChannelParam.bec(0.0)), 5)
    assert not result.failed and result.beliefs.iteration == 5 and result.beliefs.p0[1] == 1.0


def test_simulation_path_keeps_graph_as_arrays():
    # the (CheckKind, indices) view is for small graphs; the simulate loop never builds it
    spec = EnsembleSpec(k=300, rate=0.5, profile=DegreeProfile.single(MAJ3), systematic=True, seed=2)
    graph = sample_graph(spec)
    rng = np.random.default_rng(0)
    src = rng.integers(0, 2, size=300).astype(np.int8)
    received = transmit(encode(graph, src), ChannelParam.bec(0.5), rng)
    measure(run_bp(graph, received, 3), src)
    assert "checks" not in vars(graph)


def test_run_bp_rejects_bsc():
    # BP models erasures only; a BSC word must not be decoded as noiseless
    graph = FactorGraph.from_checks(k=2, checks=((MAJ1, (0,)), (MAJ1, (1,))))
    received = ReceivedWord(np.array([0, 1], dtype=np.int8), ChannelParam.bsc(0.1))
    with pytest.raises(ValueError, match="BEC"):
        run_bp(graph, received, 2)


@pytest.mark.parametrize("iters", [-1, 2.5, 2.0, float("nan"), "3", True, False, None, np.float64(2.0)])
def test_run_bp_rejects_iters_that_are_not_integers_at_least_0(iters):
    graph = FactorGraph.from_checks(k=2, checks=((MAJ1, (0,)), (MAJ1, (1,))))
    received = ReceivedWord(np.array([0, 1], dtype=np.int8), ChannelParam.bec(0.5))
    with pytest.raises(ValueError, match="iters must be an integer >= 0"):
        run_bp(graph, received, iters)


@pytest.mark.parametrize("iters", [0, 3, np.int64(3), np.uint8(3)])
def test_run_bp_takes_python_and_numpy_integer_iters(iters):
    graph = FactorGraph.from_checks(k=2, checks=((MAJ1, (0,)), (MAJ1, (1,))))
    received = ReceivedWord(np.array([0, ERASED], dtype=np.int8), ChannelParam.bec(0.5))
    result = run_bp(graph, received, iters)
    assert result.beliefs.iteration == int(iters) and result.ber_trace.shape == (int(iters) + 1,)
    assert result.hard.tolist() == [0, -1]


def test_measure_and_histogram():
    graph = _tree_graph_maj3()
    received = ReceivedWord(np.array([0, 0, 0, 0, 0, 0, 0], dtype=np.int8), ChannelParam.bec(0.5))
    result = run_bp(graph, received, 4)
    ber, iota, hist = measure(result, np.zeros(7, dtype=np.int8), bins=10)
    assert 0.0 <= ber <= 0.5
    assert 0.0 <= iota <= 1.0
    assert hist.sum() == 7
    assert measure(result, np.zeros(7, dtype=np.int8)) == (ber, iota, None)  # no histogram unless asked for
    with pytest.raises(ValueError):
        measure(result, np.zeros(3, dtype=np.int8))


def test_measure_undecided_counts_half():
    graph = FactorGraph.from_checks(k=2, checks=((MAJ1, (0,)), (MAJ1, (1,))))
    received = ReceivedWord(np.array([1, ERASED], dtype=np.int8), ChannelParam.bec(0.5))
    result = run_bp(graph, received, 1)
    ber, _, _ = measure(result, np.array([1, 0], dtype=np.int8))
    assert ber == 0.25  # one exact bit, one undecided counting 1/2


def test_observed_degrees():
    graph = _tree_graph_maj3()
    received = ReceivedWord(
        np.array([0, ERASED, 0, 0, ERASED, 0, 1], dtype=np.int8), ChannelParam.bec(0.5)
    )
    deg = observed_degrees(graph, received)
    # active: checks 0, 2 (MAJ3) and identities on 1, 5, 6
    assert deg[0] == 2
    assert deg[1] == 2
    assert deg[3] == 0
    assert deg[5] == 2


@pytest.mark.parametrize(
    "profile, eps, bound_mb",
    [
        ("MAJ 3 0.5\nXOR 3 0.25\nXOR 1 0.25\n", 0.5, 18.0),
        ("MAJ 5 1\n", 0.5, 22.2),
        ("MAJ 3 0.5\nXOR 3 0.25\nXOR 1 0.25\n", 0.25, 24.0),
        ("MAJ 5 1\n", 0.25, 27.5),
        ("MAJ 7 1\n", 0.5, 34.0),
    ],
    ids=["sim-mixed", "ldmc5", "sim-mixed-eps0.25", "ldmc5-eps0.25", "maj7"],
)
def test_run_bp_peak_allocation_is_bounded(profile, eps, bound_mb):
    # the traced peak of one 10-iteration decode of a k = 1e5 trial at eps
    # 0.5 (alpha 1.0) and at eps 0.25 (alpha 1.5), the sweep's largest load:
    # 375k active sim-mixed edges, 750k ldmc5 edges; the per-edge work arrays
    # are made once per call, not per iteration, and the MAJ7 count sweep's
    # tables are made per column block, not per group
    spec = EnsembleSpec(k=100_000, rate=0.5, profile=parse_profile(profile))
    small = sample_graph(EnsembleSpec(k=200, rate=0.5, profile=spec.profile), np.random.default_rng(0))
    run_bp(small, transmit(encode(small, np.zeros(200, dtype=np.int8)), ChannelParam.bec(0.5), np.random.default_rng(0)), 2)
    rng = np.random.default_rng([7, int(round((1.0 - eps) / spec.rate * 1e9)), 0])
    graph = sample_graph(spec, rng)
    source = rng.integers(0, 2, size=spec.k).astype(np.int8)
    received = transmit(encode(graph, source), ChannelParam.bec(eps), rng)
    tracemalloc.start()
    try:
        run_bp(graph, received, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6, peak / 1e6


HOOK_PROFILES = {"ldmc5": "MAJ 5 1\n", "sim-mixed": "MAJ 3 0.5\nXOR 3 0.25\nXOR 1 0.25\n"}
HOOK_CASES = [(name, seed, alpha) for name in HOOK_PROFILES for seed in range(3) for alpha in (0.5, 1.0, 1.5)]


def _hook_trial(name, seed, alpha, k=2000):
    """A graph, source and received word seeded as the CLI seeds its trials."""
    spec = EnsembleSpec(k=k, rate=0.5, profile=parse_profile(HOOK_PROFILES[name]))
    rng = np.random.default_rng([seed, int(round(alpha * 1e9)), 0])
    graph = sample_graph(spec, rng)
    source = rng.integers(0, 2, size=k).astype(np.int8)
    received = transmit(encode(graph, source), ChannelParam.bec(min(max(1.0 - alpha * 0.5, 0.0), 1.0)), rng)
    return graph, source, received


def _truth_ber(p0, source):
    """``measure``'s BER of beliefs ``p0``: undecided (p0 = 1/2) counts 1/2."""
    hard = np.where(p0 > 0.5, 0, np.where(p0 < 0.5, 1, -1))
    return float(np.where(hard == -1, 0.5, (hard != source).astype(float)).mean())


@pytest.mark.parametrize("name, seed, alpha", HOOK_CASES)
def test_observe_gives_the_truth_ber_of_a_rerun_at_every_iteration(name, seed, alpha):
    # one 10-iteration run through the hook replaces eleven runs of 0..10
    # iterations: iteration t's beliefs are those of a run that stops at t
    graph, source, received = _hook_trial(name, seed, alpha)
    seen = {}
    result = run_bp(graph, received, 10, observe=lambda t, p0: seen.setdefault(t, _truth_ber(p0, source)))
    assert not result.failed and list(seen) == list(range(11))
    for t, ber in seen.items():
        assert ber == measure(run_bp(graph, received, t), source)[0], t


@pytest.mark.parametrize("name, seed, alpha", HOOK_CASES)
def test_observe_keeps_every_array_it_is_handed(name, seed, alpha):
    graph, _, received = _hook_trial(name, seed, alpha)
    kept, copies = [], []

    def observe(t, p0):
        assert t == len(kept)
        kept.append(p0)
        copies.append(p0.copy())

    result = run_bp(graph, received, 10, observe=observe)
    assert len(kept) == 11
    for i, a in enumerate(kept):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.25
        assert a.tobytes() == copies[i].tobytes()
        assert not any(np.shares_memory(a, b) for b in kept[i + 1 :])
    assert kept[-1].tobytes() == result.beliefs.p0.tobytes()
    assert result.ber_trace.tolist() == [float(np.minimum(p, 1.0 - p).mean()) for p in copies]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_observe_stops_with_a_failed_trial(seed, alpha):
    # 5% of the observed arity-2 and arity-3 checks read flipped: BP meets
    # the contradiction after one or two iterations, and the hook sees no
    # iteration that did not run
    graph, _, received = _hook_trial("sim-mixed", seed, alpha)
    rng = np.random.default_rng(seed)
    _, _, codes, arity = graph.flat
    symbols = received.symbols.copy()
    symbols[(arity[codes != PARITY] > 1) & (symbols != ERASED) & (rng.random(symbols.shape[0]) < 0.05)] ^= 1
    seen = []
    result = run_bp(graph, ReceivedWord(symbols, received.channel), 10, observe=lambda t, p0: seen.append(t))
    assert result.failed and 0 < result.beliefs.iteration < 10
    assert seen == list(range(result.beliefs.iteration + 1))
    assert result.ber_trace.shape == (len(seen),)


def test_default_run_computes_the_soft_information_once(monkeypatch):
    import gracecode.bp

    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return h_b(x)

    graph, _, received = _hook_trial("sim-mixed", 0, 1.0)
    want = run_bp(graph, received, 10)
    monkeypatch.setattr(gracecode.bp, "h_b", counted)
    result = run_bp(graph, received, 10)
    assert calls == [(graph.k,)]
    assert result.soft_info == want.soft_info == 1.0 - float(np.mean(h_b(result.beliefs.p0)))


def test_simulate_builds_no_histogram(tmp_path, monkeypatch):
    from gracecode.cli import main

    calls = []
    histogram = np.histogram
    monkeypatch.setattr(np, "histogram", lambda *a, **kw: calls.append(a) or histogram(*a, **kw))
    argv = ["--ensemble", "ldmc3", "--k", "300", "--rate", "0.5", "--bp-iters", "3", "--trials", "2"]
    assert main(["simulate", *argv, "--alpha-grid", "0.5:1.5:0.5", "--out", str(tmp_path / "sim.csv")]) == 0
    assert calls == []
    assert main(["histogram", *argv, "--alpha", "1.0", "--bins", "4", "--out", str(tmp_path / "hist.csv")]) == 0
    assert len(calls) == 2  # one per trial


def test_measure_rejects_truth_that_is_not_bits():
    graph = FactorGraph.from_checks(k=2, checks=((MAJ1, (0,)), (MAJ1, (1,))))
    result = run_bp(graph, ReceivedWord(np.array([0, 1], dtype=np.int8), ChannelParam.bec(0.5)), 1)
    for truth in ([0, 256], [7, 1], [0, -1], [0.5, 1]):
        # 256 must not wrap to 0, nor 7 count as an ordinary error
        with pytest.raises(ValueError, match="truth bits must be 0 or 1"):
            measure(result, np.array(truth))
    assert measure(result, np.array([0, 1]))[0] == 0.0
    assert measure(result, [True, False])[0] == 1.0


def test_run_bp_never_sees_a_symbol_it_does_not_model():
    # an observed 3 was once decoded as an observed 0, with failed=False
    with pytest.raises(ValueError, match="BEC symbols must be"):
        ReceivedWord(np.array([0, 3]), ChannelParam.bec(0.5))
