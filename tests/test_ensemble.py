"""Ensemble sampling, encoding, and serialization round-trips."""

from __future__ import annotations

import time

import numpy as np
import pytest

from _oracles import slow_encode
from gracecode.channels import ChannelParam, ReceivedWord, transmit
from gracecode.ensemble import (
    _MAX_CHECKS,
    CheckKind,
    ConstraintViolationError,
    DegreeProfile,
    EnsembleSpec,
    FactorGraph,
    InfeasibleSpecError,
    degree_stats,
    encode,
    observed_subgraph,
    parse_graph,
    parse_profile,
    sample_graph,
    serialize_graph,
    serialize_profile,
)

LDMC3 = DegreeProfile.single(CheckKind.maj(3))


def test_check_kind_validation():
    with pytest.raises(ValueError):
        CheckKind.maj(4)  # even majority
    with pytest.raises(ValueError):
        CheckKind("PARITY", 1)
    with pytest.raises(ValueError):
        CheckKind("FOO", 3)
    assert CheckKind.parity(2).emitted is False
    assert CheckKind.xor(2).emitted is True


def test_profile_validation():
    with pytest.raises(ValueError):
        DegreeProfile(((CheckKind.maj(3), 0.5),))  # does not sum to 1
    with pytest.raises(ValueError):
        DegreeProfile(((CheckKind.maj(3), -0.5), (CheckKind.xor(2), 1.5)))
    prof = DegreeProfile(((CheckKind.maj(3), 0.25), (CheckKind.xor(2), 0.75)))
    assert abs(prof.mean_arity() - 2.25) < 1e-12


def test_spec_infeasible():
    with pytest.raises(InfeasibleSpecError):
        EnsembleSpec(k=0, rate=0.5, profile=LDMC3)
    with pytest.raises(InfeasibleSpecError):
        EnsembleSpec(k=10, rate=1.5, profile=LDMC3)
    # the block length is bounded before n is formed: round(k / rate) of a
    # tiny rate is a huge or infinite float
    for k, rate in [(10, 1e-299), (10, 1e-12), (10, 5e-324), (_MAX_CHECKS + 1, 1.0), (10**400, 0.5)]:
        with pytest.raises(InfeasibleSpecError, match=f"exceeds the limit of {_MAX_CHECKS} checks"):
            EnsembleSpec(k=k, rate=rate, profile=LDMC3)
    assert EnsembleSpec(k=_MAX_CHECKS // 2, rate=0.5, profile=LDMC3).n == _MAX_CHECKS
    with pytest.raises(InfeasibleSpecError):
        # arity exceeds variable count, caught at sampling
        sample_graph(EnsembleSpec(k=2, rate=0.5, profile=LDMC3))


def test_sample_counts_largest_remainder():
    prof = DegreeProfile(((CheckKind.maj(3), 0.3), (CheckKind.xor(2), 0.7)))
    spec = EnsembleSpec(k=100, rate=0.5, profile=prof, seed=3)
    graph = sample_graph(spec)
    kinds = [kind.kind for kind, _ in graph.checks]
    assert len(graph.checks) == 200
    assert kinds.count("MAJ") == 60
    assert kinds.count("XOR") == 140


def test_sample_distinct_indices():
    spec = EnsembleSpec(k=30, rate=0.5, profile=LDMC3, seed=1)
    graph = sample_graph(spec)
    for kind, idx in graph.checks:
        assert len(set(idx)) == kind.arity


def test_sample_arity_equal_to_k_finishes():
    # 18 distinct variables of 18 come up about once in 6 million draws
    spec = EnsembleSpec(k=18, rate=0.5, profile=DegreeProfile.single(CheckKind.xor(18)), seed=1)
    start = time.perf_counter()
    graph = sample_graph(spec)
    assert time.perf_counter() - start < 1.0
    assert len(graph.checks) == 36
    for kind, idx in graph.checks:
        assert sorted(idx) == list(range(18))


def test_sample_deterministic_from_seed():
    spec = EnsembleSpec(k=50, rate=0.5, profile=LDMC3, seed=9)
    a = sample_graph(spec)
    b = sample_graph(spec)
    assert a.checks == b.checks


def test_systematic_prefix():
    spec = EnsembleSpec(k=20, rate=0.5, profile=LDMC3, systematic=True, seed=0)
    graph = sample_graph(spec)
    assert graph.systematic_prefix == 20
    for i in range(20):
        kind, idx = graph.checks[i]
        assert kind == CheckKind.maj(1)
        assert idx == (i,)
    assert len(graph.checks) == 40


def test_regular_sampling_uniform_degrees():
    # many seeds: a lone check repeating a variable must be repaired, not retried
    for k in (60, 100, 1000, 5000):
        for seed in range(50):
            graph = sample_graph(EnsembleSpec(k=k, rate=0.5, profile=LDMC3, regular=True, seed=seed))
            _, evar, _, arity = graph.flat
            assert np.array_equal(np.bincount(evar, minlength=k), np.full(k, arity.sum() // k))
            rows = np.sort(evar.reshape(-1, 3), axis=1)
            assert np.all(rows[:, 1:] != rows[:, :-1])


def test_regular_infeasible_stub_count():
    # 15 arity-3 checks over 10 variables: 45 stubs, not a multiple of 10
    spec = EnsembleSpec(k=10, rate=2.0 / 3.0, profile=LDMC3, regular=True, seed=0)
    with pytest.raises(InfeasibleSpecError):
        sample_graph(spec)


def test_encode_matches_reference():
    prof = DegreeProfile(((CheckKind.maj(3), 0.4), (CheckKind.xor(4), 0.6)))
    spec = EnsembleSpec(k=40, rate=0.5, profile=prof, seed=4)
    graph = sample_graph(spec)
    rng = np.random.default_rng(11)
    for _ in range(5):
        src = rng.integers(0, 2, size=40)
        assert list(encode(graph, src)) == slow_encode(graph.checks, src)


def test_encode_parity_constraint():
    graph = FactorGraph.from_checks(k=3, checks=((CheckKind.parity(2), (0, 1)), (CheckKind.xor(3), (0, 1, 2))))
    out = encode(graph, [1, 1, 0])
    assert list(out) == [0]
    with pytest.raises(ConstraintViolationError):
        encode(graph, [1, 0, 0])


def test_encode_length_mismatch():
    graph = sample_graph(EnsembleSpec(k=10, rate=0.5, profile=LDMC3, seed=0))
    with pytest.raises(ValueError):
        encode(graph, [0, 1])


def test_degree_stats_mean():
    spec = EnsembleSpec(k=200, rate=0.5, profile=LDMC3, seed=5)
    graph = sample_graph(spec)
    hist = degree_stats(graph)
    degrees = np.arange(hist.shape[0])
    mean = float((hist * degrees).sum()) / 200.0
    assert abs(mean - 6.0) < 1e-12  # 400 checks x 3 / 200


def test_observed_subgraph():
    graph = FactorGraph.from_checks(
        k=4,
        checks=(
            (CheckKind.maj(3), (0, 1, 2)),
            (CheckKind.parity(2), (0, 3)),
            (CheckKind.xor(2), (1, 3)),
        ),
    )
    received = ReceivedWord(np.array([-1, 1], dtype=np.int8), ChannelParam.bec(0.5))
    sub = observed_subgraph(graph, received)
    assert sub.checks == ((CheckKind.parity(2), (0, 3)), (CheckKind.xor(2), (1, 3)))  # erased MAJ dropped
    with pytest.raises(ValueError):
        observed_subgraph(graph, ReceivedWord(np.array([1], dtype=np.int8), ChannelParam.bec(0.5)))


def test_from_checks_validation():
    graph = FactorGraph.from_checks(4, ((CheckKind.maj(1), (2,)), (CheckKind.xor(3), (0, 1, 3))), systematic_prefix=1)
    assert graph.ptr.tolist() == [0, 1, 4]
    assert graph.evar.tolist() == [2, 0, 1, 3]
    assert graph.kind.tolist() == [0, 1]
    assert graph.arity.tolist() == [1, 3]
    with pytest.raises(ValueError):
        FactorGraph.from_checks(4, ((CheckKind.maj(3), (0, 1)),))  # arity 3, two indices
    with pytest.raises(ValueError):
        FactorGraph.from_checks(4, ((CheckKind.xor(2), (0, 4)),))  # index out of range


def test_graph_serialization_roundtrip():
    spec = EnsembleSpec(k=25, rate=0.5, profile=LDMC3, systematic=True, seed=7)
    graph = sample_graph(spec)
    again = parse_graph(serialize_graph(graph))
    assert again.k == graph.k
    assert again.systematic_prefix == graph.systematic_prefix
    assert again.checks == graph.checks


def test_profile_serialization_roundtrip():
    prof = DegreeProfile(((CheckKind.maj(3), 0.25), (CheckKind.xor(2), 0.75)))
    again = parse_profile(serialize_profile(prof))
    assert again.entries == prof.entries


def test_profile_parse_comments_and_blanks():
    text = "# header\nMAJ 3 0.5\n\nXOR 2 0.5\n"
    prof = parse_profile(text)
    assert prof.entries == ((CheckKind.maj(3), 0.5), (CheckKind.xor(2), 0.5))


def test_transmit_roundtrip_with_encode():
    spec = EnsembleSpec(k=30, rate=0.5, profile=LDMC3, seed=8)
    graph = sample_graph(spec)
    rng = np.random.default_rng(3)
    src = rng.integers(0, 2, size=30)
    coded = encode(graph, src)
    received = transmit(coded, ChannelParam.bec(0.0), rng)
    assert np.array_equal(received.symbols, coded)
