"""Simplex projection and degree-profile optimization."""

from __future__ import annotations

import numpy as np
import pytest
from _oracles import optimize_profile_plain, pattern_polish_plain

from gracecode.cli import EXIT_OK, main
from gracecode.devo import fixed_point, iterate
from gracecode.efun import ClosedFormFamily
from gracecode.ensemble import CheckKind, DegreeProfile
from gracecode.optimize import OptProblem, _objective_raw, _pattern_polish, objective, optimize_profile, project_simplex

XORS = (CheckKind.xor(1), CheckKind.xor(2), CheckKind.xor(3))
X1, X2, X3, M3 = CheckKind.xor(1), CheckKind.xor(2), CheckKind.xor(3), CheckKind.maj(3)


def test_project_simplex_known_points():
    assert np.allclose(project_simplex([0.5, 0.5]), [0.5, 0.5])
    assert np.allclose(project_simplex([2.0, 0.0]), [1.0, 0.0])
    assert np.allclose(project_simplex([0.6, 0.2]), [0.7, 0.3])
    assert np.allclose(project_simplex([-1.0, -1.0, 5.0]), [0.0, 0.0, 1.0])


def test_project_simplex_is_projection():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=4) * 2.0
        p = project_simplex(v)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0.0)
        # no random simplex point is closer to v than the projection
        for _ in range(50):
            s = rng.dirichlet(np.ones(4))
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - s) + 1e-9


def test_problem_validation():
    with pytest.raises(ValueError):
        OptProblem(components=(), targets=(1.0,))
    with pytest.raises(ValueError):
        OptProblem(components=(CheckKind.maj(7),), targets=(1.0,))
    with pytest.raises(ValueError):
        OptProblem(components=(CheckKind.parity(2),), targets=(1.0,))
    with pytest.raises(ValueError):
        OptProblem(components=XORS, targets=())
    with pytest.raises(ValueError):
        OptProblem(components=XORS, targets=(1.0,), ell=0)
    with pytest.raises(ValueError, match="ell must lie in"):
        OptProblem(components=XORS, targets=(1.0,), ell=100_001)
    with pytest.raises(ValueError):
        OptProblem(components=XORS, targets=(1.0,), multistart=0)


def test_objective_validation():
    prob = OptProblem(components=XORS[:2], targets=(1.0,))
    with pytest.raises(ValueError):
        objective(DegreeProfile(((CheckKind.maj(3), 1.0),)), prob)
    with pytest.raises(ValueError):
        objective([0.5, 0.2], prob)  # not on the simplex
    with pytest.raises(ValueError):
        objective([0.5, 0.25, 0.25], prob)  # wrong length


def test_pure_ldgm3_objective_zero():
    # E(alpha, 0) = 1/2 for XOR(d >= 2): the recursion never leaves q = 0
    prob = OptProblem(components=(CheckKind.xor(3),), targets=(0.9, 1.1), ell=None)
    assert objective([1.0], prob) == 0.0
    res = optimize_profile(prob)
    assert res.objective == 0.0
    assert res.converged


def test_xor_mixture_beats_reference_weights():
    prob = OptProblem(components=XORS, targets=(0.9, 1.1), ell=None, multistart=16, seed=0)
    res = optimize_profile(prob)
    ref = objective([0.08, 0.22, 0.70], prob)
    assert res.objective >= ref - 1e-3
    weights = np.array([lam for _, lam in res.profile.entries])
    assert abs(weights.sum() - 1.0) < 1e-9


def test_permutation_invariance():
    targets = (1.0,)
    a = optimize_profile(OptProblem(components=XORS[:2], targets=targets, ell=5, multistart=2))
    b = optimize_profile(
        OptProblem(components=XORS[:2][::-1], targets=targets, ell=5, multistart=2)
    )
    assert abs(a.objective - b.objective) < 1e-6
    wa = dict(a.profile.entries)
    wb = dict(b.profile.entries)
    for ck in XORS[:2]:
        assert abs(wa[ck] - wb[ck]) < 1e-3


def test_trajectories_monotone():
    prob = OptProblem(components=XORS[:2], targets=(1.0,), ell=5, multistart=3)
    res = optimize_profile(prob)
    assert len(res.trajectories) == 3
    for hist in res.trajectories:
        assert np.all(np.diff(hist) >= -1e-12)


def test_repeated_component_optimizes_the_merged_profile(tmp_path):
    # MAJ:3 twice is one component: every weight split has the objective of MAJ:3 alone
    logs = []
    for components in ("MAJ:3,MAJ:3", "MAJ:3"):
        out = tmp_path / f"{len(components)}.profile"
        argv = ["optimize", "--components", components, "--targets", "1.0", "--ell", "3", "--multistart", "1",
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        logs.append((tmp_path / f"{out.name}.log").read_text(encoding="utf-8").splitlines()[0])
    assert logs == ["objective 0.755885902501"] * 2


def test_single_component_shortcut():
    prob = OptProblem(components=(CheckKind.maj(3),), targets=(1.0,), ell=4)
    res = optimize_profile(prob)
    assert res.profile.entries == ((CheckKind.maj(3), 1.0),)
    assert res.converged
    assert abs(res.objective - objective([1.0], prob)) < 1e-12
    assert res.trajectories[0][-1] == res.objective


def test_objective_profile_and_array_agree():
    prob = OptProblem(components=XORS, targets=(1.0,), ell=5)
    prof = DegreeProfile(tuple(zip(XORS, (0.2, 0.3, 0.5))))
    assert abs(objective(prof, prob) - objective([0.2, 0.3, 0.5], prob)) < 1e-15


def test_deterministic():
    prob = OptProblem(components=XORS[:2], targets=(1.0,), ell=5, multistart=3, seed=7)
    a = optimize_profile(prob)
    b = optimize_profile(prob)
    assert a.objective == b.objective
    assert a.profile.entries == b.profile.entries


@pytest.mark.parametrize(
    "entries",
    [
        ((CheckKind.xor(1), 0.2), (CheckKind.maj(3), 0.5), (CheckKind.xor(3), 0.3)),
        ((CheckKind.maj(5), 0.6), (CheckKind.xor(2), 0.4)),
        ((CheckKind.maj(3), 0.0), (CheckKind.xor(1), 0.3), (CheckKind.maj(5), 0.7)),
    ],
)
def test_objective_is_density_evolution_endpoint(entries):
    profile = DegreeProfile(entries)
    comps = tuple(ck for ck, _ in entries)
    targets = (0.6, 0.9, 1.1)
    family = ClosedFormFamily("mixed", profile=profile, D=10)
    traced = sum(iterate(family, a, 0.0, 5).final for a in targets)
    assert objective(profile, OptProblem(comps, targets, ell=5)) == pytest.approx(traced, rel=0, abs=1e-12)
    fixed = sum(fixed_point(family, a, 0.0, tol=1e-11)[0] for a in targets)
    assert objective(profile, OptProblem(comps, targets, ell=None)) == pytest.approx(fixed, rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "components, targets, ell, seed",
    [
        ((X1, X3), (0.8,), 5, 0),
        ((X1, X3), (0.8,), 5, 1),
        ((X1, X2), (0.6, 1.0), None, 2),
        ((X1, M3, X3), (0.9, 1.1), 5, 0),
        ((X1, M3, X3), (0.9, 1.1), 5, 1),
        ((X1, X2, X3), (1.5,), None, 0),  # runs the pattern polish, which moves
        ((X1, X2, X3, M3), (0.5,), 5, 3),
        ((M3, X1, X2, X3), (0.6,), None, 3),
        ((X2, X1, X3, M3), (1.2,), 5, 3),
    ],
)
def test_batched_search_matches_one_point_search(components, targets, ell, seed):
    # the same search, one objective evaluation at a time, in _oracles
    problem = OptProblem(components, targets, ell=ell, multistart=2, seed=seed)
    got, want = optimize_profile(problem), optimize_profile_plain(problem)
    assert repr(got.objective) == repr(want.objective)
    assert got.profile.entries == want.profile.entries
    assert got.converged == want.converged
    assert len(got.trajectories) == len(want.trajectories)
    for a, b in zip(got.trajectories, want.trajectories):
        assert a.tobytes() == b.tobytes()


def test_maj1_component_optimizes_as_xor1(tmp_path):
    logs = []
    for comps in ("XOR:3,MAJ:1", "XOR:3,XOR:1"):
        out = tmp_path / f"{comps.replace(':', '').replace(',', '_')}.profile"
        argv = ["optimize", "--components", comps, "--targets", "0.9,1.1", "--ell", "5", "--multistart", "3"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        logs.append((tmp_path / (out.name + ".log")).read_bytes())
    assert logs[0] == logs[1]
    maj = objective([0.4, 0.6], OptProblem((X3, CheckKind.maj(1)), (0.9, 1.1)))
    assert maj == objective([0.4, 0.6], OptProblem((X3, X1), (0.9, 1.1)))


@pytest.mark.parametrize(
    "components, targets, ell",
    [((X1, M3, X3), (0.9, 1.1), 5), ((X1, M3, X3), (0.6,), None), ((X1, X2, X3), (1.5,), None)],
)
def test_batched_polish_matches_one_point_polish(components, targets, ell):
    # from points far from an optimum the polish takes several moves per pass
    problem = OptProblem(components, targets, ell=ell)
    rng = np.random.default_rng(5)
    for x in [np.array([1.0, 0.0, 0.0]), *rng.dirichlet(np.ones(3), size=2)]:
        f = _objective_raw(x, problem)
        got, want = _pattern_polish(x, f, problem), pattern_polish_plain(x, f, problem)
        assert got[0].tobytes() == want[0].tobytes() and repr(got[1]) == repr(want[1]) and got[2] == want[2]
