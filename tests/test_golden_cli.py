"""Byte-for-byte guard on the outputs of the CLI subcommands.

The committed files under ``tests/golden/`` were written by the CLI before a
refactor; one that keeps every rng draw and every floating-point operation in
place keeps them identical.  ``simulate`` and ``histogram`` pin the BP
pipeline, ``devo``, ``efun`` and ``converse`` the analytic side.  The
``optimize`` case compares its log byte for byte and its profile weights to
1e-9, because a finite-difference ascent can move a weight in its last digits
while every reported objective stays the same.  Regenerate them (only for an
intended change of the numbers) with ``PYTHONPATH=src python tests/test_golden_cli.py``,
which rewrites only the files that differ, prints their changed rows as
old -> new and lists the unchanged files.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from gracecode.cli import EXIT_OK, main
from gracecode.ensemble import parse_profile

GOLDEN = Path(__file__).with_name("golden")
MIXED_PROFILE = "MAJ 3 0.5\nXOR 3 0.25\nXOR 1 0.25\n"

SWEEP = ["--k", "2000", "--rate", "0.5", "--bp-iters", "10", "--trials", "2", "--seed", "3"]
SIM = ["simulate", *SWEEP, "--alpha-grid", "0.5:1.5:0.25"]
HIST = ["histogram", *SWEEP, "--alpha", "1.0", "--bins", "20"]
# Seed 654 at alpha 1.0 draws a configuration-model pairing with no repeated
# variable in any check, so this case pins the regular sampler without its
# repair step; the repair step is covered by the seed sweep in test_ensemble.
REGULAR = ["--k", "2000", "--rate", "0.5", "--bp-iters", "10", "--trials", "1", "--seed", "654", "--regular"]
DEVO = ["devo", "--alpha-grid", "0.25:1.5:0.25", "--ell", "10", "--dmax", "10"]
AREA = ["converse", "--bound", "area", "--rate", "0.5", "--anchor-eps", "0.4", "--anchor-delta", "0.001", "--eps-grid", "0.4:0.95:0.05"]
GENERAL2 = ["converse", "--bound", "general2", "--rate", "0.5", "--anchor-eps", "0.75", "--anchor-delta", "0.2501"]
OPTIMIZE = ["optimize", "--components", "XOR:1,MAJ:3,XOR:3", "--targets", "0.9,1.1", "--ell", "5", "--multistart", "4"]

CASES = {
    "simulate_ldmc3": [*SIM, "--ensemble", "ldmc3"],
    "simulate_ldmc5": [*SIM, "--ensemble", "ldmc5"],
    "simulate_ldgm3": [*SIM, "--ensemble", "ldgm3"],
    "simulate_mixed": [*SIM, "--ensemble", "{mixed}"],
    "simulate_ldmc3_systematic": [*SIM, "--ensemble", "ldmc3", "--systematic"],
    "simulate_ldmc3_regular": ["simulate", *REGULAR, "--ensemble", "ldmc3", "--alpha-grid", "1.0"],
    "histogram_ldmc3": [*HIST, "--ensemble", "ldmc3"],
    "histogram_ldmc5": [*HIST, "--ensemble", "ldmc5"],
    "histogram_ldgm3": [*HIST, "--ensemble", "ldgm3"],
    "histogram_mixed": [*HIST, "--ensemble", "{mixed}"],
    "histogram_ldmc3_systematic": [*HIST, "--ensemble", "ldmc3", "--systematic"],
    "histogram_ldmc3_regular": ["histogram", *REGULAR, "--ensemble", "ldmc3", "--alpha", "1.0"],
    "devo_ldmc3_bec_error": [*DEVO, "--family", "ldmc3"],
    "devo_ldmc5_bec_error": [*DEVO, "--family", "ldmc5"],
    "devo_ldmc3_bsc_chi2": [*DEVO, "--family", "ldmc3", "--surrogate", "BSC", "--quantity", "chi2-soft", "--x0", "0.5"],
    "devo_ldgm3": [*DEVO, "--family", "ldgm3"],
    "devo_mixed": [*DEVO, "--family", "{mixed}"],
    "efun_ldmc5_error": ["efun", "--family", "ldmc5-bec", "--payoff", "error"],
    "efun_ldmc5_chi2": ["efun", "--family", "ldmc5-bec", "--payoff", "chi2"],
    "converse_linear2": ["converse", "--bound", "linear2", "--rate", "0.5", "--anchor-eps", "0.4", "--anchor-delta", "0.05", "--eps-grid", "0.1:0.9:0.05"],
    "converse_area_linear_systematic": [*AREA, "--mode", "linear_systematic"],
    "converse_area_systematic": [*AREA, "--mode", "systematic"],
    # general2 on both sides of its anchor: eps >= 0.75 evaluates eta once per
    # point, eps < 0.75 searches for the smallest feasible y
    "converse_general2_degraded": [*GENERAL2, "--eps-grid", "0.75:0.9:0.05"],
    "converse_general2_upgraded": [*GENERAL2, "--eps-grid", "0.6:0.7:0.05"],
}
SUFFIX = {"optimize": ".profile"}


def run_case(name: str, argv: list[str], workdir: Path) -> Path:
    mixed = workdir / "mixed.profile"
    mixed.write_text(MIXED_PROFILE, encoding="utf-8")
    out = workdir / f"{name}{SUFFIX.get(name, '.csv')}"
    assert main([a.format(mixed=mixed) for a in argv] + ["--out", str(out)]) == EXIT_OK
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_csv(name, tmp_path):
    out = run_case(name, CASES[name], tmp_path)
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


def test_golden_optimize(tmp_path):
    out = run_case("optimize", OPTIMIZE, tmp_path)
    log = Path(f"{out}.log")
    assert log.read_bytes() == (GOLDEN / log.name).read_bytes()
    assert profile_matches(out)


def profile_matches(path: Path) -> bool:
    """The profile's checks are the golden's, its weights within 1e-9 of them."""
    got = parse_profile(path.read_text(encoding="utf-8")).entries
    want = parse_profile((GOLDEN / path.name).read_text(encoding="utf-8")).entries
    return [ck for ck, _ in got] == [ck for ck, _ in want] and all(abs(a - b) <= 1e-9 for (_, a), (_, b) in zip(got, want))


def test_failed_trials_in_manifest(tmp_path):
    # exact majority messages never contradict on ldmc5, which has no
    # arity-1 check; the count goes to the manifest and leaves the CSV unchanged
    for name in ("simulate_ldmc5", "histogram_ldmc3"):
        out = run_case(name, CASES[name], tmp_path)
        assert out.read_bytes() == (GOLDEN / out.name).read_bytes()
        manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
        assert manifest["failed_trials"] == 0, name


def rewrite(path: Path) -> bool:
    """Copy a fresh output over its golden file if they differ, printing each
    changed row as old -> new; False if the golden file is unchanged."""
    golden = GOLDEN / path.name
    if golden.exists() and (golden.read_bytes() == path.read_bytes() or path.suffix == ".profile" and profile_matches(path)):
        return False
    old = golden.read_text(encoding="utf-8").splitlines() if golden.exists() else []
    new = path.read_text(encoding="utf-8").splitlines()
    print(f"wrote {path.name}")
    for a, b in itertools.zip_longest(old, new, fillvalue="(none)"):
        if a != b:
            print(f"  {a}\n  -> {b}")
    golden.write_bytes(path.read_bytes())
    return True


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    unchanged = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in sorted({**CASES, "optimize": OPTIMIZE}.items()):
            out = run_case(case, argv, Path(tmp))
            for path in (out, Path(f"{out}.log")):
                if path.exists() and not rewrite(path):
                    unchanged.append(path.name)
    print("unchanged:", " ".join(unchanged))
