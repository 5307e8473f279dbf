"""Byte-for-byte guard on the CSVs of ``simulate`` and ``histogram``.

The committed files under ``tests/golden/`` were written by the CLI before the
factor graph moved to a CSR-only representation; a refactor that keeps every
rng draw and every floating-point operation in place keeps them identical.
Regenerate them (only for an intended change of the numbers) with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from gracecode.cli import EXIT_OK, main

GOLDEN = Path(__file__).with_name("golden")
MIXED_PROFILE = "MAJ 3 0.5\nXOR 3 0.25\nXOR 1 0.25\n"

SWEEP = ["--k", "2000", "--rate", "0.5", "--bp-iters", "10", "--trials", "2", "--seed", "3"]
SIM = ["simulate", *SWEEP, "--alpha-grid", "0.5:1.5:0.25"]
HIST = ["histogram", *SWEEP, "--alpha", "1.0", "--bins", "20"]
# Seed 654 at alpha 1.0 draws a configuration-model pairing with no repeated
# variable in any check, so this case pins the regular sampler without its
# repair step; the repair step is covered by the seed sweep in test_ensemble.
REGULAR = ["--k", "2000", "--rate", "0.5", "--bp-iters", "10", "--trials", "1", "--seed", "654", "--regular"]

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
}


def run_case(name: str, workdir: Path) -> bytes:
    mixed = workdir / "mixed.profile"
    mixed.write_text(MIXED_PROFILE, encoding="utf-8")
    out = workdir / f"{name}.csv"
    argv = [a.format(mixed=mixed) for a in CASES[name]] + ["--out", str(out)]
    assert main(argv) == EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_csv(name, tmp_path):
    assert run_case(name, tmp_path) == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.csv").write_bytes(run_case(case, Path(tmp)))
            print(f"wrote {case}.csv", file=sys.stderr)
