"""Peak RSS of nine runs against their bounds.

Each run is a fresh Python process in a temporary directory; the script
prints every peak with the run's wall seconds and exits 1 if a peak
reaches its bound.  Usage::

    python tests/peak_rss.py
"""

from __future__ import annotations

import sys
import tempfile
import time

from _rss import peak_rss_mb

CLI = ["-m", "gracecode.cli"]
SIMULATE = [*CLI, "simulate", "--k", "100000", "--rate", "0.5", "--bp-iters", "10",
            "--alpha-grid", "0.5:1.5:0.5", "--trials", "1"]  # fmt: skip
BIT_MAP = (
    "import numpy as np\n"
    "from gracecode.exactdec import BitMatrix, map_ber_linear\n"
    "map_ber_linear(BitMatrix.repetition(100_000, 2), 0.5, 1, np.random.default_rng(2))\n"
)
PROFILES = {"sim-mixed.profile": "MAJ 3 0.5\nXOR 3 0.25\nXOR 1 0.25\n", "maj7.profile": "MAJ 7 1\n"}

DEVO = [*CLI, "devo", "--alpha-grid", "0.25:1.5:0.25", "--ell", "10", "--dmax", "10"]  # the golden devo runs

# (run, bound in MB, the python argv, run in a directory holding PROFILES)
RUNS = [
    # about 33 MB; 55 MB when the degree laws imported scipy.special
    ("devo --family ldmc3", 40, [*DEVO, "--family", "ldmc3", "--out", "devo3.csv"]),
    # about 39 MB and 0.3 s; 42 MB when every lattice row was materialized,
    # 62 MB when the lattice streamed in chunks of 2^16 rows
    ("devo --family ldmc5", 50, [*DEVO, "--family", "ldmc5", "--out", "devo5.csv"]),
    # about 75.0 MB and 1.0 s, with the head and tail parts of all 15 degrees
    # held at once in one lattice record (75.5 MB when each degree's split was
    # cached apart from it); 64 MB and 4.8 s when a build held one degree's
    # rows at a time; the 400 MB bound dated from the whole-lattice build
    # (1.6 GB)
    ("devo --family ldmc5 --dmax 14", 100,
     [*CLI, "devo", "--family", "ldmc5", "--alpha-grid", "1.0", "--ell", "2", "--dmax", "14", "--out", "devo.csv"]),
    # about 61 MB
    ("map_ber_linear on the k=1e5 repetition code", 80, ["-c", BIT_MAP]),
    ("simulate --ensemble ldmc5 --k 100000", 88, [*SIMULATE, "--ensemble", "ldmc5", "--out", "ldmc5.csv"]),
    # about 59 MB, 65 MB when XOR edges carried float messages; where glibc
    # places arrays moves the peak by 2-5 MB
    ("simulate --ensemble ldgm3 --k 100000", 75, [*SIMULATE, "--ensemble", "ldgm3", "--out", "ldgm3.csv"]),
    ("simulate --ensemble sim-mixed.profile --k 100000", 75,
     [*SIMULATE, "--ensemble", "sim-mixed.profile", "--out", "mixed.csv"]),
    # about 90 MB; 243 MB when the MAJ7 count sweep ran over whole groups
    ("simulate --ensemble maj7.profile --k 100000", 110,
     [*SIMULATE, "--ensemble", "maj7.profile", "--out", "maj7.csv"]),
    # about 75 MB; 458 MB when the CSV was joined in memory and every trial's
    # histogram kept until the end
    ("histogram --bins 1000000 --trials 20", 90,
     [*CLI, "histogram", "--ensemble", "ldmc3", "--k", "2000", "--rate", "0.5", "--alpha", "1.0",
      "--bins", "1000000", "--trials", "20", "--out", "hist.csv"]),
]  # fmt: skip


def main() -> int:
    over = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in PROFILES.items():
            with open(f"{tmp}/{name}", "w", encoding="utf-8") as fh:
                fh.write(text)
        for name, bound, argv in RUNS:
            start = time.perf_counter()
            peak = peak_rss_mb(argv, cwd=tmp)
            seconds = time.perf_counter() - start
            print(f"{name}: peak RSS {peak:.0f} MB (bound {bound} MB), {seconds:.1f} s", flush=True)
            over += peak >= bound
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
