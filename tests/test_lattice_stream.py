"""The streamed E-function lattice gives the whole-lattice build's bits.

``efun._degree_terms`` streams E_d's composition lattice in fixed chunks and
never holds it whole.  Its type terms (types and coefficients) must be
byte-equal to the whole-lattice build it replaced (``_oracles._degree_terms``:
one lattice, the types from ``np.unique``, one ``np.bincount`` per payoff),
with the production 2^14-row chunks and with 1000-row ones.  Not every chunk
size keeps the bits: OpenBLAS gives a row its whole-lattice bits only on its
own block grid, and 1001-row chunks move some coefficients.  The table keeps
only each degree's Bernstein coefficients, which must match the oracle's
collapse of those terms (``_oracles.bernstein_terms``, one convolution per
weight and row) to 1e-15 relative.  The production size must also hold every
LDMC3 lattice in one chunk, so that the lattice cache serves every BSC
crossover.  A degree too large for that oracle is guarded by a golden and by
the peak memory of a child process.
"""

from __future__ import annotations

from pathlib import Path

import _oracles
import numpy as np
import pytest

from _rss import peak_rss_mb
from gracecode import efun
from gracecode.efun import MessageAlphabet, f_alphabet
from test_exact_paths import RAGGED

GOLDEN = Path(__file__).with_name("golden")
PAYOFFS = ("error", "chi2", "entropy")
ALPHABETS = {
    "ldmc3_bec": (f_alphabet("ldmc3_bec"), 14),
    "ldmc3_bsc_0.11": (f_alphabet("ldmc3_bsc", 0.11), 14),
    "ldmc3_bsc_0.37": (f_alphabet("ldmc3_bsc", 0.37), 14),
    "ldmc3_bsc_0.5": (f_alphabet("ldmc3_bsc", 0.5), 14),
    "ldmc5_bec": (f_alphabet("ldmc5_bec"), 10),
    "ragged": (RAGGED, 10),
}


@pytest.fixture(autouse=True)
def _drop_oracle_lattices():
    yield
    _oracles._STRUCTURE_CACHE.clear()


def assert_same_terms(alphabet, dmax: int) -> None:
    types, coefs = efun._degree_terms(alphabet, range(dmax + 1), PAYOFFS)
    first = 0
    for d, got_types in enumerate(types):
        rows = slice(first, first + got_types.shape[0])
        for payoff in PAYOFFS:
            want_types, want = _oracles._degree_terms(alphabet, d, payoff)
            assert got_types.shape == want_types.shape, (d, payoff)
            assert got_types.astype(np.float64).tobytes() == want_types.tobytes(), (d, payoff)
            assert coefs[payoff].dtype == want.dtype and coefs[payoff][rows].shape == want.shape, (d, payoff)
            assert coefs[payoff][rows].tobytes() == want.tobytes(), (d, payoff)
        first = rows.stop
    assert all(c.shape[0] == first for c in coefs.values())


def assert_same_bernstein(alphabet, dmax: int) -> None:
    fresh = MessageAlphabet(alphabet.channel, alphabet.entries)  # no table cached yet
    m = fresh._bernstein.shape[1] - 1
    for payoff in PAYOFFS:
        b, starts = efun._table(fresh, payoff, dmax)
        assert starts.tolist() == np.cumsum([0] + [m * d + 1 for d in range(dmax + 1)]).tolist()
        assert b.dtype == np.float64 and b.shape[0] == starts[-1] and np.all(b >= 0.0), payoff
        for d in range(dmax + 1):
            want = _oracles.bernstein_terms(alphabet, d, payoff)
            got = b[starts[d] : starts[d + 1]]
            assert got.shape == want.shape and np.all(np.abs(got - want) <= 1e-15 * want), (d, payoff)


@pytest.mark.parametrize("name", sorted(ALPHABETS))
def test_tables_match_the_whole_lattice_build(name):
    assert_same_terms(*ALPHABETS[name])
    assert_same_bernstein(*ALPHABETS[name])


def test_chunk_size_does_not_move_a_bit(monkeypatch):
    monkeypatch.setattr(efun, "_CHUNK_ROWS", 1000)
    monkeypatch.setattr(efun, "_LATTICE_CACHE", {})
    ldmc5 = f_alphabet("ldmc5_bec")
    sizes = [z.shape[0] for z, _, _ in efun._lattice_chunks(8, ldmc5._cols[2])]
    assert sizes[:-1] == [1000] * (len(sizes) - 1) and sum(sizes) == 125_970
    assert_same_terms(ldmc5, 10)  # degrees 4-10 take more than one chunk
    assert sorted(d for d, _ in efun._LATTICE_CACHE) == [0, 1, 2, 3]


@pytest.mark.parametrize("name", sorted(ALPHABETS))
def test_rank_is_the_unique_inverse(name):
    owners = ALPHABETS[name][0]._cols[2]
    for d in range(8):  # LDMC5 streams degrees 6 and 7 in 2 and 4 chunks
        z, logc, rank = map(np.concatenate, zip(*efun._lattice_chunks(d, owners)))
        want = _oracles._structure(d, owners)
        assert z.tobytes() == want.z.tobytes() and logc.tobytes() == want.logc.tobytes(), d
        assert rank.dtype.kind == "i" and np.array_equal(rank, want.inv), d


def test_every_ldmc3_lattice_is_one_cached_chunk(monkeypatch):
    monkeypatch.setattr(efun, "_LATTICE_CACHE", {})
    ldmc3, ldmc3_bsc, ldmc5 = (f_alphabet(*a)._cols[2] for a in [("ldmc3_bec",), ("ldmc3_bsc", 0.11), ("ldmc5_bec",)])
    for owners, dmax in [(ldmc3, 14), (ldmc3_bsc, 14), (ldmc5, 5)]:
        for d in range(dmax + 1):
            chunks = list(efun._lattice_chunks(d, owners))
            assert len(chunks) == 1 and efun._LATTICE_CACHE[d, owners] is chunks[0], (owners, d)
    # a larger lattice streams in several chunks and is not kept
    assert len(list(efun._lattice_chunks(6, ldmc5))) > 1 and (6, ldmc5) not in efun._LATTICE_CACHE


def test_ldmc5_at_degree_12_in_bounded_memory(tmp_path):
    # the whole-lattice build peaked at 519-522 MB here
    out = tmp_path / "devo.csv"
    argv = ["devo", "--family", "ldmc5", "--alpha-grid", "1.0", "--ell", "2", "--dmax", "12", "--out", str(out)]
    peak_mb = peak_rss_mb(["-m", "gracecode.cli", *argv])
    assert peak_mb < 250, peak_mb
    assert out.read_bytes() == (GOLDEN / "devo_ldmc5_dmax12.csv").read_bytes()
