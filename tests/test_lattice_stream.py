"""The streamed E-function lattice gives the whole-lattice build's bits.

``efun._degree_terms`` streams E_d's composition lattice in fixed chunks and
never holds it whole.  Its types and coefficients must be byte-equal to the
whole-lattice build it replaced (``_oracles._degree_terms``: one lattice, the
types from ``np.unique``, one ``np.bincount`` per payoff), with the
production 2^14-row chunks and with 1000-row ones.  Not every chunk size
keeps the bits: OpenBLAS gives a row its whole-lattice bits only on its own
block grid, and 1001-row chunks move some coefficients.  The production size
must also hold every LDMC3 lattice in one chunk, so that the lattice cache
serves every BSC crossover.  A degree too large for that oracle is guarded by
a golden and by the peak memory of a child process.
"""

from __future__ import annotations

from pathlib import Path

import _oracles
import numpy as np
import pytest

from _rss import peak_rss_mb
from gracecode import efun
from gracecode.efun import MessageAlphabet, f_alphabet

GOLDEN = Path(__file__).with_name("golden")
PAYOFFS = ("error", "chi2", "entropy")
ALPHABETS = {
    "ldmc3_bec": (f_alphabet("ldmc3_bec"), 14),
    "ldmc3_bsc_0.11": (f_alphabet("ldmc3_bsc", 0.11), 14),
    "ldmc3_bsc_0.37": (f_alphabet("ldmc3_bsc", 0.37), 14),
    "ldmc5_bec": (f_alphabet("ldmc5_bec"), 10),
}


@pytest.fixture(autouse=True)
def _drop_oracle_lattices():
    yield
    _oracles._STRUCTURE_CACHE.clear()


def assert_same_table(alphabet, dmax: int) -> None:
    fresh = MessageAlphabet(alphabet.channel, alphabet.entries)  # no table cached yet
    for payoff in PAYOFFS:
        types, coefs, starts = efun._table(fresh, payoff, dmax)
        assert starts.shape[0] == dmax + 2
        for d in range(dmax + 1):
            want_types, want = _oracles._degree_terms(alphabet, d, payoff)
            rows = slice(starts[d], starts[d + 1])
            assert types.dtype == want_types.dtype and types[:, rows].T.shape == want_types.shape, (d, payoff)
            assert types[:, rows].T.tobytes() == want_types.tobytes(), (d, payoff)
            assert coefs.dtype == want.dtype and coefs[rows].shape == want.shape, (d, payoff)
            assert coefs[rows].tobytes() == want.tobytes(), (d, payoff)


@pytest.mark.parametrize("name", sorted(ALPHABETS))
def test_tables_match_the_whole_lattice_build(name):
    assert_same_table(*ALPHABETS[name])


def test_chunk_size_does_not_move_a_bit(monkeypatch):
    monkeypatch.setattr(efun, "_CHUNK_ROWS", 1000)
    monkeypatch.setattr(efun, "_LATTICE_CACHE", {})
    ldmc5 = f_alphabet("ldmc5_bec")
    sizes = [z.shape[0] for z, _, _ in efun._lattice_chunks(8, ldmc5._cols[2])]
    assert sizes[:-1] == [1000] * (len(sizes) - 1) and sum(sizes) == 125_970
    assert_same_table(ldmc5, 10)  # degrees 4-10 take more than one chunk
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
