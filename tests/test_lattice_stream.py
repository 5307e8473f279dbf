"""The streamed E-function lattice gives the whole-lattice terms.

``efun._degree_terms`` streams the composition lattices of a call's degrees
in fixed chunks and never holds one whole.  A row's log-ratio and
log-probability are the sums of a head part and a tail part, so its type
terms do not have the bits of the whole-lattice build with BLAS products
that it replaced.  They must lie within 4e-15 relative of the same sums in
extended precision (``_oracles.degree_terms_longdouble``), and their bits
must not depend on the chunk size.  The table keeps only each degree's
Bernstein coefficients, which must match the oracle's collapse of those
terms (``_oracles.bernstein_terms``, one convolution per weight and row) to
1e-15 relative.  Every LDMC3 table's lattice record must be built once and
kept, so that every BSC crossover reuses it.  A degree too large for the
oracles is guarded by a golden and by the peak memory of a child process.
"""

from __future__ import annotations

from pathlib import Path

import _oracles
import numpy as np
import pytest

from _rss import peak_rss_mb
from gracecode import efun
from gracecode.efun import EPolynomial, MessageAlphabet, f_alphabet
from test_exact_paths import RAGGED

GOLDEN = Path(__file__).with_name("golden")
PAYOFFS = ("error", "chi2", "entropy")
# four unit magnitudes and a split one: 6 lattice columns, the heads the first
# 3, so the tails have 4 parts where the types have 5
UNITS = MessageAlphabet(
    "BEC",
    ((1.0, EPolynomial((0.0, 0.2))), (1.0, 0.1), (1.0, EPolynomial((0.15, -0.15))), (1.0, 0.05), (2.0, EPolynomial((0.0, 0.0, 0.3)))),
)
ALPHABETS = {
    "ldmc3_bec": (f_alphabet("ldmc3_bec"), 14),
    "ldmc3_bsc_0.11": (f_alphabet("ldmc3_bsc", 0.11), 14),
    "ldmc3_bsc_0.37": (f_alphabet("ldmc3_bsc", 0.37), 14),
    "ldmc3_bsc_0.5": (f_alphabet("ldmc3_bsc", 0.5), 14),
    "ldmc5_bec": (f_alphabet("ldmc5_bec"), 10),
    "ragged": (RAGGED, 10),
    "units": (UNITS, 10),
}
# the largest relative distance of a type term from the longdouble sums; the
# BLAS build before the head and tail sums came within 2.9e-15 of them
TERMS_RTOL = 4e-15


@pytest.fixture(autouse=True)
def _drop_oracle_lattices():
    yield
    _oracles._STRUCTURE_CACHE.clear()


def assert_same_terms(alphabet, dmax: int) -> None:
    types, coefs = efun._degree_terms(alphabet, range(dmax + 1), PAYOFFS)
    first = 0
    for d, got_types in enumerate(types):
        rows = slice(first, first + got_types.shape[0])
        want_types, want = _oracles.degree_terms_longdouble(alphabet, d, PAYOFFS)
        assert got_types.shape == want_types.shape, d
        assert got_types.astype(np.float64).tobytes() == want_types.tobytes(), d
        for payoff in PAYOFFS:
            got = coefs[payoff][rows]
            assert got.dtype == np.float64 and got.shape == want[payoff].shape, (d, payoff)
            assert np.all(np.abs(got - want[payoff]) <= TERMS_RTOL * want[payoff]), (d, payoff)
        first = rows.stop
    assert all(c.shape[0] == first for c in coefs.values())


def assert_same_bernstein(alphabet, dmax: int) -> None:
    fresh = MessageAlphabet(alphabet.channel, alphabet.entries)  # no table cached yet
    m = fresh._bernstein.shape[1] - 1
    types, coefs = efun._degree_terms(alphabet, range(dmax + 1), PAYOFFS)  # checked by assert_same_terms
    firsts = np.cumsum([0] + [t.shape[0] for t in types])
    for payoff in PAYOFFS:
        b, starts = efun._table(fresh, payoff, dmax)
        assert starts.tolist() == np.cumsum([0] + [m * d + 1 for d in range(dmax + 1)]).tolist()
        assert b.dtype == np.float64 and b.shape[0] == starts[-1] and np.all(b >= 0.0), payoff
        for d in range(dmax + 1):
            want = _oracles.bernstein_terms(alphabet, types[d], coefs[payoff][firsts[d] : firsts[d + 1]])
            got = b[starts[d] : starts[d + 1]]
            assert got.shape == want.shape and np.all(np.abs(got - want) <= 1e-15 * want), (d, payoff)


@pytest.mark.parametrize("name", sorted(ALPHABETS))
def test_tables_match_the_whole_lattice_build(name):
    assert_same_terms(*ALPHABETS[name])
    assert_same_bernstein(*ALPHABETS[name])


def test_chunk_size_does_not_move_a_bit(monkeypatch):
    alphabets = [(f_alphabet("ldmc5_bec"), 10, 1_144_066), (f_alphabet("ldmc3_bsc", 0.11), 14, 38_760)]
    want = [efun._degree_terms(a, range(dmax + 1), PAYOFFS)[1] for a, dmax, _ in alphabets]
    for rows in (1000, 1001, 4097):
        monkeypatch.setattr(efun, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(efun, "_LATTICE_CACHE", {})
        for (alphabet, dmax, total), coefs in zip(alphabets, want):
            chunks = efun._lattice_chunks(range(dmax + 1), alphabet._cols[2])[2]
            sizes = [h.shape[0] for h, _, _ in chunks]
            assert sizes[:-1] == [rows] * (len(sizes) - 1) and sum(sizes) == total, rows
            got = efun._degree_terms(alphabet, range(dmax + 1), PAYOFFS)[1]
            assert all(got[p].tobytes() == coefs[p].tobytes() for p in PAYOFFS), (rows, dmax)


@pytest.mark.parametrize("name", sorted(ALPHABETS))
def test_rank_is_the_unique_inverse(name):
    owners = ALPHABETS[name][0]._cols[2]
    for d in range(8):  # LDMC5 streams degree 7 in 4 chunks
        (heads, head_share), (tails, tail_share), chunks, (types,) = efun._lattice_chunks((d,), owners)
        h, i, rank = map(np.concatenate, zip(*chunks))
        want = _oracles._structure(d, owners)
        z = np.concatenate([heads[h], tails[i]], axis=1)
        assert z.dtype == want.z.dtype and np.array_equal(z, want.z), d
        assert rank.dtype.kind == "i" and np.array_equal(rank, want.inv), d
        assert np.array_equal(types, efun._lattice(d, owners[-1] + 1)) and np.array_equal(types, want.types), d
        # the sides' shares add up to the log-multinomial weight, each rounded once
        log_fact = efun._log_factorials(d)[1].astype(np.longdouble)
        exact = log_fact[d] - log_fact[want.z].sum(axis=1)
        assert np.all(np.abs(head_share[h] + tail_share[i] - exact) <= 2.0**-52 * (np.abs(head_share[h]) + np.abs(tail_share[i]))), d


def test_every_ldmc3_lattice_is_one_cached_chunk(monkeypatch):
    monkeypatch.setattr(efun, "_LATTICE_CACHE", {})
    ldmc3, ldmc3_bsc, ldmc5 = (f_alphabet(*a)._cols[2] for a in [("ldmc3_bec",), ("ldmc3_bsc", 0.11), ("ldmc5_bec",)])
    for owners, dmax in [(ldmc3, 14), (ldmc3_bsc, 14), (ldmc5, 5)]:
        for d in range(dmax + 1):
            lattice = efun._lattice_chunks((d,), owners)
            assert len(lattice[2]) == 1 and efun._lattice_chunks((d,), owners) is lattice, (owners, d)
            assert efun._LATTICE_CACHE[(d,), owners] is lattice, (owners, d)
        # the table of degrees 0..dmax keeps its record too
        table = efun._lattice_chunks(range(dmax + 1), owners)
        assert efun._LATTICE_CACHE[tuple(range(dmax + 1)), owners] is table
    # a larger lattice streams in several chunks and is not kept
    chunks = efun._lattice_chunks(range(8), ldmc5)[2]
    assert len(list(chunks)) > 1 and (tuple(range(8)), ldmc5) not in efun._LATTICE_CACHE
    # every record is keyed by its degrees and its column owners: no degree
    # has an entry of its own
    for degrees, owners in efun._LATTICE_CACHE:
        assert type(degrees) is tuple and all(type(d) is int for d in degrees), degrees
        assert owners in (ldmc3, ldmc3_bsc, ldmc5), owners


@pytest.mark.parametrize(("name", "parts"), [("ldmc5_bec", (7, 8)), ("units", (5, 4, 4))])
def test_lattices_a_cold_table_builds_per_degree(monkeypatch, name, parts):
    # a degree builds its types and its heads; its tails are its types when
    # they have as many parts, as in every built-in layout (LDMC5: 7 and 7)
    calls = []
    lattice = efun._lattice
    monkeypatch.setattr(efun, "_lattice", lambda d, K: calls.append((d, K)) or lattice(d, K))
    monkeypatch.setattr(efun, "_LATTICE_CACHE", {})
    alphabet = ALPHABETS[name][0]
    efun._table(MessageAlphabet(alphabet.channel, alphabet.entries), "error", 10)
    assert sorted(calls) == sorted((d, K) for d in range(11) for K in parts)


def test_ldmc5_at_degree_12_in_bounded_memory(tmp_path):
    # about 49 MB (46 MB when a build held one degree's rows at a time); the
    # whole-lattice build peaked at 519-522 MB here
    out = tmp_path / "devo.csv"
    argv = ["devo", "--family", "ldmc5", "--alpha-grid", "1.0", "--ell", "2", "--dmax", "12", "--out", str(out)]
    peak_mb = peak_rss_mb(["-m", "gracecode.cli", *argv])
    assert peak_mb < 100, peak_mb
    assert out.read_bytes() == (GOLDEN / "devo_ldmc5_dmax12.csv").read_bytes()
