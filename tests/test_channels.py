"""Channel utilities: entropy helpers, metrics, surrogates, convexity probe."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gracecode.channels import (
    ERASED,
    BMSummary,
    ChannelParam,
    ReceivedWord,
    binary_divergence,
    bms_metrics,
    h_b,
    h_b_inv,
    matched_surrogates,
    mgl_variant_check,
    transmit,
)


def test_h_b_known_values():
    assert h_b(0.0) == 0.0
    assert h_b(1.0) == 0.0
    assert h_b(0.5) == 1.0
    assert abs(h_b(0.11) - 0.49992) < 1e-4


def test_h_b_array():
    out = h_b(np.array([0.0, 0.25, 0.5]))
    assert out.shape == (3,)
    assert abs(out[1] - 0.8112781244591328) < 1e-12


def test_h_b_keeps_nan():
    # a NaN posterior is not a certain bit: it must not read as entropy 0
    assert np.isnan(h_b(float("nan")))
    assert np.isnan(h_b(np.float64("nan")))
    out = h_b(np.array([np.nan, 0.3, 0.0, 1.0, -0.5]))
    assert np.isnan(out[0]) and out[1] == h_b(0.3) and out[2:].tolist() == [0.0, 0.0, 0.0]
    assert np.isnan(h_b(np.array([[0.25, np.nan]]))[0, 1])


def test_h_b_inv_endpoints():
    assert h_b_inv(0.0) == 0.0
    assert h_b_inv(1.0) == 0.5
    assert abs(h_b_inv(0.5) - 0.11002786443835955) < 1e-6


def test_h_b_inv_out_of_range():
    with pytest.raises(ValueError):
        h_b_inv(1.5)
    with pytest.raises(ValueError):
        h_b_inv(-0.2)


@given(st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_h_b_roundtrip(x):
    assert abs(h_b_inv(h_b(x)) - x) < 1e-9


def test_channel_param_validation():
    assert ChannelParam.bec(0.3).kind == "BEC"
    assert ChannelParam.bsc(0.3).kind == "BSC"
    with pytest.raises(ValueError):
        ChannelParam.bec(1.5)
    with pytest.raises(ValueError):
        ChannelParam.bsc(0.6)
    with pytest.raises(ValueError):
        ChannelParam("AWGN", 0.1)


def test_bms_metrics_bec():
    m = bms_metrics(ChannelParam.bec(0.3))
    assert m == BMSummary(pe=0.15, capacity=0.7, chi2_capacity=0.7)


def test_bms_metrics_bsc():
    m = bms_metrics(ChannelParam.bsc(0.11))
    assert m.pe == 0.11
    assert abs(m.capacity - (1.0 - h_b(0.11))) < 1e-15
    assert abs(m.chi2_capacity - 0.78 ** 2) < 1e-15


def test_matched_surrogates_degradation():
    bec, bsc = matched_surrogates(0.25, "degradation")
    assert bec == ChannelParam.bec(0.5)
    assert bsc == ChannelParam.bsc(0.25)


def test_matched_surrogates_capacity():
    bec, bsc = matched_surrogates(0.5, "capacity")
    assert abs(bec.param - 0.5) < 1e-12
    assert abs(h_b(bsc.param) - 0.5) < 1e-9


def test_matched_surrogates_chi2():
    bec, bsc = matched_surrogates(0.49, "chi2")
    assert abs(bec.param - 0.51) < 1e-12
    assert abs((1.0 - 2.0 * bsc.param) ** 2 - 0.49) < 1e-12


def test_matched_surrogates_from_channel():
    # surrogates matched to a channel's own metric reproduce consistent params
    bec, bsc = matched_surrogates(ChannelParam.bsc(0.11), "capacity")
    assert abs(bms_metrics(bec).capacity - bms_metrics(ChannelParam.bsc(0.11)).capacity) < 1e-9
    assert abs(bsc.param - 0.11) < 1e-6


def test_matched_surrogates_errors():
    with pytest.raises(ValueError):
        matched_surrogates(0.75, "degradation")
    with pytest.raises(ValueError):
        matched_surrogates(0.5, "nonsense")


def test_transmit_bec_deterministic():
    bits = np.zeros(1000, dtype=np.int8)
    a = transmit(bits, ChannelParam.bec(0.4), np.random.default_rng(5))
    b = transmit(bits, ChannelParam.bec(0.4), np.random.default_rng(5))
    assert np.array_equal(a.symbols, b.symbols)
    frac = float(np.mean(a.symbols == ERASED))
    assert abs(frac - 0.4) < 0.06


def test_transmit_bsc_no_erasures():
    bits = np.zeros(1000, dtype=np.int8)
    out = transmit(bits, ChannelParam.bsc(0.2), np.random.default_rng(1))
    assert not np.any(out.symbols == ERASED)
    assert abs(float(np.mean(out.symbols)) - 0.2) < 0.05


@pytest.mark.parametrize("symbols", [[257, 5], [0, 256], [1, 2], [0.5, 1], [0, np.nan], [-2, 0]])
def test_received_word_rejects_symbols_a_bec_cannot_output(symbols):
    # checked before the int8 cast: 257 must not be stored as 1, nor 256 as 0
    with pytest.raises(ValueError, match="BEC symbols must be"):
        ReceivedWord(np.array(symbols), ChannelParam.bec(0.5))


@pytest.mark.parametrize("symbols", [[0, ERASED], [1, 2], [256, 1]])
def test_received_word_rejects_symbols_a_bsc_cannot_output(symbols):
    with pytest.raises(ValueError, match="BSC symbols must be 0 or 1"):
        ReceivedWord(np.array(symbols), ChannelParam.bsc(0.1))


def test_transmit_rejects_a_codeword_that_is_not_bits():
    # checked before the int8 cast, which would send 257 as 1 and 256 as 0
    rng = np.random.default_rng(0)
    for codeword in ([257, 256, 0], [0, 2], [-1, 1], [0.5, 0]):
        with pytest.raises(ValueError, match="codeword bits must be 0 or 1"):
            transmit(np.array(codeword), ChannelParam.bec(0.0), rng)
    assert transmit([True, False], ChannelParam.bec(0.0), rng).symbols.tolist() == [1, 0]


def test_received_word_keeps_valid_symbols_as_int8():
    word = ReceivedWord(np.array([1, ERASED, 0], dtype=np.int64), ChannelParam.bec(0.5))
    assert word.symbols.dtype == np.int8 and word.symbols.tolist() == [1, ERASED, 0]
    assert ReceivedWord([True, False], ChannelParam.bsc(0.1)).symbols.tolist() == [1, 0]


def test_binary_divergence():
    assert binary_divergence(0.3, 0.3) == 0.0
    val = float(binary_divergence(0.5, 0.25))
    expect = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    assert abs(val - expect) < 1e-12


def test_mgl_variant_check_small_grid():
    rng = np.random.default_rng(0)
    for _ in range(5):
        p, q = rng.uniform(0.05, 0.95, size=2)
        second_min, diag_max = mgl_variant_check(float(p), float(q), 2000)
        assert second_min >= -1e-9
        assert diag_max <= 1e-9


def test_mgl_variant_check_validation():
    with pytest.raises(ValueError):
        mgl_variant_check(0.0, 0.5, 100)
    with pytest.raises(ValueError):
        mgl_variant_check(0.3, 0.5, 2)
