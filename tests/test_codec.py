import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phaseagg import turns
from phaseagg.codec import (
    FecConfig,
    QuantizationConfig,
    bits_to_digits,
    decode_sum,
    demodulate_nearest,
    dequantize_mean,
    digits_to_bits,
    fec_decode,
    fec_encode,
    modulate,
    quantize,
)
from phaseagg.errors import (
    CorruptedAggregateError,
    FramingError,
    InvalidDigitError,
    InvalidGradientError,
    ResidualMaskError,
    ShapeError,
)


def cfg_for(levels=5, clients=4, clip=1.0):
    return QuantizationConfig.with_auto_modulus(clip=clip, levels=levels,
                                                max_clients=clients)


class TestQuantizationConfig:
    def test_auto_modulus_headroom(self):
        cfg = cfg_for(levels=5, clients=4)
        # 4 clients * 4 max digit = 16 < modulus, next power of two is 32
        assert cfg.modulus == 32
        cfg.require_headroom(4)
        with pytest.raises(ValueError):
            cfg.require_headroom(8)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            QuantizationConfig(clip=1.0, levels=4, modulus=24)

    def test_rejects_modulus_above_grid(self):
        with pytest.raises(ValueError):
            QuantizationConfig(clip=1.0, levels=4, modulus=2**33)

    def test_rejects_bad_clip(self):
        with pytest.raises(ValueError):
            QuantizationConfig(clip=0.0, levels=4, modulus=16)
        with pytest.raises(ValueError):
            QuantizationConfig(clip=float("nan"), levels=4, modulus=16)

    def test_step_is_exact(self):
        cfg = QuantizationConfig(clip=1.0, levels=4, modulus=16)
        assert cfg.step * cfg.modulus == turns.MODULUS


class TestQuantize:
    def test_endpoints_and_midpoint(self):
        cfg = cfg_for(levels=5)
        out = quantize([-1.0, 0.0, 1.0], cfg)
        assert out.dtype == np.int64
        assert list(out) == [0, 2, 4]

    def test_hand_value(self):
        # (0.3 + 1) * 4 / 2 = 2.6 rounds to 3; brute force over the bins agrees
        cfg = cfg_for(levels=5)
        assert quantize([0.3], cfg)[0] == 3
        centers = [k * 2 / 4 - 1 for k in range(5)]
        brute = int(np.argmin([abs(0.3 - c) for c in centers]))
        assert brute == 3

    def test_clamps_out_of_range(self):
        cfg = cfg_for(levels=5)
        assert quantize([2.0], cfg)[0] == 4
        assert quantize([-7.5], cfg)[0] == 0

    def test_rejects_non_finite(self):
        cfg = cfg_for()
        with pytest.raises(InvalidGradientError):
            quantize([np.nan], cfg)
        with pytest.raises(InvalidGradientError):
            quantize([np.inf, 0.0], cfg)

    def test_error_bound(self):
        cfg = cfg_for(levels=9)
        gen = np.random.default_rng(3)
        g = gen.uniform(-2, 2, size=500)
        digits = quantize(g, cfg)
        recovered = digits * (2 * cfg.clip / (cfg.levels - 1)) - cfg.clip
        assert np.all(np.abs(recovered - np.clip(g, -1, 1)) <= cfg.clip / (cfg.levels - 1) + 1e-12)


class TestDequantizeMean:
    def test_all_minimum(self):
        cfg = cfg_for(levels=5)
        assert dequantize_mean([0], 4, cfg)[0] == -1.0

    def test_symmetric_midpoint(self):
        cfg = cfg_for(levels=5)
        assert dequantize_mean([8], 4, cfg)[0] == 0.0

    def test_matches_per_client_average(self):
        cfg = cfg_for(levels=5)
        gen = np.random.default_rng(4)
        for _ in range(50):
            digits = gen.integers(0, 5, size=(4, 6))
            mean = dequantize_mean(digits.sum(axis=0), 4, cfg)
            per_client = (digits * (2 * cfg.clip / 4) - cfg.clip).mean(axis=0)
            assert np.allclose(mean, per_client, atol=1e-12)

    def test_rejects_out_of_range_sums(self):
        cfg = cfg_for(levels=5)
        with pytest.raises(CorruptedAggregateError):
            dequantize_mean([17], 4, cfg)
        with pytest.raises(CorruptedAggregateError):
            dequantize_mean([-1], 4, cfg)


class TestModulateDecode:
    def test_zero_digit_is_zero_phase(self):
        cfg = cfg_for()
        assert modulate([0], cfg)[0] == 0

    def test_qpsk_point(self):
        cfg = QuantizationConfig(clip=1.0, levels=2, modulus=4)
        assert modulate([1], cfg)[0] == 2**30

    def test_rejects_digit_out_of_range(self):
        cfg = cfg_for(levels=5)
        with pytest.raises(InvalidDigitError):
            modulate([5], cfg)

    @pytest.mark.parametrize("digits", [[1.5], [np.nan], [0.0, 2.25]])
    def test_rejects_digits_that_are_not_whole(self, digits):
        with pytest.raises(InvalidDigitError):
            modulate(digits, cfg_for(levels=5))

    @pytest.mark.parametrize("bad", [2.5, np.nan, -1, 5])
    def test_rejects_one_bad_digit_in_a_matrix(self, bad):
        digits = np.full((4, 3), 2.0)
        digits[2, 1] = bad
        with pytest.raises(InvalidDigitError):
            modulate(digits, cfg_for(levels=5))

    def test_matrix_rows_equal_row_by_row_modulation(self):
        cfg = cfg_for(levels=5)
        digits = np.random.default_rng(4).integers(0, 5, size=(6, 7))
        symbols = modulate(digits, cfg)
        assert symbols.shape == (6, 7)
        assert symbols.dtype == np.uint32
        for row, d in zip(symbols, digits):
            assert np.array_equal(row, modulate(d, cfg))
        before = symbols.copy()
        digits[0, 0] = (digits[0, 0] + 1) % 5  # the symbols do not view the digits
        assert np.array_equal(symbols, before)

    def test_integer_rows_stack_into_one_fresh_matrix(self):
        cfg = cfg_for(levels=5)
        digits = np.random.default_rng(9).integers(0, 5, size=(6, 7))
        rows = list(digits)
        rows[2] = rows[2].astype(np.uint8)
        symbols = modulate(rows, cfg)
        assert symbols.dtype == np.uint32 and symbols.shape == (6, 7)
        assert np.array_equal(symbols, modulate(digits, cfg))
        assert np.array_equal(modulate(tuple(rows), cfg), symbols)
        assert not any(np.shares_memory(symbols, row) for row in rows)

    @pytest.mark.parametrize("bad, dtype", [
        (-1, np.int64),           # wraps above `levels` in the uint64 matrix
        (5, np.int64),            # equal to `levels`
        (2**63, np.uint64),       # a uint64 row holding 2**63
        (1.5, np.float64),        # fractional float rows keep the checked path
    ])
    @pytest.mark.parametrize("others", [np.int64, np.uint64])
    def test_rows_are_refused_with_the_matrix_message(self, bad, dtype, others):
        cfg = cfg_for(levels=5)
        rows = [np.array([1, 2, 3], dtype=others) for _ in range(3)]
        rows.append(np.array([0, bad, 4], dtype=dtype))
        with pytest.raises(InvalidDigitError) as by_matrix:
            modulate(np.stack(rows), cfg)
        with pytest.raises(InvalidDigitError) as by_rows:
            modulate(rows, cfg)
        assert str(by_rows.value) == str(by_matrix.value)

    def test_rows_of_unequal_length_are_refused(self):
        with pytest.raises(ShapeError):
            modulate([np.array([1, 2]), np.array([1])], cfg_for(levels=5))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 4), st.data())
    def test_rows_equal_the_stacked_matrix(self, count, d, data):
        cfg = cfg_for(levels=5)
        rows = []
        for _ in range(count):
            dtype = data.draw(st.sampled_from([np.int8, np.int64, np.uint8, np.uint64]))
            low = -2 if np.issubdtype(dtype, np.signedinteger) else 0
            high = 2**63 if dtype == np.uint64 else 6
            values = st.one_of(st.integers(low, 6), st.sampled_from([low, high]))
            rows.append(data.draw(hnp.arrays(dtype, d, elements=values)))
        try:
            expected = modulate(np.stack(rows), cfg)
        except InvalidDigitError as exc:
            with pytest.raises(InvalidDigitError) as err:
                modulate(rows, cfg)
            assert str(err.value) == str(exc)
            return
        symbols = modulate(rows, cfg)
        assert symbols.dtype == np.uint32
        assert np.array_equal(symbols, expected)

    def test_accepts_whole_float_digits(self):
        cfg = cfg_for(levels=5)
        assert np.array_equal(modulate([0.0, 4.0], cfg),
                              modulate([0, 4], cfg))

    def test_single_client_roundtrip(self):
        cfg = cfg_for(levels=5)
        gen = np.random.default_rng(5)
        for _ in range(1000):
            digits = gen.integers(0, 5, size=8)
            assert np.array_equal(decode_sum(modulate(digits, cfg), cfg), digits)

    def test_roundtrip_across_level_counts(self):
        gen = np.random.default_rng(6)
        for levels in [2, 3, 4, 7, 16, 33, 64]:
            cfg = QuantizationConfig.with_auto_modulus(1.0, levels, max_clients=1)
            digits = gen.integers(0, levels, size=32)
            assert np.array_equal(decode_sum(modulate(digits, cfg), cfg), digits)

    def test_plaintext_sum_oracle(self):
        cfg = QuantizationConfig(clip=1.0, levels=4, modulus=8)
        total = turns.vector_total([modulate([d], cfg) for d in (1, 2, 3)])
        assert decode_sum(total, cfg)[0] == 6

    def test_linearity_against_brute_force(self):
        gen = np.random.default_rng(7)
        for _ in range(25):
            clients = int(gen.integers(2, 9))
            dim = int(gen.integers(1, 9))
            levels = int(gen.integers(2, 9))
            cfg = QuantizationConfig.with_auto_modulus(1.0, levels, max_clients=clients)
            digits = gen.integers(0, levels, size=(clients, dim))
            total = turns.vector_total([modulate(row, cfg) for row in digits])
            assert np.array_equal(decode_sum(total, cfg), digits.sum(axis=0))

    def test_off_grid_raises_residual_mask(self):
        cfg = cfg_for(levels=5)
        sym = modulate([1, 2], cfg).copy()
        sym[1] += 1
        with pytest.raises(ResidualMaskError):
            decode_sum(sym, cfg)

    def test_decode_all_zero(self):
        cfg = cfg_for()
        assert np.array_equal(decode_sum(np.zeros(4, dtype=np.uint64), cfg),
                              np.zeros(4, dtype=np.int64))

    def test_demodulate_nearest(self):
        cfg = QuantizationConfig(clip=1.0, levels=4, modulus=16)
        sym = modulate([3], cfg)
        assert demodulate_nearest(sym, cfg)[0] == 3
        assert demodulate_nearest(sym + np.uint64(cfg.step // 4), cfg)[0] == 3
        # just past the halfway point rounds to the next constellation index
        assert demodulate_nearest(sym + np.uint64(cfg.step // 2), cfg)[0] == 4


class TestBitsAndFec:
    def test_digit_bit_roundtrip(self):
        cfg = cfg_for(levels=5)
        gen = np.random.default_rng(8)
        digits = gen.integers(0, 5, size=40)
        bits = digits_to_bits(digits, cfg)
        assert bits.size == 40 * cfg.bits_per_digit
        assert np.array_equal(bits_to_digits(bits, cfg), digits)

    def test_payload_bits(self):
        assert cfg_for(levels=5).payload_bits(10) == 30
        assert cfg_for(levels=16).payload_bits(10) == 40

    def test_identity_scheme(self):
        fec = FecConfig(scheme="none")
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(fec_encode(bits, fec), bits)
        assert np.array_equal(fec_decode(bits, fec), bits)
        assert fec.redundancy_bits(16) == 0

    def test_repetition_three(self):
        fec = FecConfig(scheme="repetition", repeat=3)
        encoded = fec_encode([1, 0], fec)
        assert list(encoded) == [1, 1, 1, 0, 0, 0]
        assert list(fec_decode(encoded, fec)) == [1, 0]
        assert fec.redundancy_bits(2) == 4

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(2, 2**16),
           st.one_of(st.just(FecConfig("none")),
                     st.builds(FecConfig, st.just("repetition"), st.integers(2, 5))))
    def test_digits_survive_the_code(self, data, levels, fec):
        # A round never runs the code on its noiseless channel; this is the
        # property it would have checked, for any digit vector.
        cfg = QuantizationConfig.with_auto_modulus(1.0, levels, max_clients=1)
        digits = np.array(data.draw(st.lists(st.integers(0, levels - 1), max_size=64)),
                          dtype=np.int64)
        encoded = fec_encode(digits_to_bits(digits, cfg), fec)
        payload = cfg.payload_bits(digits.size)
        assert encoded.size == payload + fec.redundancy_bits(payload)
        assert np.array_equal(bits_to_digits(fec_decode(encoded, fec), cfg), digits)

    def test_roundtrip_random_strings(self):
        gen = np.random.default_rng(9)
        for fec in [FecConfig("none"), FecConfig("repetition", 2),
                    FecConfig("repetition", 5)]:
            for _ in range(334):
                bits = gen.integers(0, 2, size=int(gen.integers(1, 64))).astype(np.uint8)
                assert np.array_equal(fec_decode(fec_encode(bits, fec), fec), bits)

    def test_framing_error(self):
        fec = FecConfig(scheme="repetition", repeat=3)
        with pytest.raises(FramingError):
            fec_decode([1, 1], fec)

    def test_invalid_scheme(self):
        with pytest.raises(ValueError):
            FecConfig(scheme="hamming")
        with pytest.raises(ValueError):
            FecConfig(scheme="repetition", repeat=1)
