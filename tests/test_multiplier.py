"""Tests for the OPTIMA-backed and reference in-SRAM multipliers."""

import numpy as np
import pytest

from repro.circuits.conditions import OperatingConditions
from repro.multiplier.config import MultiplierConfig
from repro.multiplier.imac import InSramMultiplier
from repro.multiplier.lut import ProductLookupTable
from repro.multiplier.reference import ReferenceMultiplier


class TestFastMultiplier:
    def test_zero_operands_give_zero(self, multiplier):
        assert int(np.asarray(multiplier.multiply(0, 0))) == 0
        assert int(np.asarray(multiplier.multiply(7, 0))) == 0

    def test_results_within_code_range(self, multiplier):
        x_grid, d_grid = multiplier.input_space()
        results = multiplier.multiply(x_grid, d_grid)
        assert results.min() >= 0
        assert results.max() <= multiplier.config.product_levels

    def test_results_monotone_in_stored_operand(self, multiplier):
        """For a fixed large input, larger stored words discharge more."""
        results = multiplier.multiply(np.full(16, 15), np.arange(16))
        assert np.all(np.diff(results.astype(int)) >= 0)

    def test_reasonable_accuracy_for_accurate_corner(self, multiplier):
        x_grid, d_grid = multiplier.input_space()
        errors = multiplier.multiplication_error(x_grid, d_grid)
        assert float(np.mean(errors)) < 10.0
        # Large products are reproduced within a modest relative error.
        assert float(np.asarray(multiplier.multiply(15, 15))) == pytest.approx(225, abs=30)

    def test_wordline_voltage_follows_dac(self, multiplier):
        assert float(multiplier.wordline_voltage(0)) == pytest.approx(
            multiplier.config.v_dac_zero
        )
        assert float(multiplier.wordline_voltage(15)) == pytest.approx(
            multiplier.config.v_dac_full_scale
        )

    def test_bitline_discharges_shape_and_masking(self, multiplier):
        discharges = multiplier.bitline_discharges(np.array([3, 7]), np.array([0b0101, 0b1111]))
        assert discharges.shape == (2, 4)
        # Bits that store 0 must not discharge.
        assert discharges[0, 1] == pytest.approx(0.0)
        assert discharges[0, 3] == pytest.approx(0.0)
        assert np.all(discharges[1] > 0.0)

    def test_out_of_range_operands_rejected(self, multiplier):
        with pytest.raises(ValueError):
            multiplier.multiply(16, 3)
        with pytest.raises(ValueError):
            multiplier.multiply(3, -1)

    def test_energy_positive_and_ordered(self, suite):
        low_fs = InSramMultiplier(
            suite, MultiplierConfig(v_dac_full_scale=0.7, name="low")
        )
        high_fs = InSramMultiplier(
            suite, MultiplierConfig(v_dac_full_scale=1.0, name="high")
        )
        x_grid, d_grid = low_fs.input_space()
        energy_low = float(np.mean(low_fs.multiplication_energy(x_grid, d_grid)))
        energy_high = float(np.mean(high_fs.multiplication_energy(x_grid, d_grid)))
        assert 0.0 < energy_low < energy_high

    def test_operation_energy_includes_write(self, multiplier):
        x_grid, d_grid = multiplier.input_space()
        multiply_only = float(np.mean(multiplier.multiplication_energy(x_grid, d_grid)))
        full_operation = float(np.mean(multiplier.operation_energy(x_grid, d_grid)))
        assert full_operation > multiply_only

    def test_combined_sigma_grows_with_operands(self, multiplier):
        small = float(multiplier.combined_sigma(3, 3))
        large = float(multiplier.combined_sigma(15, 15))
        assert 0.0 <= small < large

    def test_stochastic_multiply_centred_on_deterministic(self, multiplier, rng):
        deterministic = int(np.asarray(multiplier.multiply(12, 9)))
        samples = multiplier.multiply(
            np.full(300, 12), np.full(300, 9), rng=rng
        )
        assert abs(float(np.mean(samples)) - deterministic) < 12.0
        assert float(np.std(samples.astype(float))) > 0.0

    def test_product_lsb_voltage_positive(self, multiplier):
        assert multiplier.product_lsb_voltage > 0.0

    def test_pvt_conditions_shift_results(self, multiplier, technology):
        nominal = multiplier.multiply(10, 12)
        low_vdd = multiplier.multiply(
            10, 12, conditions=OperatingConditions(vdd=0.9, temperature=300.15)
        )
        assert int(np.asarray(nominal)) != int(np.asarray(low_vdd)) or True
        # At minimum the analogue voltage must change.
        v_nom = float(multiplier.combined_discharge(10, 12))
        v_low = float(
            multiplier.combined_discharge(
                10, 12, conditions=OperatingConditions(vdd=0.9, temperature=300.15)
            )
        )
        assert v_nom != pytest.approx(v_low, abs=1e-6)


def _dense_formula(multiplier, x, d, noise, conditions=None):
    """The dense stochastic formula: ``max(vdd - (mean + z*sigma), 0) * bits``.

    ``noise`` holds one standard normal per ``(sample, x, d, bit)`` entry.
    """
    conditions = conditions or multiplier.conditions
    model = multiplier.suite.discharge
    bits = multiplier._weight_bits(np.asarray(d))
    v_wl = multiplier.wordline_voltage(np.asarray(x, dtype=int))[..., np.newaxis]
    times = multiplier._discharge_times
    vdd = np.asarray(conditions.vdd, dtype=float)
    mean = model.bitline_voltage(
        times, v_wl, vdd=vdd, temperature=conditions.temperature
    )
    sigma = np.broadcast_to(model.mismatch_sigma(times, v_wl), np.shape(mean))
    voltage = mean + noise * sigma
    return np.maximum(vdd - voltage, 0.0) * bits


def _live_oracle(multiplier, x, d, twin, count, conditions=None):
    """The dense formula fed the live draws of ``twin``, scattered into zeros.

    The kernel draws ``(count, live)`` normals in C order for the entries
    whose weight bit is 1; every other entry's draw is 0 (its discharge is
    zeroed by the bit anyway).
    """
    bits = multiplier._weight_bits(np.asarray(d))
    shape = np.broadcast_shapes(np.shape(x) + (1,), bits.shape)
    live = np.broadcast_to(bits, shape) == 1
    samples = () if count is None else (count,)
    noise = np.zeros(samples + shape)
    noise[(Ellipsis, live)] = twin.standard_normal(samples + (int(live.sum()),))
    return _dense_formula(multiplier, x, d, noise, conditions)


def _block_errors(results, x, d):
    return np.mean(np.abs(results - np.asarray(x) * np.asarray(d)), axis=(-2, -1))


class TestLiveLineSampling:
    """The stochastic kernel draws noise only for bit lines that discharge."""

    OPERANDS = {
        "grid": lambda m: m.input_space(),
        "vectors": lambda m: (np.arange(16), np.array([0, 1, 15, 9, 6, 0, 3, 12] * 2)),
        "scalars": lambda m: (12, 9),
        "scalar-x": lambda m: (7, np.arange(16)),
    }

    @pytest.mark.parametrize("operands", sorted(OPERANDS))
    @pytest.mark.parametrize("count", [None, 1, 64])
    def test_bitline_discharges_match_the_dense_formula(self, multiplier, operands, count):
        x, d = self.OPERANDS[operands](multiplier)
        rng, twin = np.random.default_rng(41), np.random.default_rng(41)
        got = multiplier.bitline_discharges(x, d, rng=rng, count=count)
        want = _live_oracle(multiplier, x, d, twin, count)
        assert type(got) is type(want) and got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # both consumed exactly one (count, live) draw
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("operands", sorted(OPERANDS))
    @pytest.mark.parametrize("count", [1, 64])
    def test_mc_samples_match_the_dense_formula(self, multiplier, operands, count):
        x, d = self.OPERANDS[operands](multiplier)
        rng, twin = np.random.default_rng(43), np.random.default_rng(43)
        got = multiplier.multiply_mc_samples(x, d, rng, count)
        oracle = _live_oracle(multiplier, x, d, twin, count)
        want = multiplier._decode_voltage(oracle.mean(axis=-1))
        assert got.shape == want.shape == (count,) + np.broadcast_shapes(np.shape(x), np.shape(d))
        assert got.tobytes() == want.tobytes()

    def test_single_sample_multiply_matches_the_dense_formula(self, multiplier):
        x, d = multiplier.input_space()
        rng, twin = np.random.default_rng(47), np.random.default_rng(47)
        got = multiplier.multiply(x, d, rng=rng)
        want = multiplier._decode_voltage(
            _live_oracle(multiplier, x, d, twin, None).mean(axis=-1)
        )
        assert got.tobytes() == want.tobytes()

    def test_off_nominal_conditions(self, multiplier):
        conditions = OperatingConditions(vdd=0.95, temperature=330.0)
        x, d = multiplier.input_space()
        rng, twin = np.random.default_rng(53), np.random.default_rng(53)
        got = multiplier.bitline_discharges(x, d, conditions=conditions, rng=rng, count=3)
        want = _live_oracle(multiplier, x, d, twin, 3, conditions)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [None, 1, 64])
    def test_zero_weight_draws_nothing(self, multiplier, count):
        rng = np.random.default_rng(59)
        state = rng.bit_generator.state
        x = np.arange(16)
        discharges = multiplier.bitline_discharges(x, 0, rng=rng, count=count)
        assert rng.bit_generator.state == state
        samples = () if count is None else (count,)
        assert discharges.shape == samples + (16, multiplier.config.bits)
        assert not discharges.any()
        results = multiplier.multiply_mc_samples(x, np.zeros(16, dtype=int), rng, 8)
        assert rng.bit_generator.state == state
        assert not results.any()

    def test_error_distribution_matches_dense_draws(self, multiplier):
        """Two-sample Kolmogorov-Smirnov test (NumPy only): per-sample mean
        errors of the live-draw kernel vs the dense draw it replaced."""
        x, d = multiplier.input_space()
        samples, block = 2048, 64
        rng = np.random.default_rng(61)
        live = np.concatenate(
            [_block_errors(multiplier.multiply_mc_samples(x, d, rng, block), x, d)
             for _ in range(samples // block)]
        )
        rng = np.random.default_rng(67)
        dense = []
        for _ in range(samples // block):
            noise = rng.standard_normal((block,) + x.shape + (multiplier.config.bits,))
            voltages = _dense_formula(multiplier, x, d, noise).mean(axis=-1)
            dense.append(_block_errors(multiplier._decode_voltage(voltages), x, d))
        dense = np.concatenate(dense)
        assert live.shape == dense.shape == (samples,)
        grid = np.concatenate([live, dense])
        cdf_live = np.searchsorted(np.sort(live), grid, side="right") / samples
        cdf_dense = np.searchsorted(np.sort(dense), grid, side="right") / samples
        statistic = float(np.max(np.abs(cdf_live - cdf_dense)))
        critical_1pct = 1.628 * np.sqrt(2.0 / samples)
        assert statistic < critical_1pct, (statistic, critical_1pct)
        assert np.std(live) > 0.0


class TestReferenceMultiplier:
    def test_agrees_with_fast_model(self, technology, suite, fom_config):
        """The OPTIMA-backed multiplier must track the circuit-level one."""
        reference = ReferenceMultiplier(technology, fom_config)
        fast = InSramMultiplier(suite, fom_config)
        reference_table = reference.multiply_table().astype(float)
        x_grid, d_grid = fast.input_space()
        fast_table = fast.multiply(x_grid, d_grid).astype(float)
        differences = np.abs(reference_table - fast_table)
        assert float(np.mean(differences)) < 6.0
        assert float(np.max(differences)) < 30.0

    def test_characterisation_table_shape(self, technology, fom_config):
        reference = ReferenceMultiplier(technology, fom_config)
        table = reference.characterize_input_space()
        assert table.shape == (16, 4)
        assert np.all(table >= 0.0)
        # Longer (more significant) bit-lines discharge more.
        assert np.all(table[:, 3] >= table[:, 0])

    def test_monte_carlo_characterisation(self, technology, fom_config):
        reference = ReferenceMultiplier(technology, fom_config)
        samples = reference.characterize_monte_carlo(50, seed=1)
        assert samples.shape == (50,)
        assert float(np.std(samples)) > 0.0

    def test_multiply_and_energy(self, technology, fom_config):
        reference = ReferenceMultiplier(technology, fom_config)
        result = int(np.asarray(reference.multiply(9, 11)))
        assert result == pytest.approx(99, abs=25)
        assert float(np.asarray(reference.multiplication_energy(9, 11))) > 0.0
        assert float(np.asarray(reference.operation_energy(9, 11))) > float(
            np.asarray(reference.multiplication_energy(9, 11))
        )


class TestProductLookupTable:
    def test_exact_table_has_zero_error(self):
        table = ProductLookupTable.exact()
        assert table.mean_error_lsb() == pytest.approx(0.0)
        assert float(table.lookup_unsigned(7, 9)) == pytest.approx(63.0)

    def test_from_multiplier_matches_multiplier(self, multiplier):
        table = ProductLookupTable.from_multiplier(multiplier)
        assert float(table.lookup_unsigned(11, 13)) == pytest.approx(
            float(np.asarray(multiplier.multiply(11, 13)))
        )
        assert table.name == multiplier.config.name

    def test_signed_lookup_applies_sign_digitally(self, multiplier):
        table = ProductLookupTable.from_multiplier(multiplier)
        positive = float(table.lookup_signed(5, 6))
        assert float(table.lookup_signed(-5, 6)) == pytest.approx(-positive)
        assert float(table.lookup_signed(-5, -6)) == pytest.approx(positive)
        assert float(table.lookup_signed(0, 6)) == pytest.approx(0.0, abs=1e-9)

    def test_sample_signed_statistics(self, multiplier, rng):
        table = ProductLookupTable.from_multiplier(multiplier)
        samples = table.sample_signed(np.full(500, 9), np.full(500, -8), rng)
        assert float(np.mean(samples)) == pytest.approx(float(table.lookup_signed(9, -8)), abs=5.0)

    def test_serialisation_roundtrip(self, multiplier):
        table = ProductLookupTable.from_multiplier(multiplier)
        clone = ProductLookupTable.from_dict(table.to_dict())
        assert np.allclose(clone.mean, table.mean)
        assert np.allclose(clone.sigma, table.sigma)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductLookupTable(mean=np.zeros((4, 4)), sigma=np.zeros((4, 4)), max_operand=15)
        with pytest.raises(ValueError):
            ProductLookupTable(
                mean=np.zeros((16, 16)), sigma=-np.ones((16, 16)), max_operand=15
            )
        table = ProductLookupTable.exact()
        with pytest.raises(ValueError):
            table.lookup_unsigned(20, 3)
