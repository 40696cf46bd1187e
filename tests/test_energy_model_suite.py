"""Tests for the energy models (Eq. 7-8), the model suite and calibration."""

import numpy as np
import pytest

from repro.circuits.conditions import OperatingConditions
from repro.core.calibration import calibrate, calibrated_suite, clear_calibration_cache
from repro.core.characterization import CharacterizationPlan
from repro.core.energy_model import DischargeEnergyModel, WriteEnergyModel
from repro.core.model_suite import OptimaModelSuite
from repro.circuits.technology import tsmc65_like


class TestWriteEnergyModel:
    def test_tracks_reference(self, quick_calibration):
        sweep = quick_calibration.data.write_energy
        model = quick_calibration.suite.write_energy
        predicted = model.energy(sweep.vdd, sweep.temperature)
        assert float(np.max(np.abs(predicted - sweep.energy))) < 2e-15

    def test_word_energy_scaling(self, suite):
        per_bit = suite.write_energy.energy(1.0, 300.15)
        word = suite.write_energy.word_energy(1.0, 300.15, bits=4)
        assert float(word) == pytest.approx(4.0 * float(per_bit))
        with pytest.raises(ValueError):
            suite.write_energy.word_energy(1.0, 300.15, bits=0)

    def test_serialisation_roundtrip(self, suite):
        clone = WriteEnergyModel.from_dict(suite.write_energy.to_dict())
        assert float(clone.energy(1.0, 300.15)) == pytest.approx(
            float(suite.write_energy.energy(1.0, 300.15))
        )

    def test_default_degrees_factory(self):
        model = WriteEnergyModel.with_default_degrees()
        assert model.model.degrees == [2, 1]


class TestDischargeEnergyModel:
    def test_tracks_reference(self, quick_calibration):
        sweep = quick_calibration.data.discharge_energy
        model = quick_calibration.suite.discharge_energy
        predicted = model.energy(sweep.delta_v_bl, sweep.vdd, sweep.temperature)
        assert float(np.mean(np.abs(predicted - sweep.energy))) < 1e-15

    def test_monotone_in_swing(self, suite):
        model = suite.discharge_energy
        swings = np.linspace(0.0, 0.5, 8)
        energies = model.energy(swings, 1.0, 300.15)
        assert np.all(np.diff(energies) > -1e-18)

    def test_non_negative(self, suite):
        model = suite.discharge_energy
        assert float(model.energy(-0.2, 1.0, 300.15)) >= 0.0

    def test_serialisation_roundtrip(self, suite):
        clone = DischargeEnergyModel.from_dict(suite.discharge_energy.to_dict())
        assert float(clone.energy(0.3, 1.0, 300.15)) == pytest.approx(
            float(suite.discharge_energy.energy(0.3, 1.0, 300.15))
        )

    def test_default_degrees_factory(self):
        model = DischargeEnergyModel.with_default_degrees()
        assert model.model.degrees == [1, 3, 1]


class TestModelSuite:
    def test_conditions_defaults(self, suite):
        nominal = float(suite.discharge_voltage(1.0e-9, 0.9))
        explicit = float(
            suite.discharge_voltage(
                1.0e-9,
                0.9,
                OperatingConditions(vdd=suite.vdd_nominal, temperature=suite.temperature_nominal),
            )
        )
        assert nominal == pytest.approx(explicit)

    def test_energy_queries(self, suite):
        conditions = OperatingConditions(vdd=1.0, temperature=300.15)
        assert suite.write_energy_per_bit(conditions) > 0.0
        assert suite.word_write_energy(conditions) > suite.write_energy_per_bit(conditions)
        assert float(suite.discharge_event_energy(0.3, conditions)) > 0.0

    def test_save_and_load_roundtrip(self, suite, tmp_path):
        path = suite.save(tmp_path / "suite.json")
        loaded = OptimaModelSuite.load(path)
        assert loaded.technology_name == suite.technology_name
        assert float(loaded.discharge_voltage(1.0e-9, 0.8)) == pytest.approx(
            float(suite.discharge_voltage(1.0e-9, 0.8))
        )
        assert float(loaded.mismatch_sigma(1.0e-9, 0.8)) == pytest.approx(
            float(suite.mismatch_sigma(1.0e-9, 0.8))
        )

    def test_metadata_contains_rms_errors(self, suite):
        assert "rms_errors" in suite.metadata
        assert suite.metadata["record_count"] > 0


class TestCalibrationCache:
    def test_cache_returns_same_object(self):
        clear_calibration_cache()
        technology = tsmc65_like()
        plan = CharacterizationPlan.quick()
        first = calibrated_suite(technology, plan)
        second = calibrated_suite(technology, plan)
        assert first is second
        clear_calibration_cache()

    def test_scaled_card_with_same_name_is_not_served_stale(self):
        """Regression: the memo was keyed on the card's *name*, so a
        ``scaled()`` copy (same name) got the unscaled card's suite back."""
        clear_calibration_cache()
        plan = CharacterizationPlan.quick()
        technology = tsmc65_like()
        scaled = technology.scaled(vdd_nominal=1.3)
        assert scaled.name == technology.name
        unscaled = calibrated_suite(technology, plan)
        rescaled = calibrated_suite(scaled, plan)
        assert rescaled is not unscaled
        assert rescaled.suite.vdd_nominal == 1.3
        assert rescaled.suite.to_dict() != unscaled.suite.to_dict()
        assert rescaled.suite.to_dict() == calibrate(scaled, plan).suite.to_dict()
        assert calibrated_suite(technology, plan) is unscaled
        clear_calibration_cache()

    def test_describe_mentions_technology(self, quick_calibration):
        assert "tsmc65-like" in quick_calibration.describe()
