"""Tests for repro.analysis.fitting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.fitting import PowerLawFit, fit_constant, fit_power_law


class TestFitConstant:
    def test_exact_multiple(self):
        bound = [10.0, 40.0, 90.0]
        measured = [x * 2.5 for x in bound]
        assert fit_constant(measured, bound) == pytest.approx(2.5)

    def test_geometric_compromise(self):
        # Ratios 2 and 8: geometric mean 4.
        assert fit_constant([2.0, 8.0], [1.0, 1.0]) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_constant([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_constant([0.0], [1.0])


class TestFitPowerLaw:
    def test_exact_square_law(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        ys = [3 * x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(2.0)
        assert fit.prefactor == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.exponent_ci_low <= 2.0 <= fit.exponent_ci_high

    def test_predict(self):
        fit = PowerLawFit(2.0, 3.0, 1.0, 2.0, 2.0)
        assert fit.predict(10.0) == pytest.approx(300.0)

    def test_noisy_ci_brackets_truth(self):
        rng = np.random.default_rng(0)
        xs = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        ys = 5 * xs**1.5 * np.exp(rng.normal(0, 0.1, xs.size))
        fit = fit_power_law(xs, ys, seed=1)
        assert 1.2 < fit.exponent < 1.8
        assert fit.exponent_ci_low < fit.exponent < fit.exponent_ci_high
        assert fit.exponent_ci_high - fit.exponent_ci_low < 1.0

    def test_deterministic_given_seed(self):
        xs, ys = [1.0, 2.0, 4.0], [1.0, 3.9, 16.5]
        a = fit_power_law(xs, ys, seed=7)
        b = fit_power_law(xs, ys, seed=7)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, -1.0], [1.0, 2.0, 3.0])

    def test_matches_experiment_e3_shape(self):
        """The fit applied to real E3-style data recovers the Δ² exponent."""
        # Measured medians from the standard-profile E3 run (double star).
        deltas = [5.0, 9.0, 17.0, 33.0, 65.0]
        rounds = [33.0, 100.5, 243.5, 1002.0, 3972.0]
        fit = fit_power_law(deltas, rounds, seed=0)
        assert 1.5 < fit.exponent < 2.3
        assert fit.exponent_ci_low < 2.0 < fit.exponent_ci_high + 0.3


class TestTraceAnalytics:
    def test_counts_and_cut_connections(self):
        import numpy as np

        from repro.core.trace import RoundRecord, Trace

        tr = Trace()
        tr.append(
            RoundRecord(
                round_index=1,
                proposals=np.array([[0, 1], [2, 1]]),
                connections=np.array([[0, 1]]),
                tags=np.zeros(4, dtype=np.int64),
                active=np.ones(4, dtype=bool),
            )
        )
        tr.append(
            RoundRecord(
                round_index=2,
                proposals=np.empty((0, 2), dtype=np.int64),
                connections=np.array([[2, 3]]),
                tags=np.zeros(4, dtype=np.int64),
                active=np.ones(4, dtype=bool),
            )
        )
        assert tr.connections_per_round().tolist() == [1, 1]
        assert tr.proposals_per_round().tolist() == [2, 0]
        # Cut {0, 2}: round-1 connection (0,1) crosses; round-2 (2,3) crosses.
        mask = np.array([True, False, True, False])
        assert tr.cut_connections(mask).tolist() == [1, 1]
        # Cut {0, 1}: round-1 inside, round-2 outside — no crossings.
        mask2 = np.array([True, True, False, False])
        assert tr.cut_connections(mask2).tolist() == [0, 0]
