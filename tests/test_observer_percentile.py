"""Tests for percentile-based activation ranges and the relative-target search."""

import numpy as np
import pytest

from repro.core.config import CQConfig
from repro.core.search import BitWidthSearch
from repro.quant.observer import MinMaxObserver


class TestPercentileObserver:
    def test_percentile_ignores_outliers(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, 10000)
        values[0] = 1000.0  # single outlier
        hard = MinMaxObserver()
        robust = MinMaxObserver(percentile=99.0)
        hard.observe(values)
        robust.observe(values)
        assert hard.max_value == pytest.approx(1000.0)
        assert robust.max_value < 2.0

    def test_percentile_none_is_hard_max(self):
        obs = MinMaxObserver(percentile=None)
        obs.observe(np.array([1.0, 50.0]))
        assert obs.max_value == 50.0

    def test_percentile_100_equals_hard_max(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(1000)
        obs = MinMaxObserver(percentile=100.0)
        obs.observe(values)
        assert obs.max_value == pytest.approx(values.max())

    @pytest.mark.parametrize("percentile", [50.0, 97.3, 99.9, 100.0])
    def test_range_equals_two_percentile_calls(self, percentile):
        values = np.random.default_rng(2).standard_normal((16, 3, 5, 5)) * 3.7
        obs = MinMaxObserver(percentile=percentile)
        obs.observe(values)
        assert obs.min_value == float(np.percentile(values, 100.0 - percentile))
        assert obs.max_value == float(np.percentile(values, percentile))

    def test_invalid_percentile_raises(self):
        with pytest.raises(ValueError):
            MinMaxObserver(percentile=0.0)
        with pytest.raises(ValueError):
            MinMaxObserver(percentile=150.0)

    def test_running_max_of_percentiles(self):
        obs = MinMaxObserver(percentile=50.0)
        obs.observe(np.array([0.0, 1.0]))  # median 0.5
        obs.observe(np.array([10.0, 10.0]))  # median 10
        assert obs.max_value == pytest.approx(10.0)

    def test_state_roundtrip_keeps_percentile(self):
        obs = MinMaxObserver(percentile=95.0)
        obs.observe(np.arange(100.0))
        other = MinMaxObserver()
        other.load_state_dict(obs.state_dict())
        assert other.percentile == 95.0

    def test_qmodules_default_percentile(self):
        from repro.quant import QLinear

        layer = QLinear(4, 2, act_bits=2, rng=np.random.default_rng(0))
        assert layer.act_observer.percentile == 99.0

    def test_explicit_none_percentile(self):
        from repro.quant import QConv2d

        layer = QConv2d(2, 2, 3, act_bits=2, act_percentile=None,
                        rng=np.random.default_rng(0))
        assert layer.act_observer.percentile is None


class TestRelativeTargets:
    def make_search(self, t1_relative, evaluate_fn, step=0.5):
        scores = {"layer": np.linspace(0.0, 10.0, 50)}
        config = CQConfig(
            target_avg_bits=2.0, max_bits=4, step=step,
            t1=0.5, t1_relative=t1_relative,
        )
        return BitWidthSearch(scores, {"layer": 3}, evaluate_fn, config)

    def test_relative_scales_targets_by_baseline(self):
        """With a 60%-accurate model and t1=0.5, targets start at 30%."""
        result = self.make_search(True, lambda bits: 0.6).run()
        prune_steps = [s for s in result.steps if s.phase == "prune"]
        assert prune_steps
        assert prune_steps[0].target_accuracy == pytest.approx(0.3)

    def test_absolute_keeps_configured_targets(self):
        result = self.make_search(False, lambda bits: 0.6).run()
        prune_steps = [s for s in result.steps if s.phase == "prune"]
        assert prune_steps
        assert prune_steps[0].target_accuracy == pytest.approx(0.5)

    def test_relative_adds_one_baseline_evaluation(self):
        calls = []

        def evaluator(bits):
            calls.append(1)
            return 1.0

        result = self.make_search(True, evaluator).run()
        # baseline + one call per recorded step
        assert len(calls) == len(result.steps) + 1

    def test_relative_budget_still_met(self):
        result = self.make_search(True, lambda bits: 0.05).run()
        assert result.average_bits <= 2.0 + 1e-9

    def test_auto_step_scales_with_scores(self):
        """Auto step keeps evaluation counts bounded for any score scale."""
        for scale in (1.0, 100.0):
            scores = {"layer": np.linspace(0.0, scale, 50)}
            config = CQConfig(target_avg_bits=2.0, max_bits=4, step=None)
            search = BitWidthSearch(scores, {"layer": 3}, lambda bits: 1.0, config)
            assert search.step == pytest.approx(scale / 40.0)
            result = search.run()
            assert result.evaluations < 200

    def test_explicit_step_honoured(self):
        scores = {"layer": np.linspace(0.0, 10.0, 50)}
        config = CQConfig(target_avg_bits=2.0, max_bits=4, step=0.125)
        search = BitWidthSearch(scores, {"layer": 3}, lambda bits: 1.0, config)
        assert search.step == 0.125
