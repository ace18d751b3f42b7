"""Records are named tuples that cannot be made invalid after they are built.

_replace builds through the constructor, so it normalises and checks
again, and no record takes a new attribute or a new field value.
"""

import re

import numpy as np
import pytest

from guidelab.experiment import parse_config
from guidelab.guidance import GuidanceConfig
from guidelab.oracle import Condition, GmmWorld
from guidelab.par import Analysis, CounterfactualRecord, LlmEndpointConfig
from guidelab.sampler import run_single_batch

from test_experiment_cli import small_config

WORLD = GmmWorld([[-1.0], [1.0]], [[1.0], [1.0]], [0.5, 0.5])


@pytest.mark.parametrize("rec, change, message", [
    (GuidanceConfig("NP"), {"w": -1.0}, "w must be finite and >= 0, got -1.0"),
    (LlmEndpointConfig("https://llm.example", "test-model"), {"timeout": 0.0}, "timeout must be > 0, got 0.0"),
    (WORLD, {"weights": [0.25, 0.5]}, "weights sum to 0.75, expected 1 within 1e-12"),
    (Condition.subset([1]), {"indices": ()}, "condition subset must be non-empty"),
], ids=["GuidanceConfig", "LlmEndpointConfig", "GmmWorld", "Condition"])
def test_replace_runs_the_constructors_check(rec, change, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rec._replace(**change)


def test_replace_normalises_as_the_constructor_does():
    assert Condition.subset([2, 0])._replace(indices=[1, 1]).indices == (1,)
    weights = WORLD._replace(weights=[[0.25, 0.75]]).weights
    assert weights.dtype == np.float64 and weights.tolist() == [0.25, 0.75]


def test_records_take_no_new_attribute_or_field_value():
    config = parse_config(small_config())
    batch = run_single_batch(config.world, config.positive_condition, config.negative_condition, config.schedule,
                             config.guidance, [0])
    analysis = Analysis("a", "b", "c", "d")
    records = [config.guidance, config.schedule, config.world, config.positive_condition, batch, config, analysis,
               CounterfactualRecord("p", analysis, "cf"), LlmEndpointConfig("https://llm.example", "test-model")]
    assert sorted(type(rec).__name__ for rec in records) == [
        "Analysis", "Condition", "CounterfactualRecord", "ExperimentConfig", "GmmWorld", "GuidanceConfig",
        "LlmEndpointConfig", "NoiseSchedule", "TrajectoryBatch"]
    for rec in records:
        assert not hasattr(rec, "__dict__"), type(rec).__name__
        with pytest.raises(AttributeError):
            rec.x = 1
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], rec[0])
