"""Tests for JSON model/solution serialization."""

from __future__ import annotations

import gc
import json
import tracemalloc

import pytest

from repro.core.model import CrossbarModel
from repro.core.state import SwitchDimensions
from repro.core.traffic import TrafficClass
from repro.exceptions import ConfigurationError
from repro.io import (
    class_from_dict,
    class_to_dict,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    solution_to_dict,
)


@pytest.fixture
def model():
    return CrossbarModel(
        SwitchDimensions(6, 8),
        (
            TrafficClass.poisson(0.1, weight=2.0, name="data"),
            TrafficClass(alpha=0.05, beta=0.2, mu=1.5, a=2, name="video"),
        ),
    )


class TestClassRoundTrip:
    def test_roundtrip_preserves_fields(self, model):
        for cls in model.classes:
            clone = class_from_dict(class_to_dict(cls))
            assert clone == cls
            assert clone.name == cls.name

    def test_defaults(self):
        cls = class_from_dict({"alpha": 0.2})
        assert cls.beta == 0.0 and cls.mu == 1.0 and cls.a == 1
        assert cls.weight == cls.mu  # library default

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            class_from_dict({"alpha": 0.1, "lambda": 3})

    def test_missing_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            class_from_dict({"beta": 0.1})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigurationError):
            class_from_dict([1, 2, 3])


class TestNameMemo:
    def test_repeated_names_share_one_copy(self):
        first = class_from_dict(json.loads('{"alpha": 0.1, "name": "data"}'))
        again = class_from_dict(json.loads('{"alpha": 0.2, "name": "data"}'))
        assert first.name == again.name == "data"
        assert first.name is again.name

    def test_distinct_names_leave_no_growth_behind(self):
        # Class names are client input on the serving path: decoding
        # many distinct ones must not keep them all alive.
        class_from_dict({"alpha": 0.1, "name": "warm-up"})
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(10_000):
                class_from_dict({"alpha": 0.1, "name": f"client-class-{i:05d}"})
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # 10k kept names would be ~0.7 MB; the bounded memo is a few KB.
        assert grown < 100_000, grown

    def test_non_string_names_are_stringified(self):
        assert class_from_dict({"alpha": 0.1, "name": 7}).name == "7"


class TestModelRoundTrip:
    def test_dict_roundtrip(self, model):
        clone = model_from_dict(model_to_dict(model))
        assert clone.dims == model.dims
        assert clone.classes == model.classes

    def test_file_roundtrip(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert clone.dims == model.dims
        assert clone.classes == model.classes

    def test_file_is_valid_json(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        record = json.loads(path.read_text())
        assert record["n1"] == 6 and record["n2"] == 8

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigurationError):
            model_from_dict({"n1": 4, "classes": []})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_model(path)

    def test_roundtripped_model_solves_identically(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        original = model.solve()
        recovered = clone.solve()
        assert recovered.blocking(0) == pytest.approx(
            original.blocking(0), rel=1e-14
        )


class TestSolutionExport:
    def test_contains_all_measures(self, model):
        record = solution_to_dict(model.solve())
        assert record["dims"] == [6, 8]
        assert len(record["classes"]) == 2
        entry = record["classes"][1]
        assert {"blocking", "call_congestion", "concurrency",
                "throughput", "kind"} <= set(entry)

    def test_json_serializable(self, model):
        json.dumps(solution_to_dict(model.solve()))
