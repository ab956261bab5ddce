"""The content-addressed result cache."""

import json

import pytest

from repro.core.config import RdmaConfig
from repro.exec.cache import ResultCache, cache_key
from repro.exec.runner import SweepTask


def task(**overrides) -> SweepTask:
    defaults = dict(config=RdmaConfig(2, 2, 8, 4), record_size=16, seed=7)
    defaults.update(overrides)
    return SweepTask(**defaults)


def test_key_is_deterministic():
    assert task().cache_key() == task().cache_key()


def test_key_is_hex_sha256():
    key = task().cache_key()
    assert len(key) == 64
    int(key, 16)


@pytest.mark.parametrize("overrides", [
    {"config": RdmaConfig(2, 2, 8, 8)},
    {"record_size": 64},
    {"seed": 8},
    {"read_fraction": 0.0},
    {"batches_per_connection": 60},
    {"warmup_batches": 5},
    {"extra_outstanding": 1},
    {"switch_hops": 3},
    {"dependent_reads": True},
    {"config": RdmaConfig(2, 2, 8, 4, use_verb_programs=True)},
])
def test_key_covers_every_measurement_input(overrides):
    assert task(**overrides).cache_key() != task().cache_key()


def test_cosmetic_fields_stay_out_of_the_key():
    """Labels annotate progress output: they may not fragment the cache."""
    assert task(label="dep-program-4096").cache_key() == task().cache_key()


def test_key_rejects_unhashable_garbage():
    with pytest.raises(TypeError):
        cache_key(config=object())


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = task().cache_key()
    payload = {"result": {"throughput": 1.25e8}, "snapshot": {}}
    path = cache.put(key, payload)
    assert path.is_file()
    blob = cache.get(key)
    assert blob["result"] == payload["result"]
    assert blob["key"] == key
    assert cache.hits == 1 and cache.misses == 0
    assert len(cache) == 1


def test_missing_key_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert cache.get(task().cache_key()) is None
    assert cache.misses == 1


def test_corrupt_blob_is_a_miss_not_an_error(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = task().cache_key()
    cache.put(key, {"result": {}})
    cache._path(key).write_text("{ not json")
    assert cache.get(key) is None


def test_schema_or_key_mismatch_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = task().cache_key()
    cache.put(key, {"result": {}})
    blob = json.loads(cache._path(key).read_text())
    blob["key"] = "0" * 64  # filename collision with a different full key
    cache._path(key).write_text(json.dumps(blob))
    assert cache.get(key) is None


def test_float_inputs_round_trip_exactly(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    value = 1.9236007618517552e-05  # shortest-repr float survives JSON
    cache.put("ab" * 32, {"result": {"latency_mean": value}})
    assert cache.get("ab" * 32)["result"]["latency_mean"] == value
