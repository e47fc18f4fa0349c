"""Bit-identity and regression harness for ``repro.model.batch``.

Pins the determinism contract: the vectorised cohort evaluator produces
results bit-identical to the plain scalar ``evaluate()`` — every float
field, the validity verdict and the violation strings — across
window/halo workloads, bypass configurations and sparsity specs.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import conventional, diannao_like, tiny
from repro.baselines.common import prime_factors
from repro.cli import main
from repro.core import SchedulerOptions, schedule
from repro.mapping import build_mapping
from repro.mapping.serialize import mapping_to_dict
from repro.model import (
    HAVE_NUMPY,
    evaluate,
    evaluate_batch,
    model_info,
)
from repro.model import batch as batch_mod
from repro.search import SearchEngine
from repro.sparse import SparsitySpec
from repro.workloads import conv1d, conv2d, make_workload, mttkrp


def _matmul(i=8, j=8, k=8):
    return make_workload(
        "mm", {"I": i, "J": j, "K": k},
        {"A": ["I", "K"], "B": ["K", "J"], "out": ["I", "J"]},
        outputs=["out"],
    )


# Window/halo (conv), unified capacities (tiny/conventional), per-role
# capacities + storage bypass (diannao on non-CNN roles), plain matmul.
_CASES = [
    (conv1d(K=4, C=8, P=16, R=3), tiny()),
    (conv2d(N=1, K=8, C=8, P=6, Q=6, R=3, S=3), conventional()),
    (mttkrp(I=8, K=6, L=4, J=5), diannao_like()),
    (_matmul(8, 6, 8), tiny(l1_words=32, l2_words=256, pes=4)),
]

# Unknown tensor names are ignored per workload, so one spec serves all
# cases (conv tensors I/W/O, mttkrp A/B/C/D, matmul A/B/out).
_SPARSE = SparsitySpec.from_densities(
    {"I": 0.3, "W": 0.5, "A": 0.2, "B": 0.6})

_FIELDS = ("energy_pj", "cycles", "valid", "violations", "level_energy",
           "compute_energy", "noc_energy", "utilization")


def _random_mappings(workload, arch, rng, n):
    """Deterministic random prime-split mappings (valid and invalid)."""
    num = arch.num_levels
    out = []
    for _ in range(n):
        temporal = [dict() for _ in range(num)]
        spatial = [dict() for _ in range(num)]
        for d, size in workload.dims.items():
            for p in prime_factors(size):
                lvl = rng.randrange(num)
                if rng.random() < 0.25 and arch.levels[lvl].fanout > 1:
                    spatial[lvl][d] = spatial[lvl].get(d, 1) * p
                else:
                    temporal[lvl][d] = temporal[lvl].get(d, 1) * p
        orders = []
        for _level in range(num):
            dims = list(workload.dims)
            rng.shuffle(dims)
            orders.append(dims)
        out.append(build_mapping(workload, arch, temporal, spatial, orders))
    return out


def _assert_same(a, b, context):
    for name in _FIELDS:
        assert getattr(a, name) == getattr(b, name), (context, name)


# ---------------------------------------------------------------------------
# Satellite (c): seeded-hypothesis bit-identity property
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_batch_and_scalar_bitwise_identical(seed):
    """Scalar and vectorised paths agree exactly."""
    rng = random.Random(seed)
    workload, arch = _CASES[rng.randrange(len(_CASES))]
    sparsity = rng.choice([None, _SPARSE])
    partial_reuse = rng.random() < 0.75
    mappings = _random_mappings(workload, arch, rng, 8)

    scalar = [evaluate(m, partial_reuse=partial_reuse, sparsity=sparsity)
              for m in mappings]
    batched = evaluate_batch(mappings, partial_reuse=partial_reuse,
                             sparsity=sparsity)
    context = (workload.name, arch.name, sparsity is not None,
               partial_reuse)
    for i, oracle in enumerate(scalar):
        _assert_same(oracle, batched[i], context + ("batch", i))


def test_violation_messages_match_mapping_validate():
    """The batch path's fast validity check mirrors Mapping.validate()."""
    rng = random.Random(7)
    saw_invalid = 0
    for workload, arch in _CASES:
        for mapping in _random_mappings(workload, arch, rng, 16):
            expected = mapping.validate()
            (result,) = evaluate_batch([mapping] * 4)[:1]
            assert result.violations == expected
            saw_invalid += bool(expected)
    assert saw_invalid > 0  # the sample must exercise the invalid branch


# ---------------------------------------------------------------------------
# Tentpole: engine routing determinism (workers x cache x batch)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sparsity", [None, _SPARSE])
def test_scheduler_equivalence_across_batch_configs(sparsity):
    workload, arch = _CASES[0]
    oracle = schedule(workload, arch,
                      SchedulerOptions(workers=1, cache=False, batch=False,
                                       sparsity=sparsity))
    assert oracle.found
    oracle_map = mapping_to_dict(oracle.mapping)
    oracle_cost = (oracle.cost.energy_pj, oracle.cost.cycles)
    configs = [
        dict(workers=1, cache=True, batch=False),
        dict(workers=1, cache=False, batch=True),
        dict(workers=1, cache=True, batch=True),
        dict(workers=2, cache=True, batch=True),
        dict(workers=1, cache=True, batch=True, cache_size=64),
    ]
    for config in configs:
        result = schedule(workload, arch,
                          SchedulerOptions(sparsity=sparsity, **config))
        assert result.found, config
        assert mapping_to_dict(result.mapping) == oracle_map, config
        assert (result.cost.energy_pj, result.cost.cycles) == oracle_cost, \
            config


def test_engine_evaluate_many_routes_through_batch():
    workload, arch = _CASES[3]
    mappings = _random_mappings(workload, arch, random.Random(5), 12)
    engine = SearchEngine(workers=1, cache=True, batch=True)
    results = engine.evaluate_many(mappings)
    oracle = [evaluate(m) for m in mappings]
    for got, want in zip(results, oracle):
        _assert_same(want, got, "engine")
    if HAVE_NUMPY:
        assert engine.stats.batched_evaluations > 0
    assert "model" in engine.stats.stage_time_s
    assert "cache" in engine.stats.stage_time_s


def test_batched_evaluations_count_only_array_rollups():
    """Rows that evaluate_batch hands to the scalar model (a cohort, or a
    (workload, arch) group, below MIN_BATCH) are not vectorised."""
    workload, arch = _CASES[3]
    small = _random_mappings(workload, arch, random.Random(17), 3)
    engine = SearchEngine(workers=1, cache=False, batch=True)
    engine.evaluate_many(small)
    assert engine.stats.evaluations == 3
    assert engine.stats.batched_evaluations == 0

    other_workload, other_arch = _CASES[0]
    mixed = (_random_mappings(workload, arch, random.Random(19), 5)
             + _random_mappings(other_workload, other_arch,
                                random.Random(23), 2))
    engine = SearchEngine(workers=1, cache=False, batch=True)
    results = engine.evaluate_many(mixed)
    for got, mapping in zip(results, mixed):
        _assert_same(evaluate(mapping), got, "mixed")
    assert engine.stats.evaluations == 7
    assert engine.stats.batched_evaluations == (5 if HAVE_NUMPY else 0)


def test_no_numpy_fallback_is_bitwise_scalar(monkeypatch):
    workload, arch = _CASES[2]
    mappings = _random_mappings(workload, arch, random.Random(11), 8)
    oracle = [evaluate(m) for m in mappings]
    monkeypatch.setattr(batch_mod, "_np", None)
    fallback = evaluate_batch(mappings)
    for got, want in zip(fallback, oracle):
        _assert_same(want, got, "no-numpy")
    engine = SearchEngine(workers=1, cache=False, batch=True)
    for got, want in zip(engine.evaluate_many(mappings), oracle):
        _assert_same(want, got, "no-numpy-engine")
    assert engine.stats.batched_evaluations in (0, len(mappings))


# ---------------------------------------------------------------------------
# Satellite (b): bounded caches via the engine's cache_size knob
# ---------------------------------------------------------------------------


def test_engine_cache_size_bounds_both_caches():
    workload, arch = _CASES[3]
    mappings = _random_mappings(workload, arch, random.Random(13), 24)
    engine = SearchEngine(workers=1, cache=True, cache_size=4)
    engine.evaluate_many(mappings)
    assert engine.cache.max_entries == 4
    assert len(engine.cache) <= 4
    assert engine.stats.cache_evictions > 0
    unbounded = SearchEngine(workers=1, cache=True, cache_size=0)
    assert unbounded.cache.max_entries is None
    with pytest.raises(ValueError):
        SearchEngine(cache_size=-1)


def test_stats_profile_fields_merge_and_serialise():
    engine = SearchEngine(workers=1)
    workload, arch = _CASES[0]
    engine.evaluate_many(_random_mappings(workload, arch,
                                          random.Random(1), 6))
    snapshot = engine.stats.to_dict()
    for key in ("stage_time_s", "batched_evaluations"):
        assert key in snapshot
    assert not any(key.startswith("partial") for key in snapshot)
    text = engine.stats.profile_summary()
    assert "eval cache" in text and "stage time" in text
    merged = type(engine.stats)()
    merged.merge(engine.stats)
    merged.merge(engine.stats)
    assert merged.evaluations == 2 * engine.stats.evaluations
    assert merged.batched_evaluations == 2 * engine.stats.batched_evaluations
    for stage, seconds in engine.stats.stage_time_s.items():
        assert merged.stage_time_s[stage] == pytest.approx(2 * seconds)


# ---------------------------------------------------------------------------
# CLI: --profile / --cache-size / --no-batch
# ---------------------------------------------------------------------------

_CLI_SCHEDULE = ["schedule", "--workload", "conv1d",
                 "K=4", "C=4", "P=8", "R=3", "--arch", "tiny"]


def test_cli_profile_and_stats_json(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    code = main(_CLI_SCHEDULE + ["--profile", "--cache-size", "1000",
                                 "--stats-json", str(stats_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "profile:" in out and "eval cache" in out
    document = json.loads(stats_path.read_text())
    search = document["search"]
    assert "stage_time_s" in search
    assert search["batched_evaluations"] >= 0


def test_cli_no_batch_is_bit_identical(tmp_path):
    default_path = tmp_path / "default.json"
    scalar_path = tmp_path / "scalar.json"
    assert main(_CLI_SCHEDULE + ["--stats-json", str(default_path)]) == 0
    assert main(_CLI_SCHEDULE + ["--no-batch",
                                 "--stats-json", str(scalar_path)]) == 0
    lhs = json.loads(default_path.read_text())
    rhs = json.loads(scalar_path.read_text())
    assert lhs["mapping"] == rhs["mapping"]
    assert lhs["cost"] == rhs["cost"]
