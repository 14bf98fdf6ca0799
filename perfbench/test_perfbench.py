"""Tests of the benchmark's own helpers on small fixed inputs."""

import json
import math
from pathlib import Path

import pytest

import benchstats
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]

# error_rate is printed by every run and carried by the result's ``failed``
# and ``attempted`` fields; it is not a BENCHMARK.json metric because it is
# 0 on a correct run and a bound is a share of the parent's median.
END_TO_END = [
    "setup_s",
    "pipeline_s",
    "frames_per_s",
    "recognition_acc",
    "requests_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "peak_rss_mb",
]


def test_percentile_interpolates_between_closest_ranks():
    values = [5, 1, 4, 2, 3]
    assert benchstats.percentile(values, 50) == 3
    assert benchstats.percentile(values, 90) == pytest.approx(4.6)
    assert benchstats.percentile([7.0], 90) == 7.0


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert benchstats.tail_percentile(n) == expected


def test_self_time_subtracts_what_direct_children_cover():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 3.0, 6.0, 0),  # overlaps b: the union counts once
        ("d", 2.0, 3.0, 1),  # grandchild of a: only b loses it
        ("b", 8.0, 12.0, 0),  # runs past its parent: clipped at 10
    ]
    stats = tracing.span_stats(spans)
    assert stats["a"] == [1, 10.0, 3.0]
    assert stats["b"] == [2, 7.0, 6.0]
    assert stats["c"] == [1, 3.0, 3.0]
    assert stats["d"] == [1, 1.0, 1.0]


def test_wrapper_records_parents_and_failures():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("bn.query", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("fusion.fuse_query", body)()
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("bn.query", lambda: 1 / 0)()
    stats = tracing.span_stats(tracer.spans)
    assert stats["fusion.fuse_query"] == [1, 5.0, 3.0]
    assert stats["bn.query"] == [3, 3.0, 3.0]
    assert tracer.counts["bn.failed"] == 1


def test_installed_reaches_names_imported_elsewhere_and_restores_them():
    from afftalk import bn, cli, fusion

    original = bn.query
    with tracing.installed(tracing.Tracer()):
        assert cli.query is bn.query is fusion.query is not original
    assert cli.query is bn.query is fusion.query is original


def test_table_check_requires_sum_to_one(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("Action,p\ngrasp,0.25\ntap,0.75\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("Action,p\ngrasp,0.25\ntap,0.750001\n")
    assert workloads.table_problem("infer", good) is None
    assert "within" in workloads.table_problem("infer", bad)
    assert "unreadable" in workloads.table_problem("infer", tmp_path / "missing.csv")


def test_heldout_seeds_never_meet_training_seeds():
    top = workloads.derived_seeds(workloads.MAX_SEED)
    assert top["dataset"] + 9_999 < workloads.derived_seeds(0)["heldout"]


def test_any_integer_seed_folds_into_the_seed_range():
    assert workloads.fold_seed(5) == 5
    assert workloads.fold_seed(workloads.MAX_SEED + 6) == 5
    assert workloads.fold_seed(-1) == workloads.MAX_SEED
    assert 0 <= workloads.fold_seed(3_999_999_999) <= workloads.MAX_SEED


def test_benchmark_json_names_the_workloads_and_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == tracing.metric_names()
    for name in ("bn.query.calls", "bn.family_bic.calls", "kernels.frames",
                 "hmm.em_iterations", "hmm.em_capped", "cli.train-bn.self_s",
                 "serialize.failed", "trace.overhead_pct"):
        assert name in tracing.metric_names()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_rates_are_per_second_of_request_time():
    metrics = workloads._end_to_end(
        [1.0, 3.0], frames=8, setup_s=0.5, pipeline_s=2.0, accuracy=1.0
    )
    assert metrics["latency_p50_ms"][0] == 2000.0
    assert metrics["requests_per_s"][0] == 0.5
    assert metrics["frames_per_s"][0] == 2.0


def test_calibration_samples_cover_a_share_of_each_operation():
    samples = []
    workloads.sample_speed(0.0, samples)
    assert len(samples) == workloads.CAL_MIN_SAMPLES
    workloads.sample_speed(1.0, samples)
    assert math.fsum(samples[workloads.CAL_MIN_SAMPLES:]) >= workloads.CAL_SHARE
    factors = []
    slow = [workloads.CAL_REFERENCE_S * 2] * 3 + [1.0]  # one stalled sample
    assert workloads.speed_factor(slow, factors) == 0.5
    assert factors == [0.5]


def test_explore_mix_leaves_ten_samples_beyond_its_90th_percentile():
    assert benchstats.tail_percentile(sum(n for _, n in workloads.EXPLORE_MIX)) == 90.0
