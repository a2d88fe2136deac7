"""Tests of the benchmark's own arithmetic and tracing.

Run from the root of a circio checkout: python3 -m pytest perfbench/tests
"""

import json
import os
from array import array

import circio
import circio.classify
import circio.theta

import reference
import tracing
import workloads
from conftest import ROOT
from tracing import Tracer, self_times


def _spans(rows):
    """rows of (parent, start, end) -> the three arrays self_times takes."""
    parents, starts, ends = array("i"), array("q"), array("q")
    for p, s, e in rows:
        parents.append(p)
        starts.append(s)
        ends.append(e)
    return parents, starts, ends


def test_self_time_subtracts_direct_children_only():
    # theta_witness [0, 100] -> theta_image [10, 40] -> theta_vertex_map
    # [15, 20]; theta_witness -> theta_vertex_map [50, 60].
    spans = _spans([(-1, 0, 100), (0, 10, 40), (1, 15, 20), (0, 50, 60)])
    assert self_times(*spans) == [60, 25, 5, 10]


def test_self_time_counts_overlapping_children_once():
    spans = _spans([(-1, 0, 100), (0, 10, 40), (0, 30, 50), (0, 90, 120)])
    assert self_times(*spans) == [50, 30, 20, 30]


def test_nested_theta_witness_spans():
    cs = circio.ConnectionSet.parse("C54(1,3,17,19)")
    tracer = Tracer()
    tracer.install()
    try:
        witness = circio.theta.theta_witness(cs, 3, 2)
    finally:
        assert tracer.restore() == []
    assert str(witness.image) == "C54(3,7,11,25)"
    names = [tracer.names[i] for i in tracer.name_ids]
    assert names[0] == "theta.theta_witness"
    assert "theta.theta_image" in names and "core.is_circulant" in names
    image = names.index("theta.theta_image")
    assert tracer.parents[image] == 0
    assert tracer.parents[names.index("core.is_circulant")] == image
    # Self times tile the root span exactly.
    selfs = tracer.self_times()
    assert sum(selfs) == tracer.ends[0] - tracer.starts[0]
    assert all(s >= 0 for s in selfs)
    metrics = tracer.layer_metrics()
    assert metrics["theta.theta_witness.calls"] == 1
    assert metrics["theta.theta_image.hits"] == 1
    assert metrics["theta.theta_image.hit_ratio"] == 1.0


def test_restore_puts_back_every_binding():
    original = circio.theta.theta_image
    tracer = Tracer()
    tracer.install()
    assert circio.theta.theta_image is not original
    assert circio.classify.theta_image is circio.theta.theta_image
    assert circio.theta_image is circio.theta.theta_image
    assert tracer.restore() == []
    assert circio.theta.theta_image is original
    assert circio.classify.theta_image is original
    assert circio.theta_image is original


def _traced_counts(pairs):
    tracer = Tracer()
    tracer.install()
    try:
        result = pairs.run_pass()
    finally:
        assert tracer.restore() == []
    assert result.failures == []
    return {k: v for k, v in tracer.layer_metrics().items() if not k.endswith(("_s", "ratio"))}


def test_counts_repeat_across_two_traced_runs_of_one_seed():
    runs = []
    for _ in range(2):
        pairs = workloads.Pairs(7)
        # Leave out the Type-1 catalogue pairs, which take half of a pass.
        pairs.queries = [q for q in pairs.build_queries() if q[0].stratum != "catalogue_t1"]
        runs.append(_traced_counts(pairs))
    assert runs[0] == runs[1]
    assert runs[0]["classify.classify_pair.calls"] > 0
    assert runs[0]["oracle.canonical_form.calls"] > 0


def test_seed_fixes_the_pairs_sample():
    assert workloads.build_pairs(3) == workloads.build_pairs(3)
    assert workloads.build_pairs(3) != workloads.build_pairs(4)
    sample = workloads.build_pairs(3)
    for stratum, count in workloads.STRATA.items():
        assert sum(q.stratum == stratum for q in sample) == count


def test_pinned_t1_rows_are_the_catalogues_t1_rows():
    t1 = set()
    for fam in "ab":
        for row in range(1, workloads.FAMILY_ROWS + 1):
            source = workloads.family_source(fam, row)
            images = [reference.theta(source, 54, 3, t) for t in (2, 4)]
            if all(reference.carrying_unit(source, b, 54) is not None for b in images):
                t1.add((fam, row))
    assert len(t1) == 62
    assert t1 == {tuple(r) for r in workloads.EXPECTED["pairs"]["t1_rows"]}
    for query in workloads.build_pairs(5):
        assert workloads.expected_kind(query) in ("type1", "type2", "non-isomorphic")


def test_scaling_by_the_calibration_loop():
    import run

    # Two passes of the same two operations, the second on a machine twice
    # as slow: scaled, they read the same.
    passes = [
        {"latencies_s": [0.010, 0.030], "calibration_s": [0.001, 0.001], "items": 2,
         "busy_s": 0.040, "attempted": 2, "failures": []},
        {"latencies_s": [0.020, 0.060], "calibration_s": [0.002, 0.002], "items": 2,
         "busy_s": 0.080, "attempted": 2, "failures": []},
    ]
    stats = run.summarize(passes)["stats"]
    assert abs(stats["items_per_s"]["value"] - 50.0) < 1e-9
    assert abs(stats["query_p50_ms"]["value"] - 20.0) < 1e-9


def test_tracing_changes_no_output(tmp_path):
    family = workloads.build("family54", 0, str(tmp_path))
    plain = family.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = family.run_pass()
    finally:
        assert tracer.restore() == []
    assert plain.failures == traced.failures == []
    assert plain.fingerprint() == traced.fingerprint()
    metrics = tracer.layer_metrics()
    assert metrics["theta.theta_image.hit_ratio"] == 1.0
    assert metrics["oracle.canonical_form.calls"] == 0
    assert metrics["cli.export_csv.bytes"] == os.path.getsize(tmp_path / "family_a.csv")


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    import run

    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
