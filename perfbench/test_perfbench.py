"""Self-tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n", [1, 5, 10, 11, 12, 37, 150, 1200])
def test_tail_keeps_ten_samples_beyond(n):
    samples = [float((i * 7919) % n) for i in range(n)]
    percentile, value = spans.tail(samples)
    xs = sorted(samples)
    if n <= spans.TAIL_BEYOND:
        assert (percentile, value) == (100.0, xs[-1])
        return
    i = round(percentile * n / 100.0) - 1
    assert xs[i] == value
    assert n - 1 - i >= spans.TAIL_BEYOND
    assert n - 2 - i < spans.TAIL_BEYOND  # the next percentile up would keep fewer


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, 1)


def test_self_time_subtracts_union_of_children():
    recorded = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),  # overlaps a: the union counts once
        _span("c", 9.0, 12.0, 0),  # runs past its parent: clipped to 10
        _span("leaf", 3.0, 4.0, 2),
    ]
    assert spans.self_times(recorded) == pytest.approx([5.0, 2.0, 2.0, 3.0, 1.0])
    summary = spans.summarize(recorded)
    assert summary["root"] == {"count": 1, "self_total_s": pytest.approx(5.0), "self_median_s": pytest.approx(5.0)}
    layers = spans.by_layer({"m.a": {"count": 2, "self_total_s": 1.0}, "m.b": {"count": 1, "self_total_s": 0.5}})
    assert layers == {"m": {"count": 3, "self_total_s": 1.5}}


def test_tracer_nests_spans_and_separates_traces():
    tracer = spans.Tracer()
    with tracer.span("pass"):
        with tracer.span("call"):
            pass
    with tracer.span("pass"):
        pass
    first, child, second = tracer.spans
    assert child.parent == 0 and first.parent is None and second.parent is None
    assert child.trace == first.trace != second.trace
    assert first.start <= child.start <= child.end <= first.end


def test_generation_is_deterministic_per_seed():
    a, b, c = inputs.PartnerQueries(3), inputs.PartnerQueries(3), inputs.PartnerQueries(4)
    for k in range(4):
        assert a.batch(k) == b.batch(k)
    assert a.batch(0) != c.batch(0)
    assert inputs.cli_plan(3) == inputs.cli_plan(3) != inputs.cli_plan(4)
    assert inputs.quartic_set() == inputs.quartic_set()
    assert inputs.predicate_set() == inputs.predicate_set()


def test_generated_queries_are_admissible_and_golden_partners_resonate():
    lo, hi = inputs.ANNULUS
    for n, known in inputs.PartnerQueries(0).batch(0):
        assert n[0] != 0
        if not known:
            assert lo * lo < n[0] ** 2 + n[1] ** 2 <= hi * hi
        assert all(inputs.resonant_ref(n, k) for k in known)
    plan = inputs.cli_plan(0)
    assert inputs.resonant_ref(*plan["resonant_pair"])
    plain_n, plain_k, residual = plan["plain_pair"]
    assert residual != 0 and residual == inputs.residual_ref(plain_n, plain_k)


def test_checker_rejects_wrong_partner_lists():
    n = (1, 11)
    assert checks.check_partners(n, [(-8, 34), (9, -23)], {(-8, 34)}) == []
    assert checks.check_partners(n, [(-8, 34)], set())  # complement missing
    assert checks.check_partners(n, [(9, -23), (-8, 34)], set())  # not sorted
    assert checks.check_partners(n, [(-8, 34), (2, 3), (9, -23)], set())  # not resonant
    assert checks.check_partners(n, [], {(-8, 34)})  # known partner missing


def test_stub_that_drops_a_partner_is_counted_as_failed(tmp_path):
    import rossby_resonance as rr

    def drop_one(n):
        return rr.find_partners(n)[1:]

    golden = inputs.golden_queries()[:12]
    honest = workloads.PartnerQueriesWorkload(0, str(tmp_path))
    stub = workloads.PartnerQueriesWorkload(0, str(tmp_path), find_partners=drop_one)
    honest.queries.batch = stub.queries.batch = lambda b: golden
    tracer = spans.NullTracer()
    assert sum(1 for op in honest.run_pass(0, tracer).ops if op.problems) == 0
    assert sum(1 for op in stub.run_pass(0, tracer).ops if op.problems) == len(golden)


def test_truncation_lands_inside_a_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    lines = ['{"schema":1}'] + [json.dumps({"done_upto": [i, i]}) for i in range(50)]
    for fraction in (0.3, 0.5, 0.52):
        path.write_text("\n".join(lines) + "\n")
        workloads.truncate_mid_record(str(path), fraction)
        data = path.read_bytes()
        assert not data.endswith(b"\n")
        with pytest.raises(json.JSONDecodeError):
            json.loads(data.rsplit(b"\n", 1)[1])


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
