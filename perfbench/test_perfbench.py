"""Self-tests of the benchmark's checker, tracer and metric names.

    python3 -m pytest -q perfbench
"""

import collections
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from stream import BLOCK, Stream  # noqa: E402


def certify_stdout(**changes) -> str:
    """certify-all output shaped like the real one, with the paper's numbers."""
    lines = []
    for stage, numbers in checks.CERTIFY_D3_EXPECTED.items():
        numbers = {**numbers, **changes.get(stage, {})}
        lines.append(json.dumps({"command": stage, "numbers": numbers, "outcome": "pass", "wall_time_s": 0.1}))
    return "\n".join(lines) + "\n"


def test_certificate_gate_counts_failed_stages():
    assert checks.judge_certificates(certify_stdout(), 0) == []
    tampered = certify_stdout(**{"certify-all/enumerate": {"cycle_free": 66239}})
    failed = checks.judge_certificates(tampered, 0)
    assert len(failed) == 1 and failed[0].startswith("certify-all/enumerate")
    assert len(checks.judge_certificates(certify_stdout(), 1)) == checks.CERTIFY_STAGES
    missing = "\n".join(certify_stdout().splitlines()[1:])
    assert len(checks.judge_certificates(missing, 0)) == 1
    reps = [{"failed": failed}, {"failed": []}]
    assert run.certify_metrics([{**r, "wall_s": 1.0, "rss_mb": 1.0} for r in reps])[
        "certify_d3_pass_share"
    ] == 1 - 1 / (2 * checks.CERTIFY_STAGES)


@pytest.fixture(scope="module")
def contexts():
    from treedet import context

    return {2: context.standard_context(2), 3: context.standard_context(3)}


def stream_out(stream: Stream) -> dict:
    return {"evals": stream.evals, "probes": [], "rounds": stream.rounds, "setup_s": 1.0, "rss_mb": 1.0}


def test_wrong_det_value_is_counted(contexts):
    from treedet import algebra

    class OffByOneAtD2:
        def __getattr__(self, name):
            return getattr(algebra, name)

        def det_eval(self, vectors, pset, table, p=None):
            value = algebra.det_eval(vectors, pset, table, p=p)
            return value + 1 if pset.d == 2 else value

    good = Stream(algebra, contexts, seed=5)
    bad = Stream(OffByOneAtD2(), contexts, seed=5)
    for s in (good, bad):
        s.unit_check()
        s.round()
        s.round()
    assert run.stream_counts([stream_out(good)]) == (0, len(good.evals))
    failed, attempted = run.stream_counts([stream_out(bad)])
    assert failed == sum(1 for e in bad.evals if e[0] == "d2") > 0
    assert run.stream_metrics([stream_out(bad)])["det_pass_share"] == 1 - failed / attempted


def test_block_mix_follows_the_counted_traffic(contexts):
    from treedet import algebra

    s = Stream(algebra, contexts, seed=3)
    for _ in range(BLOCK):
        s.round()
    # NOTES.md derives these from the det_eval calls of criteria 7, 8 and 11.
    mix = collections.Counter(e[0] for e in s.evals)
    assert mix == {"d3_int": 161, "d3_rational": 41, "d3_gfp": 40, "d2": 240}
    assert all(e[3] for e in s.evals) and not s.failures


def test_check_helpers_are_exact():
    assert checks.residue(Fraction(1, 2), 101) == 51
    m = [[Fraction(2), Fraction(1), Fraction(0)], [Fraction(0), Fraction(3), Fraction(1)], [Fraction(1), Fraction(0), Fraction(1)]]
    assert checks.det3(m) == 7
    assert checks.act(m, [[1, 0, 0]]) == [[2, 0, 1]]


def test_tracer_wraps_every_binding_and_reports_missing(monkeypatch):
    import treedet.cli
    import treedet.context
    import treedet.enumeration

    original = treedet.enumeration.enumerate_partitions
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("flips.gone", "treedet.flips", "no_such_function", None),))
    tracer = spans.Tracer()
    assert tracer.missing == ["flips.gone"]
    tracer.install()
    try:
        for mod in (treedet.cli, treedet.context, treedet.enumeration):
            assert mod.enumerate_partitions is not original
        treedet.context.enumerate_partitions(2, cycle_free=True)
    finally:
        tracer.uninstall()
    assert treedet.cli.enumerate_partitions is original
    (span,) = tracer.spans
    assert span["name"] == "enumeration.enumerate_partitions"
    assert span["rows"] == 12 and span["cycle_free"] is True


def test_self_time_subtracts_children():
    s = spans.SpanSet([
        {"id": 0, "parent": None, "name": "x.a", "start": 0.0, "end": 10.0, "maxrss_kb": 1024},
        {"id": 1, "parent": 0, "name": "x.b", "start": 1.0, "end": 4.0, "maxrss_kb": 2048},
        {"id": 2, "parent": 0, "name": "x.b", "start": 5.0, "end": 6.0, "maxrss_kb": 2048},
    ])
    assert s.self_total("x.a") == 6.0 and s.total("x.b") == 4.0 and s.count("x.b") == 2
    assert s.peak_mb("x") == 1.0  # maxrss at the end of the layer's last span


def test_printed_metric_names_match_benchmark_json():
    assert run.declared_metrics() == (run.E2E_UNITS, run.LAYER_UNITS)
    calls = (("d3_int", 3, 0.005), ("d3_rational", 3, 0.02), ("d3_gfp", 3, 0.01), ("d2", 2, 0.0001))
    evals = [[c, d, t, True, traced] for traced in (False, True) for c, d, t in calls]
    outs = [{"evals": evals, "probes": [[4294967311, False]], "rounds": 2, "setup_s": 3.0, "rss_mb": 100.0}]
    reps = [{"wall_s": 10.0, "rss_mb": 150.0, "failed": []}]
    e2e = {**run.certify_metrics(reps), **run.stream_metrics(outs)}
    assert set(e2e) == set(run.E2E_UNITS)
    empty = spans.SpanSet([])
    layers = run.layer_metrics([empty], [empty], reps, outs, overhead=0.01)
    assert set(layers) == set(run.LAYER_UNITS)
    printed = run.result(e2e, run.E2E_UNITS, reps, outs)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == run.E2E_UNITS
