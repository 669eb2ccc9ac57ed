import json
import random
import signal
import time
from pathlib import Path

import pytest

import run
import spec
import workloads as W
from speed import SpeedProbe


@pytest.fixture
def runner():
    program = run.load_program()
    probe = SpeedProbe()
    previous = signal.signal(signal.SIGALRM, run._alarm)
    probe.start()
    try:
        yield run.Runner(program, probe, time.monotonic() + 60)
    finally:
        probe.stop()
        signal.signal(signal.SIGALRM, previous)


CHAIN = W.deep_chain(random.Random(1), length=10).to_blif()


def test_correct_sweep_counts_no_failure(runner):
    cyc = run.run_cycle(runner, "deep_chain", CHAIN, 1, True, {})
    assert runner.failed == 0 and runner.attempted > 0
    assert cyc.samples["final_luts"] == 1 and cyc.samples["op_s"] > 0


def test_flipped_truth_table_bit_in_swept_net_is_a_failure(runner, monkeypatch):
    real = runner.p.sweep.sweep

    def wrong_sweep(net, cfg):
        swept, stats = real(net, cfg)
        node = next(n for n in swept.nodes if not n.dead and not n.is_pi)
        node.tt ^= 1
        return swept, stats

    monkeypatch.setattr(runner.p.sweep, "sweep", wrong_sweep)
    cyc = run.run_cycle(runner, "deep_chain", CHAIN, 1, True, {})
    assert runner.failed == 1
    assert "differs from its input" in runner.failures[0]
    assert "op_s" not in cyc.samples


def test_different_blif_from_the_same_input_is_a_failure(runner):
    reference = {"blif": "not what the sweep writes"}
    run.run_cycle(runner, "deep_chain", CHAIN, 1, True, reference)
    assert runner.failed == 1 and "different BLIF" in runner.failures[0]


def test_exceptions_and_overruns_are_counted_not_raised(runner):
    def deep():
        raise RecursionError("maximum recursion depth exceeded")

    assert runner.call("deep", deep) == (None, None)
    runner.deadline = time.monotonic() + 0.2
    assert runner.call("slow", lambda: time.sleep(5)) == (None, None)
    runner.deadline = time.monotonic() - 1
    assert runner.call("late", lambda: 1) == (None, None)
    assert runner.failed == runner.attempted == 3
    assert "RecursionError" in runner.failures[0]
    assert "budget" in runner.failures[1] and "budget" in runner.failures[2]


def test_traced_cycle_reports_every_per_layer_metric(runner):
    tracer = run.Tracer()
    runner.tracer = tracer
    cyc = run.run_cycle(runner, "deep_chain", CHAIN, 1, True, {})
    runner.tracer = None
    metrics = run.layer_metrics(tracer, 0, cyc, tracer.counts)
    assert set(metrics) | {"trace.overhead_s"} == set(spec.PER_LAYER)
    assert metrics["sweep.merges"] == 10 and metrics["sat.outcome_unsat"] == 10
    assert metrics["trace.coverage"] == pytest.approx(1.0, abs=0.05)


def test_benchmark_json_matches_spec():
    path = Path(run.ROOT) / "BENCHMARK.json"
    assert json.loads(path.read_text()) == spec.benchmark_json()
