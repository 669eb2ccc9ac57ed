import importlib
import random

import pytest

import workloads as W
from tracer import SWEEP_ROOT, Tracer, instrument


def test_self_time_of_nested_spans():
    t = Tracer()
    root = t.record("root", 0.0, 10.0)
    a = t.record("a", 1.0, 4.0, root)
    t.record("leaf", 2.0, 3.0, a)
    t.record("b", 5.0, 7.0, root)
    assert t.self_times() == pytest.approx([5.0, 2.0, 1.0, 2.0])
    assert t.summary() == {"root": (5.0, 1), "a": (2.0, 1), "leaf": (1.0, 1),
                           "b": (2.0, 1)}
    assert t.subtree_self("a") == pytest.approx(3.0)
    assert t.subtree_self("root") == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_are_covered_once():
    t = Tracer()
    root = t.record("root", 0.0, 10.0)
    t.record("x", 1.0, 4.0, root)
    t.record("x", 3.0, 6.0, root)
    t.record("x", 9.0, 12.0, root)
    assert t.self_times()[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_summary_from_a_later_span_ignores_earlier_ones():
    t = Tracer()
    t.record("old", 0.0, 1.0)
    first = len(t)
    root = t.record("new", 2.0, 5.0)
    t.record("child", 3.0, 4.0, root)
    s = t.summary(first)
    assert s["old"] == (0.0, 0) and s["new"] == (2.0, 1)


def test_instrument_records_sweep_layers_and_restores_originals():
    netlist = importlib.import_module("stpsweep.netlist")
    sweep = importlib.import_module("stpsweep.sweep")
    originals = (sweep.sweep, sweep.solve, netlist.Network.topo_order)
    text = W.deep_chain(random.Random(1), length=20).to_blif()
    t = Tracer()
    with instrument(t):
        net = netlist.parse_blif(text)
        _, stats = sweep.sweep(net, sweep.SweepConfig())
    assert (sweep.sweep, sweep.solve, netlist.Network.topo_order) == originals
    s = t.summary()
    assert s[SWEEP_ROOT][1] == 1
    assert s["sat.prove_equiv"][1] == stats.merges == 20
    assert s["sat.solve"][1] == stats.sat_calls_total
    assert t.counts["sat.outcome_unsat"] == stats.sat_calls_unsat
    assert s["netlist.parse_blif"][1] == 1
    # Every span inside the sweep hangs under the sweep's root span.
    root = next(i for i in range(len(t)) if t.labels[t.label[i]] == SWEEP_ROOT)
    for i in range(root + 1, len(t)):
        p = t.parent[i]
        while p > root:
            p = t.parent[p]
        assert p == root
