"""Spans around the program's public functions, recorded from outside.

:func:`instrument` replaces each wrapped function or ``Network`` method
by a recording wrapper for the duration of a ``with`` block and puts
the originals back afterwards; nothing under ``src/`` changes.  A span
is (name, start, end, parent).  Spans stay in memory until the run
writes them out.  A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from array import array
from collections import Counter

# Label -> attribute of ``stpsweep.netlist`` for the netlist layer;
# ``Network.*`` are methods, replaced on the class.  Labels name the
# layer the callee belongs to.  ``stp`` and ``bexpr`` run under
# ``simulate.cut_truth_tables`` and are not wrapped on their own.
NETLIST = {
    "netlist.parse_blif": "parse_blif",
    "netlist.topo_order": "Network.topo_order",
    "netlist.transitive_fanin": "Network.transitive_fanin",
    "netlist.is_in_tfo": "Network.is_in_tfo",
    "netlist.substitute_node": "Network.substitute_node",
    "netlist.remove_dead": "Network.remove_dead",
}
SIMULATE = ["simulate_all", "simulate_specified", "exhaustive_window_sim",
            "circuit_cut", "cut_truth_tables"]
SAT = ["encode_cone", "solve", "prove_equiv"]
SWEEP = ["sat_guided_patterns", "constant_prop", "init_equiv_classes", "refine_classes"]
#: Label of the span around ``sweep()`` itself; its self time is the
#: part of a sweep no wrapped callee accounts for.
SWEEP_ROOT = "sweep.self"
CEC = ["cec.check_equivalence", "cec.solve", "cec.simulate_all"]

LABELS = (
    list(NETLIST)
    + [f"simulate.{f}" for f in SIMULATE]
    + [f"sat.{f}" for f in SAT]
    + [SWEEP_ROOT] + [f"sweep.{f}" for f in SWEEP]
    + CEC
)


class Tracer:
    """In-memory span store with per-label counters."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_id: dict[str, int] = {}
        self.label = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, label: str) -> int:
        lid = self._label_id.get(label)
        if lid is None:
            lid = self._label_id[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def record(self, label: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span and return its index."""
        i = len(self.start)
        self.label.append(self._id(label))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return i

    def wrap(self, label: str, fn, on_return=None):
        lid = self._id(label)
        open_ = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.label.append(lid)
            self.parent.append(open_[-1] if open_ else -1)
            self.end.append(0.0)
            open_.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                open_.pop()
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of every span from index ``first`` on.

        Child intervals are merged before they are subtracted, so
        overlapping children are not counted twice.
        """
        n = len(self.start)
        children: dict[int, list[int]] = {}
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                children.setdefault(p, []).append(i)
        out = []
        for i in range(first, n):
            s, e = self.start[i], self.end[i]
            covered = 0.0
            cur_s = cur_e = None
            for c in sorted(children.get(i, ()), key=self.start.__getitem__):
                cs, ce = max(self.start[c], s), min(self.end[c], e)
                if ce <= cs:
                    continue
                if cur_e is None or cs > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = cs, ce
                else:
                    cur_e = max(cur_e, ce)
            if cur_e is not None:
                covered += cur_e - cur_s
            out.append((e - s) - covered)
        return out

    def summary(self, first: int = 0) -> dict[str, tuple[float, int]]:
        """Label -> (summed self seconds, call count) over spans from ``first``."""
        out = {label: [0.0, 0] for label in self.labels}
        for k, st in enumerate(self.self_times(first)):
            entry = out[self.labels[self.label[first + k]]]
            entry[0] += st
            entry[1] += 1
        return {label: (s, c) for label, (s, c) in out.items()}

    def subtree_self(self, label: str, first: int = 0) -> float:
        """Summed self time of the spans labelled ``label`` and all below them."""
        inside = []
        total = 0.0
        for k, st in enumerate(self.self_times(first)):
            i = first + k
            p = self.parent[i]
            flag = self.labels[self.label[i]] == label or (p >= first and inside[p - first])
            inside.append(flag)
            if flag:
                total += st
        return total

    def write(self, path) -> None:
        """One JSON array [name, start, end, parent] per line, gzipped."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.labels[self.label[i]], self.start[i],
                                     self.end[i], self.parent[i]]) + "\n")


def _count_cnf(tracer: Tracer):
    def hook(cnf):
        tracer.counts["sat.cnf_clauses"] += len(cnf.clauses)
    return hook


def _count_outcome(tracer: Tracer):
    def hook(outcome):
        tracer.counts[f"sat.outcome_{outcome.status.value}"] += 1
    return hook


def _count_cuts(tracer: Tracer):
    def hook(cutset):
        tracer.counts["simulate.cuts"] += len(cutset.cuts)
        tracer.counts["simulate.cut_members"] += sum(
            len(c.members) for c in cutset.cuts.values())
    return hook


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the public functions of every layer while the block runs.

    Modules come from ``importlib``: ``import stpsweep.sweep`` would give
    the re-exported *function*.  A name that a module bound with ``from
    .x import y`` is replaced in the module that looks it up, so
    ``sweep`` calls reach the wrappers too.  ``cec`` gets wrappers of
    its own around the unwrapped originals, so solves and simulations
    made for a CEC verdict are counted under ``cec.*`` only.
    """
    netlist = importlib.import_module("stpsweep.netlist")
    simulate = importlib.import_module("stpsweep.simulate")
    sat = importlib.import_module("stpsweep.sat")
    sweep = importlib.import_module("stpsweep.sweep")
    cec = importlib.import_module("stpsweep.cec")
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for label, attr in NETLIST.items():
            owner = netlist.Network if attr.startswith("Network.") else netlist
            name = attr.split(".")[-1]
            patch(owner, name, tracer.wrap(label, getattr(owner, name)))

        hooks = {"circuit_cut": _count_cuts(tracer)}
        sim_wrapped = {
            f: tracer.wrap(f"simulate.{f}", getattr(simulate, f), hooks.get(f))
            for f in SIMULATE
        }
        hooks = {"encode_cone": _count_cnf(tracer), "solve": _count_outcome(tracer)}
        sat_wrapped = {
            f: tracer.wrap(f"sat.{f}", getattr(sat, f), hooks.get(f)) for f in SAT
        }
        cec_wrapped = {
            "check_equivalence": tracer.wrap("cec.check_equivalence", cec.check_equivalence),
            "solve": tracer.wrap("cec.solve", sat.solve),
            "simulate_all": tracer.wrap("cec.simulate_all", simulate.simulate_all),
        }
        sweep_wrapped = {f: tracer.wrap(f"sweep.{f}", getattr(sweep, f)) for f in SWEEP}
        sweep_wrapped["sweep"] = tracer.wrap(SWEEP_ROOT, sweep.sweep)

        for module, table in ((simulate, sim_wrapped), (sat, sat_wrapped),
                              (cec, cec_wrapped), (sweep, sweep_wrapped)):
            for name, fn in table.items():
                patch(module, name, fn)
        for name in SAT:
            patch(sweep, name, sat_wrapped[name])
        for name in ("simulate_all", "simulate_specified", "exhaustive_window_sim"):
            patch(sweep, name, sim_wrapped[name])
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
