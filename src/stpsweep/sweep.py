"""SAT sweeping: merge functionally equivalent LUT nodes.

The engine follows the classic simulate-then-prove loop.  SAT-guided
initial patterns detect true constants and enrich the pattern set,
signatures group candidate nodes into polarity-normalized equivalence
classes, and candidates are visited from the inputs to the outputs.
As in a FRAIG, each candidate is merged into a class member that comes
earlier in topological order, tried earliest first; an earlier member
cannot lie in the candidate's fanout, so neither picking it nor the
substitution needs a cycle check.  Every merge is certified, in one of
two ways.  Classes whose combined input support fits an exhaustive
window are refined with full truth rows over that support; their
surviving members are proven equal, and they merge without a SAT call
(``SweepStats.window_merges``).  Every other pair is certified by an
UNSAT answer from one incremental :class:`~stpsweep.sat.NetSolver`,
which answers every query of a sweep, loads each node's clauses once
and is told of each window merge.  Counter-examples from satisfiable
queries refine the classes, and the window refines them again.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .netlist import Network
# ``encode_cone`` is not called here: the benchmark's tracer
# (perfbench/tracer.py) patches it, ``solve`` and ``prove_equiv`` in this
# module by name.
from .sat import NetSolver, SatOutcome, SatStatus, encode_cone, pi_assignment, prove_equiv, solve
from .simulate import (
    PatternSet,
    WindowTooLarge,
    exhaustive_window_sim,
    gen_random_patterns,
    simulate_all,
    simulate_specified,
)

#: A gate whose signature toggles at a rate below this, or above one
#: minus this, gets a SAT query for its minority value.
TOGGLE_THRESHOLD = 1.0 / 64.0
#: Patterns generated from each counter-example during refinement.
CE_EXPANSION = 64


@dataclass
class SweepConfig:
    conflict_limit: int = 0
    n_base_patterns: int = 2048
    seed: int = 1
    #: Exhaustive-window refinement cap; 0 disables window refinement.
    window_cap: int = 16

    def __post_init__(self):
        if self.conflict_limit < 0:
            raise ValueError("conflict_limit must be >= 0 (0 means no limit)")
        if not 0 <= self.window_cap <= 16:
            raise ValueError("window_cap must be within [0, 16]")


@dataclass
class SweepStats:
    sat_calls_total: int = 0
    sat_calls_sat: int = 0
    sat_calls_unsat: int = 0
    sat_calls_undet: int = 0
    merges: int = 0
    #: Merges of window-proven classes, made without a SAT call; a part
    #: of ``merges`` that the kv and CSV lines do not print.
    window_merges: int = 0
    constants: int = 0
    ce_refinements: int = 0
    sim_time: float = 0.0
    total_time: float = 0.0
    initial_luts: int = 0
    final_luts: int = 0

    CSV_HEADER = "gate,result,sat_calls,total_sat_calls,sim_time_s,total_time_s"

    def record(self, status: SatStatus) -> None:
        self.sat_calls_total += 1
        if status is SatStatus.SAT:
            self.sat_calls_sat += 1
        elif status is SatStatus.UNSAT:
            self.sat_calls_unsat += 1
        else:
            self.sat_calls_undet += 1

    def as_kv(self) -> str:
        pairs = [
            ("gate", self.initial_luts),
            ("result", self.final_luts),
            ("sat_calls", self.sat_calls_sat),
            ("total_sat_calls", self.sat_calls_total),
            ("unsat_calls", self.sat_calls_unsat),
            ("undet_calls", self.sat_calls_undet),
            ("merges", self.merges),
            ("constants", self.constants),
            ("ce_refinements", self.ce_refinements),
            ("sim_time_s", f"{self.sim_time:.4f}"),
            ("total_time_s", f"{self.total_time:.4f}"),
        ]
        return "\n".join(f"{k}={v}" for k, v in pairs)

    def as_csv_row(self) -> str:
        return (
            f"{self.initial_luts},{self.final_luts},{self.sat_calls_sat},"
            f"{self.sat_calls_total},{self.sim_time:.4f},{self.total_time:.4f}"
        )


class ClassManager:
    """Equivalence classes over polarity-normalized signatures.

    A node's phase bit records whether its signature was complemented
    during normalization, so one class holds both a function and its
    complement.  Member lists stay topologically sorted; singleton
    classes are dropped.
    """

    def __init__(self, topo_rank: dict[int, int]):
        self.topo_rank = topo_rank
        self.class_of: dict[int, int] = {}
        self.phase_of: dict[int, int] = {}
        self.members: dict[int, list[int]] = {}
        #: Classes already split by an exhaustive window (nothing left to split).
        self.window_refined: set[int] = set()
        self._next_id = 0

    def n_classes(self) -> int:
        return len(self.members)

    def class_nodes(self) -> list[int]:
        out: list[int] = []
        for nodes in self.members.values():
            out.extend(nodes)
        return out

    def new_class(self, nodes: list[int]) -> int:
        cid = self._next_id
        self._next_id += 1
        self.members[cid] = sorted(nodes, key=self.topo_rank.__getitem__)
        for nid in nodes:
            self.class_of[nid] = cid
        return cid

    def _drop_node(self, nid: int) -> None:
        self.class_of.pop(nid, None)
        self.phase_of.pop(nid, None)

    def drop_merged(self, nid: int) -> None:
        """Remove a merged node from its class, and the class if that
        leaves fewer than two members."""
        cid = self.class_of[nid]
        nodes = self.members[cid]
        nodes.remove(nid)
        self._drop_node(nid)
        if len(nodes) < 2:
            for n in nodes:
                self._drop_node(n)
            del self.members[cid]
            self.window_refined.discard(cid)

    def split_class(self, cid: int, key_of) -> list[int]:
        """Split one class by a grouping key.

        Returns the surviving class ids (the original id if nothing
        split).  Groups shrinking to one node leave the manager.
        """
        groups: dict[object, list[int]] = {}
        for nid in self.members[cid]:
            groups.setdefault(key_of(nid), []).append(nid)
        if len(groups) == 1:
            return [cid]
        self.window_refined.discard(cid)
        del self.members[cid]
        out = []
        for nodes in groups.values():
            if len(nodes) >= 2:
                out.append(self.new_class(nodes))
            else:
                self._drop_node(nodes[0])
        return out


def init_equiv_classes(net: Network, signatures) -> ClassManager:
    """Group live nodes by polarity-normalized signature.

    A signature whose first bit is 1 is complemented and the flip is
    recorded in the node's phase bit, which merges complement pairs
    into a single class.  Classes of size one are discarded.
    """
    rank = {nid: i for i, nid in enumerate(net.topo_order())}
    mgr = ClassManager(rank)
    buckets: dict[int, list[int]] = {}
    phases: dict[int, int] = {}
    for nid in sorted(signatures, key=rank.__getitem__):
        if net.nodes[nid].dead:
            continue
        sig = signatures[nid].bits
        n = signatures[nid].n_patterns
        phase = sig & 1
        norm = sig ^ ((1 << n) - 1) if phase else sig
        phases[nid] = phase
        buckets.setdefault(norm, []).append(nid)
    for nodes in buckets.values():
        if len(nodes) >= 2:
            mgr.new_class(nodes)
            for nid in nodes:
                mgr.phase_of[nid] = phases[nid]
    return mgr


def toggle_rate(bits: int, n_patterns: int) -> float:
    """Adjacent-bit toggle count over the bit-string length."""
    if n_patterns < 2:
        return 0.0
    toggles = bin((bits ^ (bits >> 1)) & ((1 << (n_patterns - 1)) - 1)).count("1")
    return toggles / (n_patterns - 1)


def _ce_to_pattern(net: Network, ce: dict[int, bool], rng: random.Random) -> list[bool]:
    """Full PI assignment from a partial counter-example."""
    return [
        bool(ce[pid]) if pid in ce else bool(rng.getrandbits(1))
        for pid in net.pis
    ]


def _append_patterns(base: PatternSet, extra: list[list[bool]]) -> PatternSet:
    if not extra:
        return base
    n = base.n_patterns
    rows = list(base.rows)
    for t, assignment in enumerate(extra):
        for i, bit in enumerate(assignment):
            if bit:
                rows[i] |= 1 << (n + t)
    return PatternSet(rows, n + len(extra))


def _find_value(solver: NetSolver, nid: int, value: bool, cfg: SweepConfig,
                stats: SweepStats) -> SatOutcome:
    """Ask the solver for an input assignment that sets ``nid`` to ``value``.

    A SAT outcome carries the assignment of the PIs in ``nid``'s cone,
    keyed by PI node id; UNSAT proves ``nid`` constant at ``not value``.
    """
    solver.load([nid])
    var = solver.node_var[nid]
    outcome = solve(solver, assumptions=[var if value else -var],
                    conflict_limit=cfg.conflict_limit)
    stats.record(outcome.status)
    if outcome.is_sat:
        return SatOutcome(SatStatus.SAT, pi_assignment(solver.net, solver, outcome.model),
                          outcome.conflicts)
    return outcome


def sat_guided_patterns(
    solver: NetSolver, cfg: SweepConfig, stats: SweepStats | None = None
) -> tuple[PatternSet, list[tuple[int, bool]]]:
    """Two-round SAT-guided pattern generation.

    Round one simulates random base patterns and SAT-checks every gate
    whose signature is all zeros or all ones: an UNSAT answer proves a
    true constant, a SAT answer contributes its counter-example as a
    new pattern.  Round two targets gates whose signatures barely
    toggle and asks the solver for one pattern forcing the minority
    value.  Returns the enriched pattern set and the proven
    ``(node, constant_value)`` pairs.  The gates are those of
    ``solver.net``, and every query goes to ``solver``.
    """
    if stats is None:
        stats = SweepStats()
    net = solver.net
    rng = random.Random(cfg.seed ^ 0x9E3779B9)
    base = gen_random_patterns(len(net.pis), cfg.n_base_patterns, cfg.seed)
    t0 = time.perf_counter()
    sigs = simulate_all(net, base)
    stats.sim_time += time.perf_counter() - t0
    mask = base.mask

    constants: list[tuple[int, bool]] = []
    const_nodes: set[int] = set()
    extra: list[list[bool]] = []
    for nid in net.topo_order():
        node = net.nodes[nid]
        if node.is_pi or node.dead or node.arity == 0:
            continue
        sig = sigs[nid].bits
        if sig != 0 and sig != mask:
            continue
        stuck_value = sig == mask
        outcome = _find_value(solver, nid, not stuck_value, cfg, stats)
        if outcome.is_unsat:
            constants.append((nid, stuck_value))
            const_nodes.add(nid)
        elif outcome.is_sat:
            extra.append(_ce_to_pattern(net, outcome.model, rng))

    patterns = _append_patterns(base, extra)
    t0 = time.perf_counter()
    sigs = simulate_all(net, patterns)
    stats.sim_time += time.perf_counter() - t0

    extra2: list[list[bool]] = []
    for nid in net.topo_order():
        node = net.nodes[nid]
        if node.is_pi or node.dead or node.arity == 0 or nid in const_nodes:
            continue
        bits = sigs[nid].bits
        rate = toggle_rate(bits, patterns.n_patterns)
        if TOGGLE_THRESHOLD <= rate <= 1.0 - TOGGLE_THRESHOLD:
            continue
        ones = bin(bits).count("1")
        minority = ones * 2 <= patterns.n_patterns
        outcome = _find_value(solver, nid, minority, cfg, stats)
        if outcome.is_sat:
            extra2.append(_ce_to_pattern(net, outcome.model, rng))
        elif outcome.is_unsat:
            constants.append((nid, not minority))
            const_nodes.add(nid)

    return _append_patterns(patterns, extra2), constants


def constant_prop(net: Network, constants: list[tuple[int, bool]]) -> int:
    """Replace proven-constant nodes by one shared constant-0 LUT."""
    todo = [(nid, val) for nid, val in constants if not net.nodes[nid].dead]
    if not todo:
        return 0
    const0 = net.add_lut([], 0)
    count = 0
    for nid, value in todo:
        if net.nodes[nid].dead or nid == const0:
            continue
        net.substitute_node(nid, const0, inverted=bool(value))
        count += 1
    net.remove_dead()
    return count


def _window_refine_classes(mgr: ClassManager, net: Network, cfg: SweepConfig) -> int:
    """Split classes by exhaustive truth rows over their shared support.

    Classes that survive (or result from) a window split are marked, so
    later refinement passes skip their windows; their remaining members
    are exactly equivalent within the window.  Returns the number of
    classes that split.
    """
    if cfg.window_cap <= 0:
        return 0
    splits = 0
    for cid in list(mgr.members):
        if cid not in mgr.members or cid in mgr.window_refined:
            continue
        nodes = [n for n in mgr.members[cid] if not net.nodes[n].dead]
        if len(nodes) < 2:
            continue
        try:
            wt = exhaustive_window_sim(net, nodes, cfg.window_cap)
        except WindowTooLarge:
            continue
        wmask = (1 << (1 << len(wt.leaves))) - 1

        def key_of(nid: int) -> int:
            row = wt.window_rows[nid]
            return row ^ wmask if mgr.phase_of.get(nid, 0) else row

        survivors = mgr.split_class(cid, key_of)
        if survivors != [cid]:
            splits += 1
        mgr.window_refined.update(survivors)
    return splits


def refine_classes(
    mgr: ClassManager,
    net: Network,
    ce: dict[int, bool],
    cfg: SweepConfig,
    rng: random.Random | None = None,
) -> int:
    """Refine candidate classes with a counter-example.

    The counter-example is expanded to ``CE_EXPANSION`` patterns
    (assigned PIs pinned, the rest random), and only the input cones of
    the current class members are simulated.  Classes whose support fits
    the exhaustive window are afterwards split by full truth rows.
    Returns the number of class splits.
    """
    if rng is None:
        seed_key = (cfg.seed,) + tuple(sorted(ce.items()))
        rng = random.Random(hash(seed_key) & 0xFFFFFFFF)
    nodes = [n for n in mgr.class_nodes() if not net.nodes[n].dead]
    if not nodes:
        return 0
    full = (1 << CE_EXPANSION) - 1
    rows = []
    for pid in net.pis:
        if pid in ce:
            rows.append(full if ce[pid] else 0)
        else:
            rows.append(rng.getrandbits(CE_EXPANSION))
    pats = PatternSet(rows, CE_EXPANSION)
    sigs = simulate_specified(net, pats, nodes)
    splits = 0
    for cid in list(mgr.members):
        if cid not in mgr.members:
            continue
        live = [n for n in mgr.members[cid] if not net.nodes[n].dead]
        if len(live) < 2:
            continue

        def key_of(nid: int) -> int:
            bits = sigs[nid].bits
            return bits ^ full if mgr.phase_of.get(nid, 0) else bits

        if mgr.split_class(cid, key_of) != [cid]:
            splits += 1
    splits += _window_refine_classes(mgr, net, cfg)
    return splits


def sweep(net: Network, cfg: SweepConfig | None = None) -> tuple[Network, SweepStats]:
    """Run the full sweeping loop on the network, in place.

    The result is combinationally equivalent to the input and never
    holds more live LUTs.
    """
    if cfg is None:
        cfg = SweepConfig()
    stats = SweepStats()
    t_start = time.perf_counter()
    stats.initial_luts = net.n_luts()
    rng = random.Random(cfg.seed ^ 0x51AB1E)

    solver = NetSolver(net)
    patterns, constants = sat_guided_patterns(solver, cfg, stats)
    stats.constants = constant_prop(net, constants)

    t0 = time.perf_counter()
    sigs = simulate_all(net, patterns)
    stats.sim_time += time.perf_counter() - t0
    mgr = init_equiv_classes(net, sigs)
    t0 = time.perf_counter()
    _window_refine_classes(mgr, net, cfg)
    stats.sim_time += time.perf_counter() - t0

    # ``rank`` holds the live nodes in topological order.  A merge
    # replaces a node by one of lower rank, so the rank stays a
    # topological order of the network throughout the loop, and
    # ``substitute_node`` needs no cycle walk.  A merge kills only its
    # candidate, so the classes keep only live members when that one
    # node leaves them.
    rank = mgr.topo_rank
    gate_list = [nid for nid in rank if not net.nodes[nid].is_pi]
    for candidate in gate_list:
        tried: set[int] = set()
        while True:
            if net.nodes[candidate].dead or net.nodes[candidate].dont_touch:
                break
            cid = mgr.class_of.get(candidate)
            if cid is None or cid not in mgr.members:
                break
            # Member lists are in topological order: the driver is the
            # earliest untried member, and only one that ranks before
            # the candidate will do.  A PI is a driver like any other
            # member; only candidates are never PIs.
            driver = next((d for d in mgr.members[cid] if d not in tried), None)
            if driver is None or rank[driver] >= rank[candidate]:
                break
            tried.add(driver)
            inverted = bool(mgr.phase_of.get(candidate, 0) ^ mgr.phase_of.get(driver, 0))
            if cid in mgr.window_refined:
                # Equal rows over the class's whole support prove the pair.
                solver.add_equivalence(candidate, driver, inverted=inverted)
                stats.window_merges += 1
            else:
                outcome = prove_equiv(
                    solver, candidate, driver,
                    inverted=inverted, conflict_limit=cfg.conflict_limit,
                )
                stats.record(outcome.status)
                if outcome.is_undet:
                    net.nodes[candidate].dont_touch = True
                    break
                if outcome.is_sat:
                    stats.ce_refinements += 1
                    t0 = time.perf_counter()
                    refine_classes(mgr, net, outcome.model, cfg, rng)
                    stats.sim_time += time.perf_counter() - t0
                    continue
            net.substitute_node(candidate, driver, inverted=inverted, rank=rank)
            stats.merges += 1
            mgr.drop_merged(candidate)
            break

    net.remove_dead()
    stats.final_luts = net.n_luts()
    stats.total_time = time.perf_counter() - t_start
    return net, stats
