"""SAT sweeping: merge functionally equivalent LUT nodes.

The engine follows the FRAIG recipe: hash first, then simulate, then
prove.  A sweep runs these steps in order:

1. **Strash** (:func:`~stpsweep.netlist.strash`): one walk in
   topological order reads each LUT's fanins through the
   representatives of the LUTs already merged, folds constant fanins,
   collapses repeated fanins, drops inputs a table ignores, absorbs
   buffers and inverters, merges LUTs with equal fanins and tables, and
   sends constant tables to one constant-0 LUT
   (``SweepStats.strash_merges``, ``SweepStats.strash_constants``).  A
   merged LUT records its representative and phase and dies, with no
   substitution; the POs and the fanout lists are rewritten once, after
   the walk.  No simulation or SAT call is needed for what the
   structure already shows.
2. **Patterns**: SAT-guided initial patterns (:func:`sat_guided_patterns`)
   detect true constants and enrich the pattern set.
3. **Constants**: :func:`constant_prop` replaces the proven constants by
   the constant-0 LUT.
4. **Classes**: signatures group the live nodes into
   polarity-normalized equivalence classes (:func:`init_equiv_classes`).
5. **Window**: classes whose combined input support fits an exhaustive
   window are refined with full truth rows over that support; their
   surviving members are proven equal.
6. **Proving**: candidates are visited from the inputs to the outputs.
   As in a FRAIG, each candidate is merged into a class member that
   comes earlier in topological order, tried earliest first; an earlier
   member cannot lie in the candidate's fanout, so neither picking it
   nor the substitution needs a cycle check.  A window-proven pair
   merges without a SAT call (``SweepStats.window_merges``).  Every
   other pair is certified by an UNSAT answer from one incremental
   :class:`~stpsweep.sat.NetSolver`, which answers every query of a
   sweep, loads each node's clauses once and is told of each window
   merge.  Counter-examples from satisfiable queries refine the
   classes, and the window refines them again.

Each pattern is simulated once per sweep.  :func:`sat_guided_patterns`
simulates the base patterns over the whole network and keeps one row
per node; after each round it simulates only that round's
counter-example patterns and appends their bits to the rows.  Class
init reads those rows after :func:`constant_prop`, with no simulation
of its own: a substituted node is *proven* constant, so its readers
compute the same functions with the constant in its place, and every
surviving node keeps its row.  The one node that :func:`constant_prop`
may add is the constant-0 LUT, whose row is 0; it reuses strash's
constant-0 LUT if that one is live.

Outside SAT, the sweep's work per node is bounded per step.  Each
simulated round gives one int row per node, straight from the one
simulator (``_simulate``), with no object around it.  Each round of
pattern generation selects its gates in one pass over those rows
(:func:`_stuck`, :func:`_barely_toggling`).  Class init ranks and
groups the nodes in one pass over the topological order that pattern
generation simulated, with the constant-0 LUT moved to the front, so
that a class holding it merges onto it.  Each merge is one
substitution: a candidate of a window-refined class goes to the first
member of its class, and only a candidate that got a SAT answer keeps
a set of the drivers it tried.

A counter-example is the solver's answer to a satisfiable query: a
value for each PI in the query's scope, keyed by PI node id, with the
other PIs free.  :func:`_ce_rows` is the one place it becomes pattern
rows: one pattern each for :func:`sat_guided_patterns`, and
``CE_EXPANSION`` patterns each for :func:`refine_classes`.

CEC runs this sweep too: above ``WINDOW_CAP`` PIs,
:func:`~stpsweep.cec.check_equivalence` sweeps the miter of its two
networks at the default config.  A wrong merge certified here could
then pass CEC as well, so CEC's independent checks are the exhaustive
route and the tests' exhaustive oracles of every merge.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .netlist import Network, WindowTooLarge, strash
# ``encode_cone`` is not called here: the benchmark's tracer
# (perfbench/tracer.py) patches it, ``solve`` and ``prove_equiv`` in this
# module by name.
from .sat import NetSolver, SatOutcome, SatStatus, encode_cone, prove_equiv, solve
# ``simulate_all`` and ``simulate_specified`` are not called here either:
# the sweep takes int rows from ``_simulate``, and the tracer patches them.
from .simulate import (
    WINDOW_CAP,
    PatternSet,
    _simulate,
    check_window_cap,
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
    window_cap: int = WINDOW_CAP

    def __post_init__(self):
        if self.conflict_limit < 0:
            raise ValueError("conflict_limit must be >= 0 (0 means no limit)")
        if self.n_base_patterns < 1:
            raise ValueError("n_base_patterns must be >= 1")
        check_window_cap(self.window_cap)


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
    #: Buffers, inverters and duplicate LUTs merged by :func:`strash`; a
    #: part of ``merges`` that the kv and CSV lines do not print.
    strash_merges: int = 0
    constants: int = 0
    #: LUTs whose own rows :func:`strash` found constant; a part of
    #: ``constants`` that the kv and CSV lines do not print.
    strash_constants: int = 0
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
        #: Classes already split by an exhaustive window (nothing left to
        #: split).  Class ids are never reused, so deleted ones may stay.
        self.window_refined: set[int] = set()
        self._next_id = 0

    def new_class(self, nodes: list[int]) -> int:
        """A class of ``nodes``, given in topological order."""
        cid = self._next_id
        self._next_id += 1
        self.members[cid] = nodes
        for nid in nodes:
            self.class_of[nid] = cid
        return cid

    def drop_merged(self, nid: int) -> None:
        """Remove a merged node from its class, and the class if that
        leaves fewer than two members."""
        nodes = self.members[self.class_of.pop(nid)]
        nodes.remove(nid)
        if len(nodes) < 2:
            del self.members[self.class_of.pop(nodes[0])]

    def split_class(self, cid: int, rows: dict[int, int], mask: int) -> list[int]:
        """Split one class by its members' polarity-normalized rows.

        A member's row is complemented within ``mask`` if its phase bit
        is set.  Returns the surviving class ids (the original id if
        nothing split).  Groups shrinking to one node leave the manager.
        """
        groups: dict[int, list[int]] = {}
        for nid in self.members[cid]:
            key = rows[nid] ^ mask if self.phase_of[nid] else rows[nid]
            groups.setdefault(key, []).append(nid)
        if len(groups) == 1:
            return [cid]
        del self.members[cid]
        out = []
        for nodes in groups.values():
            if len(nodes) >= 2:
                out.append(self.new_class(nodes))
            else:
                del self.class_of[nodes[0]]
        return out


def init_equiv_classes(net: Network, rows: dict[int, int], n_patterns: int,
                       order: list[int] | None = None) -> ClassManager:
    """Group live nodes by polarity-normalized simulation row.

    ``rows`` maps each node to its packed row of ``n_patterns`` bits.  A
    node whose row's first bit is 1 gets its phase bit set, so a
    function and its complement share a class.  ``order`` is the live
    nodes in topological order, ``net.topo_order()`` if not given; one
    pass over it ranks the nodes and groups them by normalized row, so
    each class lists its members in that order.  A LUT that reads
    nothing, the constant-0 LUT, is ranked first: the rank stays
    topological, and a class that holds it merges onto it.  Classes of
    size one are discarded.
    """
    if order is None:
        order = net.topo_order()
    nodes = net.nodes
    consts = [nid for nid in order if not nodes[nid].fanins and not nodes[nid].is_pi]
    if consts:
        first = set(consts)
        order = consts + [nid for nid in order if nid not in first]
    mask = (1 << n_patterns) - 1
    rank: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    for i, nid in enumerate(order):
        rank[nid] = i
        row = rows[nid]
        groups.setdefault(row ^ mask if row & 1 else row, []).append(nid)
    mgr = ClassManager(rank)
    phase_of = mgr.phase_of
    for nodes in groups.values():
        if len(nodes) >= 2:
            mgr.new_class(nodes)
            for nid in nodes:
                phase_of[nid] = rows[nid] & 1
    return mgr


def _ce_rows(net: Network, ce: dict[int, bool], width: int, rng: random.Random) -> list[int]:
    """``width`` patterns from a counter-example, one row per PI of ``net``.

    A PI that ``ce`` assigns is constant across the row; every other PI
    gets ``rng.getrandbits(width)``, drawn in ``net.pis`` order.
    """
    full = (1 << width) - 1
    return [(full if ce[pid] else 0) if pid in ce else rng.getrandbits(width) for pid in net.pis]


def _find_value(solver: NetSolver, nid: int, value: bool, cfg: SweepConfig,
                stats: SweepStats) -> SatOutcome:
    """Ask the solver for an input assignment that sets ``nid`` to ``value``.

    A SAT outcome carries a counter-example over ``nid``'s cone; UNSAT
    proves ``nid`` constant at ``not value``.
    """
    solver.load([nid])
    var = solver.node_var[nid]
    outcome = solve(solver, assumptions=[var if value else -var],
                    conflict_limit=cfg.conflict_limit)
    stats.record(outcome.status)
    return outcome


def _simulate_rows(net: Network, pi_rows: list[int], mask: int, order: list[int],
                   keep: list[int] | None = None) -> dict[int, int]:
    """Int rows of the PIs, given in ``net.pis`` order, and of the LUTs of
    ``order``, from the one simulator.  With ``keep``, only its rows are
    sure to be there: ``_simulate`` frees the rest from 2^14 patterns on
    and keeps them below."""
    rows = dict(zip(net.pis, pi_rows))
    _simulate(net, order, rows, mask, keep)
    return rows


def _stuck(rows: dict[int, int], n: int) -> list[tuple[int, bool]]:
    """Each node whose row is all zeros or all ones, with the value it
    never shows, in the order of ``rows``."""
    full = (1 << n) - 1
    return [(nid, not row) for nid, row in rows.items() if not row or row == full]


def _barely_toggling(rows: dict[int, int], n: int) -> list[tuple[int, bool]]:
    """Each node whose row barely toggles, with its minority value, in the
    order of ``rows``.

    A row's toggle rate is its count of adjacent bits that differ over
    ``n - 1`` (0 below two patterns).  A rate below ``TOGGLE_THRESHOLD``,
    or above one minus it, barely toggles.  The minority value is 1 when
    at most half of the ``n`` bits are ones, else 0.
    """
    low, high = TOGGLE_THRESHOLD, 1.0 - TOGGLE_THRESHOLD
    pairs, span = (1 << (n - 1)) - 1, max(n - 1, 1)
    return [(nid, row.bit_count() * 2 <= n) for nid, row in rows.items()
            if not low <= ((row ^ row >> 1) & pairs).bit_count() / span <= high]


def sat_guided_patterns(
    solver: NetSolver, cfg: SweepConfig, stats: SweepStats, order: list[int] | None = None
) -> tuple[PatternSet, dict[int, int], list[tuple[int, bool]]]:
    """Two-round SAT-guided pattern generation.

    Round one simulates random base patterns and selects every gate whose
    row is all zeros or all ones (:func:`_stuck`); round two adds round
    one's counter-examples and selects gates whose rows barely toggle
    (:func:`_barely_toggling`).  Each round selects in one pass over the
    rows and asks its gates in topological order.  Each selected gate
    asks the solver for the value it rarely or never shows: a SAT answer
    adds its counter-example as a pattern, an UNSAT answer proves the
    gate constant.  Returns the enriched pattern set, every live node's
    row over it, and the proven ``(node, constant_value)`` pairs.  The
    gates are those of ``solver.net``, and every query goes to
    ``solver``.  Each round simulates only its own counter-examples, and
    appends their bits above the rows' earlier ones.  ``order`` is the
    network's topological order, ``net.topo_order()`` if not given.
    """
    net = solver.net
    nodes = net.nodes
    rng = random.Random(cfg.seed ^ 0x9E3779B9)
    patterns = gen_random_patterns(len(net.pis), cfg.n_base_patterns, cfg.seed)
    if order is None:
        order = net.topo_order()
    t0 = time.perf_counter()
    rows = _simulate_rows(net, patterns.rows, patterns.mask, order)
    stats.sim_time += time.perf_counter() - t0
    constants: dict[int, bool] = {}
    for select in (_stuck, _barely_toggling):
        n = patterns.n_patterns
        # Row i of the counter-example patterns, and how many there are.
        extra, n_extra = [0] * len(net.pis), 0
        for nid, value in select(rows, n):
            # PIs and constant LUTs read nothing; round one's constants
            # are not asked again.
            if not nodes[nid].fanins or nid in constants:
                continue
            outcome = _find_value(solver, nid, value, cfg, stats)
            if outcome.is_sat:
                for i, bit in enumerate(_ce_rows(net, outcome.model, 1, rng)):
                    extra[i] |= bit << n_extra
                n_extra += 1
            elif outcome.is_unsat:
                constants[nid] = not value
        if not n_extra:
            continue
        t0 = time.perf_counter()
        for nid, row in _simulate_rows(net, extra, (1 << n_extra) - 1, order).items():
            rows[nid] |= row << n
        stats.sim_time += time.perf_counter() - t0
        patterns = PatternSet([row | more << n for row, more in zip(patterns.rows, extra)],
                              n + n_extra)
    return patterns, rows, list(constants.items())


def constant_prop(net: Network, constants: list[tuple[int, bool]],
                  const0: int | None = None) -> int:
    """Replace proven-constant nodes, distinct and live, by one shared
    constant-0 LUT: ``const0`` if given, else a new one."""
    if not constants:
        return 0
    if const0 is None:
        const0 = net.add_lut([], 0)
    for nid, value in constants:
        net.substitute_node(nid, const0, inverted=bool(value))
    net.remove_dead()
    return len(constants)


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
        if cid in mgr.window_refined:
            continue
        try:
            wt = exhaustive_window_sim(net, mgr.members[cid], cfg.window_cap)
        except WindowTooLarge:
            continue
        survivors = mgr.split_class(cid, wt.window_rows, (1 << (1 << len(wt.leaves))) - 1)
        if survivors != [cid]:
            splits += 1
        mgr.window_refined.update(survivors)
    return splits


def refine_classes(
    mgr: ClassManager,
    net: Network,
    ce: dict[int, bool],
    cfg: SweepConfig,
    rng: random.Random,
) -> int:
    """Refine candidate classes with a counter-example.

    The counter-example is expanded to ``CE_EXPANSION`` patterns
    (assigned PIs pinned, the rest drawn from ``rng``), and only the
    input cones of the current class members are simulated.  Classes
    whose support fits the exhaustive window are afterwards split by
    full truth rows.  Returns the number of class splits.
    """
    targets = list(mgr.class_of)
    mask = (1 << CE_EXPANSION) - 1
    rows = _simulate_rows(net, _ce_rows(net, ce, CE_EXPANSION, rng), mask,
                          net.cone(targets), targets)
    splits = sum(mgr.split_class(cid, rows, mask) != [cid] for cid in list(mgr.members))
    return splits + _window_refine_classes(mgr, net, cfg)


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

    stats.strash_merges, stats.strash_constants, const0 = strash(net)
    stats.merges, stats.constants = stats.strash_merges, stats.strash_constants

    solver = NetSolver(net)
    order = net.topo_order()
    patterns, rows, constants = sat_guided_patterns(solver, cfg, stats, order)
    stats.constants += constant_prop(net, constants, const0)
    if constants:
        # Proven constants leave every surviving row valid; the one node
        # that may be new is the constant-0 LUT (see the module
        # docstring).  Without constants the network is unchanged, and so
        # are its order and its rows.
        order = net.topo_order()
        rows = {nid: rows.get(nid, 0) for nid in order}
    mgr = init_equiv_classes(net, rows, patterns.n_patterns, order)
    t0 = time.perf_counter()
    _window_refine_classes(mgr, net, cfg)
    stats.sim_time += time.perf_counter() - t0

    # ``rank`` holds the live nodes in topological order.  A merge
    # replaces a node by one of lower rank, so the rank stays a
    # topological order of the network throughout the loop, and
    # ``substitute_node`` needs no cycle walk.  A merge kills only its
    # candidate, which leaves its class at once, so every class member
    # is live.  Each candidate is visited once.
    rank = mgr.topo_rank
    class_of, members, phase_of = mgr.class_of, mgr.members, mgr.phase_of
    nodes = net.nodes
    for candidate in [nid for nid in rank if not nodes[nid].is_pi]:
        # The drivers that answered SAT; None until one does, so a
        # candidate that merges at its first try builds no set.
        tried: set[int] | None = None
        while (cid := class_of.get(candidate)) is not None:
            # Members are in topological order and the candidate is never
            # tried: the driver, the earliest untried member, ranks before
            # the candidate until it is the candidate itself.  A PI is a
            # driver like any other member; only candidates are never PIs.
            if tried is None:
                driver = members[cid][0]
            else:
                driver = next(d for d in members[cid] if d not in tried)
            if driver == candidate:
                break
            inverted = bool(phase_of[candidate] ^ phase_of[driver])
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
                    break
                if outcome.is_sat:
                    if tried is None:
                        tried = set()
                    tried.add(driver)
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
