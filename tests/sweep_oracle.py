"""Substitution-based merges: the reference the tests compare against.

This is the :func:`stpsweep.sweep` whose constant step and proving loop
merged through :meth:`~stpsweep.Network.substitute_node`, which rewires
every reader, flips readers' rows for an inverted merge and scans
every PO.  The package records a representative per
merged node instead: :func:`~stpsweep.sweep.constant_prop` reads every
live LUT's fanins and the POs through its record once, and the proving
loop reads each candidate's fanins through its record when the loop
visits it, and the POs once after the loop.  The tests require both to
leave the same network and the same counts.  Every other step is the
package's own.
"""

from __future__ import annotations

import random
import time

from stpsweep.netlist import Network, strash
from stpsweep.sat import NetSolver, prove_equiv
from stpsweep.sweep import (
    SweepConfig,
    SweepStats,
    _window_refine_classes,
    init_equiv_classes,
    refine_classes,
    sat_guided_patterns,
)


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


def sweep(net: Network, cfg: SweepConfig | None = None) -> tuple[Network, SweepStats]:
    """Run the full sweeping loop on the network, in place, substituting
    each proven constant by the constant-0 LUT and each proven candidate
    by its driver as soon as it is proven."""
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
        order = net.topo_order()
        rows = {nid: rows.get(nid, 0) for nid in order}
    mgr = init_equiv_classes(net, rows, patterns.n_patterns, order)
    t0 = time.perf_counter()
    _window_refine_classes(mgr, net, cfg)
    stats.sim_time += time.perf_counter() - t0

    # A merge replaces a node by one of lower rank, so the rank stays a
    # topological order of the network throughout the loop.
    rank = mgr.topo_rank
    class_of, members, phase_of = mgr.class_of, mgr.members, mgr.phase_of
    nodes = net.nodes
    for candidate in [nid for nid in rank if not nodes[nid].is_pi]:
        tried: set[int] | None = None
        while (cid := class_of.get(candidate)) is not None:
            if tried is None:
                driver = members[cid][0]
            else:
                driver = next(d for d in members[cid] if d not in tried)
            if driver == candidate:
                break
            inverted = bool(phase_of[candidate] ^ phase_of[driver])
            if cid in mgr.window_refined:
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
            net.substitute_node(candidate, driver, inverted=inverted)
            stats.merges += 1
            mgr.drop_merged(candidate)
            break

    net.remove_dead()
    stats.final_luts = net.n_luts()
    stats.total_time = time.perf_counter() - t_start
    return net, stats
