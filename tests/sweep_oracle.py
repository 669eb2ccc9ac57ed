"""Substitution-based proving loop: the reference the tests compare against.

This is the :func:`stpsweep.sweep` whose proving loop merged through
:meth:`~stpsweep.Network.substitute_node`, which rewires every reader,
flips readers' rows for an inverted merge, edits fanout lists and scans
every PO.  The package records a representative per merged candidate
instead, reads each candidate's fanins through the record when the loop
visits it, and reads the POs through it once after the loop; the tests
require both to leave the same network and the same counts.  Every step
before the loop is the package's own.
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
    constant_prop,
    init_equiv_classes,
    refine_classes,
    sat_guided_patterns,
)


def sweep(net: Network, cfg: SweepConfig | None = None) -> tuple[Network, SweepStats]:
    """Run the full sweeping loop on the network, in place, substituting
    each proven candidate by its driver as soon as it is proven."""
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
