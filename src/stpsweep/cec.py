"""Combinational equivalence checking between two networks.

Interfaces of at most ``WINDOW_CAP`` PIs are compared by exhaustive
simulation; larger ones on a miter network that holds both sides over
shared PIs, with each output pair as two miter POs.  The miter is swept
(:func:`~stpsweep.sweep.sweep` at its default config), which proves
its internal equivalences from the inputs up, as a FRAIG-based CEC
does, and keeps every PO's function.  Every merge is certified by
strash, an exhaustive window or an UNSAT answer.  An output pair whose
swept POs share a driver is decided by their phases, with no query.
The other pairs are asked in output order on one cone-scoped
:class:`~stpsweep.sat.NetSolver` over the swept miter.  A SAT answer
is a counter-example: a value for each miter PI in the query's scope,
keyed by PI node id.  The PIs outside the scope are free, and the
witness that :class:`CecResult` reports sets them to 0.  PI and PO
correspondence is by name when both sides carry the same name sets,
otherwise positional.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import Network, _var_row
from .sat import NetSolver, solve
from .simulate import WINDOW_CAP, PatternSet, simulate_all
from .sweep import SweepConfig, sweep


class InterfaceMismatch(ValueError):
    pass


@dataclass
class CecResult:
    equivalent: bool
    #: PI assignment (by net-a PI name) witnessing the difference, if any.
    counterexample: dict[str, bool] | None = None
    #: Name of the first differing output, if any.
    output: str | None = None


def _correspondence(what: str, names_a: list[str], names_b: list[str]) -> list[int]:
    """For each position of ``names_a``, the matching position in ``names_b``."""
    if len(names_a) != len(names_b):
        raise InterfaceMismatch(
            f"{what} count differs: {len(names_a)} vs {len(names_b)}")
    if set(names_a) == set(names_b) and len(set(names_a)) == len(names_a):
        pos_b = {name: i for i, name in enumerate(names_b)}
        return [pos_b[name] for name in names_a]
    return list(range(len(names_a)))


def _exhaustive_cec(a: Network, b: Network, pi_map: list[int], po_map: list[int]) -> CecResult:
    n = len(a.pis)
    n_pat = 1 << n
    rows_a = [_var_row(i, n) for i in range(n)]
    rows_b: list[int] = [0] * n
    for i in range(n):
        rows_b[pi_map[i]] = rows_a[i]
    sa = simulate_all(a, PatternSet(rows_a, n_pat))
    sb = simulate_all(b, PatternSet(rows_b, n_pat))
    mask = (1 << n_pat) - 1
    for j, (da, pa) in enumerate(a.pos):
        db, pb = b.pos[po_map[j]]
        ra = sa[da].bits ^ (mask if pa else 0)
        rb = sb[db].bits ^ (mask if pb else 0)
        if ra != rb:
            diff = ra ^ rb
            v = (diff & -diff).bit_length() - 1
            ce = {a.pi_names[i]: bool((v >> (n - 1 - i)) & 1) for i in range(n)}
            return CecResult(False, ce, a.po_names[j])
    return CecResult(True)


def _miter_cec(a: Network, b: Network, pi_map: list[int], po_map: list[int]) -> CecResult:
    # The miter: both networks over shared PIs, ``a`` first, and each
    # output pair as two POs in a row.  Its sweep proves the internal
    # equivalences from the inputs up and keeps every PO's function, so
    # a pair whose swept POs share a driver is decided by their phases.
    miter = Network()
    to_a: dict[int, int] = {}
    to_b: dict[int, int] = {}
    for i, pid in enumerate(a.pis):
        to_a[pid] = to_b[b.pis[pi_map[i]]] = miter.add_pi()
    for net, to_m in ((a, to_a), (b, to_b)):
        for nid in net.topo_order():
            node = net.nodes[nid]
            if not node.is_pi:
                to_m[nid] = miter.add_lut([to_m[f] for f in node.fanins], node.tt)
    for j, (da, pa) in enumerate(a.pos):
        db, pb = b.pos[po_map[j]]
        miter.add_po(to_a[da], pa)
        miter.add_po(to_b[db], pb)
    sweep(miter, SweepConfig())
    solver = NetSolver(miter)
    for j in range(len(a.pos)):
        (da, pa), (db, pb) = miter.pos[2 * j:2 * j + 2]
        if da == db:
            # One shared driver: the outputs differ, for every input
            # alike, exactly when the phases do.
            differ, assignment = pa != pb, {}
        else:
            # a != b' for the phase-adjusted b', as two assumption sets
            # in one call, as ``prove_equiv`` asks it.
            solver.load([da, db])
            va, vb = solver.node_var[da], solver.node_var[db]
            if pa != pb:
                vb = -vb
            outcome = solve(solver, assumptions=[va, -vb], alternatives=[[-va, vb]])
            differ, assignment = outcome.is_sat, outcome.model
        if differ:
            ce = {name: assignment.get(pid, False) for name, pid in zip(a.pi_names, miter.pis)}
            return CecResult(False, ce, a.po_names[j])
    return CecResult(True)


def check_equivalence(a: Network, b: Network) -> CecResult:
    """Decide whether two networks compute the same PO functions."""
    pi_map = _correspondence("PI", a.pi_names, b.pi_names)
    po_map = _correspondence("PO", a.po_names, b.po_names)
    if len(a.pis) <= WINDOW_CAP:
        return _exhaustive_cec(a, b, pi_map, po_map)
    return _miter_cec(a, b, pi_map, po_map)
