"""Combinational equivalence checking between two networks.

Small interfaces (at most 14 PIs) are compared by exhaustive
simulation; larger ones on a miter network that holds both sides over
shared PIs.  The miter is structurally hashed: a LUT of either network
with the same fanins and truth table as an earlier miter LUT is that
LUT, so an output pair whose drivers hash together needs no SAT query.
The other pairs are asked in output order on one cone-scoped
:class:`~stpsweep.sat.NetSolver`, so each query branches only on its
own cones and what one query learns speeds up the next.  PI and PO
correspondence is by name when both sides carry the same name sets,
otherwise positional.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import Network
from .sat import NetSolver, pi_assignment, solve
from .simulate import PatternSet, _var_row, simulate_all

EXHAUSTIVE_PI_LIMIT = 14


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
    # The miter: both networks over shared PIs, structurally hashed
    # through one table.  Each LUT is keyed by its table and its fanins
    # as mapped into the miter (none sorted or permuted, so nothing the
    # sweep did is trusted); a LUT whose key is taken is that miter node.
    # ``a`` goes first, each side in topological order, so equal LUTs
    # keep the earliest, as a sweep does.
    miter = Network()
    to_a: dict[int, int] = {}
    to_b: dict[int, int] = {}
    for i, pid in enumerate(a.pis):
        to_a[pid] = to_b[b.pis[pi_map[i]]] = miter.add_pi()
    table: dict[tuple[tuple[int, ...], int], int] = {}
    for net, to_m in ((a, to_a), (b, to_b)):
        for nid in net.topo_order():
            node = net.nodes[nid]
            if not node.is_pi:
                fanins = [to_m[f] for f in node.fanins]
                key = (tuple(fanins), node.tt)
                if key not in table:
                    table[key] = miter.add_lut(fanins, node.tt)
                to_m[nid] = table[key]
    solver = NetSolver(miter)
    for j, (da, pa) in enumerate(a.pos):
        db, pb = b.pos[po_map[j]]
        da, db = to_a[da], to_b[db]
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
            differ = outcome.is_sat
            assignment = pi_assignment(miter, solver, outcome.model) if differ else {}
        if differ:
            # PIs outside the query's scope do not matter; they read 0.
            ce = {name: assignment.get(pid, False) for name, pid in zip(a.pi_names, miter.pis)}
            return CecResult(False, ce, a.po_names[j])
    return CecResult(True)


def check_equivalence(a: Network, b: Network) -> CecResult:
    """Decide whether two networks compute the same PO functions."""
    pi_map = _correspondence("PI", a.pi_names, b.pi_names)
    po_map = _correspondence("PO", a.po_names, b.po_names)
    if len(a.pis) <= EXHAUSTIVE_PI_LIMIT:
        return _exhaustive_cec(a, b, pi_map, po_map)
    return _miter_cec(a, b, pi_map, po_map)
