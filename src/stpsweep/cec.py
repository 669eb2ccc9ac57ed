"""Combinational equivalence checking between two networks.

Small interfaces (at most 14 PIs) are compared by exhaustive
simulation; larger ones on a miter network that holds both sides over
shared PIs.  The miter's union cone is encoded once, into one
incremental solver, which is asked one query per output pair in output
order, so what one query learns speeds up the next.  PI and PO
correspondence is by name when both sides carry the same name sets,
otherwise positional.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import Network
from .sat import Solver, add_xor, encode_cone, pi_assignment, solve
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
    # The miter: a clone of ``a`` with ``b``'s live LUTs added over ``a``'s PIs.
    miter = a.clone()
    to_m = {b.pis[pi_map[i]]: pid for i, pid in enumerate(a.pis)}
    for nid in b.topo_order():
        node = b.nodes[nid]
        if not node.is_pi:
            to_m[nid] = miter.add_lut([to_m[f] for f in node.fanins], node.tt)
    # (PO index, a's driver, b's driver in the miter, phases differ)
    pairs = []
    for j, (da, pa) in enumerate(a.pos):
        db, pb = b.pos[po_map[j]]
        pairs.append((j, da, to_m[db], pa != pb))
    # One solver over the union cone of every PO driver, with one XOR per
    # PO pair of distinct drivers; the pairs are asked in PO order and
    # share what the solver learns.
    cnf = encode_cone(miter, [d for _, da, dm, _ in pairs for d in (da, dm)])
    xors = [add_xor(cnf, cnf.node_var[da], cnf.node_var[dm]) if da != dm else 0
            for _, da, dm, _ in pairs]
    solver = Solver(cnf.n_vars, cnf.clauses)  # cnf is read only for node_var from here on
    for (j, da, dm, flipped), t in zip(pairs, xors):
        if da == dm:  # one shared driver, a PI: only the phases can differ
            differ, assignment = flipped, {}
        else:
            # Outputs must differ after accounting for the two PO phases.
            outcome = solve(solver, assumptions=[-t if flipped else t])
            differ = outcome.is_sat
            assignment = pi_assignment(miter, cnf, outcome.model) if differ else {}
        if differ:
            # PIs outside the union cone do not matter; they read 0.
            ce = {name: assignment.get(pid, False) for name, pid in zip(a.pi_names, a.pis)}
            return CecResult(False, ce, a.po_names[j])
    return CecResult(True)


def check_equivalence(a: Network, b: Network) -> CecResult:
    """Decide whether two networks compute the same PO functions."""
    pi_map = _correspondence("PI", a.pi_names, b.pi_names)
    po_map = _correspondence("PO", a.po_names, b.po_names)
    if len(a.pis) <= EXHAUSTIVE_PI_LIMIT:
        return _exhaustive_cec(a, b, pi_map, po_map)
    return _miter_cec(a, b, pi_map, po_map)
