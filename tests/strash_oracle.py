"""Substitution-based structural hashing: the reference the tests compare against.

This is the strash that :func:`stpsweep.netlist.strash` replaced.  It
applies each merge at once through :meth:`~stpsweep.Network.substitute_node`,
which rewires every reader, flips readers' rows for an inverter and
scans every PO.  The package records a representative per merged node
instead and resolves it when a reader is visited; the tests require
both to leave the same network and return the same result.
"""

from __future__ import annotations

from stpsweep.netlist import Network, _reduce_lut


def strash(net: Network) -> tuple[int, int, int | None]:
    """Structurally hash ``net`` in place, keeping every PO's function.

    One walk in topological order.  Each LUT first loses the inputs its
    function does not need (:func:`_reduce_lut`): constant fanins are
    folded into its row, a fanin read twice is read once, and inputs the
    row ignores are dropped.  Then a LUT with a constant row is replaced
    by the shared constant-0 LUT, complemented for a 1; a buffer or an
    inverter by its fanin, with its readers' rows and PO phases flipped
    for an inverter; and a LUT with the same fanins and row as an
    earlier one by that one.  The shared constant-0 LUT is the first LUT
    whose row reduces to 0, rewritten to read nothing, or a new one if a
    constant 1 comes first.  Each substitution checks for a cycle, as
    :meth:`~stpsweep.Network.substitute_node` does.  If a LUT dropped a
    fanin or turned constant, nodes no PO reads are removed at the end.

    Returns the merges (buffers, inverters and duplicates), the LUTs
    replaced by the constant, and the constant-0 LUT if it is live.
    """
    nodes = net.nodes
    order = net.topo_order()
    table: dict[tuple[tuple[int, ...], int], int] = {}
    const0: int | None = None
    merges = constants = 0
    dropped = False
    substitute = net.substitute_node
    for nid in order:
        node = nodes[nid]
        if node.is_pi:
            continue
        fanins, tt = node.fanins, node.tt
        if len(fanins) == 1 and (tt == 1 or tt == 2) and fanins[0] != const0:
            keep = (0,)  # a buffer or an inverter of a node that is not constant
        else:
            keep, tt = _reduce_lut(fanins, tt, const0)
            if len(keep) < len(fanins):
                dropped = True
        if not keep:
            if const0 is None and not tt:
                node.fanins, node.tt, const0 = [], 0, nid
                continue
            if const0 is None:
                const0 = net.add_lut([], 0)
            substitute(nid, const0, inverted=bool(tt))
            constants += 1
            continue
        if len(keep) == 1:
            # A row that needs its one input is a buffer or an inverter.
            substitute(nid, fanins[keep[0]], inverted=tt == 1)
            merges += 1
            continue
        kept = fanins if len(keep) == len(fanins) else [fanins[p] for p in keep]
        rep = table.setdefault((tuple(kept), tt), nid)
        if rep != nid:
            substitute(nid, rep)
            merges += 1
        elif kept is not fanins:
            node.fanins, node.tt = kept, tt
    if dropped or constants:
        net.remove_dead()
    if const0 is not None and nodes[const0].dead:
        const0 = None
    return merges, constants, const0
