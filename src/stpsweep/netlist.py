"""k-LUT network data model with BLIF / ASCII-AIGER ingestion.

This module is the one graph layer: every walk of a network's fanins
is here.  :meth:`Network.cone` gives the targets' input cones in
topological order, and the simulator, the SAT layer and
:meth:`Network.remove_dead` read that.  :func:`_build_in_order`
instantiates parsed definitions in dependency order, for BLIF and
AIGER alike.

A :class:`Network` is a DAG of LUT nodes.  Primary inputs are nodes with
no fanins; every other node carries a truth row over its ordered fanins
in the package convention (``stpsweep.stp``): bit ``v`` of the row is
the output when the fanin values, first fanin most significant, spell
the unsigned integer ``v``.

Node ids are dense indices into the node array and are never reused;
structural edits mark nodes dead instead of renumbering, so external
tables indexed by id stay valid.
"""

from __future__ import annotations

import heapq
from collections.abc import Container, Iterable
from dataclasses import dataclass, field
from itertools import chain


class NetlistError(Exception):
    """Malformed input file or illegal structural edit."""


class CycleError(NetlistError):
    """The fanin relation is not acyclic."""


class WindowTooLarge(Exception):
    """The targets' combined structural support exceeds the window cap."""


def flip_tt_input(tt: int, arity: int, pos: int) -> int:
    """Truth row of the same LUT with input ``pos`` complemented.

    ``pos`` is the fanin position, 0 = first = most significant.
    """
    b = arity - 1 - pos
    step = 1 << b
    period = step << 1
    # Mask of row bits whose assignment has input bit b equal to zero.
    block = (1 << step) - 1
    low = 0
    for off in range(0, 1 << arity, period):
        low |= block << off
    return ((tt & low) << step) | ((tt >> step) & low)


@dataclass
class LutNode:
    id: int
    fanins: list[int] = field(default_factory=list)
    tt: int = 0
    is_pi: bool = False
    dead: bool = False
    #: Live readers, one entry per fanin slot that reads this node.
    fanouts: list[int] = field(default_factory=list)

    @property
    def arity(self) -> int:
        return len(self.fanins)

    @property
    def fanout_count(self) -> int:
        return len(self.fanouts)


class Network:
    """Combinational k-LUT network."""

    def __init__(self, name: str = "net"):
        self.name = name
        self.nodes: list[LutNode] = []
        self.pis: list[int] = []
        self.pos: list[tuple[int, bool]] = []
        self.pi_names: list[str] = []
        self.po_names: list[str] = []
        # Signal-name lookup populated by the parsers; ids also resolve.
        self.names: dict[str, int] = {}

    # -- construction -------------------------------------------------

    def add_pi(self, name: str | None = None) -> int:
        nid = len(self.nodes)
        self.nodes.append(LutNode(nid, is_pi=True))
        self.pis.append(nid)
        if name is None:
            name = f"pi{len(self.pis) - 1}"
        self.pi_names.append(name)
        self.names[name] = nid
        return nid

    def add_lut(self, fanins: list[int], tt: int, name: str | None = None) -> int:
        arity = len(fanins)
        if not 0 <= tt < (1 << (1 << arity)):
            raise NetlistError(f"truth row does not fit {arity} inputs")
        nid = len(self.nodes)
        for f in fanins:
            if not 0 <= f < nid:
                raise NetlistError(f"fanin {f} of node {nid} does not exist yet")
        node = LutNode(nid, list(fanins), tt)
        self.nodes.append(node)
        for f in fanins:
            self.nodes[f].fanouts.append(nid)
        if name is not None:
            self.names[name] = nid
        return nid

    def add_po(self, driver: int, inverted: bool = False, name: str | None = None) -> None:
        if not 0 <= driver < len(self.nodes):
            raise NetlistError(f"PO driver {driver} does not exist")
        self.pos.append((driver, inverted))
        self.po_names.append(name if name is not None else f"po{len(self.pos) - 1}")

    # -- queries ------------------------------------------------------

    def live_ids(self) -> list[int]:
        return [n.id for n in self.nodes if not n.dead]

    def n_luts(self) -> int:
        """Live non-PI node count."""
        return sum(1 for n in self.nodes if not n.dead and not n.is_pi)

    def resolve(self, token: str) -> int:
        """Map a signal name or a decimal id string to a node id."""
        if token in self.names:
            return self.names[token]
        try:
            nid = int(token)
        except ValueError:
            raise NetlistError(f"unknown signal {token!r}") from None
        if not 0 <= nid < len(self.nodes) or self.nodes[nid].dead:
            raise NetlistError(f"no live node with id {nid}")
        return nid

    def topo_order(self) -> list[int]:
        """Live node ids, every fanin before its fanouts; ties by id.

        That is ascending id order unless a live node reads an id at or
        above its own, as every cycle does; then a heap walk sorts them.
        """
        live = self.live_ids()
        nodes = self.nodes
        if all(f < nid for nid in live for f in nodes[nid].fanins):
            return live
        indeg = {}
        for nid in live:
            indeg[nid] = sum(1 for f in nodes[nid].fanins if not nodes[f].dead)
        ready = [nid for nid, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for out in nodes[nid].fanouts:
                if nodes[out].dead:
                    continue
                indeg[out] -= 1
                if indeg[out] == 0:
                    heapq.heappush(ready, out)
        if len(order) != len(indeg):
            raise CycleError("network contains a combinational cycle")
        return order

    def first_names(self) -> dict[int, str]:
        """The first name in ``names`` of each named node, by id."""
        return {nid: name for name, nid in reversed(self.names.items())}

    def cone(self, targets: list[int], pi_cap: int | None = None,
             known: Container[int] = ()) -> list[int]:
        """The targets' input cones (the targets, every node they read, and
        PIs) in topological order.

        The walk is an iterative post-order, so every node comes after its
        fanins and no whole-network sort is needed.  It does not enter
        ``known`` nodes, so they and what is read only through them are left
        out.  Raises ``ValueError`` for a dead target, and
        :class:`WindowTooLarge` as soon as the walk finds more than
        ``pi_cap`` PIs.
        """
        nodes = self.nodes
        for t in targets:
            if nodes[t].dead:
                raise ValueError(f"target {t} is dead")
        order: list[int] = []
        seen: set[int] = set()
        n_pis = 0
        # ``~nid`` (negative) marks a node whose fanins are already emitted.
        stack = list(targets)
        while stack:
            nid = stack.pop()
            if nid < 0:
                order.append(~nid)
                continue
            if nid in seen or nid in known:
                continue
            seen.add(nid)
            node = nodes[nid]
            if node.is_pi:
                n_pis += 1
                if pi_cap is not None and n_pis > pi_cap:
                    raise WindowTooLarge(f"window has more than {pi_cap} leaves")
                order.append(nid)
            else:
                stack.append(~nid)
                stack.extend(node.fanins)
        return order

    def transitive_fanin(self, nid: int, bound: int) -> list[int]:
        """Non-PI nodes in the input cone of ``nid``, at most ``bound`` of them.

        The cone includes ``nid`` itself (unless it is a PI) and never
        includes PIs.  Breadth-first from the node, fanins in order, so
        the truncation at ``bound`` visited nodes is deterministic.
        """
        node = self.nodes[nid]
        if node.dead:
            raise NetlistError(f"node {nid} is dead")
        if bound <= 0 or node.is_pi:
            return []
        out = [nid]
        seen = {nid}
        queue = [nid]
        qi = 0
        while qi < len(queue) and len(out) < bound:
            cur = queue[qi]
            qi += 1
            for f in self.nodes[cur].fanins:
                fn = self.nodes[f]
                if f in seen or fn.is_pi or fn.dead:
                    continue
                seen.add(f)
                out.append(f)
                queue.append(f)
                if len(out) >= bound:
                    break
        return out

    def is_in_tfo(self, a: int, b: int) -> bool:
        """True iff ``b`` is reachable from ``a`` along fanout edges (reflexively)."""
        if a == b:
            return True
        seen = {a}
        stack = [a]
        while stack:
            cur = stack.pop()
            for out in self.nodes[cur].fanouts:
                if out == b:
                    return True
                if out not in seen and not self.nodes[out].dead:
                    seen.add(out)
                    stack.append(out)
        return False

    def level(self) -> int:
        depth = {}
        worst = 0
        for nid in self.topo_order():
            node = self.nodes[nid]
            d = 0 if node.is_pi else max((depth[f] + 1 for f in node.fanins), default=0)
            depth[nid] = d
            worst = max(worst, d)
        return worst

    # -- edits --------------------------------------------------------

    def substitute_node(self, old: int, new: int, inverted: bool = False,
                        rank: dict[int, int] | None = None) -> None:
        """Re-point every reader of ``old`` to ``new`` and kill ``old``.

        With ``inverted`` set, consuming LUTs get the corresponding
        truth-row input complemented and PO phases are flipped, so the
        network function is preserved exactly when ``new`` equals the
        complement of ``old``.

        A substitution that would make ``new`` read itself raises
        :class:`NetlistError`; checking for it walks ``old``'s fanout
        cone.  A ``new`` with no fanins, such as a PI or a constant,
        reads nothing and lies in no fanout cone, so it needs no walk.
        ``rank``, if given, must be a topological rank of the live
        nodes.  When ``new`` ranks before ``old`` there, ``new`` cannot
        lie in ``old``'s fanout cone either, so the walk is skipped.
        Without the walk, the substitution costs time in ``old``'s
        readers and fanins only.  The rank then stays topological, since
        every reader of ``old`` ranks after ``old`` and so after ``new``.
        """
        if old == new:
            raise NetlistError("cannot substitute a node by itself")
        if self.nodes[old].dead or self.nodes[new].dead:
            raise NetlistError("substitution involving a dead node")
        if (self.nodes[new].fanins and (rank is None or rank[new] >= rank[old])
                and self.is_in_tfo(old, new)):
            raise NetlistError(f"substituting {old} by {new} would create a cycle")
        old_node = self.nodes[old]
        for reader in dict.fromkeys(old_node.fanouts):
            rnode = self.nodes[reader]
            for pos, f in enumerate(rnode.fanins):
                if f != old:
                    continue
                rnode.fanins[pos] = new
                if inverted:
                    rnode.tt = flip_tt_input(rnode.tt, rnode.arity, pos)
                self.nodes[new].fanouts.append(reader)
        old_node.fanouts.clear()
        for j, (driver, phase) in enumerate(self.pos):
            if driver == old:
                self.pos[j] = (new, phase ^ inverted)
        # Nothing reads ``old`` now: it dies and leaves its fanins' lists.
        old_node.dead = True
        for f in old_node.fanins:
            self.nodes[f].fanouts.remove(old)

    def remove_dead(self) -> int:
        """Mark nodes unreachable from the POs dead; PIs always survive."""
        live = set(self.pis)
        live.update(self.cone([d for d, _ in self.pos]))
        removed = 0
        for node in self.nodes:
            if node.dead or node.is_pi:
                continue
            if node.id not in live:
                node.dead = True
                removed += 1
        for node in self.nodes:
            node.fanouts.clear()
        for node in self.nodes:
            if node.dead:
                continue
            for f in node.fanins:
                self.nodes[f].fanouts.append(node.id)
        return removed

    def clone(self) -> "Network":
        out = Network(self.name)
        out.pis = list(self.pis)
        out.pos = list(self.pos)
        out.pi_names = list(self.pi_names)
        out.po_names = list(self.po_names)
        out.names = dict(self.names)
        for n in self.nodes:
            m = LutNode(n.id, list(n.fanins), n.tt, n.is_pi, n.dead,
                        list(n.fanouts))
            out.nodes.append(m)
        return out


# ---------------------------------------------------------------------------
# BLIF subset: .model .inputs .outputs .names .end, cover rows [01-]+ [01].

#: Most fanins a ``.names`` block may list.
MAX_BLIF_FANINS = 16


def _blif_logical_lines(text: str):
    """Yield (line_number, tokens) with comments and continuations handled."""
    pending: list[str] = []
    pending_no = 0
    for no, raw in enumerate(text.splitlines(), start=1):
        if not pending and "#" not in raw and "\\" not in raw:
            # No comment and no continuation: the common line.
            tokens = raw.split()
            if tokens:
                yield no, tokens
            continue
        line = raw.split("#", 1)[0].rstrip()
        cont = line.endswith("\\")
        if cont:
            line = line[:-1]
        if not pending:
            pending_no = no
        pending.append(line)
        if cont:
            continue
        joined = " ".join(pending).strip()
        pending = []
        if joined:
            yield pending_no, joined.split()
    if pending and any(s.strip() for s in pending):
        yield pending_no, " ".join(pending).split()


def _cover_to_tt(covers: list[tuple[int, str, str]], arity: int) -> int:
    """Convert BLIF single-output cover rows to a truth-row integer."""
    if not covers:
        return 0
    out_vals = {val for _, _, val in covers}
    if len(out_vals) != 1:
        line = covers[0][0]
        raise NetlistError(f"line {line}: mixed cover output values")
    acc = 0
    full = (1 << (1 << arity)) - 1
    for line, ins, _ in covers:
        if not ins.strip("01"):
            # ASCII 0/1 only, so ``int`` reads the row's one minterm; an
            # arity-0 row is minterm 0.
            acc |= 1 << int(ins or "0", 2)
            continue
        bad = [c for c in ins if c not in "01-"]
        if bad:
            raise NetlistError(f"line {line}: bad cover character {bad[0]!r}")
        minterms = [int(ins.replace("-", "0"), 2)]
        for j, c in enumerate(ins):
            if c == "-":
                bit = 1 << (arity - 1 - j)
                minterms += [v | bit for v in minterms]
        for v in minterms:
            acc |= 1 << v
    return acc if out_vals == {"1"} else acc ^ full


def _build_in_order(net: Network, defs: dict, ids: dict, roots: Iterable) -> None:
    """Add a LUT for each definition the roots reach, fanins first.

    ``defs`` maps a key to ``(line, fanin keys, tt)``, and ``ids`` maps
    each key already built to its node id; every key this builds is
    added to ``ids``.  An iterative DFS in root order: a definition is
    built after those of its fanins that are not built yet, which are
    visited last-listed first.
    """
    expanded = set()  # keys whose fanins are on the stack above them
    for root in roots:
        stack = [root]
        while stack:
            key = stack[-1]
            if key in ids:
                stack.pop()
                continue
            if key not in defs:
                raise NetlistError(f"signal {key!r} is never defined")
            no, fanin_keys, tt = defs[key]
            if key in expanded:
                ids[key] = net.add_lut([ids[f] for f in fanin_keys], tt)
                stack.pop()
                continue
            expanded.add(key)
            for f in fanin_keys:
                if f not in ids:
                    if f in expanded:
                        raise NetlistError(f"line {no}: cyclic definition through {f!r}")
                    stack.append(f)


def parse_blif(text: str) -> Network:
    """Parse the supported BLIF subset into a network.

    A cover row's inputs are the ASCII characters ``0``, ``1`` and
    ``-`` only; any other character, even one that ``int`` reads as a
    digit, is a ``bad cover character``.  PIs take the first ids, in
    ``.inputs`` order.  The ``.names`` blocks then get theirs by
    :func:`_build_in_order` with the blocks in file order as roots.
    """
    model = "net"
    inputs: list[str] = []
    outputs: list[str] = []
    defs: dict[str, tuple[int, list[str], int]] = {}
    offset_buffers: set[str] = set()  # blocks of one row, ``0 0``: a PO alias's form
    rows: list[tuple[int, str, str]] | None = None  # of the open .names block
    arity = 0

    # An appended ``.end`` closes the last block of a file that has none.
    for no, tokens in chain(_blif_logical_lines(text), [(0, [".end"])]):
        cmd = tokens[0]
        if cmd[0] != ".":
            if rows is None:
                raise NetlistError(f"line {no}: cover row outside .names")
            if arity == 0:
                if len(tokens) != 1 or cmd not in ("0", "1"):
                    raise NetlistError(f"line {no}: bad constant cover row")
                rows.append((no, "", cmd))
            elif len(tokens) != 2 or len(cmd) != arity or tokens[1] not in ("0", "1"):
                raise NetlistError(f"line {no}: malformed cover row")
            else:
                rows.append((no, cmd, tokens[1]))
            continue
        if rows is not None:
            defs[out_name] = (names_no, fanin_names, _cover_to_tt(rows, arity))
            if arity == 1 and [r[1:] for r in rows] == [("0", "0")]:
                offset_buffers.add(out_name)
            rows = None
        if cmd == ".names":
            if len(tokens) < 2:
                raise NetlistError(f"line {no}: .names needs an output")
            fanin_names, out_name = tokens[1:-1], tokens[-1]
            if len(fanin_names) > MAX_BLIF_FANINS:
                raise NetlistError(
                    f"line {no}: node {out_name!r} has {len(fanin_names)} fanins, "
                    f"limit is {MAX_BLIF_FANINS}")
            if out_name in defs:
                raise NetlistError(f"line {no}: {out_name!r} defined twice")
            rows = []
            arity = len(fanin_names)
            names_no = no
        elif cmd == ".model":
            model = tokens[1] if len(tokens) > 1 else model
        elif cmd == ".inputs":
            inputs.extend(tokens[1:])
        elif cmd == ".outputs":
            outputs.extend(tokens[1:])
        elif cmd == ".end":
            break
        else:
            raise NetlistError(f"line {no}: unsupported construct {cmd!r}")

    net = Network(model)
    for name in inputs:
        if name in net.names:
            raise NetlistError(f"duplicate input {name!r}")
        if name in defs:
            raise NetlistError(f"input {name!r} also defined by .names")
        net.add_pi(name)

    # A PO's buffer in off-set form (``0 0``), as ``write_blif`` writes
    # for a PO whose driver a PI or another PO names, is an alias of its
    # input, not a LUT, unless another signal reads it.
    alias = {name: defs[name][1][0] for name in outputs if name in offset_buffers}
    if alias:
        read = {f for _, fanin_names, _ in defs.values() for f in fanin_names}
        alias = {name: source for name, source in alias.items() if name not in read}
        for name in alias:
            del defs[name]
    _build_in_order(net, defs, net.names, defs)
    for name in outputs:
        source = alias.get(name, name)
        if source not in net.names:
            raise NetlistError(f"output {name!r} is never defined")
        net.names.setdefault(name, net.names[source])
        net.add_po(net.names[source], name=name)
    return net


def write_blif(net: Network) -> str:
    """Emit the network in the same BLIF subset, one cover row per minterm.

    Each PO is written under its name in ``po_names``; a LUT takes the
    name of the first PO it drives in true phase.  An inverted PO gets
    an inverter.  A PO whose driver is a PI or carries another PO's
    name gets a buffer in off-set form (``0 0``), which no LUT is
    written in and :func:`parse_blif` reads back as an alias.  The
    inverters come after every LUT and before every buffer, each kind in
    PO order, so a file this writes reads back and rewrites to the same
    bytes.  Everything else round-trips structurally.
    """
    taken = set(net.pi_names)
    sig = dict(zip(net.pis, net.pi_names))
    out_tokens: list[str] = []
    extra: list[tuple[int, str, bool]] = []  # (driver, PO signal, inverted)
    for (driver, phase), name in zip(net.pos, net.po_names):
        if not phase and sig.get(driver) == name:
            out_tokens.append(name)  # a PI, or a driver named by an earlier PO
            continue
        while name in taken:
            name += "_"
        taken.add(name)
        out_tokens.append(name)
        if phase or driver in sig:
            extra.append((driver, name, phase))
        else:
            sig[driver] = name
    stored = net.first_names()
    for node in net.nodes:
        if node.dead or node.id in sig:
            continue
        name = stored.get(node.id, f"n{node.id}")
        while name in taken:
            name += "_"
        taken.add(name)
        sig[node.id] = name

    lines = [f".model {net.name}"]
    if net.pis:
        lines.append(".inputs " + " ".join(net.pi_names))
    if out_tokens:
        lines.append(".outputs " + " ".join(out_tokens))
    for nid in net.topo_order():
        node = net.nodes[nid]
        if node.is_pi or node.dead:
            continue
        lines.append(".names " + " ".join(sig[f] for f in node.fanins) + f" {sig[nid]}")
        k = node.arity
        if k == 0:
            if node.tt & 1:
                lines.append("1")
            continue
        for v in range(1 << k):
            if (node.tt >> v) & 1:
                bits = format(v, f"0{k}b")
                lines.append(f"{bits} 1")
    # Inverters before buffers: parse_blif reads an inverter back as a
    # LUT, which a rewrite puts ahead of every buffer.
    for driver, name, phase in sorted(extra, key=lambda e: not e[2]):
        lines += [f".names {sig[driver]} {name}", "0 1" if phase else "0 0"]
    lines.append(".end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ASCII AIGER (combinational aag).

def _aiger_ints(line: str, count: int, kind: str) -> list[int]:
    """The ``count`` integers of one aag body line."""
    parts = line.split()
    try:
        if len(parts) == count:
            return [int(x) for x in parts]
    except ValueError:
        pass
    raise NetlistError(f"malformed {kind} line: {line!r}")


def parse_aiger_ascii(text: str) -> Network:
    """Parse a combinational ASCII AIGER file into a 2-LUT network.

    Edge inversions are absorbed into the consuming LUT's truth row (or
    into the PO phase flag); no inverter nodes are created, so the node
    count equals the AND-gate count, plus one constant LUT if any AND
    or PO reads literal 0 or 1.  PIs take the first ids; the rest come
    from :func:`_build_in_order` with the ANDs in file order, then the
    POs, as roots.
    """
    lines = [(no, line) for no, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.strip())]
    if not lines:
        raise NetlistError("empty AIGER input")
    header = lines[0][1]
    head = header.split()
    if len(head) != 6 or head[0] != "aag":
        raise NetlistError(f"malformed AIGER header: {header!r}")
    try:
        maxvar, n_in, n_latch, n_out, n_and = (int(x) for x in head[1:])
    except ValueError:
        raise NetlistError(f"malformed AIGER header: {header!r}") from None
    if min(maxvar, n_in, n_latch, n_out, n_and) < 0:
        raise NetlistError(f"malformed AIGER header: {header!r}")
    if n_latch != 0:
        raise NetlistError("sequential AIGER (latch count != 0) is unsupported")
    if len(lines) < 1 + n_in + n_out + n_and:
        raise NetlistError("truncated AIGER body")

    net = Network("aig")
    lit_node: dict[int, int] = {}
    body = lines[1:]
    for i, (_, line) in enumerate(body[:n_in]):
        (lit,) = _aiger_ints(line, 1, "input")
        if lit < 2 or lit & 1 or lit > 2 * maxvar:
            raise NetlistError(f"bad input literal {lit}")
        if lit in lit_node:
            raise NetlistError(f"input literal {lit} listed twice")
        lit_node[lit] = net.add_pi(f"i{i}")
    out_lits = [_aiger_ints(line, 1, "output")[0] for _, line in body[n_in:n_in + n_out]]
    # The aag body may list gates in any order; resolve by literal.
    defs: dict[int, tuple[int, list[int], int]] = {}
    for no, line in body[n_in + n_out:n_in + n_out + n_and]:
        lhs, rhs0, rhs1 = _aiger_ints(line, 3, "AND")
        if lhs < 2 or lhs & 1 or lhs > 2 * maxvar:
            raise NetlistError(f"bad AND output literal {lhs}")
        if lhs in lit_node:
            raise NetlistError(f"AND output literal {lhs} is an input literal")
        # An AND's row has one set bit, at v = 3 (both fanins true), with
        # the bit of each complemented fanin flipped in.
        defs[lhs] = (no, [rhs0 & ~1, rhs1 & ~1], 1 << (3 ^ 2 * (rhs0 & 1) ^ (rhs1 & 1)))
    if len(defs) != n_and:
        raise NetlistError("AND output literal defined twice")
    roots = [*defs, *(lit & ~1 for lit in out_lits)]
    defs[0] = (0, [], 0)  # literal 0, the constant: a LUT that reads nothing
    _build_in_order(net, defs, lit_node, roots)
    for j, lit in enumerate(out_lits):
        net.add_po(lit_node[lit & ~1], inverted=bool(lit & 1), name=f"o{j}")
    return net
