"""k-LUT network data model with BLIF / ASCII-AIGER ingestion.

This module is the one graph layer: every walk of a network's fanins
is here.  :meth:`Network.cone` gives the targets' input cones in
topological order, and the simulator, the SAT layer,
:meth:`Network.remove_dead`, :meth:`Network.transitive_fanin` and
:meth:`Network.is_in_tfo` read that.  The graph stores fanins only: a
node's readers are derived on demand, by one scan of the live nodes
(:meth:`Network.fanouts`), so no edit has reader lists to keep in
step.  :func:`_build_in_order` instantiates parsed definitions in
dependency order: every AIGER file's, and the blocks a BLIF file lists
before their fanins.

A :class:`Network` is a DAG of LUT nodes.  Primary inputs are nodes with
no fanins; every other node carries a truth row over its ordered fanins
in the package convention (``stpsweep.stp``): bit ``v`` of the row is
the output when the fanin values, first fanin most significant, spell
the unsigned integer ``v``.  The truth-row helpers are here too:
:func:`_var_row` is the exhaustive row of one input, from which the
simulator, CEC and :mod:`stpsweep.bexpr` build their exhaustive
patterns, and :func:`flip_tt_input` complements one input of a row.
:func:`strash` hashes a network structurally in one walk, reducing each
row with a few shift-and-mask operations per input (:func:`_reduce_lut`).
Strash, the sweep's ``constant_prop`` and its proving loop merge by
representatives, as in a FRAIG: a merged LUT records its driver and
phase and dies where it is, with no reader rewired.  Each LUT reads
its fanins through the record when the walk visits it
(:func:`_read_fanins_through`), and the POs are read through it once,
after the walk (:func:`_read_pos_through`).

Node ids are dense indices into the node array and are never reused;
structural edits mark nodes dead instead of renumbering, so external
tables indexed by id stay valid.

:func:`parse_blif` reads a file one ``.names`` block at a time: its
Python work is per block, and each block's rows are checked and decoded
together by C-level string operations.  It decodes each distinct cover
once per call, through a table that lives only in that call.  A scan
of the command lines makes the PIs first, and the read builds each
block as it reads it, for as long as every block comes after its
fanins; what the file leaves out of order is built once it is read.
Of the errors in a block it reports the header's first, then the first
malformed row, then mixed output values, then the first bad character;
errors in the definitions (an undefined signal, a cycle) come once the
whole file is read.
"""

from __future__ import annotations

import heapq
import re
from collections.abc import Container, Iterable
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import or_


class NetlistError(Exception):
    """Malformed input file or illegal structural edit."""


class CycleError(NetlistError):
    """The fanin relation is not acyclic."""


class WindowTooLarge(Exception):
    """The targets' combined structural support exceeds the window cap."""


def _var_row(position: int, m: int) -> int:
    """Packed exhaustive row of input ``position`` (0 = MSB) over 2**m patterns."""
    step = 1 << (m - 1 - position)
    # One period is ``step`` zeros then ``step`` ones; double it up to 2**m bits.
    row = ((1 << step) - 1) << step
    width = step << 1
    while width < 1 << m:
        row |= row << width
        width <<= 1
    return row


def flip_tt_input(tt: int, arity: int, pos: int) -> int:
    """Truth row of the same LUT with input ``pos`` complemented.

    ``pos`` is the fanin position, 0 = first = most significant.
    """
    step, low = _low_halves(arity)[pos]
    return tt >> step & low | (tt & low) << step


@lru_cache(maxsize=None)
def _low_halves(arity: int) -> tuple[tuple[int, int], ...]:
    """``(step, low)`` of each input position of an ``arity``-input row:
    ``low`` selects the rows where that input is 0, and the row ``step``
    above each of them is the one where it is 1."""
    full = (1 << (1 << arity)) - 1
    return tuple((1 << (arity - 1 - p), full ^ _var_row(p, arity)) for p in range(arity))


def _drop_input(tt: int, arity: int, pos: int) -> int:
    """The row over ``arity - 1`` inputs of a row that ignores input ``pos``.

    The rows where the input is 0 are kept, and each round of a
    shift-and-mask halves the number of gaps between them, one round per
    input before ``pos``.
    """
    halves = _low_halves(arity)
    shift, low = halves[pos]
    tt &= low
    for q in range(pos - 1, -1, -1):
        tt = (tt | tt >> shift) & halves[q][1]
        shift <<= 1
    return tt


def _reduce_lut(fanins: list[int], tt: int, const0: int | None) -> tuple[list[int], int]:
    """The fanin positions a LUT's function needs, and its row over them.

    A fanin that is ``const0`` is read as 0, and a fanin read a second
    time is read as its first slot; each such input is first made one
    the row ignores, and then every ignored input is dropped.  Each step
    is a few shift-and-mask operations on the whole row.
    """
    halves = _low_halves(len(fanins))
    first: dict[int, int] = {}
    for p, f in enumerate(fanins):
        step, low = halves[p]
        if f == const0:
            zero = tt & low
            tt = zero | zero << step
        elif f in first:
            # Rows where both slots read 0, and rows where both read 1.
            low_first = halves[first[f]][1]
            zeros = tt & low & low_first
            ones = tt & ~(low | low_first)
            tt = zeros | zeros << step | ones | ones >> step
        else:
            first[f] = p
    keep = [p for p, (step, low) in enumerate(halves) if tt >> step & low != tt & low]
    arity = len(fanins)
    if len(keep) < arity:
        for p in reversed(range(arity)):
            if p not in keep:
                tt = _drop_input(tt, arity, p)
                arity -= 1
    return keep, tt


@dataclass(slots=True)
class LutNode:
    id: int
    fanins: list[int] = field(default_factory=list)
    tt: int = 0
    is_pi: bool = False
    dead: bool = False

    @property
    def arity(self) -> int:
        return len(self.fanins)


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
        self.nodes.append(LutNode(nid, list(fanins), tt))
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
        """Map a signal name or a decimal id string to a live node id."""
        nid = self.names.get(token)
        if nid is None:
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
        readers = self.fanouts()
        order = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for out in readers[nid]:
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
        """The first ``bound`` non-PI nodes of the :meth:`cone` of ``nid``, from ``nid`` down."""
        if self.nodes[nid].dead:
            raise NetlistError(f"node {nid} is dead")
        return [n for n in reversed(self.cone([nid])) if not self.nodes[n].is_pi][:max(bound, 0)]

    def fanouts(self) -> list[list[int]]:
        """The live readers of each node id, one entry per fanin slot that
        reads it, readers by id.  Derived by one scan of the live nodes."""
        nodes = self.nodes
        readers: list[list[int]] = [[] for _ in nodes]
        for node in nodes:
            if not node.dead:
                for f in node.fanins:
                    readers[f].append(node.id)
        return readers

    def is_in_tfo(self, a: int, b: int) -> bool:
        """True iff ``b`` is reachable from ``a`` along fanout edges
        (reflexively): ``b`` is ``a``, or a live node whose :meth:`cone`
        holds ``a``.  Costs one walk of ``b``'s fanin cone."""
        return a == b or not self.nodes[b].dead and a in self.cone([b])

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

    def substitute_node(self, old: int, new: int, inverted: bool = False) -> None:
        """Re-point every reader of ``old`` to ``new`` and kill ``old``.

        With ``inverted`` set, consuming LUTs get the corresponding
        truth-row input complemented and PO phases are flipped, so the
        network function is preserved exactly when ``new`` equals the
        complement of ``old``.

        A substitution that would make ``new`` read itself raises
        :class:`NetlistError`; checking for it walks ``new``'s fanin
        cone (:meth:`is_in_tfo`).  A ``new`` with no fanins, such as a PI
        or a constant, reads nothing, so it needs no walk.  Besides that
        walk, the substitution costs one scan of the live nodes, for the
        slots that read ``old``, and one scan of the POs.  No runtime
        path calls this: it stays for the tests' oracles, and the
        benchmark's tracer (perfbench/tracer.py) wraps it by name.
        """
        nodes = self.nodes
        old_node, new_node = nodes[old], nodes[new]
        if old == new:
            raise NetlistError("cannot substitute a node by itself")
        if old_node.dead or new_node.dead:
            raise NetlistError("substitution involving a dead node")
        if new_node.fanins and self.is_in_tfo(old, new):
            raise NetlistError(f"substituting {old} by {new} would create a cycle")
        for rnode in nodes:
            fanins = rnode.fanins
            if rnode.dead or old not in fanins:
                continue
            for pos, f in enumerate(fanins):
                if f == old:
                    fanins[pos] = new
                    if inverted:
                        rnode.tt = flip_tt_input(rnode.tt, len(fanins), pos)
        outputs = self.pos
        for j, (driver, phase) in enumerate(outputs):
            if driver == old:
                outputs[j] = (new, phase ^ inverted)
        old_node.dead = True

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
        return removed

    def clone(self) -> "Network":
        out = Network(self.name)
        out.pis = list(self.pis)
        out.pos = list(self.pos)
        out.pi_names = list(self.pi_names)
        out.po_names = list(self.po_names)
        out.names = dict(self.names)
        for n in self.nodes:
            out.nodes.append(LutNode(n.id, list(n.fanins), n.tt, n.is_pi, n.dead))
        return out


def strash(net: Network) -> tuple[int, int, int | None]:
    """Structurally hash ``net`` in place, keeping every PO's function.

    One walk in topological order, by representatives (see the module
    docstring).  Each LUT loses the inputs its function does not need
    (:func:`_reduce_lut`): constant fanins are folded into its row, a
    fanin read twice is read once, and inputs the row ignores are
    dropped.  A LUT with a constant row is then represented by the
    shared constant-0 LUT, complemented for a 1; a buffer or an inverter
    by its fanin, complemented for an inverter; and a LUT with the same
    fanins and row as an earlier one by that one.  The shared constant-0
    LUT is the first LUT whose row reduces to 0, rewritten to read
    nothing, or a new one if a constant 1 comes first.  Every
    representative is a live node with none of its own, so one lookup
    resolves a fanin.  If a LUT dropped a fanin or turned constant,
    nodes no PO reads are removed after the walk.

    Returns the merges (buffers, inverters and duplicates), the LUTs
    replaced by the constant, and the constant-0 LUT if it is live.
    """
    rep, merges, const0 = _strash(net)
    return merges, len(rep) - merges, const0


def _strash(net: Network) -> tuple[dict[int, tuple[int, bool]], int, int | None]:
    """:func:`strash`, returning its record of merges in place of the count
    of constants: each merged LUT's representative and phase, in walk
    order."""
    nodes = net.nodes
    rep: dict[int, tuple[int, bool]] = {}
    table: dict[tuple[tuple[int, ...], int], int] = {}
    const0: int | None = None
    merges = 0
    dropped = False
    for nid in net.topo_order():
        node = nodes[nid]
        if node.is_pi:
            continue
        fanins, tt = node.fanins, node.tt
        if len(fanins) == 1:
            f = fanins[0]
            if f in rep:
                f, inverted = rep[f]
                fanins[0] = f
                if inverted:
                    # Complementing the one input swaps the row's two bits.
                    node.tt = tt = (tt & 1) << 1 | tt >> 1
            if (tt == 1 or tt == 2) and f != const0:
                # A buffer or an inverter of a node that is not constant.
                rep[nid] = (f, tt == 1)
                merges += 1
                node.dead = True
                continue
        else:
            tt = _read_fanins_through(node, rep)
        keep, tt = _reduce_lut(fanins, tt, const0)
        if len(keep) < len(fanins):
            dropped = True
        if not keep:
            if const0 is None and not tt:
                node.fanins, node.tt, const0 = [], 0, nid
                continue
            if const0 is None:
                const0 = net.add_lut([], 0)
            rep[nid] = (const0, bool(tt))
        elif len(keep) == 1:
            # A row that needs its one input is a buffer or an inverter.
            rep[nid] = (fanins[keep[0]], tt == 1)
            merges += 1
        else:
            kept = fanins if len(keep) == len(fanins) else [fanins[p] for p in keep]
            first = table.setdefault((tuple(kept), tt), nid)
            if first == nid:
                node.fanins, node.tt = kept, tt
                continue
            rep[nid] = (first, False)
            merges += 1
        node.dead = True
    _read_pos_through(net, rep)
    if dropped or len(rep) > merges:
        net.remove_dead()
    if const0 is not None and nodes[const0].dead:
        const0 = None
    return rep, merges, const0


def _read_fanins_through(node: LutNode, rep: dict[int, tuple[int, bool]]) -> int:
    """Point ``node``'s fanins at their ``(driver, inverted)`` in ``rep``,
    complementing the row's input for an inverted one; returns the row."""
    fanins, tt = node.fanins, node.tt
    for p, f in enumerate(fanins):
        if f in rep:
            fanins[p], inverted = rep[f]
            if inverted:
                tt = flip_tt_input(tt, len(fanins), p)
    node.tt = tt
    return tt


def _read_pos_through(net: Network, rep: dict[int, tuple[int, bool]]) -> None:
    """Point every PO of ``net`` at its driver's representative in ``rep``,
    flipping its phase for an inverted one."""
    outputs = net.pos
    for j, (driver, phase) in enumerate(outputs):
        if driver in rep:
            new, inverted = rep[driver]
            outputs[j] = (new, phase ^ inverted)


# ---------------------------------------------------------------------------
# BLIF subset: .model .inputs .outputs .names .end, cover rows [01-]+ [01].

#: Most fanins a ``.names`` block may list.
MAX_BLIF_FANINS = 16


#: Every line break that ``str.splitlines`` honours, other than ``\n``.
_ODD_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT = re.compile(r"#[^\n]*")
#: A ``\`` that ends a line, then each further line that ends in one, then
#: the line that ends the run.
_CONTINUED = re.compile(r"\\[^\S\n]*\n(?:[^\n]*\\[^\S\n]*\n)*[^\n]*")
_LINE_JOIN = re.compile(r"\\[^\S\n]*\n")
#: A command line: its first token starts with ``.``.
_COMMAND = re.compile(r"\n[^\S\n]*(\.[^\n]*)")
#: An ``.inputs`` or ``.end`` line, and the rest of it, among the command
#: lines that :data:`_COMMAND` splits out, each joined after a ``\n``.
_INTERFACE = re.compile(r"\n\.(inputs|end)(?!\S)(.*)")


def _join_continued(run: re.Match) -> str:
    """One continued line on its first line, and a blank line for each other."""
    joined = run.group()
    return _LINE_JOIN.sub(" ", joined) + "\n" * joined.count("\n")


def _normalise(text: str) -> str:
    r"""The text with ``\n`` line ends, no comments and no continuations.

    Each logical line stays on its first physical line, and the lines it
    continues onto are left blank, so line ``i`` of the result is the
    logical line that starts on line ``i`` of the input.  The result
    starts with an extra ``\n``, so that every command line follows one.
    """
    if any(c in text for c in _ODD_BREAKS):
        text = "\n".join(text.splitlines())
    if "#" in text:
        text = _COMMENT.sub("", text)
    if "\\" in text:
        text = _CONTINUED.sub(_join_continued, text + "\n")
    return "\n" + text


#: The cover row inputs of each minterm ``v``, at index ``v``, of each
#: arity up to 8.  :func:`write_blif` formats a wider LUT's rows one by
#: one, so that no table of 2^16 strings is kept.
_CUBES = tuple(tuple(format(v, f"0{arity}b") for v in range(1 << arity))
               for arity in range(9))
#: The inverse of :data:`_CUBES`: ``1 << v`` for the inputs of minterm
#: ``v``, and ``1`` for the empty inputs of a constant's row.  Its bit
#: values grow with the table, to 2^256 at 8 inputs, so a wider LUT's
#: rows are decoded by :func:`_dont_care_bits`.
_CUBE_BITS = ({"": 1},) + tuple({cube: 1 << v for v, cube in enumerate(cubes)}
                                for cubes in _CUBES[1:])


def _dont_care_bits(cube: str) -> int:
    """The minterms of a cube of ``0``, ``1`` and ``-``, as set bits."""
    if "-" not in cube:
        return 1 << int(cube, 2)
    minterms = [int(cube.replace("-", "0"), 2)]
    for j, c in enumerate(reversed(cube)):
        if c == "-":
            bit = 1 << j
            minterms += [v | bit for v in minterms]
    return reduce(or_, map((1).__lshift__, minterms))


def _rows(body: str, no: int):
    """Yield (line number, tokens) of each non-blank line of a piece of
    normalised text whose first line is line ``no``."""
    for j, line in enumerate(body.split("\n")):
        tokens = line.split()
        if tokens:
            yield no + j, tokens


def _no_rows(body: str, no: int) -> None:
    """Raise for the first row in text outside every ``.names`` block."""
    if body.strip():
        line, _ = next(_rows(body, no))
        raise NetlistError(f"line {line}: cover row outside .names")


def _block_error(body: str, arity: int, no: int) -> NetlistError:
    """The error of a ``.names`` block that the block checks reject.

    Walks its rows only to name the offending line: the first malformed
    row, else the first row of a block with mixed output values, else
    the first row with a bad character.
    """
    rows = []
    for line, tokens in _rows(body, no):
        if arity == 0:
            if len(tokens) != 1 or tokens[0] not in ("0", "1"):
                return NetlistError(f"line {line}: bad constant cover row")
        elif len(tokens) != 2 or len(tokens[0]) != arity or tokens[1] not in ("0", "1"):
            return NetlistError(f"line {line}: malformed cover row")
        rows.append((line, tokens))
    if len({tokens[-1] for _, tokens in rows}) > 1:
        return NetlistError(f"line {rows[0][0]}: mixed cover output values")
    for line, tokens in rows:
        bad = [c for c in tokens[0] if c not in "01-"]
        if bad:
            return NetlistError(f"line {line}: bad cover character {bad[0]!r}")


def _cover_tt(body: str, arity: int, no: int) -> int:
    """The truth row of a ``.names`` block whose rows are ``body``.

    ``no`` is the line of the ``.names`` command.  The rows are checked
    and decoded all at once, in C: one ``split`` of the block, then
    joins, sets and maps over its tokens, with :data:`_CUBE_BITS` as the
    decoder.  A cube the table lacks (one with a ``-``, a bad character
    or the wrong length, or any cube of a LUT wider than the table)
    sends the block to :func:`_dont_care_bits`, after checks of the
    cubes' lengths and characters.
    """
    tokens = body.split()
    if not tokens:
        return 0
    value = tokens[-1]
    if arity:
        cubes, values = tokens[::2], tokens[1::2]
    else:
        cubes, values = [""] * len(tokens), tokens
    # The layout write_blif writes, one ``cube value`` row on each line,
    # is told at once from the tokens; any other layout takes one
    # ``split`` per line.
    well_formed = body == "\n" + f" {value}\n".join(cubes) + f" {value}" or (
        {*map(len, filter(None, map(str.split, body.split("\n"))))} == {2 if arity else 1}
        and {*values} == {value})
    if not well_formed or value not in ("0", "1"):
        raise _block_error(body, arity, no)
    try:
        tt = reduce(or_, map(_CUBE_BITS[arity].__getitem__, cubes))
    except (IndexError, KeyError):
        if {*map(len, cubes)} != {arity} or "".join(cubes).strip("01-"):
            raise _block_error(body, arity, no) from None
        tt = reduce(or_, map(_dont_care_bits, cubes))
    return tt if value == "1" else tt ^ ((1 << (1 << arity)) - 1)


def _build_in_order(net: Network, defs: dict, ids: dict, roots: Iterable) -> None:
    """Add a LUT for each definition the roots reach, fanins first.

    ``defs`` maps a key to ``(line, fanin keys, tt)``, and ``ids`` maps
    each key already built to its node id; every key this builds is
    added to ``ids``.  An iterative DFS in root order: a definition is
    built after those of its fanins that are not built yet, which are
    visited last-listed first.  A root already in ``ids`` costs one
    lookup.  :func:`parse_aiger_ascii` builds every AND by this walk;
    :func:`parse_blif` builds only the blocks its read left unbuilt,
    from the names the read built.
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

    The reader works one ``.names`` block at a time, not one line at a
    time: its Python work is per block, and the rows are decoded in C
    (see :func:`_cover_tt`).  One pass normalises the text, a regex
    splits it at command lines, and each block's rows are checked and
    decoded together; a rejected block is walked row by row only to
    name the offending line.  Each distinct ``(arity, cover body)`` is
    decoded once, through a table that lives only in this call.  Every
    line break that ``str.splitlines`` honours ends a line, ``#`` starts
    a comment, and a ``\\`` at the end of a line continues it; a line
    number names the first physical line of a continued line.

    The first error in the file is reported, in the order the lines
    come; within one ``.names`` block, a header error comes first, then
    the first malformed row, then mixed output values (named at the
    block's first row), then the first row with a bad character.
    Errors in the definitions, such as an undefined signal or a cycle,
    come after the whole file is read.  Text after ``.end`` is ignored.

    A cover row's inputs are the ASCII characters ``0``, ``1`` and
    ``-`` only; any other character, even one that ``int`` reads as a
    digit, is a ``bad cover character``.  PIs take the first ids, in
    ``.inputs`` order.  The ``.names`` blocks then get the ids of
    :func:`_build_in_order` with the blocks in file order as roots.

    A scan of the command lines up to ``.end`` makes the PIs first, so
    each block is built as it is read, for as long as every block so
    far has found its fanins built.  The first block that does not, or
    that redefines an input or has a PO alias's form, switches the
    reader to keeping definitions, and the walk builds those, from the
    names already built, once the file is read.
    """
    model = "net"
    outputs: list[str] = []
    defs: dict[str, tuple[int, list[str], int]] = {}  # the blocks not built yet
    offset_buffers: set[str] = set()  # blocks of one row, ``0 0``: a PO alias's form
    tables: dict[tuple[int, str], int] = {}  # (arity, cover body) -> truth row
    building = True  # until a block is kept as a definition

    # [text before the first command, command, its body, command, ...]
    pieces = _COMMAND.split(_normalise(text))
    # The PIs take the first ids, wherever the .inputs lines are.  A
    # repeated name makes one PI here and is reported after the read.
    inputs: list[str] = []
    for command in _INTERFACE.finditer("\n" + "\n".join(pieces[1::2])):
        if command[1] == "end":
            break
        inputs += command[2].split()
    net = Network()
    names, nodes = net.names, net.nodes
    for name in inputs:
        if name not in names:
            net.add_pi(name)

    _no_rows(pieces[0], 0)
    no = pieces[0].count("\n")
    for i in range(1, len(pieces), 2):
        no += 1
        tokens, body = pieces[i].split(), pieces[i + 1]
        cmd = tokens[0]
        if cmd == ".names":
            if len(tokens) < 2:
                raise NetlistError(f"line {no}: .names needs an output")
            fanin_names, out_name = tokens[1:-1], tokens[-1]
            arity = len(fanin_names)
            if arity > MAX_BLIF_FANINS:
                raise NetlistError(
                    f"line {no}: node {out_name!r} has {arity} fanins, "
                    f"limit is {MAX_BLIF_FANINS}")
            # A block that redefines an input is kept, and reported once
            # the file is read.
            if out_name in defs or out_name in names and not nodes[names[out_name]].is_pi:
                raise NetlistError(f"line {no}: {out_name!r} defined twice")
            tt = tables.get((arity, body))
            if tt is None:
                tt = tables[arity, body] = _cover_tt(body, arity, no)
            offset = arity == 1 and tt == 0b10 and body.split() == ["0", "0"]
            if building and not offset and out_name not in names:
                try:
                    fanins = [names[f] for f in fanin_names]
                except KeyError:  # a fanin defined later, or never
                    building = False
                else:
                    net.add_lut(fanins, tt, out_name)
            else:
                building = False
            if not building:
                defs[out_name] = (no, fanin_names, tt)
                if offset:
                    offset_buffers.add(out_name)
        elif cmd == ".end":
            break
        else:
            if cmd == ".model":
                model = tokens[1] if len(tokens) > 1 else model
            elif cmd == ".outputs":
                outputs.extend(tokens[1:])
            elif cmd != ".inputs":
                raise NetlistError(f"line {no}: unsupported construct {cmd!r}")
            _no_rows(body, no)
        no += body.count("\n")

    net.name = model
    # After the read, so that an error in the read comes first.
    seen: set[str] = set()
    for name in inputs:
        if name in seen:
            raise NetlistError(f"duplicate input {name!r}")
        if name in defs:
            raise NetlistError(f"input {name!r} also defined by .names")
        seen.add(name)

    # A PO's buffer in off-set form (``0 0``), as ``write_blif`` writes
    # for a PO whose driver a PI or another PO names, is an alias of its
    # input, not a LUT, unless another signal reads it.  A block built
    # as it was read found its fanins built, so it reads none of these.
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


#: ``bytes.translate`` table that turns the digit ``0`` into a false byte.
_ZERO_FALSE = bytes.maketrans(b"0", b"\0")


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
        lines.append(".names " + " ".join(map(sig.__getitem__, node.fanins)) + f" {sig[nid]}")
        if not node.tt:
            continue
        if not node.fanins:
            lines.append("1")
            continue
        # The rows of the set bits, read off the table's binary digits
        # from bit 0 up: a ``0`` digit becomes a false selector byte.
        bits = format(node.tt, "b")[::-1].encode().translate(_ZERO_FALSE)
        k = node.arity
        if k < len(_CUBES):
            rows = compress(_CUBES[k], bits)
        else:
            rows = map(format, compress(range(1 << k), bits), repeat(f"0{k}b"))
        lines.append(" 1\n".join(rows) + " 1")
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
