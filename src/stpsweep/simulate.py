"""Bit-parallel simulation of k-LUT networks.

Patterns and signatures are packed bit sequences: bit ``j`` of a row is
pattern ``j``.  Signature strings print pattern 0 first, which for an
exhaustive pattern set (pattern ``j`` = input assignment ``j``, counting
up from all-zeros) is the truth row read in increasing assignment order,
i.e. the reverse of the :mod:`stpsweep.stp` row string.

One routine, :func:`_simulate`, evaluates LUTs over packed rows in
topological order, and every entry point runs it: :func:`simulate_all`
over the whole network, :func:`simulate_specified` over the targets'
input cone, :func:`exhaustive_window_sim` over that cone with
exhaustive patterns on its PI support, and :func:`cut_truth_tables`
over the members of each cut with exhaustive patterns on the cut's
leaves, which yields the cut's STP logic matrix.
"""

from __future__ import annotations

import random
from collections.abc import Container
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .netlist import Network
from .stp import MAX_ARITY, LogicMatrix


@dataclass
class PatternSet:
    """One packed bit row per primary input."""

    rows: list[int]
    n_patterns: int

    def __post_init__(self):
        if self.n_patterns < 1:
            raise ValueError("need at least one pattern")
        mask = self.mask
        self.rows = [r & mask for r in self.rows]

    @property
    def n_pis(self) -> int:
        return len(self.rows)

    @property
    def mask(self) -> int:
        return (1 << self.n_patterns) - 1

    def pattern(self, j: int) -> str:
        """Pattern ``j`` as a 0/1 string, one character per PI, top down."""
        return "".join(str((r >> j) & 1) for r in self.rows)

    def to_text(self) -> str:
        return "\n".join(_bits_to_string(r, self.n_patterns) for r in self.rows) + "\n"


def _bits_to_string(bits: int, n: int) -> str:
    """Packed bits -> string with bit 0 (pattern 0) leftmost."""
    return format(bits, f"0{n}b")[::-1]


def gen_random_patterns(n_pi: int, n_patterns: int, seed: int) -> PatternSet:
    """Uniform random patterns, reproducible for a fixed seed."""
    rng = random.Random(seed)
    return PatternSet([rng.getrandbits(n_patterns) for _ in range(n_pi)], n_patterns)


def parse_patterns(text: str, n_pi: int) -> PatternSet:
    """Parse one 0/1 line per PI; pattern ``j`` is column ``j`` top down."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != n_pi:
        raise ValueError(f"expected {n_pi} pattern lines, got {len(lines)}")
    width = len(lines[0])
    rows = []
    for ln in lines:
        if len(ln) != width or any(c not in "01" for c in ln):
            raise ValueError(f"ragged or non-binary pattern line: {ln!r}")
        rows.append(int(ln[::-1], 2))
    return PatternSet(rows, width)


@dataclass
class Signature:
    """Per-node output bits, one bit per pattern."""

    node: int
    bits: int
    n_patterns: int

    def to_string(self) -> str:
        return _bits_to_string(self.bits, self.n_patterns)


# ---------------------------------------------------------------------------
# Word-parallel LUT evaluation on packed rows.

_MINTERM_CACHE: dict[tuple[int, int], tuple[tuple[int, ...], bool]] = {}


def _minterm_plan(tt: int, arity: int) -> tuple[tuple[int, ...], bool]:
    """Assignments to OR together, choosing the cheaper output polarity."""
    key = (tt, arity)
    plan = _MINTERM_CACHE.get(key)
    if plan is None:
        size = 1 << arity
        ones = [v for v in range(size) if (tt >> v) & 1]
        if len(ones) * 2 <= size:
            plan = (tuple(ones), False)
        else:
            plan = (tuple(v for v in range(size) if not (tt >> v) & 1), True)
        if len(_MINTERM_CACHE) < 65536:
            _MINTERM_CACHE[key] = plan
    return plan


def eval_tt_words(tt: int, words: list[int], mask: int) -> int:
    """Apply a LUT bitwise to packed fanin rows (first fanin = MSB)."""
    arity = len(words)
    if arity == 0:
        return mask if tt & 1 else 0
    if arity == 1:
        w = words[0]
        hi = (tt >> 1) & 1
        lo = tt & 1
        if hi and lo:
            return mask
        if hi:
            return w & mask
        if lo:
            return ~w & mask
        return 0
    if arity > 6:
        return _eval_tt_gather(tt, words, mask)
    terms, invert = _minterm_plan(tt, arity)
    acc = 0
    for v in terms:
        term = mask
        for i, w in enumerate(words):
            term &= w if (v >> (arity - 1 - i)) & 1 else ~w
        acc |= term
    return (acc ^ mask) if invert else acc & mask


def _int_to_bitarray(x: int, n: int) -> np.ndarray:
    nbytes = (n + 7) >> 3
    buf = np.frombuffer(x.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(buf, bitorder="little")[:n]


def _bitarray_to_int(arr: np.ndarray) -> int:
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def _eval_tt_gather(tt: int, words: list[int], mask: int) -> int:
    """Wide-arity LUT evaluation via a vectorized table lookup."""
    n = mask.bit_length()
    arity = len(words)
    idx = None
    for w in words:
        bits = _int_to_bitarray(w & mask, n).astype(np.int32)
        idx = bits if idx is None else (idx << 1) | bits
    table = _int_to_bitarray(tt, 1 << arity)
    return _bitarray_to_int(table[idx])


def _simulate(net: Network, order: list[int], bits: dict[int, int], mask: int) -> None:
    """Evaluate the LUTs of ``order`` into ``bits``.

    This is the only simulator.  ``order`` is topologically sorted, and
    each fanin of a LUT in it is either earlier in ``order`` or already
    in ``bits``.  PIs in ``order`` are skipped: their rows come in
    ``bits``.
    """
    nodes = net.nodes
    for nid in order:
        node = nodes[nid]
        if not node.is_pi:
            bits[nid] = eval_tt_words(node.tt, [bits[f] for f in node.fanins], mask)


def _pi_rows(net: Network, patterns: PatternSet) -> dict[int, int]:
    if patterns.n_pis != len(net.pis):
        raise ValueError(
            f"pattern set has {patterns.n_pis} rows, network has {len(net.pis)} PIs")
    return dict(zip(net.pis, patterns.rows))


def simulate_all(net: Network, patterns: PatternSet) -> dict[int, Signature]:
    """Signatures of every live node, PIs included."""
    bits = _pi_rows(net, patterns)
    order = net.topo_order()
    _simulate(net, order, bits, patterns.mask)
    n = patterns.n_patterns
    return {nid: Signature(nid, bits[nid], n) for nid in order}


def _cone(net: Network, targets: list[int], pi_cap: int | None = None,
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
    nodes = net.nodes
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


def simulate_specified(net: Network, patterns: PatternSet, targets: list[int]) -> dict[int, Signature]:
    """Signatures of the target nodes only; nothing outside their input cone is simulated.

    Bit-identical to ``simulate_all`` restricted to the targets.
    """
    bits = _pi_rows(net, patterns)
    _simulate(net, _cone(net, targets), bits, patterns.mask)
    n = patterns.n_patterns
    return {t: Signature(t, bits[t], n) for t in targets}


# ---------------------------------------------------------------------------
# Cut construction.


@dataclass
class Cut:
    root: int
    members: list[int]
    leaves: list[int] = field(default_factory=list)


@dataclass
class CutSet:
    """Partition of the simulated region into single-root tree cuts."""

    cuts: dict[int, Cut]
    roots: list[int]  # topological order
    limit: int
    targets: list[int]


def circuit_cut(net: Network, limit: int, targets: list[int], scope: str = "cone") -> CutSet:
    """Partition the targets' input cones (or the whole net) into tree cuts.

    Scope ``"cone"`` covers exactly the union of the targets' input
    cones; ``"network"`` partitions every live non-PI node, with PO
    drivers acting as additional boundaries.  A node roots a new cut if
    it is a target, drives a PO, or fans out more than once inside the
    scope; otherwise it merges into its unique reader's cut as long as
    that cut keeps at most ``limit`` leaves.  A fresh single-node cut may
    still exceed ``limit`` when the node's own fanin count does.
    """
    if limit < 1:
        raise ValueError("cut limit must be >= 1")
    if scope not in ("cone", "network"):
        raise ValueError(f"unknown scope {scope!r}")
    tset = set(targets)
    cone = _cone(net, targets)
    order = net.topo_order()
    rank = {nid: i for i, nid in enumerate(order)}
    scope_nodes = {nid for nid in (cone if scope == "cone" else order)
                   if not net.nodes[nid].is_pi}

    po_drivers = {d for d, _ in net.pos}
    cut_of: dict[int, int] = {}
    cuts: dict[int, Cut] = {}
    leaf_sets: dict[int, set[int]] = {}

    def new_root(nid: int) -> None:
        cut_of[nid] = nid
        cuts[nid] = Cut(nid, [nid])
        leaf_sets[nid] = set(net.nodes[nid].fanins)

    for nid in sorted(scope_nodes, key=rank.__getitem__, reverse=True):
        node = net.nodes[nid]
        readers = [o for o in node.fanouts if o in scope_nodes]
        if nid in tset or nid in po_drivers or len(readers) != 1:
            new_root(nid)
            continue
        root = cut_of[readers[0]]
        merged = (leaf_sets[root] - {nid}) | set(node.fanins)
        if len(merged) <= limit:
            cut_of[nid] = root
            cuts[root].members.append(nid)
            leaf_sets[root] = merged
        else:
            new_root(nid)

    for root, cut in cuts.items():
        cut.leaves = sorted(leaf_sets[root])
        cut.members.sort(key=rank.__getitem__)
    roots = sorted(cuts, key=rank.__getitem__)
    return CutSet(cuts, roots, limit, sorted(tset))


def cut_truth_tables(net: Network, cutset: CutSet) -> dict[int, LogicMatrix]:
    """Logic matrix of each cut over its ordered leaves.

    The cut's members are simulated over all ``2**m`` assignments of
    its ``m`` leaves, leaf 0 (smallest id) being the most significant
    input, so bit ``v`` of the root's row is its value under assignment
    ``v``: the top row of the cut's STP logic matrix.
    """
    out: dict[int, LogicMatrix] = {}
    for root in cutset.roots:
        cut = cutset.cuts[root]
        m = len(cut.leaves)
        if m > MAX_ARITY:
            raise ValueError(f"cut at {root} has {m} leaves, arity cap is {MAX_ARITY}")
        bits = {leaf: _var_row(j, m) for j, leaf in enumerate(cut.leaves)}
        _simulate(net, cut.members, bits, (1 << (1 << m)) - 1)
        out[root] = LogicMatrix(m, bits[root])
    return out


# ---------------------------------------------------------------------------
# Exhaustive window simulation.


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


@dataclass
class WindowTruths:
    """Exhaustive signatures of a target set over its structural support."""

    leaves: list[int]  # shared window leaves (PIs), ascending id = MSB first
    supports: dict[int, list[int]]  # per-target own support
    window_rows: dict[int, int]  # truth row over the shared leaves

    @cached_property
    def rows(self) -> dict[int, int]:
        """Truth row of each target over its own support, projected on first use."""
        m = len(self.leaves)
        position = {leaf: j for j, leaf in enumerate(self.leaves)}
        own_rows: dict[int, int] = {}
        for t, sup in self.supports.items():
            window_row = self.window_rows[t]
            mt = len(sup)
            own = 0
            sup_positions = [position[p] for p in sup]
            for u in range(1 << mt):
                v = 0
                for j, pos in enumerate(sup_positions):
                    if (u >> (mt - 1 - j)) & 1:
                        v |= 1 << (m - 1 - pos)
                if (window_row >> v) & 1:
                    own |= 1 << u
            own_rows[t] = own
        return own_rows

    def signature_string(self, target: int) -> str:
        """Exhaustive signature, first pattern (all leaves 0) leftmost."""
        return _bits_to_string(self.rows[target], 1 << len(self.supports[target]))

    def truth_row_string(self, target: int) -> str:
        """Row in the logic-matrix convention (all-true column leftmost)."""
        width = 1 << len(self.supports[target])
        return format(self.rows[target], f"0{width}b")


def exhaustive_window_sim(net: Network, targets: list[int], window_cap: int = 16) -> WindowTruths:
    """Exhaustive truth rows of the targets over their structural support.

    The shared window is the union of the targets' PI supports; if it
    holds more than ``window_cap`` leaves a :class:`WindowTooLarge` is
    raised and the caller falls back to pattern simulation.  Otherwise
    the union cone is walked once and simulated over the ``2**m``
    exhaustive patterns of its ``m`` leaves.
    """
    targets = list(dict.fromkeys(targets))
    if not targets:
        raise ValueError("no targets")
    nodes = net.nodes
    cone = _cone(net, targets, window_cap)
    leaves = sorted(nid for nid in cone if nodes[nid].is_pi)
    m = len(leaves)
    bits = {leaf: _var_row(j, m) for j, leaf in enumerate(leaves)}
    _simulate(net, cone, bits, (1 << (1 << m)) - 1)
    # Each node's own support as a mask over the leaves (bit j = leaf j),
    # in the same topological pass for every target.
    support = {leaf: 1 << j for j, leaf in enumerate(leaves)}
    for nid in cone:
        if not nodes[nid].is_pi:
            acc = 0
            for f in nodes[nid].fanins:
                acc |= support[f]
            support[nid] = acc
    supports = {t: [leaf for j, leaf in enumerate(leaves) if support[t] >> j & 1]
                for t in targets}
    return WindowTruths(leaves, supports, {t: bits[t] for t in targets})
