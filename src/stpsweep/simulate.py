"""Bit-parallel simulation of k-LUT networks.

Patterns and signatures are packed bit sequences: bit ``j`` of a row is
pattern ``j``.  Signature strings print pattern 0 first, which for an
exhaustive pattern set (pattern ``j`` = input assignment ``j``, counting
up from all-zeros) is the truth row read in increasing assignment order,
i.e. the reverse of the :mod:`stpsweep.stp` row string.

One routine, :func:`_simulate`, evaluates LUTs over packed rows in
topological order, and every entry point runs it: :func:`simulate_all`
over the whole network, :func:`simulate_specified` over the targets'
input cone, :func:`exhaustive_window_sim` over that cone with exhaustive
patterns on its PI support (for one target, its own truth row), and
:func:`cut_truth_tables` over the members of each cut with exhaustive
patterns on the cut's leaves, which yields the cut's STP logic matrix.
:func:`stpsweep.bexpr.canonical_form` walks an expression AST instead
of a network, but evaluates each operator the same way, with
:func:`eval_tt_words` over exhaustive rows
(:func:`~stpsweep.netlist._var_row`).

Every row handed to :func:`eval_tt_words` lies within the pattern mask,
and so does every row it returns.

:func:`eval_tt_words` applies a LUT by reading its logic matrix ``M_f``
in column blocks: ``M_f ⋉ x`` is the left half of ``M_f`` for a true
``x`` and the right half for a false one, so taking the inputs in turn
is a Shannon mux tree over packed rows.

Cost model.  A row operation (``&``, ``|`` or ``^`` of two rows) takes
time in proportion to the pattern count, and a held row takes
``n_patterns / 8`` bytes.  Up to 4 inputs, a LUT pays only for the
leaves its table names: an inverter costs one row operation and a
2-input LUT at most two; a 6-input LUT costs at most 51 (see
:func:`eval_tt_words`).  Each LUT also pays a fixed interpreter cost,
which is most of a pass at a few thousand patterns.  LUTs of up to 6
inputs keep it small: each arity has one straight-line kernel in
``_LUT_KERNELS`` that does the generic tree's row operations, no more
and no fewer, with no list, slice or zip per fold.
Freeing a row costs time too, so one rule in :func:`_simulate` decides
where it pays.  A caller names the rows it reads afterwards (``keep``).
From ``_FREE_FROM`` (2^14) patterns on, 2 KB a row, every other row is
freed once its last reader is evaluated, so only the live rows and the
kept ones are held; below that the whole cone stays, at most 1 KB a
row.  :func:`simulate_specified`, :func:`exhaustive_window_sim` and the
sweep's counter-example refinement name their targets;
:func:`simulate_all` and :func:`cut_truth_tables` keep every row.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field

import numpy as np

from .netlist import Network, WindowTooLarge, _var_row  # cone raises WindowTooLarge
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

    def to_text(self) -> str:
        return "\n".join(_bits_to_string(r, self.n_patterns) for r in self.rows) + "\n"


def _bits_to_string(bits: int, n: int) -> str:
    """Packed bits -> string with bit 0 (pattern 0) leftmost."""
    return format(bits, f"0{n}b")[::-1]


def gen_random_patterns(n_pi: int, n_patterns: int, seed: int) -> PatternSet:
    """Uniform random patterns, reproducible for a fixed seed."""
    if n_patterns < 1:
        raise ValueError("need at least one pattern")
    rng = random.Random(seed)
    return PatternSet([rng.getrandbits(n_patterns) for _ in range(n_pi)], n_patterns)


def parse_patterns(text: str, n_pi: int) -> PatternSet:
    """Parse one 0/1 line per PI; pattern ``j`` is column ``j`` top down."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != n_pi:
        raise ValueError(f"expected {n_pi} pattern lines, got {len(lines)}")
    # No lines (a net without PIs) give no pattern count: PatternSet rejects 0.
    width = len(lines[0]) if lines else 0
    rows = []
    for ln in lines:
        if len(ln) != width or any(c not in "01" for c in ln):
            raise ValueError(f"ragged or non-binary pattern line: {ln!r}")
        rows.append(int(ln[::-1], 2))
    return PatternSet(rows, width)


@dataclass
class Signature:
    """Per-node output bits, one bit per pattern."""

    bits: int
    n_patterns: int

    def to_string(self) -> str:
        return _bits_to_string(self.bits, self.n_patterns)


# ---------------------------------------------------------------------------
# Word-parallel LUT evaluation on packed rows.

#: Widest LUT that the mux tree evaluates; wider ones take the gather.
_MUX_MAX_ARITY = 9

#: The 16 functions of a LUT's last two inputs ``y`` (first) and ``x``,
#: by nibble: bit ``2*y + x`` of nibble ``n`` is the value of
#: ``_LEAF[n](y, x, mask)``.  Each takes at most two row operations.
_LEAF = (
    lambda y, x, m: 0,
    lambda y, x, m: (y | x) ^ m,
    lambda y, x, m: (y | x) ^ y,
    lambda y, x, m: y ^ m,
    lambda y, x, m: (y | x) ^ x,
    lambda y, x, m: x ^ m,
    lambda y, x, m: y ^ x,
    lambda y, x, m: (y & x) ^ m,
    lambda y, x, m: y & x,
    lambda y, x, m: y ^ x ^ m,
    lambda y, x, m: x,
    lambda y, x, m: (y ^ m) | x,
    lambda y, x, m: y,
    lambda y, x, m: y | (x ^ m),
    lambda y, x, m: y | x,
    lambda y, x, m: m,
)


def _leaves(y: int, x: int, m: int) -> tuple[int, ...]:
    """All 16 functions of ``_LEAF`` at once, in 14 row operations.

    Per LUT at 65,536 patterns this takes 44 µs for 6 inputs where the
    ``_LEAF`` calls take 53 (24 and 24 for 5 inputs; CPython 3.11, x86).
    """
    nx, ny, a, o, e = x ^ m, y ^ m, x & y, x | y, x ^ y
    return (0, o ^ m, ny & x, ny, y & nx, nx, e, a ^ m,
            a, e ^ m, x, ny | x, y, y | nx, o, m)


#: Byte ``b`` of a truth row holds the two nibbles of one first-fold
#: pair, ``lo = b & 15`` and ``hi = b >> 4``.  These ``bytes.translate``
#: tables map each byte of a row to its ``lo`` and to its ``lo ^ hi``.
_LO = bytes(b & 15 for b in range(256))
_LO_XOR_HI = bytes((b ^ (b >> 4)) & 15 for b in range(256))

#: Rows by node id (``_simulate``) or by position (``eval_tt_words``).
_Rows = dict[int, int] | list[int]

# ``_lutK(tt, bits, fanins, mask)`` applies a ``K``-input LUT to the rows
# ``bits[f]`` of its ``fanins``: the mux tree of ``eval_tt_words`` with
# its folds written out, so no list, slice or zip is built per fold.


def _lut0(tt: int, bits: _Rows, fanins: Sequence[int], mask: int) -> int:
    return mask if tt & 1 else 0


def _lut1(tt: int, bits: _Rows, fanins: Sequence[int], mask: int) -> int:
    if tt == 1:
        return bits[fanins[0]] ^ mask
    if tt == 2:
        return bits[fanins[0]]
    return mask if tt else 0


def _lut2(tt: int, bits: _Rows, fanins: Sequence[int], mask: int) -> int:
    f0, f1 = fanins
    return _LEAF[tt](bits[f0], bits[f1], mask)


def _lut3(tt: int, bits: _Rows, fanins: Sequence[int], mask: int) -> int:
    f0, f1, f2 = fanins
    y = bits[f1]
    x = bits[f2]
    lo = tt & 15
    d = lo ^ (tt >> 4)
    if d:
        return _LEAF[lo](y, x, mask) ^ (_LEAF[d](y, x, mask) & bits[f0])
    return _LEAF[lo](y, x, mask)


def _lut4(tt: int, bits: _Rows, fanins: Sequence[int], mask: int) -> int:
    f0, f1, f2, f3 = fanins
    z = bits[f1]
    y = bits[f2]
    x = bits[f3]
    lo = tt & 15
    d = lo ^ ((tt >> 4) & 15)
    p = _LEAF[lo](y, x, mask) ^ (_LEAF[d](y, x, mask) & z) if d else _LEAF[lo](y, x, mask)
    lo = (tt >> 8) & 15
    d = lo ^ (tt >> 12)
    q = _LEAF[lo](y, x, mask) ^ (_LEAF[d](y, x, mask) & z) if d else _LEAF[lo](y, x, mask)
    return p if p == q else p ^ ((q ^ p) & bits[f0])


def _lut5(tt: int, bits: _Rows, fanins: Sequence[int], mask: int) -> int:
    f0, f1, f2, f3, f4 = fanins
    leaf = _leaves(bits[f3], bits[f4], mask)
    z = bits[f2]
    row = tt.to_bytes(4, "little")
    l0, l1, l2, l3 = row.translate(_LO)
    d0, d1, d2, d3 = row.translate(_LO_XOR_HI)
    p0 = leaf[l0] ^ (leaf[d0] & z) if d0 else leaf[l0]
    p1 = leaf[l1] ^ (leaf[d1] & z) if d1 else leaf[l1]
    p2 = leaf[l2] ^ (leaf[d2] & z) if d2 else leaf[l2]
    p3 = leaf[l3] ^ (leaf[d3] & z) if d3 else leaf[l3]
    w = bits[f1]
    p0 = p0 if p0 == p1 else p0 ^ ((p1 ^ p0) & w)
    p2 = p2 if p2 == p3 else p2 ^ ((p3 ^ p2) & w)
    return p0 if p0 == p2 else p0 ^ ((p2 ^ p0) & bits[f0])


def _lut6(tt: int, bits: _Rows, fanins: Sequence[int], mask: int) -> int:
    f0, f1, f2, f3, f4, f5 = fanins
    leaf = _leaves(bits[f4], bits[f5], mask)
    z = bits[f3]
    row = tt.to_bytes(8, "little")
    l0, l1, l2, l3, l4, l5, l6, l7 = row.translate(_LO)
    d0, d1, d2, d3, d4, d5, d6, d7 = row.translate(_LO_XOR_HI)
    p0 = leaf[l0] ^ (leaf[d0] & z) if d0 else leaf[l0]
    p1 = leaf[l1] ^ (leaf[d1] & z) if d1 else leaf[l1]
    p2 = leaf[l2] ^ (leaf[d2] & z) if d2 else leaf[l2]
    p3 = leaf[l3] ^ (leaf[d3] & z) if d3 else leaf[l3]
    p4 = leaf[l4] ^ (leaf[d4] & z) if d4 else leaf[l4]
    p5 = leaf[l5] ^ (leaf[d5] & z) if d5 else leaf[l5]
    p6 = leaf[l6] ^ (leaf[d6] & z) if d6 else leaf[l6]
    p7 = leaf[l7] ^ (leaf[d7] & z) if d7 else leaf[l7]
    w = bits[f2]
    p0 = p0 if p0 == p1 else p0 ^ ((p1 ^ p0) & w)
    p2 = p2 if p2 == p3 else p2 ^ ((p3 ^ p2) & w)
    p4 = p4 if p4 == p5 else p4 ^ ((p5 ^ p4) & w)
    p6 = p6 if p6 == p7 else p6 ^ ((p7 ^ p6) & w)
    w = bits[f1]
    p0 = p0 if p0 == p2 else p0 ^ ((p2 ^ p0) & w)
    p4 = p4 if p4 == p6 else p4 ^ ((p6 ^ p4) & w)
    return p0 if p0 == p4 else p0 ^ ((p4 ^ p0) & bits[f0])


#: ``_LUT_KERNELS[k]`` evaluates a ``k``-input LUT, ``k < 7``; wider
#: LUTs take ``_lut_wide``.
_LUT_KERNELS = (_lut0, _lut1, _lut2, _lut3, _lut4, _lut5, _lut6)


def _lut_wide(tt: int, bits: _Rows, fanins: Sequence[int], mask: int) -> int:
    """The generic mux tree up to ``_MUX_MAX_ARITY`` inputs, the gather above."""
    words = [bits[f] for f in fanins]
    if len(words) > _MUX_MAX_ARITY:
        return _eval_tt_gather(tt, words, mask)
    leaf = _leaves(words[-2], words[-1], mask)
    z = words[-3]
    row = tt.to_bytes(1 << (len(words) - 3), "little")
    level = [leaf[lo] ^ (leaf[d] & z) if d else leaf[lo]
             for lo, d in zip(row.translate(_LO), row.translate(_LO_XOR_HI))]
    for w in words[-4::-1]:
        level = [lo if lo == hi else lo ^ ((hi ^ lo) & w)
                 for lo, hi in zip(level[::2], level[1::2])]
    return level[0]


def eval_tt_words(tt: int, words: list[int], mask: int) -> int:
    """Apply a LUT bitwise to packed fanin rows (first fanin = MSB).

    ``tt`` must fit ``len(words)`` inputs and every row in ``words`` must
    lie within ``mask``, as every caller's do; the result then lies
    within ``mask`` too.

    Bit ``v`` of ``tt`` is column ``2**k - 1 - v`` of ``M_f``: the first
    input picks a half of the columns, the last a column of each pair.
    The mux tree is built from the last inputs up:

    - Leaves: each nibble ``(tt >> 4i) & 15`` is a column block of the
      last two inputs ``y, x`` and names one of their 16 functions.
    - First fold, on the third-last input ``z``: adjacent nibbles ``lo``
      (``z`` false) and ``hi`` give ``leaf[lo] ^ (leaf[lo ^ hi] & z)``,
      since the XOR of two nibbles names the XOR of their functions.
    - Later folds: each earlier input ``x_j``, last to first, merges
      adjacent entries ``lo`` and ``hi`` into ``lo ^ ((hi ^ lo) & x_j)``.
    - Equal cofactors pass through at every fold.

    LUTs of up to 6 inputs take their arity's kernel in
    ``_LUT_KERNELS``, which :func:`_simulate` calls too: the same tree
    with its folds written out.  7 to ``_MUX_MAX_ARITY`` (9) inputs take
    the generic tree of ``_lut_wide``, which builds one list per fold.

    Cost in row operations (one ``&``, ``|`` or ``^`` of two rows): 1
    for an inverter and none for another 1-input table; at most 2 for 2
    inputs (one leaf); for 3 and 4 inputs, at most 2 per leaf that a
    pair of nibbles names, 2 per pair and 3 per later merge (at most 6
    and 15); from 5 inputs on, 14 for all 16 leaves, 2 per pair and 3
    per later merge (31 for 5 inputs, 51 for 6).

    The tree's cost doubles with each input; a numpy gather's hardly
    grows.  Per LUT, tree / gather in µs (CPython 3.11, x86, best of 15
    over 8 random tables, median of three runs):

    ======  ===========  ==========  ==========
    inputs  64 patterns  2,048       65,536
    ======  ===========  ==========  ==========
    7       14 / 43      11 / 68     47 / 796
    8       14 / 34      15 / 57     86 / 751
    9       29 / 55      23 / 59     147 / 805
    10      40 / 41      41 / 65     541 / 834
    11      75 / 50      85 / 76     1579 / 881
    12      133 / 48     144 / 74    3431 / 1018
    ======  ===========  ==========  ==========

    The gather takes 10 inputs and more.  At 10 the tree is faster at
    2,048 and 65,536 patterns, but at 64 the two trade places from run
    to run; no benchmark net has LUTs of more than 6 inputs to tell them
    apart.  From 11 on the gather wins or ties at every width.
    """
    k = len(words)
    return (_LUT_KERNELS[k] if k < 7 else _lut_wide)(tt, words, range(k), mask)


def _int_to_bitarray(x: int, n: int) -> np.ndarray:
    nbytes = (n + 7) >> 3
    buf = np.frombuffer(x.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(buf, bitorder="little")[:n]


def _eval_tt_gather(tt: int, words: list[int], mask: int) -> int:
    """Wide-arity LUT evaluation via a vectorized table lookup."""
    n = mask.bit_length()
    idx = np.zeros(n, dtype=np.int32)
    for w in words:
        idx = (idx << 1) | _int_to_bitarray(w, n)
    table = _int_to_bitarray(tt, 1 << len(words))
    return int.from_bytes(np.packbits(table[idx], bitorder="little").tobytes(), "little")


#: Fewest patterns per row at which :func:`_simulate` frees rows.
_FREE_FROM = 1 << 14


def _simulate(net: Network, order: list[int], bits: dict[int, int], mask: int,
              keep: Collection[int] | None = None) -> None:
    """Evaluate the LUTs of ``order`` into ``bits``.

    This is the only simulator.  ``order`` is topologically sorted, and
    each fanin of a LUT in it is either earlier in ``order`` or already
    in ``bits``.  PIs in ``order`` are skipped: their rows come in
    ``bits``.  ``keep`` names the rows the caller reads afterwards; the
    rest may leave ``bits``.  This is the one place that decides whether
    they do, and every row is simulated the same either way.  From
    ``_FREE_FROM`` (2^14) patterns on, every row not in ``keep`` leaves
    ``bits`` once its last reader in ``order`` is evaluated, so at most
    the rows still to be read, and those kept, are held at once.  Below
    that, and with no ``keep``, every row stays.

    Freeing costs a pass that finds each row's last reader and a delete
    per row, and it pays only once rows are wide.  Per call over the
    8,064-node cone of the benchmark's ``sim_bulk`` net, freeing / keeping
    every row in ms, and their ratio (CPython 3.11, x86, thread CPU,
    median of 21 interleaved calls):

    ========  ===========  =====
    patterns  ms           ratio
    ========  ===========  =====
    2^6       15.4 / 11.2  1.38
    2^11      17.1 / 13.1  1.31
    2^12      22.9 / 20.3  1.13
    2^13      27.7 / 27.3  1.01
    2^14      35.3 / 36.9  0.96
    2^15      53.2 / 58.6  0.91
    2^16      83.2 / 97.3  0.85
    ========  ===========  =====

    A LUT of ``k`` inputs is evaluated by ``_LUT_KERNELS[k]`` up to 6
    inputs and by ``_lut_wide`` above, the evaluators of
    :func:`eval_tt_words`.  Each is handed ``bits`` and the LUT's fanin
    ids, so no list of fanin rows is built per LUT below 7 inputs.
    """
    nodes = net.nodes
    # ``dies[r]`` is a row whose last reader is ``r``, and ``also[f]`` the
    # next row with the same last reader as row ``f``.  Flat int maps make
    # no container per reader: a list per reader set off five or six
    # garbage collections per call on an 8,000-LUT cone.
    dies: dict[int, int] = {}
    also: dict[int, int] = {}
    if keep is not None and mask.bit_length() >= _FREE_FROM:
        # Later readers overwrite earlier ones: each row's last reader.
        last = {f: nid for nid in order for f in nodes[nid].fanins}
        for nid in keep:
            last.pop(nid, None)
        for f, nid in last.items():
            if nid in dies:
                also[f] = dies[nid]
            dies[nid] = f
    for nid in order:
        node = nodes[nid]
        if not node.is_pi:
            fanins = node.fanins
            k = len(fanins)
            bits[nid] = (_LUT_KERNELS[k] if k < 7 else _lut_wide)(node.tt, bits, fanins, mask)
            f = dies.get(nid)
            while f is not None:
                del bits[f]
                f = also.get(f)


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
    return {nid: Signature(bits[nid], n) for nid in order}


def simulate_specified(net: Network, patterns: PatternSet, targets: list[int]) -> dict[int, Signature]:
    """Signatures of the target nodes only; nothing outside their input cone is simulated.

    Bit-identical to ``simulate_all`` restricted to the targets.  It
    keeps only the targets' rows, so by ``_simulate``'s rule it holds at
    most its cone's live rows from 2^14 patterns on, and below that its
    whole cone, at most 1 KB a row.
    """
    bits = _pi_rows(net, patterns)
    _simulate(net, net.cone(targets), bits, patterns.mask, targets)
    n = patterns.n_patterns
    return {t: Signature(bits[t], n) for t in targets}


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


def circuit_cut(net: Network, limit: int, targets: list[int], scope: str = "cone") -> CutSet:
    """Partition the targets' input cones (or the whole net) into tree cuts.

    Scope ``"cone"`` covers exactly the union of the targets' input
    cones; ``"network"`` partitions every live non-PI node, with PO
    drivers acting as additional boundaries.  A node roots a new cut if
    it is a target, drives a PO, or fans out more than once inside the
    scope; otherwise it merges into its unique reader's cut as long as
    that cut keeps at most ``limit`` leaves.  A fresh single-node cut may
    still exceed ``limit`` when the node's own fanin count does.  The
    readers come from one :meth:`~stpsweep.netlist.Network.fanouts` scan.
    """
    if limit < 1:
        raise ValueError("cut limit must be >= 1")
    if scope not in ("cone", "network"):
        raise ValueError(f"unknown scope {scope!r}")
    tset = set(targets)
    cone = net.cone(targets)
    order = net.topo_order()
    rank = {nid: i for i, nid in enumerate(order)}
    scope_nodes = {nid for nid in (cone if scope == "cone" else order)
                   if not net.nodes[nid].is_pi}

    po_drivers = {d for d, _ in net.pos}
    fanouts = net.fanouts()
    cut_of: dict[int, int] = {}
    cuts: dict[int, Cut] = {}
    leaf_sets: dict[int, set[int]] = {}

    def new_root(nid: int) -> None:
        cut_of[nid] = nid
        cuts[nid] = Cut(nid, [nid])
        leaf_sets[nid] = set(net.nodes[nid].fanins)

    for nid in sorted(scope_nodes, key=rank.__getitem__, reverse=True):
        node = net.nodes[nid]
        readers = [o for o in fanouts[nid] if o in scope_nodes]
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
    return CutSet(cuts, roots)


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


#: Most PIs an exhaustive window may hold (``2**16`` patterns).
WINDOW_CAP = 16


def check_window_cap(window_cap: int) -> None:
    if not 0 <= window_cap <= WINDOW_CAP:
        raise ValueError(f"window_cap must be within [0, {WINDOW_CAP}]")


@dataclass
class WindowTruths:
    """Exhaustive truth rows of a target set over its structural support."""

    leaves: list[int]  # window leaves (PIs), ascending id = MSB first
    window_rows: dict[int, int]  # truth row over the leaves


def exhaustive_window_sim(net: Network, targets: list[int],
                          window_cap: int = WINDOW_CAP) -> WindowTruths:
    """Exhaustive truth rows of the targets over their structural support.

    The window's leaves are the union of the targets' PI supports; if it
    holds more than ``window_cap`` leaves a :class:`WindowTooLarge` is
    raised and the caller falls back to pattern simulation; a cap
    outside ``[0, WINDOW_CAP]`` raises ``ValueError``.  Otherwise
    the union cone is walked once and simulated over the ``2**m``
    exhaustive patterns of its ``m`` leaves.  A single target's leaves
    are exactly its own support, so its window row is its truth row.

    It keeps only the targets' rows, so by ``_simulate``'s rule a window
    of 14 leaves or more holds only its live rows and the targets', and
    a narrower one its whole cone, at most 1 KB a row.
    """
    targets = list(dict.fromkeys(targets))
    if not targets:
        raise ValueError("no targets")
    check_window_cap(window_cap)
    cone = net.cone(targets, window_cap)
    leaves = sorted(nid for nid in cone if net.nodes[nid].is_pi)
    m = len(leaves)
    bits = {leaf: _var_row(j, m) for j, leaf in enumerate(leaves)}
    _simulate(net, cone, bits, (1 << (1 << m)) - 1, targets)
    return WindowTruths(leaves, {t: bits[t] for t in targets})
