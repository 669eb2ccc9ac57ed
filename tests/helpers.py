"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's word-parallel and
matrix-composition code paths: the scalar evaluator walks one pattern
at a time through plain Python dicts, and the CNF oracle enumerates
assignments with numpy.
"""

from __future__ import annotations

import random

import numpy as np

from stpsweep import Network


# ---------------------------------------------------------------------------
# Scalar reference evaluation (independent of stpsweep.simulate).


def eval_assignment(net: Network, assignment: dict[int, bool]) -> dict[int, bool]:
    """Evaluate every live node under one PI assignment, scalar walk."""
    values: dict[int, bool] = {}
    for nid in net.topo_order():
        node = net.nodes[nid]
        if node.is_pi:
            values[nid] = bool(assignment[nid])
        else:
            idx = 0
            for f in node.fanins:
                idx = (idx << 1) | values[f]
            values[nid] = bool((node.tt >> idx) & 1)
    return values


def scalar_signatures(net: Network, patterns) -> dict[int, list[bool]]:
    """Per-node signature computed one pattern at a time."""
    out: dict[int, list[bool]] = {nid: [] for nid in net.topo_order()}
    for j in range(patterns.n_patterns):
        assignment = {
            pid: bool((patterns.rows[i] >> j) & 1) for i, pid in enumerate(net.pis)
        }
        values = eval_assignment(net, assignment)
        for nid, v in values.items():
            out[nid].append(v)
    return out


def bits_of(seq: list[bool]) -> int:
    acc = 0
    for j, b in enumerate(seq):
        if b:
            acc |= 1 << j
    return acc


def exhaustive_tables(net: Network) -> dict[int, int]:
    """Truth row of every node over all PIs (PI order, first = MSB).

    Row bit ``v`` is the node value when the PIs spell ``v``; this is
    the package row convention restricted to full-PI support.
    """
    n = len(net.pis)
    rows: dict[int, int] = {nid: 0 for nid in net.topo_order()}
    for v in range(1 << n):
        assignment = {pid: bool((v >> (n - 1 - i)) & 1) for i, pid in enumerate(net.pis)}
        values = eval_assignment(net, assignment)
        for nid, val in values.items():
            if val:
                rows[nid] |= 1 << v
    return rows


def lookup_tables(net: Network) -> dict[int, np.ndarray]:
    """Value of every live node under every PI assignment, as bool arrays.

    Entry ``v`` of a node's array is its value when the PIs spell ``v``,
    as bit ``v`` of an :func:`exhaustive_tables` row.  Each LUT looks
    its value up in its truth table at the index its fanins spell, one
    lookup per assignment, with numpy doing the lookups side by side;
    it is the scalar walk's semantics at a size it cannot reach.
    """
    n = len(net.pis)
    spell = np.arange(1 << n, dtype=np.int64)
    values: dict[int, np.ndarray] = {}
    for i, pid in enumerate(net.pis):
        values[pid] = ((spell >> (n - 1 - i)) & 1).astype(bool)
    for nid in net.topo_order():
        node = net.nodes[nid]
        if node.is_pi:
            continue
        index = np.zeros(1 << n, dtype=np.int64)
        for f in node.fanins:
            index = (index << 1) | values[f]
        table = np.array([(node.tt >> j) & 1 for j in range(1 << node.arity)], dtype=bool)
        values[nid] = table[index]
    return values


def po_tables(net: Network) -> list[int]:
    n = len(net.pis)
    full = (1 << (1 << n)) - 1
    tables = exhaustive_tables(net)
    return [tables[d] ^ (full if phase else 0) for d, phase in net.pos]


# ---------------------------------------------------------------------------
# Random network generation.


def random_network(
    rng: random.Random,
    n_pi: int,
    n_gates: int,
    max_k: int = 4,
    po_count: int | None = None,
    fresh_bias: float = 0.0,
) -> Network:
    """Random k-LUT DAG.

    ``fresh_bias`` steers fanin picks toward not-yet-consumed nodes,
    which keeps fanouts near one (tree-like networks with sharing).
    """
    net = Network(f"rand{rng.randrange(1 << 30)}")
    for _ in range(n_pi):
        net.add_pi()
    pool = list(net.pis)
    consumed: set[int] = set()
    for _ in range(n_gates):
        k = rng.randint(1, max_k)
        avail = list(range(len(net.nodes)))
        fanins = []
        for _ in range(k):
            if fresh_bias and pool and rng.random() < fresh_bias:
                pick = pool[rng.randrange(len(pool))]
            else:
                pick = avail[rng.randrange(len(avail))]
            fanins.append(pick)
        k = len(fanins)
        tt = rng.getrandbits(1 << k)
        nid = net.add_lut(fanins, tt)
        pool.append(nid)
        for f in fanins:
            consumed.add(f)
            if f in pool and rng.random() < 0.8:
                pool.remove(f)
    unread = [n.id for n in net.nodes if not n.fanouts and not n.is_pi]
    if po_count is None:
        drivers = unread or [net.nodes[-1].id]
    else:
        candidates = unread or [n.id for n in net.nodes if not n.is_pi] or list(net.pis)
        drivers = [candidates[rng.randrange(len(candidates))] for _ in range(po_count)]
    for d in drivers:
        net.add_po(d, inverted=bool(rng.getrandbits(1)))
    return net


def undet_network() -> Network:
    """21 PIs and 262 LUTs, whose constants and duplicates structural
    hashing settles, but not all of its candidates.  Swept with 16 base
    patterns, its proving loop gets four SAT answers at no conflict
    limit, each a counter-example that refines the classes, and at a
    limit of 1 one of its queries is UNDET."""
    rng = random.Random(2061)
    return random_network(rng, rng.randint(16, 24), rng.randint(100, 300),
                          max_k=rng.choice([3, 4]), po_count=rng.randint(1, 8))


def and_under_inverters(n: int) -> Network:
    """An AND of two PIs under ``n`` one-input inverters, driving one PO."""
    net = Network()
    s = net.add_lut([net.add_pi(), net.add_pi()], 0b1000)
    for _ in range(n):
        s = net.add_lut([s], 0b01)
    net.add_po(s)
    return net


def and_pairs(n: int, seed: int = 1) -> Network:
    """``n`` pairs of LUTs ``AND(x, y)`` and ``AND(y, x)`` over 200 PIs, with
    ``x`` and ``y`` drawn at random, and a PO on every LUT.  Strash does
    not sort fanins, so it leaves most pairs to the proving loop."""
    rng = random.Random(seed)
    net = Network("and_pairs")
    pis = [net.add_pi() for _ in range(200)]
    for _ in range(n):
        x, y = rng.sample(pis, 2)
        net.add_po(net.add_lut([x, y], 0b1000))
        net.add_po(net.add_lut([y, x], 0b1000))
    return net


def blif_roundtrip(net: Network) -> Network:
    from stpsweep import parse_blif, write_blif

    return parse_blif(write_blif(net))


# ---------------------------------------------------------------------------
# Sweep fixtures: redundancy-seeded networks.


MUX = 0b11001010  # over [s, a, b]: a if s else b


def resynthesize(net: Network, fanins: list[int], tt: int) -> int:
    """A new node computing LUT ``(fanins, tt)``.

    A LUT of three or more inputs becomes a multiplexer on its first
    fanin over LUTs of its two cofactors, so no structural hash finds it
    equal to the original.  A smaller one is copied as it is: its
    cofactors would be buffers, inverters or constants, which structural
    hashing folds back into the original.
    """
    if len(fanins) < 3:
        return net.add_lut(fanins, tt)
    half = 1 << (len(fanins) - 1)  # the rows where the first fanin is 0
    low = net.add_lut(fanins[1:], tt & ((1 << half) - 1))
    high = net.add_lut(fanins[1:], tt >> half)
    return net.add_lut([fanins[0], high, low], MUX)


def _copy_cone(net: Network, root: int, depth_left: int, mapping: dict[int, int],
               invert: bool = False) -> int:
    """Rebuild the cone under ``root`` down to ``depth_left`` levels, each
    LUT by :func:`resynthesize`; with ``invert``, the root computes the
    complement."""
    if root in mapping:
        return mapping[root]
    node = net.nodes[root]
    if node.is_pi or depth_left == 0:
        mapping[root] = root
        return root
    fanins = [_copy_cone(net, f, depth_left - 1, mapping) for f in node.fanins]
    tt = node.tt ^ ((1 << (1 << node.arity)) - 1) if invert else node.tt
    nid = resynthesize(net, fanins, tt)
    mapping[root] = nid
    return nid


def sweep_fixture(seed: int) -> Network:
    """Random net seeded with equal, complemented and near-equal cones
    plus a constant; every redundancy drives a PO.

    The equal and complemented cones compute their originals' functions
    through other structures (:func:`resynthesize`), and the constant is
    one only by function, so structural hashing leaves them to
    simulation and SAT.
    """
    rng = random.Random(seed)
    n_pi = rng.randint(10, 14)
    net = random_network(rng, n_pi, rng.randint(16, 26), max_k=4, po_count=3)

    gates = [n.id for n in net.nodes if not n.is_pi and not n.dead]
    # Equal cone.
    root = gates[rng.randrange(len(gates))]
    net.add_po(_copy_cone(net, root, rng.randint(1, 3), {}))
    # Complemented cone under an inverter, which equals the original.
    root2 = gates[rng.randrange(len(gates))]
    inv = net.add_lut([_copy_cone(net, root2, rng.randint(1, 2), {}, invert=True)], 0b01)
    net.add_po(inv)
    # Constant: t & ~x for t = x & y, kept alive by an OR above it.
    i = rng.randrange(len(net.pis))
    x, y = net.pis[i], net.pis[i - 1]
    zero = net.add_lut([net.add_lut([x, y], 0b1000), x], 0b0100)
    keeper = net.add_lut([zero, gates[rng.randrange(len(gates))]], 0b1110)
    net.add_po(keeper)
    # Near-duplicate pair: two LUTs over the same skewed signals whose
    # rows differ in the one row their inputs almost never reach, so no
    # single node computes the difference and random patterns miss it.
    pis = list(net.pis)
    rng.shuffle(pis)
    u = net.add_lut(pis[0:3], 0b10000000)  # 3-input AND, ones density 1/8
    v = net.add_lut(pis[3:6], 0b10000000)
    w = net.add_lut(pis[6:9], 0b10000000)
    xor3 = 0b10010110
    g = net.add_lut([u, v, w], xor3)
    g_near = net.add_lut([u, v, w], xor3 ^ 0b10000000)  # differs at u=v=w=1
    net.add_po(g)
    net.add_po(g_near)
    return net


# ---------------------------------------------------------------------------
# Adder self-miter: two architectures of one function on shared PIs.

XOR2, AND2, OR2 = 0b0110, 0b1000, 0b1110


def adder_miter(width: int) -> Network:
    """Ripple-carry and Kogge-Stone adders on the same ``2 * width`` PIs,
    built from 2-input gates; the POs are both sums and both carries.

    The ripple-carry half comes first and has ``5 * width - 3`` LUTs,
    all of them read by a PO, so a full sweep leaves exactly that many.
    """
    net = Network(f"adder_miter{width}")
    a = [net.add_pi(f"a{i}") for i in range(width)]
    b = [net.add_pi(f"b{i}") for i in range(width)]

    carry = None
    for i in range(width):
        p = net.add_lut([a[i], b[i]], XOR2)
        g = net.add_lut([a[i], b[i]], AND2)
        if carry is None:
            net.add_po(p, name="rca_s0")
            carry = g
            continue
        net.add_po(net.add_lut([p, carry], XOR2), name=f"rca_s{i}")
        t = net.add_lut([p, carry], AND2)
        carry = net.add_lut([g, t], OR2)
    net.add_po(carry, name="rca_cout")

    p = [net.add_lut([a[i], b[i]], XOR2) for i in range(width)]
    gen = [net.add_lut([a[i], b[i]], AND2) for i in range(width)]
    prop = list(p)
    d = 1
    while d < width:
        new_gen, new_prop = list(gen), list(prop)
        for i in range(d, width):
            t = net.add_lut([prop[i], gen[i - d]], AND2)
            new_gen[i] = net.add_lut([gen[i], t], OR2)
            new_prop[i] = net.add_lut([prop[i], prop[i - d]], AND2)
        gen, prop = new_gen, new_prop
        d *= 2
    net.add_po(p[0], name="ks_s0")
    for i in range(1, width):
        net.add_po(net.add_lut([p[i], gen[i - 1]], XOR2), name=f"ks_s{i}")
    net.add_po(gen[width - 1], name="ks_cout")
    net.remove_dead()  # the last level's group propagates are read by nothing
    return net
