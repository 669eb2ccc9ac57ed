"""Seeded generators for the benchmark's three workloads.

Each generator returns a :class:`Circuit`, a small gate list that is
independent of ``stpsweep``: the program only ever sees the BLIF text
that :meth:`Circuit.to_blif` writes.  The one exception is the
``adder_miter`` mapping step, which uses the program's own
``circuit_cut(scope="network")`` + ``cut_truth_tables`` to turn the
2-input adders into <=6-LUTs, as a technology mapper would.

The seed sets the input polarities of ``adder_miter`` and ``sim_bulk``
and the AND of ``deep_chain``, never a circuit's size or structure, so
the work per operation stays close across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

AND2 = 0b1000
OR2 = 0b1110
XOR2 = 0b0110
NOT1 = 0b01

ADDER_WIDTH = 32
CHAIN_LENGTH = 300
BULK_PIS = 64
BULK_LUTS = 8000
#: The test helpers' seed for the Baseline rand(8000, 6) net.
BULK_NET_SEED = 7


class InputError(Exception):
    """A generated input failed its own check."""


@dataclass
class Circuit:
    """PIs, LUT gates (name, fanin names, truth row) and PO signal names.

    Truth rows follow the package convention: bit ``v`` is the output
    when the fanins, first fanin most significant, spell ``v``.
    """

    name: str
    pis: list[str] = field(default_factory=list)
    gates: list[tuple[str, list[str], int]] = field(default_factory=list)
    pos: list[str] = field(default_factory=list)

    def pi(self, name: str) -> str:
        self.pis.append(name)
        return name

    def gate(self, fanins: list[str], tt: int, name: str | None = None) -> str:
        if name is None:
            name = f"g{len(self.gates)}"
        self.gates.append((name, list(fanins), tt))
        return name

    def n_luts(self) -> int:
        return len(self.gates)

    def prune(self) -> None:
        """Drop gates that no PO reads, so the input has no dead logic."""
        by_name = {g[0]: g for g in self.gates}
        live: set[str] = set()
        stack = list(self.pos)
        while stack:
            s = stack.pop()
            if s in live or s not in by_name:
                continue
            live.add(s)
            stack.extend(by_name[s][1])
        self.gates = [g for g in self.gates if g[0] in live]

    def complement_inputs(self, pis: set[str]) -> None:
        """Read each of ``pis`` complemented: flip that input of every reader."""
        for n, (name, fanins, tt) in enumerate(self.gates):
            k = len(fanins)
            for pos, f in enumerate(fanins):
                if f in pis:
                    step = 1 << (k - 1 - pos)
                    tt = sum(((tt >> (v ^ step)) & 1) << v for v in range(1 << k))
            self.gates[n] = (name, fanins, tt)

    def evaluate(self, assignment: dict[str, bool]) -> dict[str, bool]:
        """Scalar walk: the value of every signal under one PI assignment."""
        values = {name: bool(assignment[name]) for name in self.pis}
        for name, fanins, tt in self.gates:
            idx = 0
            for f in fanins:
                idx = (idx << 1) | values[f]
            values[name] = bool((tt >> idx) & 1)
        return values

    def to_blif(self) -> str:
        """BLIF text, one cover row per minterm."""
        lines = [f".model {self.name}", ".inputs " + " ".join(self.pis),
                 ".outputs " + " ".join(self.pos)]
        for name, fanins, tt in self.gates:
            lines.append(".names " + " ".join(fanins + [name]))
            k = len(fanins)
            if k == 0:
                if tt & 1:
                    lines.append("1")
                continue
            for v in range(1 << k):
                if (tt >> v) & 1:
                    lines.append(f"{v:0{k}b} 1")
        lines.append(".end")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# adder_miter: ripple-carry and Kogge-Stone adders on shared PIs.


def adder_source(rng: random.Random, width: int = ADDER_WIDTH) -> tuple[Circuit, int]:
    """Both adders from 2-input gates; POs are both sums and both carries.

    The seed picks which PIs carry their operand bit complemented (the
    returned mask, bit i for a_i and bit width + i for b_i).  Node order
    and structure stay fixed: a seeded PI order moved the sweep time by
    up to a half from one seed to the next.
    """
    c = Circuit("adder_miter")
    a = [c.pi(f"a{i}") for i in range(width)]
    b = [c.pi(f"b{i}") for i in range(width)]
    mask = rng.getrandbits(2 * width)

    carry = None
    for i in range(width):
        p = c.gate([a[i], b[i]], XOR2, f"rca_p{i}")
        g = c.gate([a[i], b[i]], AND2, f"rca_g{i}")
        if carry is None:
            c.pos.append(p)
            carry = g
            continue
        c.pos.append(c.gate([p, carry], XOR2, f"rca_s{i}"))
        t = c.gate([p, carry], AND2, f"rca_t{i}")
        carry = c.gate([g, t], OR2, f"rca_c{i + 1}")
    c.pos.append(carry)

    p = [c.gate([a[i], b[i]], XOR2, f"ks_p{i}") for i in range(width)]
    gen = [c.gate([a[i], b[i]], AND2, f"ks_g{i}") for i in range(width)]
    prop = list(p)
    d = 1
    while d < width:
        new_gen, new_prop = list(gen), list(prop)
        for i in range(d, width):
            t = c.gate([prop[i], gen[i - d]], AND2, f"ks_t{d}_{i}")
            new_gen[i] = c.gate([gen[i], t], OR2, f"ks_g{d}_{i}")
            new_prop[i] = c.gate([prop[i], prop[i - d]], AND2, f"ks_p{d}_{i}")
        gen, prop = new_gen, new_prop
        d *= 2
    c.pos.append(p[0])
    for i in range(1, width):
        c.pos.append(c.gate([p[i], gen[i - 1]], XOR2, f"ks_s{i}"))
    c.pos.append(gen[width - 1])
    c.prune()
    c.complement_inputs({x for i, x in enumerate(a + b) if (mask >> i) & 1})
    return c, mask


def check_adders(c: Circuit, mask: int, rng: random.Random, width: int = ADDER_WIDTH,
                 samples: int = 32) -> None:
    """Both adders must compute a + b on sampled operand pairs."""
    for _ in range(samples):
        x, y = rng.getrandbits(width), rng.getrandbits(width)
        pis = (x | y << width) ^ mask
        assignment = {name: (pis >> i) & 1 for i, name in enumerate(c.pis)}
        values = c.evaluate(assignment)
        outs = [values[s] for s in c.pos]
        for half in (outs[:width + 1], outs[width + 1:]):
            got = sum(int(bit) << i for i, bit in enumerate(half))
            if got != x + y:
                raise InputError(f"adder gives {got} for {x} + {y}")


def map_to_luts(source_text: str, k: int = 6) -> Circuit:
    """Map a network to <=k-LUTs with the program's tree-cut pipeline."""
    # Imported here: the program is importable only once run.py has
    # put the checkout's src/ on the path.
    from stpsweep.netlist import parse_blif
    from stpsweep.simulate import circuit_cut, cut_truth_tables

    net = parse_blif(source_text)
    cutset = circuit_cut(net, k, [], scope="network")
    tables = cut_truth_tables(net, cutset)
    name_of = {nid: name for name, nid in net.names.items()}
    out = Circuit(net.name)
    for pid in net.pis:
        out.pi(name_of[pid])
    for root in cutset.roots:
        cut = cutset.cuts[root]
        out.gate([name_of[leaf] for leaf in cut.leaves], tables[root].row, name_of[root])
    out.pos = list(net.po_names)
    return out


# ---------------------------------------------------------------------------
# deep_chain: an AND of two PIs under a long inverter chain.


def deep_chain(rng: random.Random, length: int = CHAIN_LENGTH) -> Circuit:
    c = Circuit("deep_chain")
    x, y = c.pi("x"), c.pi("y")
    # Any AND of two literals; the seed picks the input polarities.
    s = c.gate([x, y], 1 << rng.randrange(4), "and")
    for i in range(length):
        s = c.gate([s], NOT1, f"inv{i}")
    c.pos.append(s)
    return c


# ---------------------------------------------------------------------------
# sim_bulk: the random k-LUT recipe of the test helpers, copied here.


def random_network(rng: random.Random, n_pi: int, n_gates: int, max_k: int = 4,
                   po_count: int | None = None, fresh_bias: float = 0.0) -> Circuit:
    """Random k-LUT DAG, drawing from ``rng`` in the same order as the
    test-suite recipe, so one seed gives the same gates there and here.

    PO phases are drawn but not applied: BLIF has no inverted outputs,
    and a phase changes no simulation work.
    """
    c = Circuit(f"rand{rng.randrange(1 << 30)}")
    names = [c.pi(f"pi{i}") for i in range(n_pi)]
    fanouts = [0] * n_pi
    pool = list(range(n_pi))
    for _ in range(n_gates):
        k = rng.randint(1, max_k)
        avail = len(names)
        fanins = []
        for _ in range(k):
            if fresh_bias and pool and rng.random() < fresh_bias:
                pick = pool[rng.randrange(len(pool))]
            else:
                pick = rng.randrange(avail)
            fanins.append(pick)
        tt = rng.getrandbits(1 << len(fanins))
        nid = len(names)
        names.append(c.gate([names[f] for f in fanins], tt, f"n{nid}"))
        fanouts.append(0)
        pool.append(nid)
        for f in fanins:
            fanouts[f] += 1
            if f in pool and rng.random() < 0.8:
                pool.remove(f)
    unread = [nid for nid in range(n_pi, len(names)) if not fanouts[nid]]
    if po_count is None:
        drivers = unread or [len(names) - 1]
    else:
        candidates = unread or list(range(n_pi, len(names))) or list(range(n_pi))
        drivers = [candidates[rng.randrange(len(candidates))] for _ in range(po_count)]
    for d in drivers:
        rng.getrandbits(1)
        c.pos.append(names[d])
    return c


def sim_bulk(rng: random.Random) -> Circuit:
    """The ROADMAP Baseline's rand(8000, 6) net, with the PIs the seed
    picks read complemented.

    The seed keeps the structure: with a seeded structure, peak memory
    moved by up to 7% from seed to seed, all of it in
    ``simulate_specified`` at 65536 patterns.
    """
    c = random_network(random.Random(BULK_NET_SEED), BULK_PIS, BULK_LUTS, max_k=6,
                       po_count=32, fresh_bias=0.6)
    mask = rng.getrandbits(BULK_PIS)
    c.complement_inputs({x for i, x in enumerate(c.pis) if (mask >> i) & 1})
    return c
