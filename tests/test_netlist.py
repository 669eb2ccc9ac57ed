"""Network model, parsers, writer, and structural edits."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpsweep import (
    CycleError,
    NetlistError,
    Network,
    flip_tt_input,
    parse_aiger_ascii,
    parse_blif,
    strash,
    write_blif,
)
from stpsweep import netlist
from stpsweep.netlist import _reduce_lut, _strash
from stpsweep.sweep import constant_prop
import blif_oracle
import strash_oracle
from helpers import (
    adder_miter, and_under_inverters, eval_assignment, exhaustive_tables, lookup_tables,
    po_tables, random_network, sweep_fixture,
)


def heap_topo_order(net: Network) -> list[int]:
    """Kahn's algorithm with ties by id over the live nodes."""
    live = net.live_ids()
    indeg = {nid: sum(not net.nodes[f].dead for f in net.nodes[nid].fanins) for nid in live}
    ready = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for out in net.nodes[nid].fanouts:
            if not net.nodes[out].dead:
                indeg[out] -= 1
                if indeg[out] == 0:
                    heapq.heappush(ready, out)
    return order


def assert_topological(net: Network, order: list[int]) -> None:
    assert sorted(order) == net.live_ids()
    pos = {nid: i for i, nid in enumerate(order)}
    for nid in order:
        for f in net.nodes[nid].fanins:
            if not net.nodes[f].dead:
                assert pos[f] < pos[nid]

AND_BLIF = """
.model tiny
.inputs a b
.outputs y
.names a b y
11 1
.end
"""

INV_BLIF = """
.model inv
.inputs a
.outputs y
.names a y
0 1
.end
"""

NAND_BLIF = """
.model nand6
.inputs n1 n3
.outputs n6
.names n1 n3 n6
0- 1
-0 1
.end
"""


class TestParseBlif:
    def test_and_gate(self):
        net = parse_blif(AND_BLIF)
        assert len(net.pis) == 2 and len(net.pos) == 1
        gate = net.nodes[net.names["y"]]
        assert gate.tt == 0b1000

    def test_inverter(self):
        net = parse_blif(INV_BLIF)
        assert net.nodes[net.names["y"]].tt == 0b01

    def test_nand_from_covers(self):
        net = parse_blif(NAND_BLIF)
        gate = net.nodes[net.names["n6"]]
        assert format(gate.tt, "04b") == "0111"

    def test_zero_cover_value(self):
        text = ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n"
        net = parse_blif(text)
        assert net.nodes[net.names["y"]].tt == 0b0111

    def test_dont_care_expansion(self):
        text = ".model t\n.inputs a b c\n.outputs y\n.names a b c y\n1-- 1\n.end\n"
        net = parse_blif(text)
        assert net.nodes[net.names["y"]].tt == 0b11110000

    def test_constants(self):
        text = ".model t\n.outputs y z\n.names y\n1\n.names z\n.end\n"
        net = parse_blif(text)
        assert net.nodes[net.names["y"]].tt == 1
        assert net.nodes[net.names["z"]].tt == 0

    def test_output_is_input(self):
        text = ".model t\n.inputs a\n.outputs a\n.end\n"
        net = parse_blif(text)
        assert net.pos == [(net.names["a"], False)]

    def test_mixed_cover_values_rejected(self):
        text = ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n"
        with pytest.raises(NetlistError):
            parse_blif(text)

    def test_undefined_signal(self):
        text = ".model t\n.inputs a\n.outputs y\n.names a q y\n11 1\n.end\n"
        with pytest.raises(NetlistError, match="q"):
            parse_blif(text)

    def test_cycle_detected(self):
        text = (".model t\n.inputs a\n.outputs y\n"
                ".names a z y\n11 1\n.names y z\n1 1\n.end\n")
        with pytest.raises(NetlistError, match="[Cc]ycl"):
            parse_blif(text)

    def test_arity_limit(self):
        ins = " ".join(f"i{k}" for k in range(17))
        text = f".model t\n.inputs {ins}\n.outputs y\n.names {ins} y\n{'1' * 17} 1\n.end\n"
        with pytest.raises(NetlistError, match="fanin"):
            parse_blif(text)

    def test_syntax_error_carries_line_number(self):
        text = ".model t\n.inputs a\n.outputs y\n.names a y\n1x 1\n.end\n"
        with pytest.raises(NetlistError, match="line 5"):
            parse_blif(text)
        head = [".model t", ".inputs a b", ".outputs y", ".names a b y"]
        cases = [
            # A malformed row after a mixed-value row: the malformed row.
            (["11 1", "00 0", "1 1"], "line 7: malformed cover row"),
            # A bad character and mixed values: the mixed values, named
            # at the block's first row.
            (["11 1", "1x 0"], "line 5: mixed cover output values"),
            (["1x 1", "11 1"], "line 5: bad cover character 'x'"),
            # Rows continued onto later lines: the first physical line.
            (["11 1", "1x \\", "1"], "line 6: bad cover character 'x'"),
            (["11 \\", "# a comment", "1 1"], "line 5: malformed cover row"),
            (["11 \\", "1", "1x 1"], "line 7: bad cover character 'x'"),
            # Each line holds one row, even if the tokens would pair up.
            (["11 1 01", "1"], "line 5: malformed cover row"),
            (["11", "1"], "line 5: malformed cover row"),
            # A trailing backslash at the end of the file joins nothing.
            (["11 1", "x \\"], "line 6: malformed cover row"),
            # Text after .end is ignored.
            (["11 1", ".end", "1x 1", ".bogus"], None),
        ]
        for sep in ["\n", "\r\n", "\r", "\f"]:
            for rows, message in cases:
                text = sep.join(head + rows)
                if message is None:
                    assert parse_blif(text).nodes[-1].tt == 0b1000
                    continue
                with pytest.raises(NetlistError) as exc:
                    parse_blif(text)
                assert str(exc.value) == message, (sep, rows)
                with pytest.raises(NetlistError) as exc:
                    blif_oracle.parse_blif(text)
                assert str(exc.value) == message, (sep, rows)


def assert_reads_as_the_oracle(text: str) -> None:
    """``parse_blif`` returns the network the reference reader returns, or
    raises a NetlistError with the same message.

    The names compare in insertion order, which ``Network.first_names``
    and ``write_blif`` read, and every node's fanouts compare in order.
    """
    def outcome(parse):
        try:
            net = parse(text)
        except NetlistError as exc:
            return str(exc)
        return ([(n.id, n.fanins, n.tt, n.fanouts) for n in net.nodes],
                list(net.names.items()), net.pis, net.pi_names, net.po_names, net.pos,
                net.name)

    assert outcome(parse_blif) == outcome(blif_oracle.parse_blif)


def cover_oracle(cubes: list[str], out: str, arity: int) -> int:
    """Truth row of a single-output cover, one minterm at a time.

    Minterm ``v`` (first fanin most significant) is on when some cube
    matches it, a ``-`` matching either value; an off-set cover (output
    ``0``) is the complement, and a cover with no rows is constant 0.
    """
    if not cubes:
        return 0
    bits = []
    for v in range(1 << arity):
        assignment = format(v, f"0{arity}b") if arity else ""
        hit = any(all(c in ("-", x) for c, x in zip(cube, assignment)) for cube in cubes)
        bits.append("1" if hit == (out == "1") else "0")
    return int("".join(reversed(bits)), 2)


def _noisy_layout(rng: random.Random, lines: list[str]) -> str:
    """Join BLIF lines with comments, continuations, tabs, blank lines
    and, at random, CRLF, lone CR or form-feed line ends, none of which
    changes the tokens."""
    out = []
    for line in lines:
        r = rng.random()
        if r < 0.1:
            out.append(rng.choice(["", "  ", "\t", "# a comment line", "   # indented"]))
        elif r < 0.2:
            line += rng.choice([" # trailing comment", "\t#", "#no space"])
        elif r < 0.3 and " " in line:
            cut = line.index(" ")
            line = line[:cut] + " \\\n\t" + line[cut + 1:]
        elif r < 0.4:
            line = line.replace(" ", rng.choice(["\t", " \t ", "   "]))
        out.append(line)
    return rng.choice(["\n", "\r\n", "\r", "\f"]).join(out) + "\n"


class TestCoverDecoding:
    """Cover rows read to the tables a brute-force reading gives."""

    ARITIES = [0, 0, 1, 2, 3, 4, 5, 6, 6, 6, 16]

    def random_blocks(self, rng: random.Random, pis: list[str]):
        blocks = []
        for g in range(rng.randint(1, 8)):
            arity = rng.choice(self.ARITIES)
            fanins = [rng.choice(pis) for _ in range(arity)]
            dash = rng.choice([0.0, 0.2, 0.5, 0.9])
            # 16-input rows expand up to 65,536 minterms; keep them few.
            n_rows = rng.randint(0, 2 if arity == 16 else 6)
            cubes = ["".join("-" if rng.random() < dash else rng.choice("01")
                             for _ in range(arity)) for _ in range(n_rows)]
            blocks.append((f"g{g}", fanins, cubes, rng.choice("01")))
        return blocks

    @pytest.mark.parametrize("seed", range(12))
    def test_tables_match_the_oracle(self, seed):
        rng = random.Random(seed)
        pis = [f"p{i}" for i in range(16)]
        blocks = self.random_blocks(rng, pis)
        lines = [".model cov", ".inputs " + " ".join(pis),
                 ".outputs " + " ".join(name for name, *_ in blocks)]
        for name, fanins, cubes, out in blocks:
            lines.append(".names " + " ".join(fanins + [name]))
            lines += [f"{cube} {out}" if fanins else out for cube in cubes]
        lines.append(".end")
        text = _noisy_layout(rng, lines)
        assert_reads_as_the_oracle(text)
        net = parse_blif(text)
        assert net.n_luts() == len(blocks)
        for name, fanins, cubes, out in blocks:
            node = net.nodes[net.names[name]]
            assert node.fanins == [net.names[f] for f in fanins]
            assert node.tt == cover_oracle(cubes, out, len(fanins)), (name, cubes, out)

    @pytest.mark.parametrize("row, char", [
        ("0_1", "_"),  # int() reads digit-group underscores,
        ("+1", "+"),  # a sign,
        ("0b1", "b"),  # a base prefix,
        ("\u0661\u0661", "\u0661"),  # Arabic-Indic digits
        ("\uff11\uff11", "\uff11"),  # and full-width digits
        ("1x-", "x"),
    ])
    def test_only_ascii_zero_one_and_dash_are_cover_characters(self, row, char):
        ins = " ".join("abc"[:len(row)])
        text = (f".model t\n.inputs {ins}\n.outputs y\n.names {ins} y\n"
                f"{'1' * len(row)} 1\n# the next row is line 7\n{row} 1\n.end\n")
        with pytest.raises(NetlistError) as exc:
            parse_blif(text)
        assert str(exc.value) == f"line 7: bad cover character {char!r}"


class TestOnePassFallback:
    """Files whose blocks cannot all be built as they are read, and files
    whose ``.inputs`` lines come late: the reader keeps definitions from
    the first such block on, makes every PI first, and still reads each
    file as the reference reader does."""

    HEAD = [".model t", ".inputs a b", ".outputs y"]

    @pytest.mark.parametrize("lines, error", [
        # A repeated input name, on one .inputs line and on two.
        ([".model t", ".inputs a b a", ".outputs y", ".names a b y", "11 1"],
         "duplicate input 'a'"),
        (HEAD + [".inputs b", ".names a b y", "11 1"], "duplicate input 'b'"),
        # An input listed again after a built block, and one that a
        # built block already defines.
        (HEAD + [".names a t", "0 1", ".inputs a", ".names t y", "1 1"],
         "duplicate input 'a'"),
        (HEAD + [".names a t", "0 1", ".inputs t", ".names t y", "1 1"],
         "input 't' also defined by .names"),
        # A second .inputs line after a built block: the PIs still take
        # the first ids.
        ([".model t", ".inputs a", ".outputs y", ".names a t", "0 1", ".inputs b",
          ".names t b y", "11 1"], None),
        # A block that redefines an input, alone and behind a later
        # error in the file, which comes first.
        (HEAD + [".names a b a", "11 1", ".names a b y", "11 1"],
         "input 'a' also defined by .names"),
        (HEAD + [".names a b a", "11 1", ".names a b y", "1x 1"],
         "line 7: bad cover character 'x'"),
        # A block before .inputs, and a file without .inputs.
        ([".model t", ".outputs y", ".names a b y", "11 1", ".inputs a b"], None),
        ([".model t", ".outputs y", ".names y", "1"], None),
        # Blocks in reverse dependency order.
        (HEAD + [".names t2 y", "0 1", ".names t1 b t2", "11 1", ".names a b t1", "01 1"],
         None),
        # A PO buffer in off-set form that a later block reads, so it is
        # a LUT, not an alias; and one that no block reads.
        ([".model t", ".inputs a b", ".outputs z y", ".names a b t", "11 1", ".names t z",
          "0 0", ".names z b y", "10 1"], None),
        ([".model t", ".inputs a b", ".outputs y z", ".names a b y", "11 1", ".names y z",
          "0 0"], None),
        # A block that redefines a built LUT, at its own line.
        (HEAD + [".names a b y", "11 1", ".names a y", "1 1"], "line 6: 'y' defined twice"),
        # A cycle, and a fanin that no block defines.
        (HEAD + [".names a z y", "11 1", ".names y z", "1 1"],
         "line 6: cyclic definition through 'y'"),
        (HEAD + [".names a b t", "11 1", ".names t q y", "11 1"],
         "signal 'q' is never defined"),
        # .inputs after .end is ignored, and an output it names is
        # never defined.
        (HEAD + [".names a b y", "11 1", ".end", ".inputs c"], None),
        ([".model t", ".inputs a", ".outputs y", ".names a y", "1 1", ".end", ".inputs y"],
         None),
        (HEAD[:2] + [".outputs y c", ".names a b y", "11 1", ".end", ".inputs c"],
         "output 'c' is never defined"),
        # .inputs split around built blocks, a constant among them, and
        # then with a name repeated on the late line.
        ([".model t", ".inputs a", ".outputs y", ".names k", "1", ".names a k t", "11 1",
          ".inputs b", ".names t b y", "10 1", ".inputs c"], None),
        ([".model t", ".inputs a", ".outputs y", ".names k", "1", ".names a k t", "11 1",
          ".inputs b a", ".names t b y", "10 1"], "duplicate input 'a'"),
        # A late .inputs that names the output of a built block that a
        # later block reads.
        ([".model t", ".inputs a", ".outputs y", ".names a t", "0 1", ".names t y", "1 1",
          ".inputs b t"], "input 't' also defined by .names"),
        # An unsupported construct before a late .inputs that repeats a
        # name: the error in the read comes first.
        (HEAD + [".names a b t", "11 1", ".latch t q", ".inputs a", ".names t y", "1 1"],
         "line 6: unsupported construct '.latch'"),
    ])
    def test_reads_as_the_oracle(self, lines, error):
        text = "\n".join(lines + [".end"]) + "\n"
        assert_reads_as_the_oracle(text)
        if error is None:
            parse_blif(text)
            return
        with pytest.raises(NetlistError) as exc:
            parse_blif(text)
        assert str(exc.value) == error


class TestCoverTable:
    """Each distinct ``(arity, cover body)`` is decoded once per parse."""

    def test_same_rows_at_another_arity_are_decoded_again(self):
        text = ".model t\n.inputs a\n.outputs c\n.names a b\n1 1\n.names a b c\n1 1\n.end\n"
        assert_reads_as_the_oracle(text)
        with pytest.raises(NetlistError) as exc:
            parse_blif(text)
        assert str(exc.value) == "line 7: malformed cover row"

    def test_identical_covers_are_decoded_once_per_call(self, monkeypatch):
        decoded = []
        cover_tt = netlist._cover_tt

        def counting(body, arity, no):
            decoded.append((arity, body))
            return cover_tt(body, arity, no)

        monkeypatch.setattr(netlist, "_cover_tt", counting)
        text = (".model t\n.inputs a b c\n.outputs y\n.names a b t1\n11 1\n"
                ".names b c t2\n11 1\n.names t1 t2 t3\n11 1\n.names t3 c t4\n1- 1\n"
                "-1 1\n.names t4 y\n0 1\n.names t4 t5\n0 1\n.end\n")
        parse_blif(text)
        assert decoded == [(2, "\n11 1"), (2, "\n1- 1\n-1 1"), (1, "\n0 1")]
        parse_blif(text)
        assert len(decoded) == 6

    @pytest.mark.parametrize("make", [
        lambda: adder_miter(8),
        lambda: and_under_inverters(300),
        lambda: random_network(random.Random(7), 64, 2000, max_k=6, po_count=32,
                               fresh_bias=0.6),
    ], ids=["adder_miter8", "chain300", "rand2000"])
    def test_written_nets_read_as_the_oracle_and_round_trip(self, make):
        text = write_blif(make())
        assert_reads_as_the_oracle(text)
        assert write_blif(parse_blif(text)) == text


#: Definitions in reverse dependency order, a PO alias of a LUT (``z``)
#: and of a PI (``w``), and an AND of two constants that the file
#: defines after it (``t4`` before ``t3``).
OUT_OF_ORDER_BLIF = """\
.model ooo
.inputs a b c
.outputs y z w k
.names t1 c y
10 1
01 1
.names t2 b t1
1- 1
-1 1
.names y z
0 0
.names a b t2
11 0
.names a w
0 0
.names t3 t4 k
11 1
.names t4
0
.names t3
1
.end
"""


class TestGoldenParse:
    """Ids follow the dependency-ordered DFS, defined in file order."""

    def test_out_of_order_file(self):
        net = parse_blif(OUT_OF_ORDER_BLIF)
        assert [(n.id, n.fanins, n.tt) for n in net.nodes] == [
            (0, [], 0), (1, [], 0), (2, [], 0), (3, [0, 1], 7), (4, [3, 1], 14),
            (5, [4, 2], 6), (6, [], 0), (7, [], 1), (8, [7, 6], 8)]
        assert net.names == {"a": 0, "b": 1, "c": 2, "t2": 3, "t1": 4, "y": 5, "t4": 6,
                             "t3": 7, "k": 8, "z": 5, "w": 0}
        assert net.pis == [0, 1, 2]
        assert net.pos == [(5, False), (5, False), (0, False), (8, False)]
        assert net.po_names == ["y", "z", "w", "k"]

    @pytest.mark.parametrize("n_pi, n_luts, max_k", [
        (2, 1, 1), (4, 10, 2), (8, 50, 4), (16, 200, 6), (32, 700, 4), (64, 2000, 6)])
    def test_written_file_reads_back_to_the_same_bytes(self, n_pi, n_luts, max_k):
        net = random_network(random.Random(n_luts), n_pi, n_luts, max_k=max_k, po_count=8)
        text = write_blif(net)
        # An inverted PO's inverter reads back as a LUT; it is written
        # ahead of every PO buffer, so nothing moves in the rewrite.
        assert write_blif(parse_blif(text)) == text
        net.pos = [(driver, False) for driver, _ in net.pos]
        text = write_blif(net)
        assert write_blif(parse_blif(text)) == text


class TestWriteBlif:
    def test_round_trip_preserves_po_tables(self):
        rng = random.Random(5)
        for _ in range(20):
            net = random_network(rng, rng.randint(2, 6), rng.randint(3, 15), po_count=2)
            back = parse_blif(write_blif(net))
            assert po_tables(back) == po_tables(net)

    def test_round_trip_isomorphic_without_po_phases(self):
        rng = random.Random(6)
        for _ in range(10):
            net = random_network(rng, 4, 10, po_count=2)
            net.pos = [(d, False) for d, _ in net.pos]
            back = parse_blif(write_blif(net))
            assert len(back.pis) == len(net.pis)
            assert back.n_luts() == net.n_luts()
            assert po_tables(back) == po_tables(net)

    def test_inverted_po_materializes_inverter(self):
        net = parse_blif(AND_BLIF)
        net.pos = [(net.pos[0][0], True)]
        back = parse_blif(write_blif(net))
        assert back.n_luts() == net.n_luts() + 1
        assert po_tables(back) == po_tables(net)

    @staticmethod
    def xor_net() -> tuple[Network, int, int]:
        net = Network("named")
        a, b = net.add_pi("a"), net.add_pi("b")
        return net, a, net.add_lut([a, b], 0b0110)

    @pytest.mark.parametrize("case", ["pi_driver", "shared_lut", "inverted"])
    def test_po_names_round_trip(self, case):
        net, a, g = self.xor_net()
        if case == "pi_driver":
            net.add_po(g, name="y")
            net.add_po(a, name="copy_of_a")
        elif case == "shared_lut":
            net.add_po(g, name="p")
            net.add_po(g, name="q")
        else:
            net.add_po(g, inverted=True, name="nx")
            net.add_po(g, name="x")
        back = parse_blif(write_blif(net))
        assert back.po_names == net.po_names
        assert po_tables(back) == po_tables(net)
        # Only the inverter is a new LUT; the buffers read back as aliases.
        assert back.n_luts() == net.n_luts() + (case == "inverted")

    def test_own_lut_drivers_round_trip_with_same_lut_count(self):
        rng = random.Random(8)
        checked = 0
        while checked < 10:
            net = random_network(rng, 5, 15, po_count=3)
            drivers = [d for d, _ in net.pos]
            if len(set(drivers)) < len(drivers) or any(net.nodes[d].is_pi for d in drivers):
                continue
            net.pos = [(d, False) for d in drivers]
            net.po_names = ["s", "t", "u"]
            back = parse_blif(write_blif(net))
            assert back.po_names == net.po_names
            assert back.n_luts() == net.n_luts()
            assert po_tables(back) == po_tables(net)
            checked += 1

    def test_po_name_wins_over_a_stored_signal_name(self):
        net = parse_blif(AND_BLIF)
        (g, _), = net.pos
        h = net.add_lut([g], 0b01)
        net.pos = [(h, False)]
        text = write_blif(net)
        assert ".outputs y" in text.splitlines()
        back = parse_blif(text)
        assert back.po_names == ["y"] and back.n_luts() == 2
        assert po_tables(back) == po_tables(net)

    def test_rows_are_the_set_minterms_in_order(self):
        # Arities on both sides of the 8-input cube table.
        rng = random.Random(9)
        net = Network("wide")
        pis = [net.add_pi(f"p{i}") for i in range(12)]
        for k in range(1, 13):
            net.add_po(net.add_lut(pis[:k], rng.getrandbits(1 << k)), name=f"g{k}")
        blocks = write_blif(net).removesuffix(".end\n").split(".names ")[1:]
        for k, block in enumerate(blocks, start=1):
            tt = net.nodes[net.pos[k - 1][0]].tt
            rows = [f"{v:0{k}b} 1" for v in range(1 << k) if tt >> v & 1]
            assert block.rstrip().split("\n")[1:] == rows
        back = parse_blif(write_blif(net))
        assert [n.tt for n in back.nodes] == [n.tt for n in net.nodes]

    def test_on_set_buffer_stays_a_lut(self):
        text = ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"
        net = parse_blif(text)
        assert net.n_luts() == 1 and net.pos == [(net.names["y"], False)]


class TestParseAiger:
    def test_single_and(self):
        text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"
        net = parse_aiger_ascii(text)
        assert net.n_luts() == 1
        gate = net.nodes[net.pos[0][0]]
        assert gate.tt == 0b1000 and net.pos[0][1] is False

    def test_inverted_output(self):
        text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n"
        net = parse_aiger_ascii(text)
        assert net.pos[0][1] is True

    def test_inverted_edges_absorbed(self):
        # y = AND(~a, b): tt over (a, b) is 0010.
        text = "aag 3 2 0 1 1\n2\n4\n6\n6 3 4\n"
        net = parse_aiger_ascii(text)
        assert net.nodes[net.pos[0][0]].tt == 0b0010
        assert net.n_luts() == 1

    def test_three_gate_chain_matches_reference(self):
        # o = AND(AND(a,~b), ~AND(b,c)) with an inverted output.
        text = "aag 5 3 0 1 2\n2\n4\n6\n11\n8 2 5\n10 8 9\n"
        net = parse_aiger_ascii(text)

        # Independent evaluation straight from the literal semantics.
        def aig_eval(a, b, c):
            val = {0: False, 1: True, 2: a, 4: b, 6: c}
            def lit(l):
                if l in val:
                    return val[l]
                return not val[l ^ 1] if (l ^ 1) in val else None
            val[8] = lit(2) and lit(5)
            val[10] = lit(8) and lit(9)
            return not val[10]  # output literal 11

        tables = exhaustive_tables(net)
        driver, phase = net.pos[0]
        for v in range(8):
            a, b, c = bool(v >> 2 & 1), bool(v >> 1 & 1), bool(v & 1)
            got = bool(tables[driver] >> v & 1) ^ phase
            assert got == aig_eval(a, b, c)

    def test_header_errors(self):
        with pytest.raises(NetlistError):
            parse_aiger_ascii("aig 1 1 0 0 0\n2\n")
        with pytest.raises(NetlistError, match="latch"):
            parse_aiger_ascii("aag 2 1 1 0 0\n2\n4 2\n")

    def test_constant_output(self):
        net = parse_aiger_ascii("aag 1 1 0 1 0\n2\n1\n")
        driver, phase = net.pos[0]
        assert net.nodes[driver].arity == 0 and phase is True

    @pytest.mark.parametrize("text", [
        "aag 1 1 0 1 0\nx\n2\n",
        "aag 1 1 0 1 0\n2\ny\n",
        "aag 3 2 0 1 1\n2\n4\n6\n6 2 z\n",
        "aag 1 -1 0 1 0\n",
    ], ids=["input", "output", "and", "negative_count"])
    def test_bad_number_is_a_netlist_error(self, text):
        with pytest.raises(NetlistError, match="line|header"):
            parse_aiger_ascii(text)

    def test_repeated_input_literal(self):
        # Two PIs on one literal would leave the first one dangling.
        with pytest.raises(NetlistError, match="input literal 2 listed twice"):
            parse_aiger_ascii("aag 1 2 0 1 0\n2\n2\n2\n")

    def test_input_literal_above_maxvar(self):
        with pytest.raises(NetlistError, match="bad input literal 6"):
            parse_aiger_ascii("aag 1 1 0 1 0\n6\n6\n")

    def test_cyclic_definition(self):
        with pytest.raises(NetlistError, match=r"[Cc]ycl.* 4$"):
            parse_aiger_ascii("aag 3 1 0 1 2\n2\n4\n4 6 2\n6 4 2\n")

    def test_undefined_and_input(self):
        with pytest.raises(NetlistError, match=r" 6 is never defined"):
            parse_aiger_ascii("aag 3 1 0 1 1\n2\n4\n4 6 2\n")

    def test_constant_is_numbered_where_the_walk_reaches_it(self):
        # AND 6 reads literal 1 as its last fanin, so the walk reaches the
        # constant before AND 4, which AND 6 lists first.
        net = parse_aiger_ascii("aag 3 1 0 1 2\n2\n6\n6 4 1\n4 2 2\n")
        const, and4, and6 = 1, 2, 3
        assert net.nodes[const].arity == 0 and net.nodes[const].tt == 0
        assert net.nodes[and4].fanins == [0, 0]
        assert net.nodes[and6].fanins == [and4, const]
        assert net.pos == [(and6, False)]

    def test_and_defining_an_input_literal(self):
        # The AND would be dropped and its undefined literal 4 never checked.
        with pytest.raises(NetlistError, match="AND output literal 2 is an input"):
            parse_aiger_ascii("aag 2 1 0 1 1\n2\n2\n2 4 4\n")


#: Valid inputs that the fuzz tests below mutate.
_FUZZ_SEEDS = [
    (parse_blif, AND_BLIF),
    (parse_blif, NAND_BLIF),
    (parse_blif, ".model t\n.inputs a b c\n.outputs y z\n.names a b c y\n1-- 1\n"
                 "0-1 1\n.names y \\\n z\n0 1\n.end\n"),
    (parse_aiger_ascii, "aag 5 3 0 1 2\n2\n4\n6\n11\n8 2 5\n10 8 9\n"),
    (parse_aiger_ascii, "aag 3 2 0 2 1\n2\n4\n6\n1\n6 3 4\n"),
]

#: Characters that the parsers give meaning to, mixed into mutations.
_FUZZ_ALPHABET = st.sampled_from(list("01-.# \\\n\r\f\tagx9") + [".names", ".inputs", ".end"])


def _parses_or_rejects(parse, text):
    try:
        parse(text)
    except NetlistError:
        pass


class TestParserFuzz:
    """Malformed input raises NetlistError and nothing else, and the BLIF
    reader agrees with the reference reader."""

    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text(self, text):
        assert_reads_as_the_oracle(text)
        _parses_or_rejects(parse_aiger_ascii, text)
        _parses_or_rejects(parse_aiger_ascii, "aag " + text)

    @given(st.sampled_from(_FUZZ_SEEDS), st.lists(
        st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 10 ** 6),
                  st.one_of(_FUZZ_ALPHABET, st.characters())),
        min_size=1, max_size=6))
    @settings(max_examples=400, deadline=None)
    def test_mutated_valid_files(self, seed, edits):
        parse, text = seed
        for kind, pos, chars in edits:
            pos %= len(text) + 1
            if kind == "insert":
                text = text[:pos] + chars + text[pos:]
            elif kind == "replace":
                text = text[:pos] + chars + text[pos + 1:]
            else:
                text = text[:pos] + text[pos + 1:]
        if parse is parse_blif:
            assert_reads_as_the_oracle(text)
        else:
            _parses_or_rejects(parse, text)


class TestTraversal:
    def chain(self):
        net = Network()
        a = net.add_pi()
        b = net.add_lut([a], 0b01)
        c = net.add_lut([b], 0b01)
        return net, a, b, c

    def test_topo_chain(self):
        net, a, b, c = self.chain()
        assert net.topo_order() == [a, b, c]

    def test_diamond_tiebreak_unique(self):
        net = Network()
        a = net.add_pi()
        l = net.add_lut([a], 0b01)
        r = net.add_lut([a], 0b10)
        top = net.add_lut([l, r], 0b1000)
        assert net.topo_order() == [a, l, r, top]

    def test_topo_validates_on_random_dags(self):
        rng = random.Random(11)
        for _ in range(20):
            net = random_network(rng, 4, 20)
            order = net.topo_order()
            pos = {nid: i for i, nid in enumerate(order)}
            for nid in order:
                for f in net.nodes[nid].fanins:
                    assert pos[f] < pos[nid]

    def test_ascending_ids_match_the_heap_order(self):
        rng = random.Random(16)
        for _ in range(30):
            net = random_network(rng, rng.randint(1, 6), rng.randint(0, 40), max_k=5)
            assert net.topo_order() == heap_topo_order(net) == net.live_ids()

    def test_order_after_edits_that_read_higher_ids(self):
        rng = random.Random(17)
        edited = 0
        for _ in range(40):
            net = random_network(rng, 4, 25, po_count=3)
            gates = [n.id for n in net.nodes if not n.is_pi and n.fanouts]
            if rng.random() < 0.5:
                constant_prop(net, [(gates[rng.randrange(len(gates))], rng.random() < 0.5)])
            else:
                # A node appended after the net now drives the readers
                # of an early gate, so those readers read a higher id.
                old = gates[0]
                new = net.add_lut([net.pis[0], net.pis[1]], rng.getrandbits(4))
                net.substitute_node(old, new)
            reads_higher = any(f > nid for nid in net.live_ids() for f in net.nodes[nid].fanins)
            edited += reads_higher
            order = net.topo_order()
            assert_topological(net, order)
            assert order == heap_topo_order(net)
        assert edited > 20

    @pytest.mark.parametrize("loop", ["self", "pair"])
    def test_hand_made_cycle_raises(self, loop):
        net = Network()
        a = net.add_pi()
        g = net.add_lut([a], 0b10)
        h = net.add_lut([g], 0b01)
        net.add_po(h)
        # Point g's fanin at itself or at its own reader h.
        back = g if loop == "self" else h
        net.nodes[g].fanins[0] = back
        net.nodes[a].fanouts.remove(g)
        net.nodes[back].fanouts.append(g)
        with pytest.raises(CycleError):
            net.topo_order()

    def test_transitive_fanin(self):
        net, a, b, c = self.chain()
        assert net.transitive_fanin(a, 100) == []  # PI
        assert net.transitive_fanin(c, 0) == []
        assert set(net.transitive_fanin(c, 100)) == {b, c}

    def test_transitive_fanin_matches_closure(self):
        rng = random.Random(12)
        net = random_network(rng, 4, 20)
        for nid in net.live_ids():
            got = set(net.transitive_fanin(nid, 10 ** 6))
            expected = set()
            if not net.nodes[nid].is_pi:
                stack = [nid]
                while stack:
                    cur = stack.pop()
                    if cur in expected or net.nodes[cur].is_pi:
                        continue
                    expected.add(cur)
                    stack.extend(net.nodes[cur].fanins)
            assert got == expected

    def test_transitive_fanin_bound(self):
        rng = random.Random(13)
        net = random_network(rng, 4, 30)
        # The lowest id that no node reads.
        nid = min(n for n in net.live_ids() if not net.nodes[n].fanouts)
        assert nid == 10
        full = net.transitive_fanin(nid, 10 ** 6)
        if len(full) > 3:
            assert len(net.transitive_fanin(nid, 3)) == 3

    def test_is_in_tfo(self):
        net, a, b, c = self.chain()
        assert net.is_in_tfo(a, c)
        assert net.is_in_tfo(a, a)
        assert not net.is_in_tfo(c, a)

    def test_is_in_tfo_matches_closure(self):
        rng = random.Random(14)
        net = random_network(rng, 3, 15)
        ids = net.live_ids()
        reach = {nid: {nid} for nid in ids}
        for nid in reversed(net.topo_order()):
            for f in net.nodes[nid].fanins:
                reach[f] |= reach[nid]
        for x in ids:
            for y in ids:
                assert net.is_in_tfo(x, y) == (y in reach[x])


class TestEdits:
    def test_merge_duplicate_and(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g1 = net.add_lut([a, b], 0b1000)
        g2 = net.add_lut([a, b], 0b1000)
        top = net.add_lut([g1, g2], 0b1110)
        net.add_po(top)
        net.substitute_node(g2, g1)
        assert net.nodes[g2].dead
        assert net.nodes[top].fanins == [g1, g1]
        assert net.remove_dead() == 0

    def test_inverted_substitution_preserves_function(self):
        rng = random.Random(21)
        for _ in range(30):
            net = random_network(rng, 4, 12, po_count=2)
            gates = [n.id for n in net.nodes if not n.is_pi and n.fanouts]
            if not gates:
                continue
            old = gates[rng.randrange(len(gates))]
            inv = net.add_lut([old], 0b01)
            before = po_tables(net)
            # Replace every reader of old by the inverter, inverted phase.
            try:
                net.substitute_node(old, inv, inverted=True)
            except NetlistError:
                continue  # inverter reads old: rejected cycle, expected
            assert po_tables(net) == before

    def test_substitution_updates_po_phase(self):
        net = Network()
        a = net.add_pi()
        g = net.add_lut([a], 0b10)  # buffer
        h = net.add_lut([a], 0b01)  # inverter
        net.add_po(g, inverted=False)
        net.substitute_node(g, h, inverted=True)
        assert net.pos[0] == (h, True)

    def test_cycle_rejected(self):
        net = Network()
        a = net.add_pi()
        g = net.add_lut([a], 0b01)
        h = net.add_lut([g], 0b01)
        with pytest.raises(NetlistError, match="cycle"):
            net.substitute_node(g, h)

    def test_merged_buffer_chain_leaves_only_live_fanouts(self):
        net = Network()
        top = net.add_lut([net.add_pi(), net.add_pi()], 0b1000)
        chain = [net.add_lut([top], 0b10)]
        for _ in range(999):
            chain.append(net.add_lut([chain[-1]], 0b10))
        net.add_po(chain[-1])
        for i, buf in enumerate(chain):
            net.substitute_node(buf, top)
            assert net.nodes[buf].dead
            assert net.nodes[top].fanouts == chain[i + 1:i + 2]
        assert net.pos == [(top, False)]

    def test_fanouts_track_live_readers_without_remove_dead(self):
        rng = random.Random(33)
        done = 0
        for _ in range(40):
            net = random_network(rng, 4, 20, po_count=2)
            gates = [n.id for n in net.nodes if not n.is_pi]
            old, new = rng.sample(gates, 2)
            try:
                net.substitute_node(old, new, inverted=rng.random() < 0.5)
            except NetlistError:
                continue
            done += 1
            # ``old`` is dead at once, and no fanout list names it.
            assert net.nodes[old].dead
            readers = {nid: [] for nid in range(len(net.nodes))}
            for nid in net.live_ids():
                for f in net.nodes[nid].fanins:
                    readers[f].append(nid)
            for nid in net.live_ids():
                assert sorted(net.nodes[nid].fanouts) == readers[nid]
        assert done > 20

    def test_self_substitution_rejected(self):
        net = Network()
        a = net.add_pi()
        g = net.add_lut([a], 0b01)
        with pytest.raises(NetlistError):
            net.substitute_node(g, g)

    def test_remove_dead_counts(self):
        net = Network()
        a = net.add_pi()
        used = net.add_lut([a], 0b01)
        unused = net.add_lut([a], 0b10)
        net.add_po(used)
        assert net.remove_dead() == 1
        assert net.nodes[unused].dead
        assert not net.nodes[a].dead  # PIs survive
        # After a chain of merges, what survives is the POs' cone.
        rng = random.Random(35)
        net = random_network(rng, 5, 60, po_count=3)
        merges = 0
        for _ in range(30):
            old, new = rng.sample([n.id for n in net.nodes if not n.is_pi and not n.dead], 2)
            try:
                net.substitute_node(old, new, inverted=rng.random() < 0.5)
            except NetlistError:
                continue
            merges += 1
        assert merges > 5
        net.remove_dead()
        cone = net.cone([d for d, _ in net.pos])
        assert [nid for nid in net.live_ids() if not net.nodes[nid].is_pi] == \
            sorted(nid for nid in cone if not net.nodes[nid].is_pi)

    def test_fanout_counts_match_in_edges(self):
        rng = random.Random(31)
        net = random_network(rng, 4, 20, po_count=2)
        gates = [n.id for n in net.nodes if not n.is_pi]
        for _ in range(5):
            old = gates[rng.randrange(len(gates))]
            new = gates[rng.randrange(len(gates))]
            if old == new or net.nodes[old].dead or net.nodes[new].dead:
                continue
            try:
                net.substitute_node(old, new)
            except NetlistError:
                continue
            net.remove_dead()
            tally = {nid: 0 for nid in net.live_ids()}
            for nid in net.live_ids():
                for f in net.nodes[nid].fanins:
                    tally[f] += 1
            for nid in net.live_ids():
                assert len(net.nodes[nid].fanouts) == tally[nid]

    def test_flip_tt_input(self):
        # AND(a, b) with first input complemented is ~a & b.
        assert flip_tt_input(0b1000, 2, 0) == 0b0010
        assert flip_tt_input(0b1000, 2, 1) == 0b0100
        # Bit v of the flipped row is bit v ^ (1 << (arity - 1 - pos)) of tt.
        rng = random.Random(5)
        for arity in list(range(1, 13)) + [16]:
            size = 1 << arity
            tt = rng.getrandbits(size)
            bits = format(tt, f"0{size}b")[::-1]
            for pos in range(arity):
                s = 1 << (arity - 1 - pos)
                want = int("".join(bits[v ^ s] for v in range(size))[::-1], 2)
                assert flip_tt_input(tt, arity, pos) == want, (arity, pos)

    def test_exhaustive_check_after_random_substitutions(self):
        rng = random.Random(41)
        for _ in range(10):
            net = random_network(rng, 4, 15, po_count=2)
            tables = exhaustive_tables(net)
            gates = [n.id for n in net.nodes if not n.is_pi]
            # Substitute any truly-equal pair, then verify PO functions.
            before = po_tables(net)
            done = False
            for x in gates:
                for y in gates:
                    if x >= y or net.nodes[x].dead or net.nodes[y].dead:
                        continue
                    if tables[x] == tables[y] and not net.is_in_tfo(y, x):
                        net.substitute_node(y, x)
                        done = True
                        break
                if done:
                    break
            net.remove_dead()
            assert po_tables(net) == before


def decorated_network(seed: int, n_pi: int, n_gates: int, max_k: int) -> Network:
    """A random net, then constants, buffers, inverters, copies of LUTs and
    LUTs that read one node twice, each read by a new LUT that drives a
    PO: every case that strash folds, next to logic that it keeps."""
    rng = random.Random(seed)
    net = random_network(rng, n_pi, n_gates, max_k=max_k, po_count=rng.randint(1, 4))
    for _ in range(rng.randint(0, 12)):
        live = net.live_ids()
        kind = rng.randrange(5)
        if kind == 0:
            nid = net.add_lut([], rng.getrandbits(1))
        elif kind == 1:
            nid = net.add_lut([rng.choice(live)], rng.choice([0b01, 0b10]))
        elif kind == 2:
            node = net.nodes[rng.choice(live)]
            if node.is_pi:
                continue
            nid = net.add_lut(list(node.fanins), node.tt)
        else:
            x = rng.choice(live)
            fanins = [x, x] if kind == 3 else [x, rng.choice(live), x]
            nid = net.add_lut(fanins, rng.getrandbits(1 << len(fanins)))
        top = net.add_lut([nid, rng.choice(live)], rng.getrandbits(4))
        net.add_po(top, inverted=bool(rng.getrandbits(1)))
    return net


def strash_as_the_oracle(net: Network) -> tuple[int, int, int | None]:
    """Strash ``net``, and check that it leaves the network the
    substituting reference leaves on a copy: every node's fanins, table,
    dead flag and readers, the POs and the result.  Strash's record of
    merges must be the reference's substitutions, in order.  Returns
    strash's result."""
    expected = net.clone()
    substitutions = []
    substitute = Network.substitute_node

    def recording(self, old, new, inverted=False, **kwargs):
        substitutions.append((old, new, inverted))
        substitute(self, old, new, inverted, **kwargs)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(Network, "substitute_node", recording)
        result = strash_oracle.strash(expected)
    rep, merges, const0 = _strash(net)
    assert (merges, len(rep) - merges, const0) == result
    assert [(old, new, inverted) for old, (new, inverted) in rep.items()] == substitutions
    assert net.pos == expected.pos
    assert len(net.nodes) == len(expected.nodes)
    for node, want in zip(net.nodes, expected.nodes):
        assert (node.fanins, node.tt, node.dead) == (want.fanins, want.tt, want.dead), node.id
        assert sorted(node.fanouts) == sorted(want.fanouts), node.id
    return result


def strash_checked(net: Network) -> tuple[int, int, int | None]:
    """Strash ``net``, and check that it strashes as the oracle, that
    every PO keeps its exhaustive table and that nothing is left to fold
    or merge.  Returns strash's result."""
    tables = lookup_tables(net)
    before = [tables[d] ^ phase for d, phase in net.pos]
    n_luts, n_nodes = net.n_luts(), len(net.nodes)
    merges, constants, const0 = strash_as_the_oracle(net)
    tables = lookup_tables(net)
    for want, (d, phase) in zip(before, net.pos, strict=True):
        assert (tables[d] ^ phase == want).all()
    # Each merge and each constant kills a LUT; one constant-0 LUT may be new.
    assert net.n_luts() <= n_luts - merges - constants + len(net.nodes) - n_nodes
    keys, readers = set(), {nid: [] for nid in net.live_ids()}
    for nid in net.topo_order():
        node = net.nodes[nid]
        for f in node.fanins:
            readers[f].append(nid)
        if node.is_pi:
            continue
        if not node.fanins:
            assert (nid, node.tt) == (const0, 0)
            continue
        assert len(node.fanins) >= 2 and len(set(node.fanins)) == len(node.fanins)
        assert const0 not in node.fanins
        assert _reduce_lut(node.fanins, node.tt, None) == (list(range(node.arity)), node.tt)
        assert (tuple(node.fanins), node.tt) not in keys
        keys.add((tuple(node.fanins), node.tt))
    for nid, reading in readers.items():
        assert sorted(net.nodes[nid].fanouts) == reading
    assert strash(net) == (0, 0, const0)
    return merges, constants, const0


def reduced_by_minterms(fanins, tt, const0):
    """The oracle of :func:`_reduce_lut`: the needed positions, found and
    tabulated one assignment of the distinct non-constant fanins at a
    time."""
    signals = sorted({f for f in fanins if f != const0})

    def value(assignment):
        v = 0
        for f in fanins:
            v = v << 1 | (0 if f == const0 else assignment[f])
        return tt >> v & 1

    def table(over):
        rows = 0
        for v in range(1 << len(signals)):
            assignment = {f: v >> (len(signals) - 1 - i) & 1 for i, f in enumerate(signals)}
            rows |= value(assignment) << sum(assignment[f] << (len(over) - 1 - i)
                                             for i, f in enumerate(over))
        return rows

    full = table(signals)
    needed = {f for i, f in enumerate(signals)
              if any(full >> v & 1 != full >> (v ^ 1 << (len(signals) - 1 - i)) & 1
                     for v in range(1 << len(signals)))}
    keep = [p for p, f in enumerate(fanins) if f in needed and fanins.index(f) == p]
    return keep, table([fanins[p] for p in keep])


class TestStrash:
    """Strash leaves the network the substituting oracle leaves, keeps
    every PO's exhaustive table, leaves no LUT to fold or merge, and
    finds nothing on a second pass."""

    def test_reduction_matches_the_minterm_oracle(self):
        rng = random.Random(3)
        for _ in range(3000):
            arity = rng.randint(0, 6)
            fanins = [rng.randrange(4) for _ in range(arity)]
            tt = rng.getrandbits(1 << arity)
            const0 = rng.choice([None, 0, 1])
            assert _reduce_lut(fanins, tt, const0) == reduced_by_minterms(fanins, tt, const0)

    def test_sweep_fixtures_and_adder_miters(self):
        for seed in range(20):
            strash_checked(sweep_fixture(seed))
        for width in range(3, 9):
            # The two adders share each bit's propagate and generate LUT.
            merges, constants, _ = strash_checked(adder_miter(width))
            assert merges >= 2 * width and constants == 0

    @given(st.integers(0, 2 ** 32), st.integers(1, 12), st.integers(1, 60), st.integers(1, 6))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_nets(self, seed, n_pi, n_gates, max_k):
        strash_checked(decorated_network(seed, n_pi, n_gates, max_k))

    def test_large_nets_strash_as_the_oracle(self):
        assert strash_checked(and_under_inverters(300)) == (300, 0, None)
        # 64 PIs each, too many for exhaustive tables: the oracle alone.
        strash_as_the_oracle(adder_miter(32))
        strash_as_the_oracle(random_network(random.Random(7), 64, 2000, max_k=6, po_count=32,
                                            fresh_bias=0.6))

    def test_a_po_on_every_absorbed_inverter(self, monkeypatch):
        # Counted, not timed: no merge rewires its readers or scans the
        # POs, so 20,000 inverters that each drive a PO take one walk.
        def refuse(*args, **kwargs):
            raise AssertionError("substitute_node called")

        net = Network()
        top = net.add_lut([net.add_pi(), net.add_pi()], 0b1000)
        s = top
        for _ in range(20_000):
            s = net.add_lut([s], 0b01)
            net.add_po(s)
        monkeypatch.setattr(Network, "substitute_node", refuse)
        assert strash(net) == (20_000, 0, None)
        # Inverter j computes the AND complemented j + 1 times.
        assert net.pos == [(top, j % 2 == 0) for j in range(20_000)]
        assert strash(net) == (0, 0, None)

    def test_inverter_chain_folds_into_po_phases(self):
        net = Network()
        top = net.add_lut([net.add_pi(), net.add_pi()], 0b1000)
        s = top
        for j in range(7):
            s = net.add_lut([s], 0b01)
            net.add_po(s)
        assert strash_checked(net) == (7, 0, None)
        assert net.pos == [(top, j % 2 == 0) for j in range(7)]

    def test_the_first_constant_0_is_the_shared_one(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        one = net.add_lut([a], 0b11)
        zero = net.add_lut([a, b], 0b0000)
        net.add_po(net.add_lut([one, b], 0b1000))  # = b
        net.add_po(zero)
        net.add_po(one, inverted=True)
        n_nodes = len(net.nodes)
        # The constant 1 comes first, so a new constant-0 LUT is added,
        # and the 0 that follows merges onto it.
        merges, constants, const0 = strash_checked(net)
        assert (merges, constants, const0) == (1, 2, n_nodes)
        assert net.pos == [(b, False), (const0, False), (const0, False)]
        net = Network()
        a = net.add_pi()
        zero = net.add_lut([a], 0b00)
        one = net.add_lut([], 1)
        net.add_po(net.add_lut([zero, a], 0b0010))  # ~zero & a = a
        net.add_po(one)
        # A 0 first: that LUT becomes the shared one, reading nothing.
        assert strash_checked(net) == (1, 1, zero)
        assert net.nodes[zero].fanins == [] and net.pos == [(a, False), (zero, True)]

    def test_duplicates_merge_onto_the_earliest(self):
        net = Network()
        a, b, c = net.add_pi(), net.add_pi(), net.add_pi()
        g1 = net.add_lut([a, b], 0b0110)
        h = net.add_lut([g1, c], 0b1000)
        g2 = net.add_lut([a, b], 0b0110)
        g3 = net.add_lut([a, b, a], 0b01100110)  # reads a twice: a ^ b
        net.add_po(h)
        net.add_po(net.add_lut([g2, c], 0b1000))
        net.add_po(g3)
        assert strash_checked(net) == (3, 0, None)
        assert net.pos == [(h, False), (h, False), (g1, False)]
