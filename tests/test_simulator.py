"""Pattern handling, bit-parallel simulation, cuts, exhaustive windows."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpsweep import (
    Network,
    PatternSet,
    Signature,
    SweepConfig,
    WindowTooLarge,
    exhaustive_window_sim,
    gen_random_patterns,
    parse_patterns,
    simulate_all,
    simulate_specified,
)
from stpsweep.simulate import (
    _MUX_MAX_ARITY,
    WINDOW_CAP,
    _eval_tt_gather,
    _simulate,
    circuit_cut,
    cut_truth_tables,
    eval_tt_words,
)
from stpsweep.netlist import _var_row
from helpers import bits_of, exhaustive_tables, random_network, scalar_signatures

NAND = 0b0111

PATTERN_BLOCK = """\
0111001011
1010011011
1110011000
0000011111
0010000101
"""


def two_target_example() -> tuple[Network, dict[str, int]]:
    """Five-PI network with two observation targets.

    Node 7 is a NAND over PIs 3 and 4; node 8 NANDs PI 2 with node 7,
    so the two targets share the three-PI support {2, 3, 4}.  Node 6
    NANDs PIs 1 and 3 and feeds only node 10; node 9 feeds only node
    11; nodes 10 and 11 drive the outputs.
    """
    net = Network("example")
    label = {}
    for i in range(1, 6):
        label[str(i)] = net.add_pi(str(i))
    label["6"] = net.add_lut([label["1"], label["3"]], NAND, name="6")
    label["7"] = net.add_lut([label["3"], label["4"]], NAND, name="7")
    label["8"] = net.add_lut([label["2"], label["7"]], NAND, name="8")
    label["9"] = net.add_lut([label["4"], label["5"]], NAND, name="9")
    label["10"] = net.add_lut([label["6"], label["8"]], NAND, name="10")
    label["11"] = net.add_lut([label["9"], label["7"]], NAND, name="11")
    net.add_po(label["10"], name="po1")
    net.add_po(label["11"], name="po2")
    return net, label


def structural_support(net: Network, target: int) -> list[int]:
    """The PIs that ``target`` reads, directly or through other nodes, in ascending id."""
    sup, seen, stack = set(), set(), [target]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        if net.nodes[cur].is_pi:
            sup.add(cur)
        else:
            stack.extend(net.nodes[cur].fanins)
    return sorted(sup)


def own_signature(net: Network, target: int) -> str:
    """A target's exhaustive signature over its own support, all-zeros pattern first."""
    wt = exhaustive_window_sim(net, [target])
    return Signature(wt.window_rows[target], 1 << len(wt.leaves)).to_string()


class TestPatterns:
    def test_generate_shape(self):
        p = gen_random_patterns(3, 10, 42)
        assert p.n_pis == 3 and p.n_patterns == 10
        assert all(0 <= r < (1 << 10) for r in p.rows)

    def test_generate_reproducible(self):
        assert gen_random_patterns(4, 100, 7).rows == gen_random_patterns(4, 100, 7).rows

    def test_bit_frequency(self):
        # Binomial five-sigma band around one half.
        p = gen_random_patterns(1, 10 ** 6, 3)
        ones = bin(p.rows[0]).count("1")
        n = 10 ** 6
        sigma = (n * 0.25) ** 0.5
        assert abs(ones - n / 2) < 5 * sigma

    def test_parse_first_pattern(self):
        p = parse_patterns(PATTERN_BLOCK, 5)
        assert p.n_patterns == 10
        assert "".join(str(r & 1) for r in p.rows) == "01100"

    def test_parse_single(self):
        p = parse_patterns("1\n", 1)
        assert p.n_patterns == 1 and p.rows == [1]

    def test_round_trip(self):
        p = gen_random_patterns(4, 37, 9)
        assert parse_patterns(p.to_text(), 4).rows == p.rows

    def test_parse_rejects_ragged(self):
        with pytest.raises(ValueError):
            parse_patterns("01\n0\n", 2)
        with pytest.raises(ValueError):
            parse_patterns("01\n0x\n", 2)


def scalar_lut_rows(tt: int, words: list[int], n: int) -> int:
    """Apply a LUT one pattern at a time, by table lookup."""
    out = 0
    for j in range(n):
        idx = 0
        for w in words:
            idx = (idx << 1) | ((w >> j) & 1)
        out |= ((tt >> idx) & 1) << j
    return out


def lut_tables(rng: random.Random, arity: int) -> list[int]:
    """Random, constant and input-ignoring truth rows of one arity."""
    size = 1 << arity
    tables = [rng.getrandbits(size), 0, (1 << size) - 1]
    for skip in range(arity):
        # Bit ``v`` copies the bit of ``v`` with input ``skip`` cleared,
        # so the row does not depend on that input.
        base = rng.getrandbits(size)
        bit = 1 << (arity - 1 - skip)
        tables.append(sum(((base >> (v & ~bit)) & 1) << v for v in range(size)))
    return tables


class TestEvalTtWords:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 2048])
    def test_matches_scalar_lookup(self, n):
        # Arities 0..10 reach both the mux tree and, above
        # _MUX_MAX_ARITY, the numpy gather.
        assert _MUX_MAX_ARITY < 10
        rng = random.Random(n)
        mask = (1 << n) - 1
        for arity in range(11):
            words = [rng.getrandbits(n) for _ in range(arity)]
            fanin_sets = [words]
            if arity >= 2:
                # The same fanin row read twice.
                fanin_sets.append(words[:-1] + [words[0]])
            for ws in fanin_sets:
                for tt in lut_tables(rng, arity):
                    expected = scalar_lut_rows(tt, ws, n)
                    assert eval_tt_words(tt, ws, mask) == expected, (arity, tt)
                    if arity:
                        assert _eval_tt_gather(tt, ws, mask) == expected, (arity, tt)

    def test_every_table_of_two_inputs(self):
        rng = random.Random(3)
        words = [rng.getrandbits(70), rng.getrandbits(70)]
        mask = (1 << 70) - 1
        for tt in range(16):
            assert eval_tt_words(tt, words, mask) == scalar_lut_rows(tt, words, 70)

    @pytest.mark.parametrize("arity", range(5))
    def test_every_table_on_exhaustive_rows_is_itself(self, arity):
        # Over the exhaustive rows of its inputs a LUT's output row is its
        # own table, through eval_tt_words and through _simulate alike.
        mask = (1 << (1 << arity)) - 1
        rows = [_var_row(i, arity) for i in range(arity)]
        net = Network()
        pis = [net.add_pi() for _ in range(arity)]
        lut = net.add_lut(pis, 0)
        for tt in range(mask + 1):
            assert eval_tt_words(tt, rows, mask) == tt, tt
            net.nodes[lut].tt = tt
            bits = dict(zip(pis, rows))
            _simulate(net, [lut], bits, mask)
            assert bits[lut] == tt, tt

    @pytest.mark.parametrize("arity", [3, 4])
    def test_every_table_of_three_and_four_inputs(self, arity):
        # These arities compute only the leaves that their nibbles name.
        rng = random.Random(arity)
        n = 70
        mask = (1 << n) - 1
        rows = [rng.getrandbits(n) for _ in range(arity)]
        # Distinct fanins; the last fanin read twice; the first read again last.
        for words in (rows, rows[:-1] + rows[-2:-1], rows[:-1] + rows[:1]):
            # The scalar lookup, grouped by the row bit each pattern reads:
            # ``reads[v]`` holds the patterns whose fanin values spell ``v``.
            reads = [0] * (1 << arity)
            for j in range(n):
                v = 0
                for w in words:
                    v = (v << 1) | ((w >> j) & 1)
                reads[v] |= 1 << j
            for tt in range(1 << (1 << arity)):
                expected = 0
                for v, patterns in enumerate(reads):
                    if (tt >> v) & 1:
                        expected |= patterns
                assert eval_tt_words(tt, words, mask) == expected, (words, tt)


class TestSimulateAll:
    def test_inverter_complements(self):
        net = Network()
        a = net.add_pi()
        inv = net.add_lut([a], 0b01)
        p = gen_random_patterns(1, 64, 5)
        sigs = simulate_all(net, p)
        assert sigs[inv].bits == p.rows[0] ^ p.mask

    def test_constant_zero_lut(self):
        net = Network()
        net.add_pi()
        c = net.add_lut([], 0)
        sigs = simulate_all(net, gen_random_patterns(1, 32, 1))
        assert sigs[c].bits == 0

    def test_nand_on_example_patterns(self):
        net, label = two_target_example()
        p = parse_patterns(PATTERN_BLOCK, 5)
        sigs = simulate_all(net, p)
        expected = (~(p.rows[label["1"]] & p.rows[label["3"]])) & p.mask
        assert sigs[label["6"]].bits == expected

    def test_matches_scalar_reference(self):
        rng = random.Random(77)
        # LUTs of more than 9 inputs take the numpy gather path.  Nets of
        # 5- and 6-input LUTs, which hold most of a 6-LUT net's row
        # operations, run over rows of more than one machine word.
        cases = [(max_k, None) for max_k in [4] * 15 + [7, 8, 9, 10]]
        cases += [(max_k, n) for max_k in (5, 6) for n in (65, 130) for _ in range(3)]
        for max_k, n in cases:
            net = random_network(rng, rng.randint(2, 6), rng.randint(3, 30), max_k=max_k)
            p = gen_random_patterns(len(net.pis), n or rng.randint(1, 70), rng.randrange(99))
            sigs = simulate_all(net, p)
            ref = scalar_signatures(net, p)
            for nid, seq in ref.items():
                assert sigs[nid].bits == bits_of(seq), f"node {nid}"

    def test_pi_count_mismatch(self):
        net, _ = two_target_example()
        with pytest.raises(ValueError):
            simulate_all(net, gen_random_patterns(3, 8, 1))


class TestCircuitCut:
    def test_single_nand_target(self):
        net, label = two_target_example()
        cs = circuit_cut(net, 3, [label["7"]])
        assert cs.roots == [label["7"]]
        assert cs.cuts[label["7"]].leaves == sorted([label["3"], label["4"]])

    def test_example_network_partition(self):
        net, label = two_target_example()
        targets = [label["7"], label["8"]]
        cs = circuit_cut(net, 3, targets, scope="network")
        got = {tuple(sorted(c.members)) for c in cs.cuts.values()}
        expected = {
            (label["6"], label["10"]),
            (label["7"],),
            (label["8"],),
            (label["9"], label["11"]),
        }
        assert got == expected

    def test_cone_scope_covers_cone_and_respects_limits(self):
        rng = random.Random(8)
        for _ in range(25):
            net = random_network(rng, rng.randint(3, 6), rng.randint(5, 60))
            live_gates = [n.id for n in net.nodes if not n.is_pi and not n.dead]
            targets = rng.sample(live_gates, min(len(live_gates), rng.randint(1, 4)))
            limit = rng.randint(1, 6)
            cs = circuit_cut(net, limit, targets)
            cone = set()
            stack = list(targets)
            while stack:
                nid = stack.pop()
                if nid in cone or net.nodes[nid].is_pi:
                    continue
                cone.add(nid)
                stack.extend(net.nodes[nid].fanins)
            covered = set()
            for cut in cs.cuts.values():
                for m in cut.members:
                    assert m not in covered  # partition: no overlap
                    covered.add(m)
                max_k = max(net.nodes[m].arity for m in cut.members)
                assert len(cut.leaves) <= max(limit, max_k)
                # Interior nodes feed only within their own cut.
                for m in cut.members:
                    if m == cut.root:
                        continue
                    readers = [o for o in net.nodes[m].fanouts if o in cone]
                    assert len(readers) == 1 and readers[0] in cut.members
            assert covered == cone
            for t in targets:
                if not net.nodes[t].is_pi:
                    assert t in cs.cuts  # targets are always roots


class TestCutTruthTables:
    def test_singleton_nand(self):
        net, label = two_target_example()
        cs = circuit_cut(net, 3, [label["7"]])
        tts = cut_truth_tables(net, cs)
        assert tts[label["7"]].truth_row() == "0111"

    def test_two_node_tree(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        na = net.add_lut([a], 0b01)
        g = net.add_lut([na, b], 0b1000)  # AND(~a, b)
        net.add_po(g)
        cs = circuit_cut(net, 4, [g])
        tts = cut_truth_tables(net, cs)
        assert cs.cuts[g].members == [na, g]
        # f(a, b) = ~a & b: assignments 11,10,01,00 -> 0,0,1,0
        assert tts[g].truth_row() == "0010"

    def test_any_cut_matches_interior_brute_force(self):
        rng = random.Random(15)
        # Cuts of more than 6 leaves have multi-word rows, and LUTs of
        # more than 9 inputs take the numpy gather path.
        draws = [(4, 2, 5)] * 15 + [(k - 1, k, k) for k in (7, 8, 9, 10, 11)] * 2
        for max_k, lo, hi in draws:
            net = random_network(rng, rng.randint(3, 6), rng.randint(5, 40), max_k=max_k)
            live_gates = [n.id for n in net.nodes if not n.is_pi and not n.dead]
            targets = rng.sample(live_gates, min(len(live_gates), 3))
            cs = circuit_cut(net, rng.randint(lo, hi), targets)
            tts = cut_truth_tables(net, cs)
            for root, cut in cs.cuts.items():
                m = len(cut.leaves)
                for v in range(1 << m):
                    env = {leaf: bool((v >> (m - 1 - j)) & 1) for j, leaf in enumerate(cut.leaves)}

                    def ev(nid):
                        if nid in env and nid not in cut.members:
                            return env[nid]
                        node = net.nodes[nid]
                        idx = 0
                        for f in node.fanins:
                            idx = (idx << 1) | ev(f)
                        return bool((node.tt >> idx) & 1)

                    assert tts[root].value(v) == ev(root)


class TestSimulateSpecified:
    def test_all_targets_consistency(self):
        net, label = two_target_example()
        p = parse_patterns(PATTERN_BLOCK, 5)
        every = list(net.topo_order())
        spec = simulate_specified(net, p, every)
        full = simulate_all(net, p)
        for nid in every:
            assert spec[nid].bits == full[nid].bits

    def test_oracle_equivalence_random(self):
        rng = random.Random(123)
        for max_k in [4] * 100 + [7, 8, 9]:
            net = random_network(rng, rng.randint(2, 20), rng.randint(4, 500), max_k=max_k)
            live = net.live_ids()
            targets = rng.sample(live, min(len(live), rng.randint(1, 8)))
            p = gen_random_patterns(len(net.pis), rng.choice([2, 10, 64, 200]), rng.randrange(9999))
            spec = simulate_specified(net, p, targets)
            full = simulate_all(net, p)
            for t in targets:
                assert spec[t].bits == full[t].bits

    @given(st.integers(0, 2 ** 32), st.sampled_from([6, 11, 13, 14, 16]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_simulate_all_on_either_side_of_the_freeing_width(self, seed, log_n):
        # ``_simulate`` frees rows from 2^14 patterns on and keeps them
        # below; either way every target's row is simulate_all's, for a
        # repeated target, a PI target and a target that another reads.
        rng = random.Random(seed)
        net = random_network(rng, rng.randint(2, 12), rng.randint(4, 80),
                             max_k=rng.choice([4, 6, 8]))
        luts = [n.id for n in net.nodes if not n.is_pi and not n.dead]
        targets = rng.sample(luts, rng.randint(1, min(len(luts), 4)))
        targets += [targets[0], rng.choice(net.pis), *net.nodes[targets[0]].fanins[:1]]
        rng.shuffle(targets)
        p = gen_random_patterns(len(net.pis), 1 << log_n, rng.randrange(9999))
        spec = simulate_specified(net, p, targets)
        full = simulate_all(net, p)
        assert sorted(spec) == sorted(set(targets))
        for t in targets:
            assert spec[t].bits == full[t].bits, (targets, t)

    def test_orders_the_cone_without_sorting_the_network(self, monkeypatch):
        # The cone's own post-order is the simulation order; a whole-net
        # topological sort per call would cost one sort per window class.
        rng = random.Random(124)
        for _ in range(20):
            net = random_network(rng, rng.randint(2, 12), rng.randint(4, 200), max_k=5)
            live = net.live_ids()
            targets = rng.sample(live, min(len(live), rng.randint(1, 6)))
            p = gen_random_patterns(len(net.pis), 64, rng.randrange(9999))
            full = simulate_all(net, p)
            with monkeypatch.context() as m:
                m.setattr(Network, "topo_order", lambda self: pytest.fail("topo_order called"))
                spec = simulate_specified(net, p, targets)
            for t in targets:
                assert spec[t].bits == full[t].bits

    def test_edge_case_targets_match_simulate_all(self):
        rng = random.Random(126)
        for _ in range(30):
            net = random_network(rng, rng.randint(2, 10), rng.randint(4, 120), max_k=5)
            p = gen_random_patterns(len(net.pis), 70, rng.randrange(9999))
            full = simulate_all(net, p)
            luts = [n.id for n in net.nodes if not n.is_pi and not n.dead]
            lut = rng.choice(luts)
            reader = rng.choice([n for n in luts if net.nodes[n].fanins])
            read = rng.choice(net.nodes[reader].fanins)
            pi = rng.choice(net.pis)
            for targets in ([lut, lut], [pi], [pi, lut, pi], [reader, read], [read, reader],
                            net.live_ids()):
                spec = simulate_specified(net, p, targets)
                assert sorted(spec) == sorted(set(targets))
                for t in targets:
                    assert spec[t].bits == full[t].bits, (targets, t)

    def test_dead_target_is_an_error(self):
        net, label = two_target_example()
        dead = label["6"]
        net.substitute_node(dead, label["7"])
        p = parse_patterns(PATTERN_BLOCK, 5)
        with pytest.raises(ValueError, match="dead"):
            simulate_specified(net, p, [label["8"], dead])
        with pytest.raises(ValueError, match="dead"):
            exhaustive_window_sim(net, [dead])
        with pytest.raises(ValueError, match="dead"):
            circuit_cut(net, 3, [dead])

    def test_example_exhaustive_signatures(self):
        net, label = two_target_example()
        wt = exhaustive_window_sim(net, [label["7"], label["8"]])
        assert wt.leaves == [label["2"], label["3"], label["4"]]
        assert exhaustive_window_sim(net, [label["7"]]).leaves == [label["3"], label["4"]]
        assert own_signature(net, label["7"]) == "1110"
        assert own_signature(net, label["8"]) == "11110001"


class TestExhaustiveWindow:
    def test_var_row_matches_per_bit_definition(self):
        # Bit v of input j's row is bit j (0 = MSB) of assignment v.
        for m in range(1, 13):
            for j in range(m):
                row = _var_row(j, m)
                assert row >> (1 << m) == 0
                for v in range(1 << m):
                    assert (row >> v) & 1 == (v >> (m - 1 - j)) & 1, (j, m, v)

    def test_nand_row(self):
        net, label = two_target_example()
        wt = exhaustive_window_sim(net, [label["6"]])
        assert wt.leaves == [label["1"], label["3"]]
        assert format(wt.window_rows[label["6"]], "04b") == "0111"

    def test_window_too_large(self):
        rng = random.Random(1)
        net = random_network(rng, 20, 60, max_k=4)
        wide = 75
        # One PI more than the cap.
        assert len(structural_support(net, wide)) == 17
        with pytest.raises(WindowTooLarge):
            exhaustive_window_sim(net, [wide], 16)

    @pytest.mark.parametrize("cap", [-1, WINDOW_CAP + 1])
    def test_cap_outside_its_range_is_rejected(self, cap):
        # The window and the sweep's config share one check and message.
        net, label = two_target_example()
        message = rf"^window_cap must be within \[0, {WINDOW_CAP}\]$"
        with pytest.raises(ValueError, match=message):
            exhaustive_window_sim(net, [label["6"]], cap)
        with pytest.raises(ValueError, match=message):
            SweepConfig(window_cap=cap)

    def test_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(15):
            net = random_network(rng, rng.randint(2, 8), rng.randint(3, 40), max_k=3)
            tables = exhaustive_tables(net)
            live_gates = [n.id for n in net.nodes if not n.is_pi and not n.dead]
            targets = rng.sample(live_gates, min(len(live_gates), 3))
            shared = exhaustive_window_sim(net, targets, window_cap=16)
            n = len(net.pis)
            pi_pos = {pid: i for i, pid in enumerate(net.pis)}
            assert shared.leaves == sorted({p for t in targets for p in structural_support(net, t)})
            for t in targets:
                own = exhaustive_window_sim(net, [t])
                assert own.leaves == structural_support(net, t)
                # The target's row over its own support, and over the shared leaves.
                for wt in (own, shared):
                    m = len(wt.leaves)
                    for u in range(1 << m):
                        # Build the full-PI assignment with non-leaf PIs 0.
                        v = 0
                        for j, pid in enumerate(wt.leaves):
                            if (u >> (m - 1 - j)) & 1:
                                v |= 1 << (n - 1 - pi_pos[pid])
                        assert bool(wt.window_rows[t] >> u & 1) == bool(tables[t] >> v & 1)

    def test_equal_rows_iff_equivalent(self):
        rng = random.Random(33)
        for _ in range(10):
            net = random_network(rng, rng.randint(2, 6), rng.randint(4, 25), max_k=3)
            tables = exhaustive_tables(net)
            live_gates = [n.id for n in net.nodes if not n.is_pi and not n.dead]
            if len(live_gates) < 2:
                continue
            pair = rng.sample(live_gates, 2)
            wt = exhaustive_window_sim(net, pair, window_cap=16)
            a, b = pair
            assert (wt.window_rows[a] == wt.window_rows[b]) == (tables[a] == tables[b])

    def test_pi_target(self):
        net, label = two_target_example()
        wt = exhaustive_window_sim(net, [label["2"]])
        assert wt.leaves == [label["2"]]
        assert wt.window_rows[label["2"]] == 0b10


def and_under_inverters(depth: int) -> tuple[Network, int]:
    """An AND of two PIs under ``depth`` one-input inverters, and the chain's output node."""
    net = Network("chain")
    a, b = net.add_pi("a"), net.add_pi("b")
    top = net.add_lut([a, b], 0b1000)
    for _ in range(depth):
        top = net.add_lut([top], 0b01)
    net.add_po(top)
    return net, top


class TestLiveRows:
    """From 2^14 patterns on, ``simulate_specified`` and an exhaustive
    window of 14 leaves or more hold only the rows still to be read;
    below that they keep their whole cone."""

    def test_peak_memory_under_a_deep_chain(self):
        # 2,000 inverters make 4 MB of rows at 16,384 patterns and 16 MB
        # at 65,536; one or two of them are live at any time.
        net, y = and_under_inverters(2000)
        for n in (1 << 14, 1 << 16):
            p = gen_random_patterns(2, n, 5)
            tracemalloc.start()
            try:
                sig = simulate_specified(net, p, [y])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sig[y].bits == p.rows[0] & p.rows[1]
            assert peak < 1 << 20, n

    def test_peak_memory_of_a_wide_window(self):
        # A 16-PI AND tree under 2,000 inverters: its whole cone holds
        # about 17 MB of 65,536-pattern rows, and its live rows under 1 MB.
        net = Network()
        level = [net.add_pi() for _ in range(16)]
        while len(level) > 1:
            level = [net.add_lut(level[i:i + 2], 0b1000) for i in range(0, len(level), 2)]
        top = level[0]
        for _ in range(2000):
            top = net.add_lut([top], 0b01)
        net.add_po(top)
        tracemalloc.start()
        try:
            wt = exhaustive_window_sim(net, [top])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Only the all-ones assignment, the last, sets the AND.
        assert wt.window_rows == {top: 1 << ((1 << 16) - 1)}
        assert peak < 2 << 20

    def test_only_kept_rows_remain(self):
        # From 2^14 patterns on, every row outside ``keep`` is freed.
        net, y = and_under_inverters(50)
        p = gen_random_patterns(2, 1 << 14, 5)
        for keep in ([y], [y, 1], [y, 2, 30]):
            bits = dict(zip(net.pis, p.rows))
            _simulate(net, net.cone([y]), bits, p.mask, keep)
            assert sorted(bits) == sorted(keep)
        bits = dict(zip(net.pis, p.rows))
        _simulate(net, net.cone([y]), bits, p.mask)
        assert sorted(bits) == net.live_ids()

    def test_every_row_stays_below_2_to_the_14(self):
        # Below 2^14 patterns freeing costs more than it saves, so a run
        # with ``keep`` leaves every row, as a run without it does.
        net, y = and_under_inverters(50)
        p = gen_random_patterns(2, 1 << 13, 5)
        full = dict(zip(net.pis, p.rows))
        _simulate(net, net.cone([y]), full, p.mask)
        for keep in ([y], [y, 1], [y, 2, 30]):
            bits = dict(zip(net.pis, p.rows))
            _simulate(net, net.cone([y]), bits, p.mask, keep)
            assert bits == full


class TestDeepChain:
    """Simulation needs no recursion: 10**4 inverters (an even count) keep the AND."""

    DEPTH = 10 ** 4

    def test_simulate_specified(self):
        net, y = and_under_inverters(self.DEPTH)
        p = gen_random_patterns(2, 64, 3)
        assert simulate_specified(net, p, [y])[y].bits == p.rows[0] & p.rows[1]

    def test_exhaustive_window_sim(self):
        net, y = and_under_inverters(self.DEPTH)
        wt = exhaustive_window_sim(net, [y])
        assert wt.leaves == [0, 1]
        assert wt.window_rows[y] == 0b1000

    def test_network_cut_truth_table(self):
        net, y = and_under_inverters(self.DEPTH)
        cs = circuit_cut(net, 6, [], scope="network")
        assert cs.roots == [y]
        assert cut_truth_tables(net, cs)[y].truth_row() == "1000"
