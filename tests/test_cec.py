"""Equivalence checking: exhaustive and miter-SAT routes."""

import random
import tracemalloc

import pytest

import stpsweep.cec as cec
from stpsweep import InterfaceMismatch, Network, check_equivalence, parse_blif, write_blif
from stpsweep.simulate import WINDOW_CAP
from helpers import (
    adder_miter, eval_assignment, lookup_tables, po_tables, random_network, sweep_fixture,
)


def miter_cec(a: Network, b: Network):
    """``a`` against ``b`` on the miter route, PIs and POs matched by position."""
    return cec._miter_cec(a, b, list(range(len(a.pis))), list(range(len(a.pos))))


class TestExhaustiveRoute:
    def test_net_vs_itself(self):
        rng = random.Random(1)
        net = random_network(rng, 4, 15, po_count=2)
        assert check_equivalence(net, net.clone()).equivalent

    def test_and_vs_or(self):
        a = parse_blif(".model a\n.inputs x y\n.outputs o\n.names x y o\n11 1\n.end\n")
        b = parse_blif(".model b\n.inputs x y\n.outputs o\n.names x y o\n11 1\n01 1\n10 1\n.end\n")
        result = check_equivalence(a, b)
        assert not result.equivalent
        ce = result.counterexample
        assert ce["x"] != ce["y"]

    def test_counterexample_is_sound(self):
        rng = random.Random(2)
        found = 0
        while found < 10:
            x = random_network(rng, 4, 12, po_count=2)
            y = random_network(rng, 4, 12, po_count=2)
            try:
                result = check_equivalence(x, y)
            except InterfaceMismatch:
                continue
            if result.equivalent:
                continue
            found += 1
            assignment = {x.names[k]: v for k, v in result.counterexample.items()}
            vx = eval_assignment(x, assignment)
            j = x.po_names.index(result.output)
            da, pa = x.pos[j]
            # Positional PO match: same index in y.
            assignment_y = {y.pis[i]: assignment[x.pis[i]] for i in range(4)}
            vy = eval_assignment(y, assignment_y)
            db, pb = y.pos[j]
            assert (vx[da] ^ pa) != (vy[db] ^ pb)

    def test_name_based_pi_matching(self):
        a = parse_blif(".model a\n.inputs p q\n.outputs o\n.names p q o\n10 1\n.end\n")
        # Same function with the PI declaration order swapped.
        b = parse_blif(".model b\n.inputs q p\n.outputs o\n.names p q o\n10 1\n.end\n")
        assert check_equivalence(a, b).equivalent

    def test_widest_interface_needs_no_sat_and_gives_the_lowest_witness(self, monkeypatch):
        def no_sat(*args, **kwargs):
            raise AssertionError("the exhaustive route asked the solver")

        monkeypatch.setattr(cec, "prove_equiv", no_sat)
        rng = random.Random(5)
        a = random_network(rng, WINDOW_CAP, 80, max_k=6, po_count=4)
        b = a.clone()
        victim = b.nodes[b.pos[-1][0]]
        victim.tt ^= 1 << rng.randrange(1 << victim.arity)
        result = check_equivalence(a, b)
        assert not result.equivalent
        # The first differing output in PO order, at its lowest differing
        # assignment (PI 0 most significant), by an independent evaluation.
        ta, tb = lookup_tables(a), lookup_tables(b)
        j, diff = next((j, (ta[da] ^ pa) != (tb[db] ^ pb))
                       for j, ((da, pa), (db, pb)) in enumerate(zip(a.pos, b.pos))
                       if ((ta[da] ^ pa) != (tb[db] ^ pb)).any())
        v = int(diff.argmax())
        assert result.output == a.po_names[j]
        n = len(a.pis)
        assert result.counterexample == {name: bool(v >> (n - 1 - i) & 1)
                                         for i, name in enumerate(a.pi_names)}
        assignment = {a.names[k]: val for k, val in result.counterexample.items()}
        (da, pa), (db, pb) = a.pos[j], b.pos[j]
        assert eval_assignment(a, assignment)[da] ^ pa != eval_assignment(b, assignment)[db] ^ pb

    def test_widest_interface_holds_only_the_live_rows(self):
        # At 2^16 patterns a row is 8 KB, so the 1,000 rows of a whole
        # net simulated alongside its copy peak at 13 MB; the PO cones,
        # freed row by row, peak near 3 MB.
        a = random_network(random.Random(3), WINDOW_CAP, 1000, max_k=6, po_count=16,
                           fresh_bias=0.6)
        b = a.clone()
        tracemalloc.start()
        try:
            assert check_equivalence(a, b).equivalent
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6_000_000

    def test_interface_mismatch(self):
        a = parse_blif(".model a\n.inputs x\n.outputs o\n.names x o\n1 1\n.end\n")
        b = parse_blif(".model b\n.inputs x y\n.outputs o\n.names x y o\n11 1\n.end\n")
        with pytest.raises(InterfaceMismatch):
            check_equivalence(a, b)


class TestMiterRoute:
    def wide_net(self, seed: int) -> Network:
        rng = random.Random(seed)
        return random_network(rng, 18, 40, po_count=2)

    def test_net_vs_itself_wide(self):
        net = self.wide_net(3)
        assert len(net.pis) > WINDOW_CAP
        assert check_equivalence(net, net.clone()).equivalent

    def test_blif_round_trip_wide(self):
        net = self.wide_net(4)
        back = parse_blif(write_blif(net))
        assert check_equivalence(net, back).equivalent

    def test_corrupted_driver_detected(self):
        net = self.wide_net(5)
        other = net.clone()
        driver = next(d for d, _ in other.pos if not other.nodes[d].is_pi)
        victim = other.nodes[driver]
        victim.tt ^= (1 << (1 << victim.arity)) - 1
        result = check_equivalence(net, other)
        assert not result.equivalent
        assignment = {net.names[k]: v for k, v in result.counterexample.items()}
        vx = eval_assignment(net, assignment)
        vo = eval_assignment(other, assignment)
        j = net.po_names.index(result.output)
        da, pa = net.pos[j]
        db, pb = other.pos[j]
        assert (vx[da] ^ pa) != (vo[db] ^ pb)


class TestWideNameMatching:
    """Miter route with PIs matched by name and a PO driven by a PI."""

    def pair(self, flip: bool) -> tuple[Network, Network]:
        rng = random.Random(23)
        a = random_network(rng, 20, 50, po_count=2)
        a.add_po(a.pis[7], inverted=True, name="direct")
        order = list(range(len(a.pis)))
        rng.shuffle(order)
        b = Network("b")
        to_b = {a.pis[i]: b.add_pi(a.pi_names[i]) for i in order}
        for nid in a.topo_order():
            node = a.nodes[nid]
            if not node.is_pi:
                to_b[nid] = b.add_lut([to_b[f] for f in node.fanins], node.tt)
        for (d, phase), name in zip(a.pos, a.po_names):
            b.add_po(to_b[d], phase ^ (flip and name == "direct"), name)
        assert b.pi_names != a.pi_names
        return a, b

    def test_same_phase_equivalent(self):
        a, b = self.pair(flip=False)
        assert check_equivalence(a, b).equivalent

    def test_flipped_phase_has_sound_counterexample(self):
        a, b = self.pair(flip=True)
        result = check_equivalence(a, b)
        assert not result.equivalent
        assert result.output == "direct"
        assert set(result.counterexample) == set(a.pi_names)
        va = eval_assignment(a, {a.names[k]: v for k, v in result.counterexample.items()})
        vb = eval_assignment(b, {b.names[k]: v for k, v in result.counterexample.items()})
        j = a.po_names.index("direct")
        (da, pa), (db, pb) = a.pos[j], b.pos[j]
        assert (va[da] ^ pa) != (vb[db] ^ pb)


class TestSweepThenCec:
    def test_swept_fixtures_equivalent(self):
        from stpsweep import SweepConfig, sweep

        for seed in (0, 1):
            net = sweep_fixture(seed)
            original = net.clone()
            swept, _ = sweep(net, SweepConfig(n_base_patterns=64, seed=seed))
            assert check_equivalence(original, swept).equivalent


class TestIncrementalMiter:
    """The SAT route asks every PO pair on one solver, in PO order."""

    def test_difference_at_last_of_many_outputs(self):
        rng = random.Random(41)
        a = random_network(rng, 16, 80, po_count=12)
        b = a.clone()
        # The last PO of b reads d ^ (p & q) instead of d.
        d, phase = b.pos[-1]
        p, q = b.pis[0], b.pis[1]
        xor_and = sum(1 << v for v in range(8) if (v >> 2 & 1) ^ (v >> 1 & v & 1))
        b.pos[-1] = (b.add_lut([d, p, q], xor_and), phase)
        result = miter_cec(a, b)
        assert not result.equivalent
        assert result.output == a.po_names[-1]
        assert set(result.counterexample) == set(a.pi_names)
        va = eval_assignment(a, {a.names[k]: v for k, v in result.counterexample.items()})
        vb = eval_assignment(b, {b.names[k]: v for k, v in result.counterexample.items()})
        (da, pa), (db, pb) = a.pos[-1], b.pos[-1]
        assert (va[da] ^ pa) != (vb[db] ^ pb)
        for (da, pa), (db, pb) in zip(a.pos[:-1], b.pos[:-1]):
            assert (va[da] ^ pa) == (vb[db] ^ pb)

    def test_wide_net_vs_its_sweep(self):
        from stpsweep import SweepConfig, sweep

        rng = random.Random(43)
        net = random_network(rng, 16, 60, po_count=4)
        # A second copy of every LUT over the same PIs, with its own POs,
        # so the sweep has merges to make.
        copy = {pid: pid for pid in net.pis}
        for nid in net.topo_order():
            node = net.nodes[nid]
            if not node.is_pi:
                copy[nid] = net.add_lut([copy[f] for f in node.fanins], node.tt)
        for d, phase in list(net.pos):
            net.add_po(copy[d], not phase)
        original = net.clone()
        swept, stats = sweep(net, SweepConfig(n_base_patterns=256))
        assert stats.merges > 0 and swept.n_luts() < original.n_luts()
        assert miter_cec(original, swept).equivalent

    def test_random_net_vs_its_sweep_asks_no_output_query(self, monkeypatch):
        # Counted, not timed: rand(2,000, 6) against its sweep.  The
        # miter's sweep proves the internal equivalences from the inputs
        # up, so every output pair coincides.  Asked as one whole-cone
        # query per pair, rand(400, 6) had no answer after 120 s.
        from stpsweep import SweepConfig, sweep

        net = random_network(random.Random(7), 64, 2000, max_k=6, po_count=32, fresh_bias=0.6)
        original = net.clone()
        swept, _ = sweep(net, SweepConfig())
        calls = []
        prove = cec.prove_equiv

        def counting(*args, **kwargs):
            calls.append(args)
            return prove(*args, **kwargs)

        monkeypatch.setattr(cec, "prove_equiv", counting)
        assert check_equivalence(original, swept).equivalent
        assert calls == []


class TestMiterAgainstExhaustive:
    """The miter route against the exhaustive route on the same pairs.

    The miter route sweeps the miter, so it shares strash, the exhaustive
    window and the solver with the sweep whose result it checks: a wrong
    merge that one of them certifies could pass both.  Simulation on the
    exhaustive route reads none of them, so it is the one independent
    check.  The differing pairs are checked against the scalar oracle
    too.
    """

    def test_routes_agree_on_random_pairs(self):
        from stpsweep import SweepConfig, sweep
        from stpsweep.cec import _correspondence, _exhaustive_cec, _miter_cec

        rng = random.Random(61)
        verdicts = []
        while len(verdicts) < 60:
            net = random_network(rng, rng.randint(3, 12), rng.randint(8, 40), max_k=6,
                                 po_count=rng.randint(1, 4))
            want_equal = len(verdicts) % 2 == 0
            if want_equal:
                other, _ = sweep(net.clone(), SweepConfig(n_base_patterns=64))
            else:
                # One flipped truth-table bit in a live cone, seen at some PO.
                cone = [n for d, _ in net.pos if not net.nodes[d].is_pi
                        for n in net.transitive_fanin(d, len(net.nodes))]
                if not cone:
                    continue
                tables = po_tables(net)
                for _ in range(20):
                    other = net.clone()
                    victim = other.nodes[rng.choice(cone)]
                    victim.tt ^= 1 << rng.randrange(1 << victim.arity)
                    if po_tables(other) != tables:
                        break
                else:
                    continue
            pi_map = _correspondence("PI", net.pi_names, other.pi_names)
            po_map = _correspondence("PO", net.po_names, other.po_names)
            by_miter = _miter_cec(net, other, pi_map, po_map)
            by_simulation = _exhaustive_cec(net, other, pi_map, po_map)
            assert by_miter.equivalent == by_simulation.equivalent == want_equal
            for result in (by_miter, by_simulation):
                if result.equivalent:
                    continue
                assignment = {net.names[k]: v for k, v in result.counterexample.items()}
                j = net.po_names.index(result.output)
                (da, pa), (db, pb) = net.pos[j], other.pos[po_map[j]]
                va = eval_assignment(net, assignment)
                vb = eval_assignment(other, {other.pis[pi_map[i]]: assignment[pid]
                                             for i, pid in enumerate(net.pis)})
                assert (va[da] ^ pa) != (vb[db] ^ pb)
            verdicts.append(by_miter.equivalent)
        assert verdicts.count(True) == verdicts.count(False) == 30


class TestHashedMiter:
    """The miter route sweeps the miter.  The sweep's strash hashes
    ``b``'s LUTs onto ``a``'s by exact fanins and table, and its proving
    loop merges the rest from the inputs up, so only an output pair whose
    swept POs keep two drivers is asked on the solver."""

    @staticmethod
    def assert_sound(a: Network, b: Network, result) -> None:
        """The counter-example makes the named output differ (positional POs)."""
        assignment = {a.names[k]: v for k, v in result.counterexample.items()}
        va = eval_assignment(a, assignment)
        vb = eval_assignment(b, {b.pis[i]: assignment[pid] for i, pid in enumerate(a.pis)})
        j = a.po_names.index(result.output)
        (da, pa), (db, pb) = a.pos[j], b.pos[j]
        assert (va[da] ^ pa) != (vb[db] ^ pb)

    def test_flipped_bit_below_a_reader_is_found(self):
        from stpsweep.cec import _exhaustive_cec

        rng = random.Random(71)
        found = 0
        while found < 10:
            a = random_network(rng, 16, 60, po_count=4)
            # A LUT in a PO's cone that is not itself a PO driver: its
            # readers keep their tables, so only their fanins tell them
            # apart from ``a``'s.
            drivers = {d for d, _ in a.pos}
            cone = [n for d in drivers if not a.nodes[d].is_pi
                    for n in a.transitive_fanin(d, len(a.nodes)) if n not in drivers]
            if not cone:
                continue
            b = a.clone()
            victim = b.nodes[rng.choice(cone)]
            victim.tt ^= 1 << rng.randrange(1 << victim.arity)
            identity = list(range(len(a.pis)))
            expected = _exhaustive_cec(a, b, identity, list(range(len(a.pos))))
            if expected.equivalent:
                continue
            found += 1
            result = miter_cec(a, b)
            assert not result.equivalent
            assert result.output == expected.output
            self.assert_sound(a, b, result)

    def test_fanin_order_is_part_of_the_key(self):
        rng = random.Random(73)
        a = random_network(rng, 16, 40, po_count=3)
        p, q = a.pis[0], a.pis[1]
        g = a.add_lut([p, q], 0b0010)  # p & ~q
        a.add_po(g, name="g")
        # The same fanins swapped under the same table: q & ~p.
        swapped = a.clone()
        swapped.pos[-1] = (swapped.add_lut([q, p], 0b0010), False)
        result = miter_cec(a, swapped)
        assert not result.equivalent and result.output == "g"
        self.assert_sound(a, swapped, result)
        # Swapped fanins with the table permuted to match: equal, by the sweep.
        permuted = a.clone()
        permuted.pos[-1] = (permuted.add_lut([q, p], 0b0100), False)
        assert miter_cec(a, permuted).equivalent

    def test_shared_driver_in_opposite_phases_differs(self):
        rng = random.Random(75)
        a = random_network(rng, 18, 50, po_count=3)
        j = next(j for j, (d, _) in enumerate(a.pos) if not a.nodes[d].is_pi)
        b = a.clone()
        d, phase = b.pos[j]
        b.pos[j] = (d, not phase)
        result = check_equivalence(a, b)
        assert not result.equivalent
        assert result.output == a.po_names[j]
        self.assert_sound(a, b, result)

    @staticmethod
    def hashed_classes(*nets: Network) -> list[dict[int, int]]:
        """Each net's nodes -> structural class, by exact fanins and table.

        The nets share PIs by position; two nodes, of one net or of two,
        are in one class exactly when they are the same LUT over the
        same classes.
        """
        table: dict[object, int] = {}
        out = []
        for net in nets:
            cls = {pid: table.setdefault(("pi", i), len(table)) for i, pid in enumerate(net.pis)}
            for nid in net.topo_order():
                node = net.nodes[nid]
                if not node.is_pi:
                    key = (tuple(cls[f] for f in node.fanins), node.tt)
                    cls[nid] = table.setdefault(key, len(table))
            out.append(cls)
        return out

    def count_queries(self, monkeypatch, a: Network, b: Network):
        """``a`` against ``b`` on the miter: the ``cec.prove_equiv`` calls,
        the result, and the output pairs whose swept POs keep two drivers."""
        calls, swept = [], []
        prove, sweep = cec.prove_equiv, cec.sweep

        def counting(*args, **kwargs):
            calls.append(args)
            return prove(*args, **kwargs)

        def sweeping(net, cfg):
            swept.append(net)
            return sweep(net, cfg)

        with monkeypatch.context() as patched:
            patched.setattr(cec, "prove_equiv", counting)
            patched.setattr(cec, "sweep", sweeping)
            result = miter_cec(a, b)
        pos = swept[0].pos
        apart = [j for j in range(len(a.pos)) if pos[2 * j][0] != pos[2 * j + 1][0]]
        return len(calls), result, apart

    def test_one_query_per_pair_that_hashing_leaves(self, monkeypatch):
        from stpsweep import SweepConfig, sweep
        from stpsweep.cec import _exhaustive_cec

        a = adder_miter(8)
        swept, _ = sweep(a.clone(), SweepConfig(n_base_patterns=64))
        # Each of the nine Kogge-Stone outputs of ``a`` reads a
        # ripple-carry driver in ``swept``.  Hashing alone left six of
        # these pairs apart; the miter's sweep merges every one of them.
        queries, result, apart = self.count_queries(monkeypatch, a, swept)
        assert (queries, result.equivalent, apart) == (0, True, [])
        # One flipped table bit below a reader: a carry or a sum bit of
        # the ripple-carry adder, seen at some output.  With no conflict
        # limit the sweep merges every equal pair, so each pair it leaves
        # apart differs, and the first one, asked once, is the answer.
        drivers = {d for d, _ in swept.pos}
        cone = sorted({n for d in drivers if not swept.nodes[d].is_pi
                       for n in swept.transitive_fanin(d, len(swept.nodes)) if n not in drivers})
        rng = random.Random(79)
        for nid in rng.sample(cone, 6):
            b = swept.clone()
            victim = b.nodes[nid]
            victim.tt ^= 1 << rng.randrange(1 << victim.arity)
            identity = list(range(len(a.pis)))
            expected = _exhaustive_cec(a, b, identity, list(range(len(a.pos))))
            queries, result, apart = self.count_queries(monkeypatch, a, b)
            assert not result.equivalent and not expected.equivalent
            assert result.output == expected.output == a.po_names[apart[0]]
            assert queries == 1
            self.assert_sound(a, b, result)

    def test_duplicate_driver_of_a_hashes_onto_the_earlier_lut(self, monkeypatch):
        rng = random.Random(77)
        a = random_network(rng, 16, 40, po_count=3)
        p, q, r = a.pis[:3]
        g = a.add_lut([p, q], 0b0110)
        reader = a.add_lut([g, r], 0b1000)
        # Later duplicates of g and of its reader drive a's two new POs,
        # and b's read the earlier LUTs: every pair hashes together.
        g_dup = a.add_lut([p, q], 0b0110)
        reader_dup = a.add_lut([g_dup, r], 0b1000)
        a.add_po(g_dup, name="g")
        a.add_po(reader_dup, name="reader")
        b = a.clone()
        b.pos[-2:] = [(g, False), (reader, False)]
        ca, cb = self.hashed_classes(a, b)
        assert all(ca[da] == cb[db] for (da, _), (db, _) in zip(a.pos, b.pos))
        queries, result, apart = self.count_queries(monkeypatch, a, b)
        assert (queries, result.equivalent, apart) == (0, True, [])
        # In opposite phases the pair differs on every input, still with no query.
        b.pos[-1] = (reader, True)
        queries, result, apart = self.count_queries(monkeypatch, a, b)
        assert (queries, result.equivalent, apart) == (0, False, [])
        assert result.output == "reader"
        self.assert_sound(a, b, result)
