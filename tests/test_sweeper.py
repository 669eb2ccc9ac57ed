"""Pattern guidance, equivalence classes, refinement, and full sweeps."""

import hashlib
import importlib
import random

import numpy as np
import pytest

from stpsweep import (
    NetSolver,
    Network,
    PatternSet,
    SweepConfig,
    SweepStats,
    check_equivalence,
    gen_random_patterns,
    prove_equiv,
    simulate_all,
    sweep,
    write_blif,
)
from stpsweep.sat import SatStatus
from stpsweep.simulate import WINDOW_CAP
from stpsweep.sweep import (
    TOGGLE_THRESHOLD, _barely_toggling, _ce_rows, _stuck, constant_prop, init_equiv_classes,
    refine_classes, sat_guided_patterns,
)
from helpers import (
    adder_miter, and_under_inverters, exhaustive_tables, lookup_tables, po_tables,
    random_network, sweep_fixture, undet_network,
)

# The package exports the ``sweep`` function under the module's name.
sweep_module = importlib.import_module("stpsweep.sweep")
sat_module = importlib.import_module("stpsweep.sat")
netlist_module = importlib.import_module("stpsweep.netlist")


def rows_of(sigs) -> dict[int, int]:
    return {nid: sig.bits for nid, sig in sigs.items()}


def record_simulations(monkeypatch) -> list[int]:
    """The pattern count of every simulation the sweep module runs.

    The sweep takes its rows from ``_simulate``; an exhaustive window
    simulates inside ``simulate.py`` and is not counted.
    """
    widths = []
    real = sweep_module._simulate

    def recording(net, order, bits, mask, keep=None):
        widths.append(mask.bit_length())
        return real(net, order, bits, mask, keep)

    monkeypatch.setattr(sweep_module, "_simulate", recording)
    return widths


def on_strash_merges(monkeypatch, merged) -> None:
    """Call ``merged(old, new, inverted)`` for every merge of every strash,
    in strash's order, from strash's own record of its merges as it
    returns.  Strash calls no ``substitute_node``."""
    walk = netlist_module._strash

    def recording(net):
        rep, merges, const0 = walk(net)
        for old, (new, inverted) in rep.items():
            merged(old, new, inverted)
        return rep, merges, const0

    monkeypatch.setattr(netlist_module, "_strash", recording)


# The per-node rules of SAT-guided pattern generation: the oracle of the
# one-pass selection in ``sat_guided_patterns``.

def toggle_rate(bits: int, n_patterns: int) -> float:
    """Adjacent-bit toggle count over the bit-string length."""
    if n_patterns < 2:
        return 0.0
    toggles = ((bits ^ (bits >> 1)) & ((1 << (n_patterns - 1)) - 1)).bit_count()
    return toggles / (n_patterns - 1)


def never_shown_value(bits: int, n_patterns: int) -> bool | None:
    """The value a stuck row never shows; None if it toggles."""
    if bits == 0:
        return True
    return False if bits == (1 << n_patterns) - 1 else None


def minority_value(bits: int, n_patterns: int) -> bool | None:
    """The rarer value of a row that barely toggles; None otherwise."""
    if TOGGLE_THRESHOLD <= toggle_rate(bits, n_patterns) <= 1.0 - TOGGLE_THRESHOLD:
        return None
    return bits.bit_count() * 2 <= n_patterns


def wide_and() -> tuple[Network, int]:
    """An eight-input AND chain and its output node."""
    net = Network()
    pis = [net.add_pi() for _ in range(8)]
    acc = pis[0]
    for p in pis[1:]:
        acc = net.add_lut([acc, p], 0b1000)
    net.add_po(acc)
    return net, acc


def rand_300() -> Network:
    return random_network(random.Random(7), 64, 300, max_k=6, po_count=32, fresh_bias=0.6)


def and_under_xor_pairs(n: int) -> Network:
    """An AND of two PIs under ``n`` pairs of XORs with its first PI.  The
    second XOR of each pair equals the AND only by function, so strash
    leaves the chain to the window."""
    net = Network()
    x, y = net.add_pi(), net.add_pi()
    s = net.add_lut([x, y], 0b1000)
    for _ in range(n):
        s = net.add_lut([net.add_lut([s, x], 0b0110), x], 0b0110)
    net.add_po(s)
    return net


def tiny_cfg(**kw) -> SweepConfig:
    kw.setdefault("n_base_patterns", 64)
    kw.setdefault("seed", 7)
    return SweepConfig(**kw)


class TestSatGuidedPatterns:
    def test_structural_constant_found(self):
        net = Network()
        a = net.add_pi()
        na = net.add_lut([a], 0b01)
        zero = net.add_lut([a, na], 0b1000)  # a & ~a
        net.add_po(zero)
        patterns, _, constants = sat_guided_patterns(NetSolver(net), tiny_cfg(), SweepStats())
        assert (zero, False) in constants

    def test_constant_one_found(self):
        net = Network()
        a = net.add_pi()
        na = net.add_lut([a], 0b01)
        one = net.add_lut([a, na], 0b1110)  # a | ~a
        net.add_po(one)
        _, _, constants = sat_guided_patterns(NetSolver(net), tiny_cfg(), SweepStats())
        assert (one, True) in constants

    def test_wide_and_gets_its_minterm(self):
        # Eight-input AND: the single satisfying pattern is found by SAT.
        net, acc = wide_and()
        patterns, _, constants = sat_guided_patterns(NetSolver(net), tiny_cfg(), SweepStats())
        assert constants == []
        sigs = simulate_all(net, patterns)
        assert sigs[acc].bits != 0  # some pattern drives the AND to one

    def test_patterns_grow_deterministically(self):
        net = sweep_fixture(3)
        p1, _, c1 = sat_guided_patterns(NetSolver(net.clone()), tiny_cfg(), SweepStats())
        p2, _, c2 = sat_guided_patterns(NetSolver(net.clone()), tiny_cfg(), SweepStats())
        assert p1.rows == p2.rows and c1 == c2

    @pytest.mark.parametrize("make, cfg, widths, n_constants", [
        # Both rounds add counter-examples.
        (lambda: wide_and()[0], tiny_cfg(), [64, 3, 3], 0),
        # No counter-example, and constants proven.
        (rand_300, SweepConfig(), [2048], 69),
    ], ids=["wide_and", "rand_300"])
    def test_rows_are_a_fresh_simulation_of_the_patterns(
            self, monkeypatch, make, cfg, widths, n_constants):
        net = make()
        seen = record_simulations(monkeypatch)
        patterns, rows, constants = sat_guided_patterns(NetSolver(net), cfg, SweepStats())
        assert seen == widths and len(constants) == n_constants
        assert patterns.n_patterns == sum(widths)
        assert rows == rows_of(simulate_all(net, patterns))


class TestSelection:
    """Each round asks ``_find_value`` exactly what the per-node rules
    select, node by node in topological order: round one over the base
    patterns, round two over those and round one's counter-examples,
    skipping round one's constants."""

    @pytest.mark.parametrize("make, cfg, n_asked", [
        (lambda: and_under_inverters(300), SweepConfig(), [0, 0]),
        (lambda: adder_miter(16), SweepConfig(), [1, 16]),
        (rand_300, SweepConfig(), [69, 0]),  # 69 constants
        (lambda: wide_and()[0], tiny_cfg(), [3, 3]),  # both rounds add counter-examples
    ], ids=["deep_chain", "adder_miter", "constants", "ce_rounds"])
    def test_queries_follow_the_per_node_rules(self, monkeypatch, make, cfg, n_asked):
        net = make()
        asked = []
        find = sweep_module._find_value

        def finding(solver, nid, value, cfg, stats):
            outcome = find(solver, nid, value, cfg, stats)
            asked.append((nid, value, outcome))
            return outcome

        monkeypatch.setattr(sweep_module, "_find_value", finding)
        patterns, _, constants = sat_guided_patterns(NetSolver(net), cfg, SweepStats())
        n, done, proven = cfg.n_base_patterns, 0, {}
        for rule, expected_count in zip((never_shown_value, minority_value), n_asked):
            # The patterns of this round are the low ``n`` bits of each row.
            rows = rows_of(simulate_all(net, PatternSet(
                [row & ((1 << n) - 1) for row in patterns.rows], n)))
            expected = [(nid, rule(rows[nid], n)) for nid in net.topo_order()
                        if net.nodes[nid].arity and nid not in proven
                        and rule(rows[nid], n) is not None]
            got = asked[done:done + len(expected)]
            done += len(expected)
            assert [(nid, value) for nid, value, _ in got] == expected
            assert len(expected) == expected_count
            proven.update((nid, not value) for nid, value, outcome in got if outcome.is_unsat)
            n += sum(outcome.is_sat for _, _, outcome in got)
        assert done == len(asked) and n == patterns.n_patterns
        assert constants == list(proven.items())

    @pytest.mark.parametrize("width", [1, 2, 65, 130, 2072])
    def test_one_pass_selectors_match_the_rules(self, width):
        rng = random.Random(width)
        full = (1 << width) - 1
        alternating = int("10" * width, 2) & full
        # One toggle over 64 pairs (at 65 bits) is exactly TOGGLE_THRESHOLD,
        # and half ones below one toggle (at 130 bits) is a tie.
        edges = [(1 << k) - 1 for k in {1, width // 2, width - 1}] + [
            alternating, alternating ^ 1, alternating ^ 3]
        sparse = [sum(1 << rng.randrange(width) for _ in range(k)) for k in (1, 2, 3)]
        rows = [0, full] + [rng.getrandbits(width) for _ in range(20)] + sparse + edges
        rows += [full ^ r for r in rows]
        table = dict(enumerate(rows))
        for select, rule in ((_stuck, never_shown_value), (_barely_toggling, minority_value)):
            assert select(table, width) == [
                (i, rule(row, width)) for i, row in table.items() if rule(row, width) is not None]


class TestCeRows:
    @pytest.mark.parametrize("width", [1, 64])
    def test_assigned_pis_are_constant_and_the_rest_drawn_in_pi_order(self, width):
        net = sweep_fixture(2)
        pis = net.pis
        ce = {pis[3]: True, pis[0]: False, pis[5]: True}
        rng, twin = random.Random(5), random.Random(5)
        rows = _ce_rows(net, ce, width, rng)
        assert len(rows) == len(pis)
        full = (1 << width) - 1
        for pid, row in zip(pis, rows):
            assert row == ((full if ce[pid] else 0) if pid in ce else twin.getrandbits(width))
        # No draw besides one per unassigned PI.
        assert rng.getrandbits(64) == twin.getrandbits(64)


class TestToggleRate:
    def test_constant_is_zero(self):
        assert toggle_rate(0, 64) == 0.0
        assert toggle_rate((1 << 64) - 1, 64) == 0.0

    def test_alternating_is_one(self):
        bits = int("10" * 32, 2)
        assert toggle_rate(bits, 64) == 1.0


    @pytest.mark.parametrize("width", [1, 2, 63, 64, 2072])
    def test_bit_counts_match_the_string_count(self, width):
        def ref_toggle(bits, n):
            if n < 2:
                return 0.0
            return bin((bits ^ (bits >> 1)) & ((1 << (n - 1)) - 1)).count("1") / (n - 1)

        def ref_minority(bits, n):
            if TOGGLE_THRESHOLD <= ref_toggle(bits, n) <= 1.0 - TOGGLE_THRESHOLD:
                return None
            return bin(bits).count("1") * 2 <= n

        rng = random.Random(width)
        full = (1 << width) - 1
        # Dense rows toggle; rows with a few ones, or a few zeros, do not.
        sparse = [sum(1 << rng.randrange(width) for _ in range(k)) for k in (1, 2, 3)]
        rows = ([0, full] + [rng.getrandbits(width) for _ in range(20)]
                + sparse + [full ^ r for r in sparse])
        for bits in rows:
            assert toggle_rate(bits, width) == ref_toggle(bits, width)
            assert minority_value(bits, width) == ref_minority(bits, width)


class TestConstantProp:
    def test_or_simplifies(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        na = net.add_lut([a], 0b01)
        zero = net.add_lut([a, na], 0b1000)
        top = net.add_lut([zero, b], 0b1110)  # zero | b
        net.add_po(top)
        before = po_tables(net)
        count = constant_prop(net, [(zero, False)])
        assert count == 1
        assert po_tables(net) == before

    def test_empty_is_noop(self):
        net = Network()
        a = net.add_pi()
        g = net.add_lut([a], 0b01)
        net.add_po(g)
        n_before = len(net.nodes)
        assert constant_prop(net, []) == 0
        assert len(net.nodes) == n_before

    def test_constant_po(self):
        net = Network()
        a = net.add_pi()
        na = net.add_lut([a], 0b01)
        one = net.add_lut([a, na], 0b1110)
        net.add_po(one)
        constant_prop(net, [(one, True)])
        driver, phase = net.pos[0]
        assert net.nodes[driver].arity == 0
        assert phase is True  # constant-0 node, inverted

    def test_constants_need_no_cycle_walk(self, monkeypatch):
        # Counted, not timed: the constant-0 LUT has no fanins, so it lies
        # in no fanout cone, and no substitution onto it walks one, be it
        # of a constant that strash sees or of one that SAT proves.
        net = sweep_fixture(1)
        original = net.clone()
        walks = []
        is_in_tfo = Network.is_in_tfo

        def counting(self, a, b):
            walks.append((a, b))
            return is_in_tfo(self, a, b)

        monkeypatch.setattr(Network, "is_in_tfo", counting)
        swept, stats = sweep(net, SweepConfig())
        assert stats.constants == 21 and stats.strash_constants == 20 and walks == []
        assert check_equivalence(original, swept).equivalent


class TestClasses:
    def test_duplicate_cones_share_class(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g1 = net.add_lut([a, b], 0b0110)
        g2 = net.add_lut([a, b], 0b0110)
        net.add_po(g1)
        net.add_po(g2)
        pats = gen_random_patterns(2, 64, 5)
        sigs = simulate_all(net, pats)
        mgr = init_equiv_classes(net, rows_of(sigs), pats.n_patterns)
        assert mgr.class_of[g1] == mgr.class_of[g2]
        assert mgr.phase_of[g1] == mgr.phase_of[g2]

    def test_complement_same_class_opposite_phase(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g = net.add_lut([a, b], 0b0110)
        inv = net.add_lut([g], 0b01)
        net.add_po(inv)
        pats = gen_random_patterns(2, 64, 5)
        sigs = simulate_all(net, pats)
        mgr = init_equiv_classes(net, rows_of(sigs), pats.n_patterns)
        assert mgr.class_of[g] == mgr.class_of[inv]
        assert mgr.phase_of[g] != mgr.phase_of[inv]

    def test_members_share_normalized_signature(self):
        rng = random.Random(88)
        net = random_network(rng, 4, 30, po_count=2)
        pats = gen_random_patterns(4, 16, 3)
        sigs = simulate_all(net, pats)
        mgr = init_equiv_classes(net, rows_of(sigs), pats.n_patterns)
        mask = pats.mask
        for nodes in mgr.members.values():
            keys = set()
            for nid in nodes:
                bits = sigs[nid].bits
                keys.add(bits ^ (mask if mgr.phase_of[nid] else 0))
            assert len(keys) == 1

    def test_topological_member_order(self):
        rng = random.Random(89)
        net = random_network(rng, 4, 30, po_count=2)
        pats = gen_random_patterns(4, 8, 3)
        sigs = simulate_all(net, pats)
        mgr = init_equiv_classes(net, rows_of(sigs), pats.n_patterns)
        rank = mgr.topo_rank
        for nodes in mgr.members.values():
            assert nodes == sorted(nodes, key=rank.__getitem__)

    def test_constant_lut_ranks_first_and_leads_its_class(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g = net.add_lut([a, b], 0b1000)
        zero = net.add_lut([], 0)
        net.add_po(g)
        net.add_po(zero)
        # Two patterns that leave the AND at 0, as the constant.
        pats = PatternSet([0b01, 0b10], 2)
        mgr = init_equiv_classes(net, rows_of(simulate_all(net, pats)), pats.n_patterns)
        assert list(mgr.topo_rank) == [zero, a, b, g]
        assert mgr.members[mgr.class_of[g]] == [zero, g]

    def test_constant_lut_drives_its_class_in_a_sweep(self, monkeypatch):
        # A query left UNDET puts a 3-input LUT in one class with strash's
        # constant-0 LUT, and the window proves the class.  When the
        # constant ranked after that LUT by id, it merged onto the LUT,
        # whose cone then survived: the sweep ended at 14 LUTs.
        old_sides = []
        substitute = Network.substitute_node

        def recording(self, old, new, inverted=False, **kwargs):
            node = self.nodes[old]
            old_sides.append(not node.fanins and not node.is_pi)
            substitute(self, old, new, inverted, **kwargs)

        monkeypatch.setattr(Network, "substitute_node", recording)
        net = sweep_fixture(3)
        original = net.clone()
        swept, stats = sweep(net, SweepConfig(conflict_limit=1, n_base_patterns=16, seed=3))
        assert stats.sat_calls_undet > 0 and stats.window_merges > 0
        assert old_sides and not any(old_sides)
        assert swept.n_luts() == stats.final_luts < 14
        assert check_equivalence(original, swept).equivalent


class TestRefine:
    def build_and_or(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g_and = net.add_lut([a, b], 0b1000)
        g_or = net.add_lut([a, b], 0b1110)
        net.add_po(g_and)
        net.add_po(g_or)
        return net, a, b, g_and, g_or

    def test_distinguishing_ce_splits(self):
        net, a, b, g_and, g_or = self.build_and_or()
        # Patterns under which AND and OR agree: 00 and 11.
        pats = gen_random_patterns(2, 2, 0)
        pats.rows = [0b10, 0b10]
        sigs = simulate_all(net, pats)
        mgr = init_equiv_classes(net, rows_of(sigs), pats.n_patterns)
        assert mgr.class_of[g_and] == mgr.class_of[g_or]
        cfg = tiny_cfg(window_cap=0)  # isolate the pattern route
        splits = refine_classes(mgr, net, {a: True, b: False}, cfg, random.Random(1))
        assert splits >= 1
        assert mgr.class_of.get(g_and) != mgr.class_of.get(g_or)

    def test_window_splits_without_ce(self):
        net, a, b, g_and, g_or = self.build_and_or()
        pats = gen_random_patterns(2, 2, 0)
        pats.rows = [0b10, 0b10]
        sigs = simulate_all(net, pats)
        mgr = init_equiv_classes(net, rows_of(sigs), pats.n_patterns)
        cfg = tiny_cfg()
        # A non-distinguishing counter-example: the window does the split.
        splits = refine_classes(mgr, net, {a: False, b: False}, cfg, random.Random(1))
        assert splits >= 1
        # Exact split leaves two singletons, so both leave the manager.
        assert mgr.class_of.get(g_and) is None
        assert mgr.class_of.get(g_or) is None

    def test_non_distinguishing_ce_no_split_without_window(self):
        net, a, b, g_and, g_or = self.build_and_or()
        pats = gen_random_patterns(2, 2, 0)
        pats.rows = [0b10, 0b10]
        sigs = simulate_all(net, pats)
        mgr = init_equiv_classes(net, rows_of(sigs), pats.n_patterns)
        cfg = tiny_cfg(window_cap=0)
        rng = random.Random(1)
        splits = refine_classes(mgr, net, {a: False, b: False}, cfg, rng)
        assert splits == 0
        assert mgr.class_of[g_and] == mgr.class_of[g_or]


def equal_cones() -> Network:
    """Two cones of ``(a ^ b) & c``: one reads an XOR LUT, the other an OR
    of ``a & ~b`` and ``~a & b``, so only their functions are equal."""
    net = Network()
    pis = [net.add_pi() for _ in range(3)]
    g1 = net.add_lut([pis[0], pis[1]], 0b0110)
    h1 = net.add_lut([g1, pis[2]], 0b1000)
    g2 = net.add_lut([net.add_lut([pis[0], pis[1]], 0b0100),
                      net.add_lut([pis[0], pis[1]], 0b0010)], 0b1110)
    h2 = net.add_lut([g2, pis[2]], 0b1000)
    net.add_po(h1)
    net.add_po(h2)
    return net


def parity_trees() -> Network:
    """Two equivalent parity trees: proving them by SAT needs some conflicts."""
    net = Network()
    pis = [net.add_pi() for _ in range(6)]

    def xor_tree(order):
        acc = order[0]
        for p in order[1:]:
            acc = net.add_lut([acc, p], 0b0110)
        return acc

    net.add_po(xor_tree(pis))
    net.add_po(xor_tree(pis[::-1]))
    return net


def lut_equal_to_a_pi() -> tuple[Network, int]:
    """``(a & b) | (a & ~b)``, which is ``a`` only by function."""
    net = Network()
    a, b = net.add_pi("a"), net.add_pi("b")
    g = net.add_lut([net.add_lut([a, b], 0b1000), net.add_lut([a, b], 0b0100)], 0b1110)
    net.add_po(g, name="o")
    return net, a


class TestSweep:
    # The SAT path: with the window off, every merge is proven by SAT.
    def test_duplicate_cones_merged(self):
        net = equal_cones()
        original = net.clone()
        net, stats = sweep(net, tiny_cfg(window_cap=0))
        assert stats.merges >= 1
        assert stats.sat_calls_unsat >= 1
        assert net.n_luts() < stats.initial_luts
        assert check_equivalence(original, net).equivalent

    def test_duplicate_cones_merged_by_the_window(self):
        net = equal_cones()
        original = net.clone()
        net, stats = sweep(net, tiny_cfg())
        assert stats.sat_calls_total == 0
        assert stats.window_merges == stats.merges >= 1
        assert net.n_luts() < stats.initial_luts
        assert check_equivalence(original, net).equivalent

    def test_complement_cone_merged_with_phase(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g = net.add_lut([a, b], 0b0111)
        inv_cone = net.add_lut([a, b], 0b1000)  # complement function
        top = net.add_lut([inv_cone], 0b01)  # now equals g
        net.add_po(g)
        net.add_po(top)
        original = net.clone()
        net, stats = sweep(net, tiny_cfg())
        assert stats.merges >= 1
        assert check_equivalence(original, net).equivalent

    def test_irredundant_net_unchanged(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g_and = net.add_lut([a, b], 0b1000)
        g_or = net.add_lut([a, b], 0b1110)
        net.add_po(g_and)
        net.add_po(g_or)
        net, stats = sweep(net, tiny_cfg())
        assert stats.merges == 0
        assert stats.final_luts == stats.initial_luts

    def test_stats_invariant(self):
        net = sweep_fixture(11)
        net, stats = sweep(net, tiny_cfg())
        total = stats.sat_calls_sat + stats.sat_calls_unsat + stats.sat_calls_undet
        assert stats.sat_calls_total == total

    def test_monotonic_and_equivalent_on_fixtures(self):
        for seed in range(20):
            net = sweep_fixture(seed)
            original = net.clone()
            swept, stats = sweep(net, tiny_cfg(seed=seed))
            assert swept.n_luts() <= stats.initial_luts
            assert stats.final_luts == swept.n_luts()
            result = check_equivalence(original, swept)
            assert result.equivalent, f"seed {seed}"

    def test_conflict_limit_leaves_undet_candidate_live(self, monkeypatch):
        net = parity_trees()
        original = net.clone()
        prove = sweep_module.prove_equiv
        undet: list[int] = []

        def proving(solver, a, b, **kwargs):
            out = prove(solver, a, b, **kwargs)
            if out.is_undet:
                undet.append(a)
            return out

        monkeypatch.setattr(sweep_module, "prove_equiv", proving)
        swept, stats = sweep(net, tiny_cfg(conflict_limit=1, window_cap=0))
        assert stats.sat_calls_undet >= 1
        assert undet and not any(swept.nodes[nid].dead for nid in undet)
        assert check_equivalence(original, swept).equivalent

    def test_window_merges_need_no_conflicts(self):
        # The window proves both trees' classes, so the conflict limit
        # never comes into play.
        net = parity_trees()
        original = net.clone()
        swept, stats = sweep(net, tiny_cfg(conflict_limit=1))
        assert stats.sat_calls_total == 0
        assert stats.window_merges == stats.merges >= 1
        assert swept.n_luts() < stats.initial_luts
        assert check_equivalence(original, swept).equivalent

    @pytest.mark.parametrize("conflict_limit", [0, 1])
    def test_same_config_same_result(self, conflict_limit):
        timing = ("sim_time", "total_time")
        for seed in range(4):
            runs = []
            for _ in range(2):
                swept, stats = sweep(sweep_fixture(seed),
                                     tiny_cfg(seed=seed, conflict_limit=conflict_limit))
                counts = {k: v for k, v in vars(stats).items() if k not in timing}
                runs.append((write_blif(swept), counts))
            assert runs[0] == runs[1], f"seed {seed}"

    def test_window_disabled_still_correct(self):
        for seed in (2, 5):
            net = sweep_fixture(seed)
            original = net.clone()
            swept, stats = sweep(net, tiny_cfg(seed=seed, window_cap=0))
            assert check_equivalence(original, swept).equivalent

    def test_merges_are_reprovable(self):
        # Every UNSAT merge re-proves on the pre-merge network.
        net = sweep_fixture(4)
        reference = net.clone()
        swept, stats = sweep(net, tiny_cfg(seed=4))
        assert stats.merges > 0
        # Reconstruct merge evidence: swept nodes absent but equivalent
        # drivers present; spot-check a merged pair via the reference.
        dead = [n.id for n in reference.nodes
                if not n.is_pi and swept.nodes[n.id].dead and not n.dead]
        assert dead
        checked = 0
        from helpers import exhaustive_tables

        tables = exhaustive_tables(reference)
        full = (1 << (1 << len(reference.pis))) - 1
        for d in dead:
            for other in reference.live_ids():
                if other == d or reference.nodes[other].is_pi:
                    continue
                if tables[other] == tables[d]:
                    assert prove_equiv(NetSolver(reference), d, other).status is SatStatus.UNSAT
                    checked += 1
                    break
            if checked >= 3:
                break


class TestPiDriver:
    def test_lut_equal_to_a_pi_merges_onto_it(self):
        net, a = lut_equal_to_a_pi()
        original = net.clone()
        swept, stats = sweep(net, SweepConfig(window_cap=0))
        assert swept.n_luts() == 0
        assert stats.sat_calls_total == 1 and stats.merges == 1
        assert swept.pos == [(a, False)]
        assert check_equivalence(original, swept).equivalent

    def test_window_merges_a_lut_onto_a_pi(self):
        net, a = lut_equal_to_a_pi()
        original = net.clone()
        swept, stats = sweep(net, SweepConfig())
        assert swept.n_luts() == 0
        assert stats.sat_calls_total == 0
        assert stats.merges == stats.window_merges == 1
        assert swept.pos == [(a, False)]
        assert check_equivalence(original, swept).equivalent


class TestAdderMiterQoR:
    """Swept from the inputs up, the Kogge-Stone half of an adder self-miter
    merges onto the ripple-carry half, which is all that is left."""

    @pytest.mark.parametrize("width, rca_luts", [(4, 17), (8, 37)])
    def test_sweeps_to_the_ripple_carry_adder(self, width, rca_luts, monkeypatch):
        net = adder_miter(width)
        original = net.clone()
        rank = {nid: i for i, nid in enumerate(net.topo_order())}
        merges = []
        substitute = Network.substitute_node

        def merged(old, new, inverted):
            merges.append((old, new))

        def recording(self, old, new, inverted=False, **kwargs):
            merged(old, new, inverted)
            substitute(self, old, new, inverted, **kwargs)

        on_strash_merges(monkeypatch, merged)
        monkeypatch.setattr(Network, "substitute_node", recording)
        swept, stats = sweep(net, SweepConfig())
        assert swept.n_luts() == stats.final_luts == rca_luts
        assert check_equivalence(original, swept).equivalent
        assert len(merges) == stats.merges > 0
        # Every driver ranks before its candidate in the input's order.
        assert all(rank[new] < rank[old] for old, new in merges)


class TestOneSatRoute:
    def test_sweep_and_cec_never_encode_a_cone(self, monkeypatch):
        # ``encode_cone`` is left only as a name for the benchmark's
        # tracer: the sweep and the miter CEC load cones into a NetSolver.
        def refuse(*args, **kwargs):
            raise AssertionError("encode_cone called")

        monkeypatch.setattr(sat_module, "encode_cone", refuse)
        monkeypatch.setattr(sweep_module, "encode_cone", refuse)
        net = adder_miter(9)
        original = net.clone()
        swept, stats = sweep(net, SweepConfig(window_cap=0))
        assert stats.sat_calls_unsat > 0 and stats.merges > 0
        assert len(original.pis) > WINDOW_CAP  # so CEC takes the miter route
        assert check_equivalence(original, swept).equivalent


def oracle_corpus() -> list[Network]:
    """Every ``sweep_fixture``, adder miters of 3 to 8 bits, and random
    nets of at most 14 PIs."""
    nets = [sweep_fixture(seed) for seed in range(20)]
    nets += [adder_miter(width) for width in range(3, 9)]
    rng = random.Random(61)
    for _ in range(12):
        nets.append(random_network(rng, rng.randint(6, 14), rng.randint(40, 160),
                                   max_k=4, po_count=6))
    return nets


def checked_sweep(net: Network, cfg: SweepConfig, monkeypatch):
    """Sweep ``net`` and check every merge against the input's exhaustive
    tables, and every PO of the result against the input's.  Returns the
    stats."""
    tables = lookup_tables(net)
    po_before = [tables[d] ^ phase for d, phase in net.pos]
    n_input = len(net.nodes)
    # Pairs proven by SAT: UNSAT equivalences, and the constants that
    # constant_prop merges onto its constant-0 LUT.
    proven: set[tuple[int, int]] = set()
    merges: list[tuple[int, int, bool]] = []
    prove, propagate = sweep_module.prove_equiv, sweep_module.constant_prop
    substitute = Network.substitute_node

    def proving(solver, a, b, **kwargs):
        out = prove(solver, a, b, **kwargs)
        if out.is_unsat:
            proven.add((a, b))
        return out

    def propagating(net, constants, const0=None):
        first = len(merges)
        count = propagate(net, constants, const0)
        proven.update((old, new) for old, new, _ in merges[first:])
        return count

    def merged(old, new, inverted):
        merges.append((old, new, inverted))

    def recording(self, old, new, inverted=False, **kwargs):
        merged(old, new, inverted)
        substitute(self, old, new, inverted, **kwargs)

    on_strash_merges(monkeypatch, merged)
    monkeypatch.setattr(sweep_module, "prove_equiv", proving)
    monkeypatch.setattr(sweep_module, "constant_prop", propagating)
    monkeypatch.setattr(Network, "substitute_node", recording)
    swept, stats = sweep(net, cfg)
    monkeypatch.undo()
    zero = np.zeros(1 << len(net.pis), dtype=bool)
    for old, new, inverted in merges:
        # A node the input lacks is a constant-0 LUT that strash or
        # constant_prop added.
        source, target = (tables[nid] if nid < n_input else zero for nid in (old, new))
        assert np.array_equal(source, target ^ inverted), (old, new, inverted)
    # Strash and the window merge without SAT; strash's constants count
    # as merges onto the constant-0 LUT here.
    without_sat = [(old, new) for old, new, _ in merges if (old, new) not in proven]
    assert len(without_sat) == stats.window_merges + stats.strash_merges + stats.strash_constants
    after = lookup_tables(swept)
    for before, (d, phase) in zip(po_before, swept.pos, strict=True):
        assert np.array_equal(after[d] ^ phase, before)
    return stats


class TestWindowMergeOracle:
    """A merge made without SAT, by strash or by a window, must join nodes
    that exhaustive tables of the input call equal, and the swept POs
    must keep their tables.  Few base patterns leave false candidates
    for counter-examples to split, and a window of 6 leaves some classes
    to SAT; with 16, every class of these nets fits the window."""

    @pytest.mark.parametrize("conflict_limit", [0, 1, 2, 3])
    def test_every_merge_without_sat_is_right(self, conflict_limit, monkeypatch):
        totals = dict(window_merges=0, strash_merges=0, strash_constants=0,
                      sat_calls_total=0, ce_refinements=0)
        for i, net in enumerate(oracle_corpus()):
            for window_cap in (16, 6):
                cfg = SweepConfig(conflict_limit=conflict_limit, n_base_patterns=16,
                                  seed=i, window_cap=window_cap)
                stats = checked_sweep(net.clone(), cfg, monkeypatch)
                for key in totals:
                    totals[key] += getattr(stats, key)
        assert all(totals.values()), totals

    def test_lookup_tables_match_the_scalar_walk(self):
        for net in (sweep_fixture(3), adder_miter(3), random_network(random.Random(2), 7, 40)):
            scalar, looked_up = exhaustive_tables(net), lookup_tables(net)
            assert set(scalar) == set(looked_up)
            for nid, row in scalar.items():
                assert row == sum(1 << int(v) for v in np.flatnonzero(looked_up[nid]))


class TestPatternsSimulatedOnce:
    """A sweep simulates each pattern once, and class init reads the rows
    that pattern generation kept."""

    @pytest.mark.parametrize("make, cfg, widths", [
        (lambda: and_under_inverters(300), SweepConfig(), [2048]),
        (lambda: adder_miter(16), SweepConfig(), [2048, 1, 16]),
        # One constant proven by SAT, after the 20 that strash folds.
        (lambda: sweep_fixture(1), SweepConfig(), [2048]),
        (lambda: wide_and()[0], tiny_cfg(), [64, 3, 3]),
    ], ids=["deep_chain", "adder_miter", "constants", "ce_rounds"])
    def test_class_init_reads_a_fresh_simulation(self, monkeypatch, make, cfg, widths):
        seen = {}
        generate, init = sweep_module.sat_guided_patterns, sweep_module.init_equiv_classes

        def generating(*args):
            seen["out"] = generate(*args)
            return seen["out"]

        def initializing(net, rows, n_patterns, order):
            patterns = seen["out"][0]
            assert n_patterns == patterns.n_patterns
            # The network as constant_prop left it, simulated afresh, and
            # its topological order.
            assert rows == rows_of(simulate_all(net, patterns))
            assert order == net.topo_order()
            seen["checked"] = True
            return init(net, rows, n_patterns, order)

        monkeypatch.setattr(sweep_module, "sat_guided_patterns", generating)
        monkeypatch.setattr(sweep_module, "init_equiv_classes", initializing)
        seen_widths = record_simulations(monkeypatch)
        sweep(make(), cfg)
        assert seen.get("checked")
        # One call at the base width, then one per round that added
        # counter-examples, each of that round's patterns alone.
        assert seen_widths == widths and sum(widths) == seen["out"][0].n_patterns


class TestInverterChain:
    def test_ten_thousand_inverters(self, monkeypatch):
        # Counted, not timed: no SAT call and no cycle walk per merge, and
        # strash absorbs every inverter before any simulation.
        net = Network()
        x, y = net.add_pi(), net.add_pi()
        s = net.add_lut([x, y], 0b1000)
        for _ in range(10_000):
            s = net.add_lut([s], 0b01)
        net.add_po(s)
        original = net.clone()
        walks = []
        is_in_tfo = Network.is_in_tfo

        def counting(self, a, b):
            walks.append((a, b))
            return is_in_tfo(self, a, b)

        monkeypatch.setattr(Network, "is_in_tfo", counting)
        swept, stats = sweep(net, SweepConfig())
        assert swept.n_luts() == stats.final_luts == 1
        assert stats.sat_calls_total == 0 and walks == []
        assert stats.merges == stats.strash_merges == 10_000
        assert stats.window_merges == 0
        assert check_equivalence(original, swept).equivalent


    def test_a_po_on_every_inverter(self):
        net = Network()
        top = net.add_lut([net.add_pi(), net.add_pi()], 0b1000)
        s = top
        for _ in range(1000):
            s = net.add_lut([s], 0b01)
            net.add_po(s)
        original = net.clone()
        swept, stats = sweep(net, SweepConfig())
        assert swept.n_luts() == stats.final_luts == 1
        # Inverter j computes the AND complemented j + 1 times.
        assert swept.pos == [(top, j % 2 == 0) for j in range(1000)]
        assert check_equivalence(original, swept).equivalent


class TestStrashAtSweepEntry:
    """Strash runs before any simulation or SAT query, and the structure
    it settles leaves the sweep few queries.  Counted, not timed."""

    def test_adder_duplicates_merge_before_simulation(self, monkeypatch):
        events = []
        simulate, substitute = sweep_module._simulate, Network.substitute_node

        def simulating(*args):
            events.append("simulate")
            return simulate(*args)

        def merged(old, new, inverted):
            events.append("merge")

        def recording(self, old, new, inverted=False, **kwargs):
            merged(old, new, inverted)
            substitute(self, old, new, inverted, **kwargs)

        on_strash_merges(monkeypatch, merged)
        monkeypatch.setattr(sweep_module, "_simulate", simulating)
        monkeypatch.setattr(Network, "substitute_node", recording)
        _, stats = sweep(adder_miter(8), SweepConfig())
        assert stats.strash_merges == 20 and stats.sat_calls_total == 0
        assert events[:21] == ["merge"] * 20 + ["simulate"]

    def test_random_net_needs_few_queries(self):
        # rand(2,000, 6): without strash the sweep made 786 SAT calls and
        # ended at 392 LUTs.
        net = random_network(random.Random(7), 64, 2000, max_k=6, po_count=32,
                             fresh_bias=0.6)
        _, stats = sweep(net, SweepConfig())
        assert stats.sat_calls_total <= 20
        assert stats.final_luts <= 392


class TestWindowMerges:
    """A candidate of a window-refined class merges onto the first member
    of its class with no SAT call; every other merge of the proving loop
    follows an UNSAT answer for the same pair.  Strash merges come first,
    before the classes exist.  The deep chain is of XOR pairs, which
    strash leaves to the window; it absorbs an inverter chain at once."""

    @pytest.mark.parametrize("make, cfg, n_window, n_sat", [
        (lambda: adder_miter(8), SweepConfig(), 11, 0),
        (lambda: adder_miter(8), SweepConfig(window_cap=0), 0, 11),
        (lambda: and_under_xor_pairs(150), SweepConfig(), 299, 0),
        (undet_network, SweepConfig(n_base_patterns=16), 1, 7),
    ], ids=["adder_miter", "adder_miter_sat", "deep_chain", "undet_network"])
    def test_window_merges_take_the_first_member(self, monkeypatch, make, cfg, n_window, n_sat):
        seen, proofs, merges = {}, [], []
        init, prove = sweep_module.init_equiv_classes, sweep_module.prove_equiv
        substitute = Network.substitute_node

        def initializing(*args):
            seen["mgr"] = init(*args)
            return seen["mgr"]

        def proving(solver, a, b, **kwargs):
            proofs.append((a, b))
            return prove(solver, a, b, **kwargs)

        def recording(self, old, new, inverted=False, **kwargs):
            mgr = seen.get("mgr")
            # strash and constant_prop substitute before the classes exist.
            if mgr is not None:
                cid = mgr.class_of[old]
                merges.append((old, new, cid in mgr.window_refined, mgr.members[cid][0],
                               proofs[-1] if proofs else None))
            substitute(self, old, new, inverted, **kwargs)

        monkeypatch.setattr(sweep_module, "init_equiv_classes", initializing)
        monkeypatch.setattr(sweep_module, "prove_equiv", proving)
        monkeypatch.setattr(Network, "substitute_node", recording)
        _, stats = sweep(make(), cfg)
        window = [(old, new, first) for old, new, refined, first, _ in merges if refined]
        assert len(window) == stats.window_merges == n_window
        assert all(new == first for _, new, first in window)
        asked = {a for a, _ in proofs}
        assert not any(old in asked for old, _, _ in window)
        assert all(last == (old, new) for old, new, refined, _, last in merges if not refined)
        assert stats.sat_calls_total == n_sat


class TestLimitedBudgetQoR:
    """An UNDET answer ends its candidate's search, so under a conflict
    limit the result depends on how hard each query is.  This net sweeps
    to 13 LUTs unlimited.  Over the LUTs' cover clauses it reaches 13 at
    limits 2 and 3 too; over one clause per minterm it left 15, the
    one-shot sweep left 16, and a sweep that branched on every loaded
    variable hit an early UNDET and left 30."""

    @pytest.mark.parametrize("conflict_limit", [2, 3])
    def test_random_net_under_a_small_budget(self, conflict_limit):
        net = random_network(random.Random(54), 12, 202, max_k=4, po_count=6)
        original = net.clone()
        swept, stats = sweep(net, SweepConfig(conflict_limit=conflict_limit, seed=7))
        assert stats.initial_luts == 202
        assert swept.n_luts() == 13
        assert check_equivalence(original, swept).equivalent


def golden(sha1: str, *counts: int) -> tuple[str, dict[str, int]]:
    """A recorded sweep: the SHA-1 of its BLIF and its count fields."""
    fields = ("sat_calls_total", "sat_calls_sat", "sat_calls_unsat", "sat_calls_undet",
              "merges", "window_merges", "strash_merges", "constants", "strash_constants",
              "ce_refinements", "initial_luts", "final_luts")
    return sha1, dict(zip(fields, counts))


class TestGoldenSweeps:
    """Recorded results of whole sweeps.  A change that only removes
    code must leave each BLIF and every count but the timings as it is.
    The UNDET network's sweep refines its classes by four counter-examples
    at no conflict limit, and at a limit of 1 one of those queries is
    UNDET instead."""

    CASES = [
        ("adder_miter(8)", lambda: adder_miter(8), SweepConfig(),
         golden("1394aa57d80bb997305045bb09ded70e07e17dd6",
                0, 0, 0, 0, 31, 11, 20, 0, 0, 0, 104, 37)),
        ("sweep_fixture(0)", lambda: sweep_fixture(0), SweepConfig(),
         golden("a8386c072645b83b1a0fd853a4899bb8715fee34",
                1, 0, 1, 0, 14, 1, 13, 3, 2, 0, 35, 10)),
        ("sweep_fixture(1)", lambda: sweep_fixture(1), SweepConfig(),
         golden("a9d94283fa2339a07daa837df81e70eac7677a32",
                1, 0, 1, 0, 5, 1, 4, 21, 20, 0, 39, 7)),
        ("sweep_fixture(2)", lambda: sweep_fixture(2), SweepConfig(),
         golden("8e53ca42f4b3270fd5a5731db7f5c640b9ea08eb",
                1, 0, 1, 0, 8, 2, 6, 7, 6, 0, 32, 14)),
        ("sweep_fixture(3)", lambda: sweep_fixture(3), SweepConfig(),
         golden("ec407cd2951391711855b983ef176782de518249",
                2, 0, 2, 0, 10, 1, 9, 9, 7, 0, 38, 11)),
        ("undet_network, no limit", undet_network, SweepConfig(n_base_patterns=16),
         golden("1ffacc3b840f6ea9b38fd9978adc6eb5c8e9c40e",
                7, 7, 0, 0, 63, 1, 62, 40, 40, 4, 262, 57)),
        ("undet_network, limit 1", undet_network,
         SweepConfig(conflict_limit=1, n_base_patterns=16),
         golden("1ffacc3b840f6ea9b38fd9978adc6eb5c8e9c40e",
                7, 6, 0, 1, 63, 1, 62, 40, 40, 3, 262, 57)),
    ]

    @pytest.mark.parametrize("make, cfg, expected", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_sweep_matches_its_record(self, make, cfg, expected):
        swept, stats = sweep(make(), cfg)
        counts = {k: v for k, v in vars(stats).items() if k not in ("sim_time", "total_time")}
        assert (hashlib.sha1(write_blif(swept).encode()).hexdigest(), counts) == expected
