"""Pattern guidance, equivalence classes, refinement, and full sweeps."""

import importlib
import random

import numpy as np
import pytest

from stpsweep import (
    NetSolver,
    Network,
    SweepConfig,
    check_equivalence,
    constant_prop,
    gen_random_patterns,
    init_equiv_classes,
    prove_equiv,
    refine_classes,
    sat_guided_patterns,
    simulate_all,
    sweep,
    toggle_rate,
    write_blif,
)
from stpsweep.sat import SatStatus
from helpers import (
    adder_miter, exhaustive_tables, lookup_tables, po_tables, random_network, sweep_fixture,
)

# The package exports the ``sweep`` function under the module's name.
sweep_module = importlib.import_module("stpsweep.sweep")
sat_module = importlib.import_module("stpsweep.sat")


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
        patterns, constants = sat_guided_patterns(NetSolver(net), tiny_cfg())
        assert (zero, False) in constants

    def test_constant_one_found(self):
        net = Network()
        a = net.add_pi()
        na = net.add_lut([a], 0b01)
        one = net.add_lut([a, na], 0b1110)  # a | ~a
        net.add_po(one)
        _, constants = sat_guided_patterns(NetSolver(net), tiny_cfg())
        assert (one, True) in constants

    def test_wide_and_gets_its_minterm(self):
        # Eight-input AND: the single satisfying pattern is found by SAT.
        net = Network()
        pis = [net.add_pi() for _ in range(8)]
        acc = pis[0]
        for p in pis[1:]:
            acc = net.add_lut([acc, p], 0b1000)
        net.add_po(acc)
        patterns, constants = sat_guided_patterns(NetSolver(net), tiny_cfg())
        assert constants == []
        sigs = simulate_all(net, patterns)
        assert sigs[acc].bits != 0  # some pattern drives the AND to one

    def test_patterns_grow_deterministically(self):
        net = sweep_fixture(3)
        p1, c1 = sat_guided_patterns(NetSolver(net.clone()), tiny_cfg())
        p2, c2 = sat_guided_patterns(NetSolver(net.clone()), tiny_cfg())
        assert p1.rows == p2.rows and c1 == c2


class TestToggleRate:
    def test_constant_is_zero(self):
        assert toggle_rate(0, 64) == 0.0
        assert toggle_rate((1 << 64) - 1, 64) == 0.0

    def test_alternating_is_one(self):
        bits = int("10" * 32, 2)
        assert toggle_rate(bits, 64) == 1.0


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


class TestClasses:
    def test_duplicate_cones_share_class(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g1 = net.add_lut([a, b], 0b0110)
        g2 = net.add_lut([a, b], 0b0110)
        net.add_po(g1)
        net.add_po(g2)
        sigs = simulate_all(net, gen_random_patterns(2, 64, 5))
        mgr = init_equiv_classes(net, sigs)
        assert mgr.class_of[g1] == mgr.class_of[g2]
        assert mgr.phase_of[g1] == mgr.phase_of[g2]

    def test_complement_same_class_opposite_phase(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g = net.add_lut([a, b], 0b0110)
        inv = net.add_lut([g], 0b01)
        net.add_po(inv)
        sigs = simulate_all(net, gen_random_patterns(2, 64, 5))
        mgr = init_equiv_classes(net, sigs)
        assert mgr.class_of[g] == mgr.class_of[inv]
        assert mgr.phase_of[g] != mgr.phase_of[inv]

    def test_members_share_normalized_signature(self):
        rng = random.Random(88)
        net = random_network(rng, 4, 30, po_count=2)
        pats = gen_random_patterns(4, 16, 3)
        sigs = simulate_all(net, pats)
        mgr = init_equiv_classes(net, sigs)
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
        sigs = simulate_all(net, gen_random_patterns(4, 8, 3))
        mgr = init_equiv_classes(net, sigs)
        rank = mgr.topo_rank
        for nodes in mgr.members.values():
            assert nodes == sorted(nodes, key=rank.__getitem__)


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
        mgr = init_equiv_classes(net, sigs)
        assert mgr.class_of[g_and] == mgr.class_of[g_or]
        cfg = tiny_cfg(window_cap=0)  # isolate the pattern route
        splits = refine_classes(mgr, net, {a: True, b: False}, cfg)
        assert splits >= 1
        assert mgr.class_of.get(g_and) != mgr.class_of.get(g_or)

    def test_window_splits_without_ce(self):
        net, a, b, g_and, g_or = self.build_and_or()
        pats = gen_random_patterns(2, 2, 0)
        pats.rows = [0b10, 0b10]
        sigs = simulate_all(net, pats)
        mgr = init_equiv_classes(net, sigs)
        cfg = tiny_cfg()
        # A non-distinguishing counter-example: the window does the split.
        splits = refine_classes(mgr, net, {a: False, b: False}, cfg)
        assert splits >= 1
        # Exact split leaves two singletons, so both leave the manager.
        assert mgr.class_of.get(g_and) is None
        assert mgr.class_of.get(g_or) is None

    def test_non_distinguishing_ce_no_split_without_window(self):
        net, a, b, g_and, g_or = self.build_and_or()
        pats = gen_random_patterns(2, 2, 0)
        pats.rows = [0b10, 0b10]
        sigs = simulate_all(net, pats)
        mgr = init_equiv_classes(net, sigs)
        cfg = tiny_cfg(window_cap=0)
        rng = random.Random(1)
        splits = refine_classes(mgr, net, {a: False, b: False}, cfg, rng)
        assert splits == 0
        assert mgr.class_of[g_and] == mgr.class_of[g_or]


def duplicate_cones() -> Network:
    net = Network()
    pis = [net.add_pi() for _ in range(3)]
    g1 = net.add_lut([pis[0], pis[1]], 0b0110)
    h1 = net.add_lut([g1, pis[2]], 0b1000)
    g2 = net.add_lut([pis[0], pis[1]], 0b0110)
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
    net = Network()
    a, b = net.add_pi("a"), net.add_pi("b")
    g = net.add_lut([a, b], 0b1100)  # = a
    net.add_po(g, name="o")
    return net, a


class TestSweep:
    # The SAT path: with the window off, every merge is proven by SAT.
    def test_duplicate_cones_merged(self):
        net = duplicate_cones()
        original = net.clone()
        net, stats = sweep(net, tiny_cfg(window_cap=0))
        assert stats.merges >= 1
        assert stats.sat_calls_unsat >= 1
        assert net.n_luts() < stats.initial_luts
        assert check_equivalence(original, net).equivalent

    def test_duplicate_cones_merged_by_the_window(self):
        net = duplicate_cones()
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

    def test_conflict_limit_marks_dont_touch(self):
        net = parity_trees()
        original = net.clone()
        swept, stats = sweep(net, tiny_cfg(conflict_limit=1, window_cap=0))
        assert stats.sat_calls_undet >= 1
        assert any(n.dont_touch for n in swept.nodes)
        assert check_equivalence(original, swept).equivalent

    def test_window_merges_need_no_conflicts(self):
        # The window proves both trees' classes, so the conflict limit
        # never comes into play.
        net = parity_trees()
        original = net.clone()
        swept, stats = sweep(net, tiny_cfg(conflict_limit=1))
        assert stats.sat_calls_total == 0
        assert stats.window_merges == stats.merges >= 1
        assert not any(n.dont_touch for n in swept.nodes)
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

        def recording(self, old, new, inverted=False, **kwargs):
            merges.append((old, new))
            substitute(self, old, new, inverted, **kwargs)

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
        net = adder_miter(8)
        original = net.clone()
        swept, stats = sweep(net, SweepConfig(window_cap=0))
        assert stats.sat_calls_unsat > 0 and stats.merges > 0
        assert len(original.pis) > 14  # so CEC takes the miter route
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
    tables.  Returns the stats."""
    tables = lookup_tables(net)
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

    def propagating(net, constants):
        first = len(merges)
        count = propagate(net, constants)
        proven.update((old, new) for old, new, _ in merges[first:])
        return count

    def recording(self, old, new, inverted=False, **kwargs):
        merges.append((old, new, inverted))
        substitute(self, old, new, inverted, **kwargs)

    monkeypatch.setattr(sweep_module, "prove_equiv", proving)
    monkeypatch.setattr(sweep_module, "constant_prop", propagating)
    monkeypatch.setattr(Network, "substitute_node", recording)
    swept, stats = sweep(net, cfg)
    monkeypatch.undo()
    zero = np.zeros(1 << len(net.pis), dtype=bool)
    for old, new, inverted in merges:
        # A node the input lacks is the constant-0 LUT of constant_prop.
        target = tables[new] if new < n_input else zero
        assert np.array_equal(tables[old], target ^ inverted), (old, new, inverted)
    without_sat = [(old, new) for old, new, _ in merges if (old, new) not in proven]
    assert len(without_sat) == stats.window_merges
    return stats


class TestWindowMergeOracle:
    """A merge made without SAT must join nodes that exhaustive tables of
    the input call equal.  Few base patterns leave false candidates for
    counter-examples to split, and a window of 6 leaves some classes to
    SAT; with 16, every class of these nets fits the window."""

    @pytest.mark.parametrize("conflict_limit", [0, 1, 2, 3])
    def test_every_merge_without_sat_is_right(self, conflict_limit, monkeypatch):
        totals = dict(window_merges=0, sat_calls_total=0, ce_refinements=0)
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


class TestInverterChain:
    def test_ten_thousand_inverters(self, monkeypatch):
        # Counted, not timed: no SAT call and no cycle walk per merge.
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
        assert stats.merges == stats.window_merges == 10_000
        assert check_equivalence(original, swept).equivalent


class TestLimitedBudgetQoR:
    """An UNDET answer marks its candidate ``dont_touch``, so under a
    conflict limit the result depends on how hard each query is.  This
    net sweeps to 13 LUTs unlimited.  Over the LUTs' cover clauses it
    reaches 13 at limits 2 and 3 too; over one clause per minterm it
    left 15, the one-shot sweep left 16, and a sweep that branched on
    every loaded variable hit an early UNDET and left 30."""

    @pytest.mark.parametrize("conflict_limit", [2, 3])
    def test_random_net_under_a_small_budget(self, conflict_limit):
        net = random_network(random.Random(54), 12, 202, max_k=4, po_count=6)
        original = net.clone()
        swept, stats = sweep(net, SweepConfig(conflict_limit=conflict_limit, seed=7))
        assert stats.initial_luts == 202
        assert swept.n_luts() == 13
        assert check_equivalence(original, swept).equivalent
