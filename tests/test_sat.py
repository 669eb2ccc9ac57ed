"""CDCL solver, cone encoding, and equivalence queries."""

import random

import numpy as np
import pytest

from stpsweep import (
    Cnf,
    Network,
    SatStatus,
    Solver,
    SweepConfig,
    encode_cone,
    prove_equiv,
    solve,
    sweep,
)
from stpsweep.sat import add_xor
from helpers import eval_assignment, exhaustive_tables, random_network, sweep_fixture


def cnf_from_clauses(n_vars: int, clauses) -> Cnf:
    cnf = Cnf()
    for _ in range(n_vars):
        cnf.new_var()
    for cl in clauses:
        cnf.add_clause(list(cl))
    return cnf


def enumerate_satisfiable(n_vars: int, clauses) -> bool:
    """Chunked numpy enumeration over all assignments (oracle)."""
    chunk_bits = min(n_vars, 16)
    n_chunks = 1 << (n_vars - chunk_bits)
    base = np.arange(1 << chunk_bits, dtype=np.uint32)
    for hi in range(n_chunks):
        assign = base | np.uint32(hi << chunk_bits)
        ok = np.ones(assign.shape, dtype=bool)
        for clause in clauses:
            cl_ok = np.zeros(assign.shape, dtype=bool)
            for lit in clause:
                bit = (assign >> np.uint32(abs(lit) - 1)) & 1
                cl_ok |= bit.astype(bool) if lit > 0 else ~bit.astype(bool)
            ok &= cl_ok
            if not ok.any():
                break
        if ok.any():
            return True
    return False


def check_model(clauses, model: dict[int, bool]) -> bool:
    return all(any(model[abs(l)] == (l > 0) for l in cl) for cl in clauses)


def pigeonhole(holes: int) -> Cnf:
    """``holes + 1`` pigeons into ``holes`` holes: unsatisfiable."""
    cnf = Cnf()
    pigeons = holes + 1
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


def live(cnf: Cnf) -> Solver:
    return Solver(cnf.n_vars, cnf.clauses)


def random_3sat(seed: int, n_vars: int = 80) -> Cnf:
    """Random 3-SAT at clause ratio 4.3, near the satisfiability threshold."""
    rng = random.Random(seed)
    cnf = Cnf()
    for _ in range(n_vars):
        cnf.new_var()
    for _ in range(int(4.3 * n_vars)):
        vs = rng.sample(range(1, n_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    return cnf


def random_cnf(rng: random.Random, n_vars: int):
    n_clauses = rng.randint(1, int(4.5 * n_vars))
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(1, 3)
        vs = rng.sample(range(1, n_vars + 1), min(width, n_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


class TestSolver:
    def test_contradiction(self):
        cnf = cnf_from_clauses(1, [[1], [-1]])
        assert solve(cnf).status is SatStatus.UNSAT

    def test_simple_sat(self):
        cnf = cnf_from_clauses(2, [[1, 2]])
        out = solve(cnf)
        assert out.status is SatStatus.SAT
        assert out.model[1] or out.model[2]

    def test_assumptions(self):
        cnf = cnf_from_clauses(2, [[1, 2]])
        assert solve(cnf, assumptions=[-1, -2]).status is SatStatus.UNSAT
        out = solve(cnf, assumptions=[-1])
        assert out.status is SatStatus.SAT and out.model[2]

    def test_agrees_with_enumeration(self):
        rng = random.Random(2025)
        for _ in range(300):
            n_vars = rng.randint(2, 20)
            clauses = random_cnf(rng, n_vars)
            cnf = cnf_from_clauses(n_vars, clauses)
            got = solve(cnf)
            expected = enumerate_satisfiable(n_vars, clauses)
            assert (got.status is SatStatus.SAT) == expected
            if got.status is SatStatus.SAT:
                assert check_model(clauses, got.model)

    def test_deterministic(self):
        rng = random.Random(5)
        clauses = random_cnf(rng, 30)
        cnf = cnf_from_clauses(30, clauses)
        first = solve(cnf)
        second = solve(cnf)
        assert first.status == second.status
        assert first.model == second.model

    def test_conflict_limit_yields_undet(self):
        # Pigeonhole 5 into 4: hard enough to exceed one conflict.
        cnf = pigeonhole(4)
        assert solve(cnf).status is SatStatus.UNSAT
        assert solve(cnf, conflict_limit=1).status is SatStatus.UNDET

    def test_empty_clause_rejected(self):
        cnf = Cnf()
        cnf.new_var()
        with pytest.raises(ValueError):
            cnf.add_clause([])

    def test_dimacs_export(self):
        cnf = cnf_from_clauses(2, [[1, -2]])
        text = cnf.to_dimacs()
        assert text.splitlines()[0] == "p cnf 2 1"
        assert "1 -2 0" in text


class TestIncremental:
    """One live solver asked many queries in turn."""

    def test_assumption_sets_agree_with_enumeration(self):
        rng = random.Random(2026)
        for _ in range(60):
            n_vars = rng.randint(2, 14)
            clauses = random_cnf(rng, n_vars)
            cnf = cnf_from_clauses(n_vars, clauses)
            solver = Solver(cnf.n_vars, cnf.clauses)
            for _ in range(rng.randint(5, 10)):
                vs = rng.sample(range(1, n_vars + 1), rng.randint(0, min(4, n_vars)))
                assumptions = [v if rng.random() < 0.5 else -v for v in vs]
                got = solve(solver, assumptions=assumptions)
                expected = enumerate_satisfiable(
                    n_vars, clauses + [[lit] for lit in assumptions])
                assert (got.status is SatStatus.SAT) == expected
                if got.is_sat:
                    assert check_model(clauses + [[lit] for lit in assumptions], got.model)

    def test_assumption_false_at_level_zero(self):
        # Clauses force 1 and then 2; assuming -2 contradicts level 0.
        solver = Solver(3, [[1], [-1, 2], [2, 3]])
        assert solve(solver, assumptions=[-2]).is_unsat
        out = solve(solver, assumptions=[-3])
        assert out.is_sat and out.model[1] and out.model[2] and not out.model[3]
        assert solve(solver, assumptions=[3, -1]).is_unsat
        assert solve(solver).is_sat

    def test_conflict_limit_then_no_limit(self):
        solver = live(pigeonhole(4))
        assert solve(solver, conflict_limit=1).is_undet
        out = solve(solver)
        assert out.is_unsat and out.conflicts > 0

    def test_level_zero_contradiction_is_permanent(self):
        solver = Solver(2, [[1], [-1], [1, 2]])
        for assumptions in ([], [2], [-2], [1, 2]):
            assert solve(solver, assumptions=assumptions).is_unsat
        # Found by search, not by the units alone.
        solver = live(pigeonhole(4))
        assert solve(solver).is_unsat
        for assumptions in ([], [1], [-1, 2], [1, 2, 3]):
            out = solve(solver, assumptions=assumptions)
            assert out.is_unsat and out.conflicts == 0

    def test_learnt_clauses_carry_over(self):
        # The second identical query reuses what the first one learnt.
        solver = live(pigeonhole(5))
        first = solve(solver, assumptions=[1])
        second = solve(solver, assumptions=[1])
        assert first.is_unsat and second.is_unsat
        assert second.conflicts < first.conflicts

    def test_out_of_range_assumption_rejected(self):
        solver = Solver(2, [[1, 2]])
        with pytest.raises(ValueError):
            solve(solver, assumptions=[3])


class TestSearchPinned:
    """``(status, conflicts)`` recorded from the search before the solver
    became incremental; a kernel edit that changes the search fails here."""

    def test_pigeonhole(self):
        out = solve(pigeonhole(4))
        assert (out.status, out.conflicts) == (SatStatus.UNSAT, 28)

    GOLDEN_3SAT = [152, 102, 230, 293, 201, 142]
    #: The same instances with activities rescaled past 2.0 instead of
    #: 1e100: rescaling leaves stale heap entries, and that changes the search.
    GOLDEN_3SAT_RESCALE_2 = [182, 99, 258, 293, 213, 136]

    def test_random_3sat(self, monkeypatch):
        got = [solve(random_3sat(seed)) for seed in range(6)]
        assert all(o.is_unsat for o in got)
        assert [o.conflicts for o in got] == self.GOLDEN_3SAT
        monkeypatch.setattr(Solver, "_RESCALE", 2.0)
        assert [solve(random_3sat(seed)).conflicts for seed in range(6)] == self.GOLDEN_3SAT_RESCALE_2

    def test_every_query_of_a_sweep(self, monkeypatch):
        log = []
        original = Solver.solve

        def recording(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            log.append((out.status, out.conflicts))
            return out

        monkeypatch.setattr(Solver, "solve", recording)
        sweep(sweep_fixture(0), SweepConfig())
        unsat = SatStatus.UNSAT
        assert log == [(unsat, 0), (unsat, 0), (unsat, 2), (unsat, 4),
                       (unsat, 2), (unsat, 2), (unsat, 2), (unsat, 2)]


class TestEncodeCone:
    def test_and_gate_assignments(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g = net.add_lut([a, b], 0b1000)
        cnf = encode_cone(net, [g])
        va, vb, vg = cnf.node_var[a], cnf.node_var[b], cnf.node_var[g]
        # All eight (a, b, y) combinations: only consistent ones satisfiable.
        for v in range(8):
            bits = {va: bool(v >> 2 & 1), vb: bool(v >> 1 & 1), vg: bool(v & 1)}
            assumptions = [var if val else -var for var, val in bits.items()]
            expected = bits[vg] == (bits[va] and bits[vb])
            got = solve(cnf, assumptions=assumptions)
            assert (got.status is SatStatus.SAT) == expected

    def test_inverter_two_clauses(self):
        net = Network()
        a = net.add_pi()
        g = net.add_lut([a], 0b01)
        cnf = encode_cone(net, [g])
        assert len(cnf.clauses) == 2

    def test_projected_model_count(self):
        # The satisfying assignments projected to the PIs are exactly 2^|PI|.
        rng = random.Random(3)
        for _ in range(10):
            net = random_network(rng, rng.randint(2, 6), rng.randint(2, 12), max_k=3)
            roots = [n.id for n in net.nodes if not n.is_pi][-1:]
            if not roots:
                continue
            cnf = encode_cone(net, roots)
            pis = [nid for nid in cnf.node_var if net.nodes[nid].is_pi]
            count = 0
            for v in range(1 << len(pis)):
                assumptions = []
                for i, pid in enumerate(pis):
                    val = bool(v >> i & 1)
                    assumptions.append(cnf.node_var[pid] if val else -cnf.node_var[pid])
                if solve(cnf, assumptions=assumptions).status is SatStatus.SAT:
                    count += 1
            assert count == 1 << len(pis)

    def test_cone_restricted(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g = net.add_lut([a], 0b01)
        other = net.add_lut([b], 0b01)
        cnf = encode_cone(net, [g])
        assert other not in cnf.node_var
        assert b not in cnf.node_var


class TestProveEquiv:
    def test_identical_structure(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g1 = net.add_lut([a, b], 0b1000)
        g2 = net.add_lut([a, b], 0b1000)
        assert prove_equiv(net, g1, g2).status is SatStatus.UNSAT

    def test_node_vs_its_inverter(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g = net.add_lut([a, b], 0b0110)
        inv = net.add_lut([g], 0b01)
        assert prove_equiv(net, g, inv, inverted=True).status is SatStatus.UNSAT
        assert prove_equiv(net, g, inv, inverted=False).status is SatStatus.SAT

    def test_and_vs_or_counterexample(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g_and = net.add_lut([a, b], 0b1000)
        g_or = net.add_lut([a, b], 0b1110)
        out = prove_equiv(net, g_and, g_or)
        assert out.status is SatStatus.SAT
        assert set(out.model) == {a, b}
        assert out.model[a] != out.model[b]  # exactly one input true

    def test_counterexample_is_sound(self):
        rng = random.Random(17)
        checked = 0
        while checked < 40:
            net = random_network(rng, rng.randint(2, 8), rng.randint(3, 25), max_k=3)
            gates = [n.id for n in net.nodes if not n.is_pi and not n.dead]
            if len(gates) < 2:
                continue
            x, y = rng.sample(gates, 2)
            inverted = bool(rng.getrandbits(1))
            out = prove_equiv(net, x, y, inverted=inverted)
            if out.status is not SatStatus.SAT:
                continue
            checked += 1
            assignment = dict(out.model)
            for pid in net.pis:
                assignment.setdefault(pid, False)
            values = eval_assignment(net, assignment)
            assert values[x] != (values[y] ^ inverted)

    def test_agrees_with_truth_tables(self):
        rng = random.Random(19)
        for _ in range(12):
            net = random_network(rng, rng.randint(2, 8), rng.randint(3, 14), max_k=3)
            tables = exhaustive_tables(net)
            full = (1 << (1 << len(net.pis))) - 1
            ids = [n.id for n in net.nodes if not n.dead]
            for i, x in enumerate(ids):
                for y in ids[i + 1:]:
                    same = tables[x] == tables[y]
                    compl = tables[x] == tables[y] ^ full
                    assert (prove_equiv(net, x, y).status is SatStatus.UNSAT) == same
                    assert (
                        prove_equiv(net, x, y, inverted=True).status is SatStatus.UNSAT
                    ) == compl

    def test_conflicts_passed_through(self):
        # 6-input parity as one LUT and as a chain of XNORs (an even
        # number of them, so the same function): UNSAT only after search.
        net = Network()
        xs = [net.add_pi() for _ in range(6)]
        g = net.add_lut(xs, sum(1 << v for v in range(64) if bin(v).count("1") % 2))
        h = xs[0]
        for x in xs[1:]:
            h = net.add_lut([h, x], 0b1001)
        h = net.add_lut([h], 0b01)
        out = prove_equiv(net, g, h)
        cnf = encode_cone(net, [g, h])
        t = add_xor(cnf, cnf.node_var[g], cnf.node_var[h])
        by_hand = solve(cnf, assumptions=[t])
        assert out.is_unsat and by_hand.is_unsat
        assert out.conflicts == by_hand.conflicts > 0
        # A counter-example keeps the count too.
        out = prove_equiv(net, g, h, inverted=True)
        by_hand = solve(cnf, assumptions=[-t])
        assert out.is_sat and by_hand.is_sat
        assert out.conflicts == by_hand.conflicts

    def test_same_node_rejected(self):
        net = Network()
        a = net.add_pi()
        g = net.add_lut([a], 0b01)
        with pytest.raises(ValueError):
            prove_equiv(net, g, g)
