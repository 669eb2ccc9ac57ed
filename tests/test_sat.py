"""CDCL solver, net-bound cone loading, and equivalence queries."""

import hashlib
import random

import numpy as np
import pytest

from stpsweep import (
    NetSolver,
    Network,
    SatStatus,
    Solver,
    SweepConfig,
    check_equivalence,
    prove_equiv,
    solve,
    sweep,
)
import stpsweep.sat as sat_module
from helpers import (
    adder_miter, eval_assignment, exhaustive_tables, random_network, sweep_fixture, undet_network,
)


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


def pigeonhole(holes: int) -> tuple[int, list[list[int]]]:
    """``holes + 1`` pigeons into ``holes`` holes, unsatisfiable: ``(n_vars, clauses)``.

    Pigeon ``p`` in hole ``h`` is variable ``p * holes + h + 1``.
    """
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def random_3sat(seed: int, n_vars: int = 80) -> tuple[int, list[list[int]]]:
    """Random 3-SAT at clause ratio 4.3, near the satisfiability threshold."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(int(4.3 * n_vars)):
        vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return n_vars, clauses


def parity_pair() -> tuple[Network, int, int]:
    """6-input parity as one LUT and as a chain of XNORs (an even number
    of them, so the same function): proven equal only after search."""
    net = Network()
    xs = [net.add_pi() for _ in range(6)]
    g = net.add_lut(xs, sum(1 << v for v in range(64) if bin(v).count("1") % 2))
    h = xs[0]
    for x in xs[1:]:
        h = net.add_lut([h, x], 0b1001)
    h = net.add_lut([h], 0b01)
    return net, g, h


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
        assert solve(Solver(1, [[1], [-1]])).status is SatStatus.UNSAT

    def test_simple_sat(self):
        out = solve(Solver(2, [[1, 2]]))
        assert out.status is SatStatus.SAT
        assert out.model[1] or out.model[2]

    def test_assumptions(self):
        assert solve(Solver(2, [[1, 2]]), assumptions=[-1, -2]).status is SatStatus.UNSAT
        out = solve(Solver(2, [[1, 2]]), assumptions=[-1])
        assert out.status is SatStatus.SAT and out.model[2]

    def test_agrees_with_enumeration(self):
        rng = random.Random(2025)
        for _ in range(300):
            n_vars = rng.randint(2, 20)
            clauses = random_cnf(rng, n_vars)
            got = solve(Solver(n_vars, clauses))
            expected = enumerate_satisfiable(n_vars, clauses)
            assert (got.status is SatStatus.SAT) == expected
            if got.status is SatStatus.SAT:
                assert check_model(clauses, got.model)

    def test_deterministic(self):
        rng = random.Random(5)
        clauses = random_cnf(rng, 30)
        first = solve(Solver(30, clauses))
        second = solve(Solver(30, clauses))
        assert first.status == second.status
        assert first.model == second.model

    def test_conflict_limit_yields_undet(self):
        # Pigeonhole 5 into 4: hard enough to exceed one conflict.
        assert solve(Solver(*pigeonhole(4))).status is SatStatus.UNSAT
        assert solve(Solver(*pigeonhole(4)), conflict_limit=1).status is SatStatus.UNDET

    def test_empty_clause_is_unsat(self):
        assert solve(Solver(1, [[]])).is_unsat
        assert solve(Solver(2, [[1, 2], [], [-1]]), assumptions=[2]).is_unsat
        solver = Solver(1, [[1]])
        assert solve(solver).is_sat
        solver.add_clause([])
        assert solve(solver).is_unsat

    @pytest.mark.parametrize("clause", [[0, 1], [3, 1], [1, -3], [0], [-5]])
    def test_literal_outside_the_variables_rejected(self, clause):
        with pytest.raises(ValueError):
            Solver(2, [clause, [-1]])
        # Between calls too, and the rejected clause leaves no trace.
        solver = Solver(2, [[1, 2]])
        with pytest.raises(ValueError):
            solver.add_clause(clause)
        out = solve(solver, assumptions=[-1])
        assert out.is_sat and out.model == {1: False, 2: True}

    def test_caller_clause_lists_left_alone(self):
        n_vars, clauses = pigeonhole(3)
        before = [list(clause) for clause in clauses]
        solver = Solver(n_vars, clauses)
        assert solve(solver).is_unsat
        assert clauses == before


class TestIncremental:
    """One live solver asked many queries in turn."""

    def test_assumption_sets_agree_with_enumeration(self):
        rng = random.Random(2026)
        for _ in range(60):
            n_vars = rng.randint(2, 14)
            clauses = random_cnf(rng, n_vars)
            solver = Solver(n_vars, clauses)
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
        solver = Solver(*pigeonhole(4))
        assert solve(solver, conflict_limit=1).is_undet
        out = solve(solver)
        assert out.is_unsat and out.conflicts > 0

    def test_level_zero_contradiction_is_permanent(self):
        solver = Solver(2, [[1], [-1], [1, 2]])
        for assumptions in ([], [2], [-2], [1, 2]):
            assert solve(solver, assumptions=assumptions).is_unsat
        # Found by search, not by the unit clauses alone.
        solver = Solver(*pigeonhole(4))
        assert solve(solver).is_unsat
        for assumptions in ([], [1], [-1, 2], [1, 2, 3]):
            out = solve(solver, assumptions=assumptions)
            assert out.is_unsat and out.conflicts == 0

    def test_learnt_clauses_carry_over(self):
        # The second identical query reuses what the first one learnt.
        solver = Solver(*pigeonhole(5))
        first = solve(solver, assumptions=[1])
        second = solve(solver, assumptions=[1])
        assert first.is_unsat and second.is_unsat
        assert second.conflicts < first.conflicts

    def test_out_of_range_assumption_rejected(self):
        solver = Solver(2, [[1, 2]])
        with pytest.raises(ValueError):
            solve(solver, assumptions=[3])
        with pytest.raises(ValueError):
            solve(solver, assumptions=[1], alternatives=[[99]])


class TestAlternatives:
    """Assumption sets asked in turn in one ``solve`` call."""

    def test_agree_with_enumeration(self):
        rng = random.Random(2027)
        for _ in range(60):
            n_vars = rng.randint(2, 12)
            clauses = random_cnf(rng, n_vars)
            solver = Solver(n_vars, clauses)
            for _ in range(rng.randint(3, 6)):
                cubes = []
                for _ in range(rng.randint(1, 3)):
                    vs = rng.sample(range(1, n_vars + 1), rng.randint(1, min(3, n_vars)))
                    cubes.append([v if rng.random() < 0.5 else -v for v in vs])
                got = solve(solver, assumptions=cubes[0], alternatives=cubes[1:])
                sat = [enumerate_satisfiable(n_vars, clauses + [[lit] for lit in cube])
                       for cube in cubes]
                assert (got.status is SatStatus.SAT) == any(sat)
                if got.is_sat:
                    # The model satisfies the first satisfiable set.
                    cube = cubes[sat.index(True)]
                    assert check_model(clauses + [[lit] for lit in cube], got.model)

    def test_sets_share_the_conflict_limit(self):
        # Pigeonhole 5->4 unless x: each set below needs search.
        n_vars, clauses = pigeonhole(4)
        x = n_vars + 1

        def fresh() -> Solver:
            return Solver(x, [clause + [x] for clause in clauses])

        first = solve(fresh(), assumptions=[-x, 1])
        free = solve(fresh(), assumptions=[-x, 1], alternatives=[[-x, -1]])
        assert first.is_unsat and free.is_unsat and 0 < first.conflicts < free.conflicts
        for limit in range(1, free.conflicts):
            out = solve(fresh(), assumptions=[-x, 1], alternatives=[[-x, -1]],
                        conflict_limit=limit)
            assert out.is_undet and out.conflicts <= limit + 1
        out = solve(fresh(), assumptions=[-x, 1], alternatives=[[-x, -1]],
                    conflict_limit=free.conflicts + 1)
        assert out.is_unsat and out.conflicts == free.conflicts


class TestGrowBetweenCalls:
    """Variables and clauses added to a live solver between queries."""

    def test_batches_agree_with_enumeration(self):
        rng = random.Random(2027)
        for _ in range(60):
            n_vars = rng.randint(2, 14)
            clauses = random_cnf(rng, n_vars)
            # Variables arrive in up to three steps, each clause once all
            # of its variables are there, and queries come in between.
            steps = sorted(rng.sample(range(1, n_vars), min(2, n_vars - 1))) + [n_vars]
            solver = Solver(0, [])
            loaded: list[list[int]] = []
            pending = list(clauses)
            for top in steps:
                solver.add_vars(top - solver.n_vars)
                ready = [cl for cl in pending if max(abs(l) for l in cl) <= top]
                pending = [cl for cl in pending if max(abs(l) for l in cl) > top]
                for at in range(0, len(ready), 4):
                    for clause in ready[at:at + 4]:
                        solver.add_clause(list(clause))
                        loaded.append(clause)
                    for _ in range(rng.randint(1, 3)):
                        vs = rng.sample(range(1, top + 1), rng.randint(0, min(3, top)))
                        assumptions = [v if rng.random() < 0.5 else -v for v in vs]
                        got = solve(solver, assumptions=assumptions)
                        units = [[lit] for lit in assumptions]
                        assert got.is_sat == enumerate_satisfiable(top, loaded + units)
                        if got.is_sat:
                            assert check_model(loaded + units, got.model)

    @staticmethod
    def watched(solver: Solver) -> int:
        return sum(len(w) for w in solver.watches)

    def test_satisfied_clause_is_dropped(self):
        solver = Solver(3, [[1], [2, 3]])
        assert solve(solver).is_sat  # 1 now holds at level 0
        before = self.watched(solver)
        solver.add_clause([1, -2, 3])
        assert self.watched(solver) == before

    def test_false_literals_leave_a_unit(self):
        solver = Solver(3, [[-1], [2, 3]])
        assert solve(solver).is_sat  # -1 holds at level 0
        solver.add_clause([1, -2])  # 1 is false: the unit -2 is left
        assert solver.value[-2] == 1 and solver.level[2] == 0
        out = solve(solver)
        assert out.is_sat and not out.model[2] and out.model[3]
        assert solve(solver, assumptions=[2]).is_unsat
        # A clause the unit propagates through once the next call starts.
        solver.add_vars(1)
        solver.add_clause([2, 4])
        out = solve(solver)
        assert out.is_sat and out.model[4]
        assert solve(solver, assumptions=[-4]).is_unsat

    def test_all_false_clause_is_unsat_for_good(self):
        solver = Solver(2, [[1], [-2]])
        assert solve(solver).is_sat
        solver.add_clause([-1, 2])
        for assumptions in ([], [1], [-2]):
            out = solve(solver, assumptions=assumptions)
            assert out.is_unsat and out.conflicts == 0
        solver.add_vars(1)
        solver.add_clause([3])
        assert solve(solver, assumptions=[3]).is_unsat

    def test_variables_added_under_the_same_assumptions_are_searched(self):
        # The second query has the first one's assumptions and level-0
        # trail, so only the added variables make it walk its scope anew.
        solver = Solver(2, [[1, 2]])
        assert solve(solver, assumptions=[1]).is_sat
        solver.add_vars(2)
        solver.add_clause([3, 4])
        solver.add_clause([-3, -4])
        out = solve(solver, assumptions=[1])
        assert out.is_sat and check_model([[1, 2], [3, 4], [-3, -4]], out.model)

    def test_new_variables_are_searched(self):
        grown = Solver(0, [])
        first = grown.add_vars(2)
        assert first == 1 and grown.n_vars == 2
        grown.add_clause([1, 2])
        grown.add_clause([-1, 2])
        assert grown.add_vars(3) == 3
        grown.add_clause([-2, -5])
        grown.add_clause([5, 4, -3])
        out = solve(grown, assumptions=[3])
        assert out.is_sat and out.model[2] and not out.model[5] and out.model[4]
        assert solve(grown, assumptions=[3, -4]).is_unsat


class TestNetSolver:
    """The net-bound solver and equivalence queries asked on it."""

    def test_each_node_loaded_once(self):
        rng = random.Random(29)
        net = random_network(rng, 6, 30, max_k=3)
        solver = NetSolver(net)
        gates = [n.id for n in net.nodes if not n.is_pi]
        solver.load(gates[:10])
        n_vars = solver.n_vars
        assert n_vars == len(solver.node_var)
        solver.load(gates[:10])
        assert solver.n_vars == n_vars
        solver.load(gates)
        # Every gate, and the PIs the gates read.
        cone = set(gates) | {f for g in gates for f in net.nodes[g].fanins}
        assert set(solver.node_var) == cone
        # Every fanin has its variable before its reader.
        for nid, var in solver.node_var.items():
            assert all(solver.node_var[f] < var for f in net.nodes[nid].fanins)

    def test_shared_solver_agrees_with_truth_tables(self):
        # Every pair of a net, in both phases, asked on one solver.
        rng = random.Random(31)
        for _ in range(12):
            net = random_network(rng, rng.randint(2, 8), rng.randint(3, 14), max_k=3)
            tables = exhaustive_tables(net)
            full = (1 << (1 << len(net.pis))) - 1
            solver = NetSolver(net)
            ids = [n.id for n in net.nodes if not n.dead]
            for i, x in enumerate(ids):
                for y in ids[i + 1:]:
                    for inverted in (False, True):
                        got = prove_equiv(solver, x, y, inverted=inverted)
                        assert got.is_unsat == (tables[x] == tables[y] ^ (full if inverted else 0))
                        if got.is_sat:
                            assignment = {pid: got.model.get(pid, False) for pid in net.pis}
                            values = eval_assignment(net, assignment)
                            assert values[x] != (values[y] ^ inverted)

    def test_halves_share_the_conflict_limit(self, monkeypatch):
        net, g, h = parity_pair()
        free = prove_equiv(NetSolver(net), g, h)
        assert free.is_unsat and free.conflicts > 0

        calls = []
        original = Solver.solve

        def recording(self, assumptions=(), conflict_limit=0):
            out = original(self, assumptions, conflict_limit)
            calls.append((conflict_limit, out.conflicts))
            return out

        monkeypatch.setattr(Solver, "solve", recording)
        for limit in range(1, free.conflicts + 2):
            calls.clear()
            out = prove_equiv(NetSolver(net), g, h, conflict_limit=limit)
            assert out.conflicts == sum(c for _, c in calls)
            assert calls[0][0] == limit
            if len(calls) == 2:  # the second half gets what the first left
                assert calls[1][0] == limit - calls[0][1] > 0
            assert out.is_undet or (out.is_unsat and out.conflicts <= limit)
        assert out.is_unsat  # one conflict more than the free run is enough

    def test_each_half_keeps_its_own_outcome(self, monkeypatch):
        # Held by reference, the outcomes of the two halves still hold
        # their own counts, and those sum to the pair's: ``solve``
        # answers with a new outcome rather than editing the last half's.
        net, g, h = parity_pair()
        outcomes = []
        original = Solver.solve

        def recording(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            outcomes.append(out)
            return out

        monkeypatch.setattr(Solver, "solve", recording)
        out = prove_equiv(NetSolver(net), g, h)
        assert out.is_unsat and len(outcomes) == 2 and outcomes[0].conflicts > 0
        assert out.conflicts == sum(o.conflicts for o in outcomes)

    def test_one_solve_call_per_equivalence(self, monkeypatch):
        # Both halves go through one module-level ``solve`` call, whose
        # outcome is the pair's, so a wrapper around ``solve`` counts
        # one query per equivalence.
        calls = []
        original = sat_module.solve

        def counting(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append(out.status)
            return out

        monkeypatch.setattr(sat_module, "solve", counting)
        net = random_network(random.Random(37), 5, 16, max_k=3)
        solver = NetSolver(net)
        ids = [n.id for n in net.nodes if not n.dead]
        for x in ids:
            for y in ids:
                if x < y:
                    calls.clear()
                    out = prove_equiv(solver, x, y)
                    assert calls == [out.status]

    def test_model_covers_the_query_cone(self):
        net = Network()
        a, b, c, d = (net.add_pi() for _ in range(4))
        g = net.add_lut([a, b], 0b1000)
        h = net.add_lut([c, d], 0b1110)
        solver = NetSolver(net)
        solver.load([g, h])
        out = solve(solver, assumptions=[solver.node_var[g]])
        # The PIs of g's cone, by node id; c and d are loaded but free.
        assert out.is_sat and out.model == {a: True, b: True}

    def test_a_new_level_zero_literal_renews_the_scope(self):
        # A query over the same variables as the last one keeps its
        # scope only while no level-0 literal is new: once g is fixed,
        # the walk stops at g, and y and z leave the scope and the model.
        net = Network()
        x, y, z = (net.add_pi() for _ in range(3))
        g = net.add_lut([y, z], 0b1000)
        r = net.add_lut([x, g], 0b1110)
        solver = NetSolver(net)
        solver.load([r])
        var = solver.node_var
        out = solve(solver, assumptions=[var[r]])
        assert out.is_sat and set(out.model) == {x, y, z}
        out = solve(solver, assumptions=[var[r]])
        assert out.is_sat and set(out.model) == {x, y, z}
        solver.add_clause([var[g]])
        out = solve(solver, assumptions=[var[r]])
        assert out.is_sat and set(out.model) == {x}

    def test_scope_follows_the_loaded_fanins(self):
        # y = a AND (p XNOR q) with p, q both b XOR d, so y equals a, but
        # unit propagation alone cannot see p == q.  Once y is replaced
        # by a, r still has its clauses over y: a scope taken from r's
        # current fanins (a, c) would never branch on p, q, b, d and
        # would call r = a = c = 1 satisfiable, though r = a XOR c.
        net = Network()
        a, b, d, c = (net.add_pi() for _ in range(4))
        p = net.add_lut([b, d], 0b0110)
        q = net.add_lut([b, d], 0b0110)
        t = net.add_lut([p, q], 0b1001)
        y = net.add_lut([a, t], 0b1000)
        r = net.add_lut([y, c], 0b0110)
        net.add_po(r)
        solver = NetSolver(net)
        solver.load([r])
        assert prove_equiv(NetSolver(net), y, a).is_unsat
        before = net.clone()
        net.substitute_node(y, a)
        var = solver.node_var
        assert solve(solver, assumptions=[var[r], var[a], var[c]]).is_unsat
        out = solve(solver, assumptions=[var[r], var[a], -var[c]])
        assert out.is_sat
        assignment = {pid: out.model.get(pid, False) for pid in net.pis}
        assert eval_assignment(before, assignment)[y] is True
        assert eval_assignment(net, assignment)[r] is True

    def test_answers_are_pi_assignments(self):
        # A SAT answer is keyed by PI node id, and with the PIs it leaves
        # out set to False it gives every assumed node its assumed value.
        rng = random.Random(41)
        answered = 0
        for _ in range(30):
            net = random_network(rng, rng.randint(2, 10), rng.randint(3, 30), max_k=4)
            solver = NetSolver(net)
            gates = [n.id for n in net.nodes if not n.is_pi and not n.dead]
            for _ in range(4):
                picked = {nid: rng.random() < 0.5
                          for nid in rng.sample(gates, min(len(gates), rng.randint(1, 3)))}
                solver.load(list(picked))
                var = solver.node_var
                out = solve(solver, assumptions=[var[n] if v else -var[n]
                                                 for n, v in picked.items()])
                if not out.is_sat:
                    continue
                answered += 1
                assert set(out.model) <= set(net.pis)
                values = eval_assignment(net, {pid: out.model.get(pid, False)
                                               for pid in net.pis})
                assert all(values[n] == v for n, v in picked.items())
        assert answered > 50

    @pytest.mark.parametrize("make", [lambda: adder_miter(3), lambda: adder_miter(4),
                                      lambda: sweep_fixture(5)])
    def test_queries_across_merges(self, make):
        # Substituting proven-equal nodes leaves loaded clauses over the
        # old fanins; every later answer must still be right on the
        # current network.  Half the pairs share a function, so merges
        # are frequent.
        rng = random.Random(41)
        net = make()
        tables = exhaustive_tables(net)
        mask = (1 << (1 << len(net.pis))) - 1
        solver = NetSolver(net)
        merges = 0
        for _ in range(150):
            alive = [nid for nid in net.topo_order()]
            x = rng.choice(alive)
            twins = [n for n in alive if n != x and tables[n] in (tables[x], tables[x] ^ mask)]
            y = rng.choice(twins) if twins and rng.random() < 0.5 else rng.choice(alive)
            if x == y:
                continue
            x, y = sorted((x, y), key=alive.index)
            inverted = rng.random() < 0.5
            got = prove_equiv(solver, y, x, inverted=inverted)
            equal = tables[y] == tables[x] ^ (mask if inverted else 0)
            assert got.is_unsat == equal
            if got.is_sat:
                assignment = {pid: got.model.get(pid, False) for pid in net.pis}
                values = eval_assignment(net, assignment)
                assert values[y] != (values[x] ^ inverted)
            elif not net.nodes[y].is_pi:
                net.substitute_node(y, x, inverted)
                merges += 1
        assert merges >= 5


    @pytest.mark.parametrize("make", [lambda: adder_miter(4), lambda: sweep_fixture(5)])
    def test_queries_across_window_merges(self, make):
        # Merges proven outside the solver reach it only through
        # add_equivalence, so readers loaded before a merge keep clauses
        # over the merged node.  Every later answer must still be right.
        # sweep_fixture(5) has complemented twins, merged inverted.
        rng = random.Random(43)
        net = make()
        tables = exhaustive_tables(net)
        mask = (1 << (1 << len(net.pis))) - 1
        solver = NetSolver(net)
        told = 0
        for _ in range(300):
            alive = net.topo_order()
            x = rng.choice(alive)
            twins = [n for n in alive if n != x and tables[n] in (tables[x], tables[x] ^ mask)]
            y = rng.choice(twins) if twins and rng.random() < 0.5 else rng.choice(alive)
            if x == y:
                continue
            x, y = sorted((x, y), key=alive.index)
            if y in twins and not net.nodes[y].is_pi and rng.random() < 0.5:
                inverted = tables[y] != tables[x]
                loaded = x in solver.node_var or y in solver.node_var
                solver.add_equivalence(y, x, inverted)
                assert (x in solver.node_var and y in solver.node_var) == loaded
                net.substitute_node(y, x, inverted)
                told += loaded
                continue
            inverted = rng.random() < 0.5
            got = prove_equiv(solver, y, x, inverted=inverted)
            assert got.is_unsat == (tables[y] == tables[x] ^ (mask if inverted else 0))
            if got.is_sat:
                assignment = {pid: got.model.get(pid, False) for pid in net.pis}
                values = eval_assignment(net, assignment)
                assert values[y] != (values[x] ^ inverted)
        assert told >= 5

    def test_equivalence_needs_a_loaded_node(self):
        # Proving the parity pair takes conflicts (see above); told of
        # the equivalence, the solver refutes both halves by propagation.
        net, g, h = parity_pair()
        solver = NetSolver(net)
        solver.add_equivalence(h, g)
        assert solver.node_var == {} and solver.n_vars == 0
        solver.load([g])
        solver.add_equivalence(h, g)
        assert h in solver.node_var
        out = prove_equiv(solver, g, h)
        assert out.is_unsat and out.conflicts == 0


class TestSearchPinned:
    """Golden ``(status, conflicts)``.  The first tests ask a fresh
    ``Solver(n_vars, clauses)`` once, with no assumptions; their numbers
    were recorded before the solver became incremental and still hold
    now that every clause enters through ``add_clause``.  The sweep's
    queries are recorded from the sweep on one net-bound solver over the
    LUTs' cover clauses.  A kernel or encoding edit that changes the
    search fails here."""

    def test_pigeonhole(self):
        out = solve(Solver(*pigeonhole(4)))
        assert (out.status, out.conflicts) == (SatStatus.UNSAT, 28)

    GOLDEN_3SAT = [152, 102, 230, 293, 201, 142]

    def test_random_3sat(self):
        got = [solve(Solver(*random_3sat(seed))) for seed in range(6)]
        assert all(o.is_unsat for o in got)
        assert [o.conflicts for o in got] == self.GOLDEN_3SAT

    @pytest.mark.parametrize("rescale", [2.0, 16.0])
    def test_rescale_leaves_the_search_unchanged(self, monkeypatch, rescale):
        # Activities and heap keys scaled down by a power of two, many
        # times per instance: exact arithmetic, so every comparison and
        # every branch is the one made with no rescale.
        monkeypatch.setattr(Solver, "_RESCALE", rescale)
        solvers = [Solver(*random_3sat(seed)) for seed in range(6)]
        got = [solve(solver).conflicts for solver in solvers]
        assert got == self.GOLDEN_3SAT
        # var_inc grows by 1 / _DECAY a conflict, so it ends below that
        # product only if it was scaled down.
        assert all(solver.var_inc < Solver._DECAY ** -n / rescale
                   for solver, n in zip(solvers, got))

    @staticmethod
    def solve_log(monkeypatch) -> list:
        """``(status, conflicts, model)`` of each ``Solver.solve`` call,
        taken as the call returns."""
        log = []
        original = Solver.solve

        def recording(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            log.append((out.status, out.conflicts, out.model))
            return out

        monkeypatch.setattr(Solver, "solve", recording)
        return log

    @classmethod
    def sweep_log(cls, monkeypatch, cfg: SweepConfig):
        log = cls.solve_log(monkeypatch)
        _, stats = sweep(undet_network(), cfg)
        return [(status, conflicts) for status, conflicts, _ in log], stats

    def test_every_query_of_a_sweep(self, monkeypatch):
        # Recorded from the sweep on one NetSolver with the window off and
        # 16 base patterns, after strash: three pattern-generation queries
        # answered SAT, one merge asked as two UNSAT halves, and four
        # merge queries answered SAT, the third in its second half.
        log, stats = self.sweep_log(monkeypatch, SweepConfig(n_base_patterns=16, window_cap=0))
        sat, unsat = SatStatus.SAT, SatStatus.UNSAT
        assert log == [(sat, 0), (sat, 0), (sat, 0), (unsat, 0), (unsat, 1),
                       (sat, 0), (sat, 1), (unsat, 1), (sat, 0), (sat, 0)]
        assert stats.merges - stats.strash_merges == 1 and stats.ce_refinements == 4

    def test_window_proves_every_merge_of_a_sweep(self, monkeypatch):
        # The same sweep with the window on: the window proves the one
        # merge, and the pattern-generation queries and the
        # counter-examples are left.
        log, stats = self.sweep_log(monkeypatch, SweepConfig(n_base_patterns=16))
        sat, unsat = SatStatus.SAT, SatStatus.UNSAT
        assert log == [(sat, 0), (sat, 0), (sat, 0), (sat, 0), (sat, 1), (unsat, 1),
                       (sat, 0), (sat, 0)]
        assert stats.merges - stats.strash_merges == stats.window_merges == 1
        assert stats.ce_refinements == 4

    #: ``sweep(adder_miter(12), SweepConfig(window_cap=0))``, then
    #: ``check_equivalence`` of its input and output: the status of each
    #: ``Solver.solve`` call (S or U), its conflicts, and the SHA-1 of the
    #: SAT answers' models, for the sweep and for the CEC in turn.  Many
    #: queries take several conflicts, so a changed decision, learnt
    #: clause or restart shows here.  Strash has merged the 24 propagate
    #: and generate LUTs the two adders share, so the sweep's queries are
    #: the carries' and the sums'.
    ADDER_SWEEP_STATUSES = "S" * 8 + "U" * 38
    ADDER_SWEEP_CONFLICTS = [
        0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 1, 3, 1, 4, 1, 3, 1, 4, 1, 4, 1, 5, 1, 4, 1,
        5, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    ]
    ADDER_SWEEP_MODELS_SHA1 = "30009fd796ab7d43b46306697a79e412c429921a"
    #: CEC sweeps the miter of the two at the default config: pattern
    #: generation asks 8 queries, answered SAT with the sweep's own 8
    #: models, the window proves 11 merges, and 8 merges are asked as two
    #: UNSAT halves each.  Every output pair then shares its driver, so
    #: no output query is asked.
    ADDER_CEC_STATUSES = "S" * 8 + "U" * 16
    ADDER_CEC_CONFLICTS = [0, 0, 0, 0, 0, 0, 0, 0, 10, 1, 7, 1, 7, 1, 6, 1, 2, 2, 2, 2, 2, 2, 2, 2]
    ADDER_CEC_MODELS_SHA1 = "30009fd796ab7d43b46306697a79e412c429921a"

    @staticmethod
    def log_digest(log) -> tuple[str, list[int], str]:
        """The statuses, the conflicts and the SHA-1 of the models of a log."""
        models = repr([sorted(model.items()) for _, _, model in log if model is not None])
        return ("".join(status.value[0].upper() for status, _, _ in log),
                [conflicts for _, conflicts, _ in log],
                hashlib.sha1(models.encode()).hexdigest())

    def test_every_query_of_a_sat_heavy_sweep_and_its_cec(self, monkeypatch):
        log = self.solve_log(monkeypatch)
        net = adder_miter(12)
        before = net.clone()
        sweep(net, SweepConfig(window_cap=0))
        n_sweep = len(log)
        assert check_equivalence(before, net).equivalent
        assert self.log_digest(log[:n_sweep]) == (
            self.ADDER_SWEEP_STATUSES, self.ADDER_SWEEP_CONFLICTS, self.ADDER_SWEEP_MODELS_SHA1)
        assert self.log_digest(log[n_sweep:]) == (
            self.ADDER_CEC_STATUSES, self.ADDER_CEC_CONFLICTS, self.ADDER_CEC_MODELS_SHA1)


def falsified_rows(arity: int, clauses) -> np.ndarray:
    """Which ``(inputs, out)`` assignments falsify each clause, by enumeration.

    Row ``i`` is for ``clauses[i]``.  Fanin ``i`` is variable ``i + 1``
    and the output is ``arity + 1``.  Column ``2 * v + out`` is for the
    inputs spelling ``v``, fanin 0 most significant, as a truth row's
    bit ``v``.
    """
    assign = np.arange(1 << (arity + 1), dtype=np.uint32)
    bits = [(assign >> np.uint32(arity - i)) & 1 for i in range(arity)] + [assign & 1]
    values = {}
    for var, bit in enumerate(bits, 1):
        values[var] = bit.astype(bool)
        values[-var] = ~values[var]
    rows = np.zeros((len(clauses), assign.size), dtype=bool)
    for i, clause in enumerate(clauses):
        rows[i] = ~np.logical_or.reduce([values[lit] for lit in clause])
    return rows


def filled_clauses(out_var: int, fanin_vars: list[int], tt: int) -> list[list[int]]:
    """The ``lut_clauses`` template of ``tt`` with these variables filled in."""
    lits = [lit for var in [*fanin_vars, out_var] for lit in (var, -var)]
    return [[lits[code] for code in codes]
            for codes in sat_module.lut_clauses(len(fanin_vars), tt)]


def parity_tt(arity: int) -> int:
    return sum(1 << v for v in range(1 << arity) if bin(v).count("1") % 2)


def small_tables():
    """Every ``(arity, tt)`` of up to three inputs."""
    for arity in range(4):
        for tt in range(1 << (1 << arity)):
            yield arity, tt


def sample_tables(rng: random.Random, count: int, arities):
    """``count`` tables, the arities in turn: constants, projections,
    AND, OR, parity, sparse and random tables, in turn too."""
    arities = list(arities)
    for i in range(count):
        arity = arities[i % len(arities)]
        n_rows = 1 << arity
        full = (1 << n_rows) - 1
        x = rng.randrange(arity)
        x_row = sum(1 << v for v in range(n_rows) if v >> (arity - 1 - x) & 1)
        kind = i % 10
        if kind == 0:
            tt = rng.choice([0, full])
        elif kind == 1:
            tt = rng.choice([x_row, x_row ^ full])
        elif kind == 2:
            tt = 1 << (n_rows - 1)  # AND
        elif kind == 3:
            tt = full ^ 1  # OR
        elif kind == 4:
            tt = rng.choice([parity_tt(arity), parity_tt(arity) ^ full])
        elif kind == 5:  # few on-set rows
            tt = rng.getrandbits(n_rows) & rng.getrandbits(n_rows) & rng.getrandbits(n_rows)
        else:
            tt = rng.getrandbits(n_rows)
        yield arity, tt


class TestLutClauses:
    """``lut_clauses`` against the LUT relation, checked by enumeration."""

    @staticmethod
    def check_exact(arity: int, tt: int) -> list[list[int]]:
        fanins = list(range(1, arity + 1))
        clauses = filled_clauses(arity + 1, fanins, tt)
        expected = np.array([(tt >> (a >> 1) & 1) == (a & 1) for a in range(1 << (arity + 1))])
        falsified = falsified_rows(arity, clauses)
        assert np.array_equal(~falsified.any(axis=0), expected), (arity, hex(tt))
        # Irredundant: each clause alone excludes some assignment.
        alone = falsified & (falsified.sum(axis=0) == 1)
        assert alone.any(axis=1).all(), (arity, hex(tt))
        assert len(clauses) <= 1 << arity
        for clause in clauses:
            assert len({abs(lit) for lit in clause}) == len(clause)
        return clauses

    def test_every_table_up_to_three_inputs(self):
        for arity, tt in small_tables():
            self.check_exact(arity, tt)

    def test_random_tables_of_four_to_ten_inputs(self):
        for arity, tt in sample_tables(random.Random(23), 500, range(4, 11)):
            self.check_exact(arity, tt)

    def test_and_or_and_parity_sizes(self):
        for arity in range(1, 11):
            full = (1 << (1 << arity)) - 1
            assert len(self.check_exact(arity, 1 << ((1 << arity) - 1))) == arity + 1
            assert len(self.check_exact(arity, full ^ 1)) == arity + 1
            assert len(self.check_exact(arity, parity_tt(arity))) == 1 << arity

    def test_literals_are_shared_objects(self):
        # NetSolver.load fills each LUT's template with one int object
        # per literal.  The 300 PIs are loaded first, so the LUTs'
        # variables are past CPython's small-int cache; the two LUTs
        # share their fanins and their template.
        net = Network()
        pis = [net.add_pi() for _ in range(300)]
        solver = NetSolver(net)
        solver.load(pis)
        fanins = [pid for pid in pis if solver.node_var[pid] > 256][:6]
        tt = random.Random(4).getrandbits(64)
        luts = [net.add_lut(fanins, tt) for _ in range(2)]
        solver.load(luts)
        clauses = {id(clause): clause for watch in solver.watches for clause in watch}
        for nid in luts:
            out = solver.node_var[nid]
            lits = [lit for clause in clauses.values() if abs(clause[-1]) == out
                    for lit in clause]
            assert lits and min(map(abs, lits)) > 256
            assert len({id(lit) for lit in lits}) == len(set(lits)) <= 2 * 6 + 2


class TestLoadAttaches:
    """``NetSolver.load`` leaves the solver as a plain :class:`Solver`
    given each LUT's ``lut_clauses`` through ``add_clause`` would be."""

    @staticmethod
    def reference(solver: NetSolver, units=()) -> Solver:
        """The plain solver: ``units`` first, then every loaded LUT's
        clauses, the LUTs in the order they were loaded."""
        ref = Solver(solver.n_vars)
        for lit in units:
            ref.add_clause([lit])
        node_of = {var: nid for nid, var in solver.node_var.items()}
        for var in range(1, solver.n_vars + 1):
            node = solver.net.nodes[node_of[var]]
            if not node.is_pi:
                fanin_vars = [solver.node_var[f] for f in node.fanins]
                for clause in filled_clauses(var, fanin_vars, node.tt):
                    ref.add_clause(clause)
        return ref

    @staticmethod
    def check_same_state(solver: NetSolver, ref: Solver) -> list[list[int]]:
        """Same values, trail and watch lists (clause by clause, in
        order); returns the attached clauses."""
        assert solver.value == ref.value and solver.trail == ref.trail
        watched = [[list(clause) for clause in watch] for watch in solver.watches]
        assert watched == [[list(clause) for clause in watch] for watch in ref.watches]
        # Each clause is one object on the lists of its first two literals.
        count: dict[int, int] = {}
        clauses = {}
        for lit in range(-solver.n_vars, solver.n_vars + 1):
            for clause in solver.watches[lit]:
                assert lit in clause[:2]
                count[id(clause)] = count.get(id(clause), 0) + 1
                clauses[id(clause)] = clause
        assert set(count.values()) <= {2}
        return list(clauses.values())

    def test_distinct_free_fanins(self):
        # 300 PIs, so most variables are past CPython's small-int cache
        # and literal sharing is down to the loader.
        rng = random.Random(53)
        tables = list(small_tables()) + list(sample_tables(rng, 120, range(4, 7)))
        net = Network()
        pis = [net.add_pi() for _ in range(300)]
        for arity, tt in tables:
            net.add_lut(rng.sample(pis, arity), tt)
        solver = NetSolver(net)
        solver.load([n.id for n in net.nodes if not n.is_pi])
        clauses = self.check_same_state(solver, self.reference(solver))
        # The clauses of one LUT share one int object per literal; each
        # cover clause ends with its LUT's output literal.
        by_lut: dict[int, list[int]] = {}
        for clause in clauses:
            by_lut.setdefault(abs(clause[-1]), []).extend(clause)
        for lits in by_lut.values():
            assert len({id(lit) for lit in lits}) == len(set(lits))
        # Only the constant tables leave units; everything else is attached.
        expected = sum(len(sat_module.lut_clauses(a, tt))
                       for a, tt in tables if 0 < tt < (1 << (1 << a)) - 1)
        assert len(clauses) == expected

    def test_repeated_and_fixed_fanins_are_simplified(self):
        # x is fixed at level 0 before any LUT is loaded; each LUT reads
        # x, or one fanin twice, or both.
        rng = random.Random(59)
        net = Network()
        x = net.add_pi()
        pis = [x] + [net.add_pi() for _ in range(299)]
        for arity, tt in list(small_tables()) + list(sample_tables(rng, 60, range(4, 7))):
            if arity < 2:
                continue
            fanins = rng.sample(pis[1:], arity)
            kind = rng.randrange(3)
            if kind != 1:
                fanins[rng.randrange(arity)] = x
            if kind != 0:
                i, j = rng.sample(range(arity), 2)
                fanins[i] = fanins[j]
            net.add_lut(fanins, tt)
        solver = NetSolver(net)
        solver.load([x])
        unit = solver.node_var[x] if rng.random() < 0.5 else -solver.node_var[x]
        solver.add_clause([unit])
        solver.load([n.id for n in net.nodes if not n.is_pi])
        clauses = self.check_same_state(solver, self.reference(solver, [unit]))
        for clause in clauses:
            assert len({abs(lit) for lit in clause}) == len(clause)
            assert abs(unit) not in map(abs, clause)


class TestBranchPicks:
    """Every branch is an unassigned variable of the query's scope with
    maximal activity, ties going to the lowest id: checked on every
    pick by a scan of the scope.  The solver picks from its heap alone,
    so the check that a pick of 0 leaves no scope variable free is the
    only guard that the heap lost none."""

    @staticmethod
    def check_picks(monkeypatch) -> list[int]:
        picks = []

        def checked(original):
            def pick(solver):
                lit = original(solver)
                scope = (solver.scope if isinstance(solver, NetSolver)
                         else range(1, solver.n_vars + 1))
                free = [v for v in scope if solver.value[v] < 0]
                if lit == 0:
                    assert not free
                else:
                    top = max(solver.activity[v] for v in free)
                    assert abs(lit) == min(v for v in free if solver.activity[v] == top)
                picks.append(lit)
                return lit
            return pick

        for cls in (Solver, NetSolver):
            if "_pick_branch" in vars(cls):
                monkeypatch.setattr(cls, "_pick_branch", checked(vars(cls)["_pick_branch"]))
        return picks

    @pytest.mark.parametrize("rescale", [Solver._RESCALE, 2.0])
    def test_random_3sat(self, monkeypatch, rescale):
        monkeypatch.setattr(Solver, "_RESCALE", rescale)
        picks = self.check_picks(monkeypatch)
        for seed in range(6):
            solve(Solver(*random_3sat(seed)))
        assert len(picks) > 1000

    @pytest.mark.parametrize("rescale", [Solver._RESCALE, 2.0])
    def test_net_solver_queries(self, monkeypatch, rescale):
        # Equivalences and random assumption cubes, many per solver.
        monkeypatch.setattr(Solver, "_RESCALE", rescale)
        picks = self.check_picks(monkeypatch)
        rng = random.Random(61)
        for _ in range(8):
            net = random_network(rng, rng.randint(8, 16), rng.randint(40, 120), max_k=6)
            solver = NetSolver(net)
            gates = [n.id for n in net.nodes if not n.is_pi]
            for _ in range(30):
                a, b = rng.sample(gates, 2)
                prove_equiv(solver, a, b, inverted=rng.random() < 0.5)
                cube = rng.sample(gates, rng.randint(1, 3))
                solver.load(cube)
                solve(solver, assumptions=[solver.node_var[n] * rng.choice((1, -1))
                                           for n in cube])
        assert len(picks) > 1000


class TestEncodeCone:
    """``NetSolver.load`` encodes the union of the roots' input cones."""

    def test_and_gate_assignments(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g = net.add_lut([a, b], 0b1000)
        solver = NetSolver(net)
        solver.load([g])
        va, vb, vg = solver.node_var[a], solver.node_var[b], solver.node_var[g]
        # All eight (a, b, y) combinations: only consistent ones satisfiable.
        for v in range(8):
            bits = {va: bool(v >> 2 & 1), vb: bool(v >> 1 & 1), vg: bool(v & 1)}
            assumptions = [var if val else -var for var, val in bits.items()]
            expected = bits[vg] == (bits[va] and bits[vb])
            got = solve(solver, assumptions=assumptions)
            assert (got.status is SatStatus.SAT) == expected

    def test_inverter_two_clauses(self):
        net = Network()
        a = net.add_pi()
        g = net.add_lut([a], 0b01)
        solver = NetSolver(net)
        solver.load([g])
        assert len({id(clause) for watch in solver.watches for clause in watch}) == 2

    def test_projected_model_count(self):
        # Under each assignment of the cone's PIs exactly one root value
        # is satisfiable, the one the scalar oracle gives.
        rng = random.Random(3)
        for _ in range(10):
            net = random_network(rng, rng.randint(2, 6), rng.randint(2, 12), max_k=3)
            roots = [n.id for n in net.nodes if not n.is_pi][-1:]
            if not roots:
                continue
            solver = NetSolver(net)
            solver.load(roots)
            var = solver.node_var
            pis = [nid for nid in var if net.nodes[nid].is_pi]
            count = 0
            for v in range(1 << len(pis)):
                assignment = {pid: bool(v >> i & 1) for i, pid in enumerate(pis)}
                pi_lits = [var[pid] if val else -var[pid] for pid, val in assignment.items()]
                values = eval_assignment(net, {pid: assignment.get(pid, False) for pid in net.pis})
                for root_value in (False, True):
                    lit = var[roots[0]] if root_value else -var[roots[0]]
                    if solve(solver, assumptions=pi_lits + [lit]).is_sat:
                        count += 1
                        assert values[roots[0]] == root_value
            assert count == 1 << len(pis)

    def test_cone_restricted(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g = net.add_lut([a], 0b01)
        other = net.add_lut([b], 0b01)
        solver = NetSolver(net)
        solver.load([g])
        assert other not in solver.node_var
        assert b not in solver.node_var


class TestProveEquiv:
    def test_identical_structure(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g1 = net.add_lut([a, b], 0b1000)
        g2 = net.add_lut([a, b], 0b1000)
        assert prove_equiv(NetSolver(net), g1, g2).status is SatStatus.UNSAT

    def test_node_vs_its_inverter(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g = net.add_lut([a, b], 0b0110)
        inv = net.add_lut([g], 0b01)
        assert prove_equiv(NetSolver(net), g, inv, inverted=True).status is SatStatus.UNSAT
        assert prove_equiv(NetSolver(net), g, inv, inverted=False).status is SatStatus.SAT

    def test_and_vs_or_counterexample(self):
        net = Network()
        a, b = net.add_pi(), net.add_pi()
        g_and = net.add_lut([a, b], 0b1000)
        g_or = net.add_lut([a, b], 0b1110)
        out = prove_equiv(NetSolver(net), g_and, g_or)
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
            out = prove_equiv(NetSolver(net), x, y, inverted=inverted)
            if out.status is not SatStatus.SAT:
                continue
            checked += 1
            assignment = dict(out.model)
            for pid in net.pis:
                assignment.setdefault(pid, False)
            values = eval_assignment(net, assignment)
            assert values[x] != (values[y] ^ inverted)

    def test_agrees_with_truth_tables(self):
        # Each query on a fresh solver.
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
                    assert prove_equiv(NetSolver(net), x, y).is_unsat == same
                    assert prove_equiv(NetSolver(net), x, y, inverted=True).is_unsat == compl

    def test_same_node_rejected(self):
        net = Network()
        a = net.add_pi()
        g = net.add_lut([a], 0b01)
        with pytest.raises(ValueError):
            prove_equiv(NetSolver(net), g, g)
