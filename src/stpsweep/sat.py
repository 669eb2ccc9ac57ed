"""CDCL SAT solving and LUT-cone CNF encoding.

Equivalence queries are answered over a Tseitin-style encoding of the
relevant input cones: every LUT contributes one clause per input
assignment forcing the output variable to agree with its truth row.
The solver is a conventional conflict-driven solver with two watched
literals per clause, first-UIP clause learning, activity-based
branching with 0.95 decay, saved polarities, and Luby restarts.  It is
fully deterministic.  A positive conflict limit turns exhausted queries
into an undetermined outcome; 0 disables the limit.

:func:`solve` on a :class:`Cnf` is one-shot: a fresh solver takes the
assumptions as unit clauses.  A live :class:`Solver` is incremental:
each query decides its assumptions at levels 1..k, as in MiniSat, and
the clauses learnt, the activities and the saved phases carry over to
the next query.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

from .netlist import Network
from .simulate import _cone


class SatStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNDET = "undet"


@dataclass
class SatOutcome:
    status: SatStatus
    model: dict[int, bool] | None = None
    #: Conflicts the solver met in this call.
    conflicts: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status is SatStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SatStatus.UNSAT

    @property
    def is_undet(self) -> bool:
        return self.status is SatStatus.UNDET


class Cnf:
    """Clause database with an optional node-to-variable map."""

    def __init__(self):
        self.n_vars = 0
        self.clauses: list[list[int]] = []
        self.node_var: dict[int, int] = {}

    def new_var(self, node: int | None = None) -> int:
        self.n_vars += 1
        if node is not None:
            self.node_var[node] = self.n_vars
        return self.n_vars

    def add_clause(self, lits: list[int]) -> None:
        if not lits:
            raise ValueError("empty clause at construction")
        for lit in lits:
            if lit == 0 or abs(lit) > self.n_vars:
                raise ValueError(f"literal {lit} references an undeclared variable")
        self.clauses.append(list(lits))

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.n_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"


def _luby(i: int) -> int:
    """Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...), 1-based."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class Solver:
    """CDCL search over a clause list, reusable across queries.

    The solver keeps the clause lists it is given and reorders their
    literals in place.  Values, watch lists and their kin are
    literal-indexed lists of ``2 * n_vars + 1`` slots: literal ``l``
    sits at index ``l``, so ``-v`` lands at ``2 * n_vars + 1 - v``, past
    every positive literal.  Each :meth:`solve` decides its assumptions
    at levels 1..k, returns to level 0, and keeps learnt clauses,
    activities and saved phases for the next call; learnt clauses
    satisfied at level 0 are dropped when the next call starts.  A
    conflict at level 0 makes the solver UNSAT for good.
    """

    _DECAY = 0.95
    _RESCALE = 1e100
    _RESTART_BASE = 100

    def __init__(self, n_vars: int, clauses: Iterable[list[int]]):
        n = self.n_vars = n_vars
        self.value: list[int] = [-1] * (2 * n + 1)  # -1 unassigned, 0/1 value
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        self.level: list[int] = [0] * (n + 1)
        self.reason: list[list[int] | None] = [None] * (n + 1)
        self.activity: list[float] = [0.0] * (n + 1)
        self.polarity: list[int] = [0] * (n + 1)
        self.seen: list[bool] = [False] * (n + 1)
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        # Lazy max-activity heap; every activity is 0, so sorted is a heap.
        self.heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, n + 1)]
        self.ok = True
        #: Unit clauses not yet on the trail.
        self.units: list[int] = []
        self.learnts: list[list[int]] = []
        #: Length of the level-0 trail when learnt clauses were last pruned.
        self.pruned_at = 0
        for clause in clauses:
            self._add_clause(clause)

    def _add_clause(self, lits: list[int]) -> None:
        present = set(lits)
        if len(present) != len(lits):
            lits = list(dict.fromkeys(lits))
        if any(-l in present for l in lits):
            return  # tautology
        if len(lits) == 1:
            self.units.append(lits[0])
            return
        self.watches[lits[0]].append(lits)
        self.watches[lits[1]].append(lits)

    # -- assignment machinery ------------------------------------------

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        val = self.value[lit]
        if val >= 0:
            return val == 1
        self.value[lit] = 1
        self.value[-lit] = 0
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        trail, value, watches = self.trail, self.value, self.watches
        level, reason = self.level, self.reason
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            watch = watches[falsified]
            # Only this loop shrinks the list: a moved watch goes to a
            # literal that is not false, never to ``falsified``.
            i, n = 0, len(watch)
            while i < n:
                clause = watch[i]
                # Literals are swapped, never rewritten: the clause keeps
                # its own int objects rather than gaining new ones.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if value[first] == 1:
                    i += 1
                    continue
                for j in range(2, len(clause)):
                    lit = clause[j]
                    if value[lit] != 0:
                        clause[1], clause[j] = lit, clause[1]
                        watches[lit].append(clause)
                        n -= 1
                        watch[i] = watch[n]
                        watch.pop()
                        break
                else:
                    if value[first] == 0:
                        self.qhead = qhead
                        return clause
                    value[first] = 1
                    value[-first] = 0
                    v = first if first > 0 else -first
                    level[v] = cur_level
                    reason[v] = clause
                    trail.append(first)
                    i += 1
        self.qhead = qhead
        return None

    # -- branching ------------------------------------------------------

    def _pick_branch(self) -> int:
        value, activity, heap = self.value, self.activity, self.heap
        while heap:
            act, v = heapq.heappop(heap)
            if value[v] < 0 and -act == activity[v]:
                return v if self.polarity[v] else -v
        for v in range(1, self.n_vars + 1):
            if value[v] < 0:
                return v if self.polarity[v] else -v
        return 0

    def _backtrack(self, target_level: int) -> None:
        if len(self.trail_lim) > target_level:
            value, activity, polarity, heap = self.value, self.activity, self.polarity, self.heap
            start = self.trail_lim[target_level]
            for lit in self.trail[start:]:
                value[lit] = value[-lit] = -1
                if lit > 0:
                    polarity[lit] = 1
                else:
                    lit = -lit
                    polarity[lit] = 0
                heapq.heappush(heap, (-activity[lit], lit))
            del self.trail[start:]
            del self.trail_lim[target_level:]
            if len(heap) > 2 * self.n_vars + 64:
                # Drop stale entries and duplicates: neither can be picked,
                # and the pick only depends on the entries that can.
                heap[:] = {e for e in heap if -e[0] == activity[e[1]]}
                heapq.heapify(heap)
        self.qhead = len(self.trail)

    # -- conflict analysis -----------------------------------------------

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learnt clause (asserting literal first) and its backjump level.

        Each variable met is bumped.  A bumped variable is always on the
        trail, and the backtrack that frees it pushes it onto the heap
        with its new activity, so the bump itself pushes nothing.
        """
        seen, level, activity, trail = self.seen, self.level, self.activity, self.trail
        var_inc = self.var_inc
        learnt: list[int] = []
        counter = 0
        p = 0  # trail literal most recently resolved on
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        clause = confl
        while True:
            for q in clause:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    activity[v] += var_inc
                    if activity[v] > self._RESCALE:
                        scale = 1.0 / self._RESCALE
                        activity[:] = [a * scale for a in activity]
                        var_inc = self.var_inc = var_inc * scale
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                p = trail[idx]
                idx -= 1
                v = p if p > 0 else -p
                if seen[v]:
                    break
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            clause = self.reason[v]
        for q in learnt:
            seen[q if q > 0 else -q] = False
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        # Watch the literal from the backjump level in position 1.
        best = 1
        best_level = level[abs(learnt[1])]
        for j in range(2, len(learnt)):
            lv = level[abs(learnt[j])]
            if lv > best_level:
                best, best_level = j, lv
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, best_level

    # -- main loop --------------------------------------------------------

    def _prune_learnts(self) -> None:
        """Drop the learnt clauses satisfied by level-0 literals new since the last pruning.

        Such a clause can never propagate again, and a long run of
        queries would otherwise hold all of them.  After a query under
        one assumption ``a`` answers UNSAT, ``-a`` holds at level 0, so
        this frees the clauses learnt under ``a`` that contain ``-a``.
        """
        if len(self.trail) == self.pruned_at or not self.learnts:
            return
        new_true = set(self.trail[self.pruned_at:])
        self.pruned_at = len(self.trail)
        keep: list[list[int]] = []
        drop: list[list[int]] = []
        for clause in self.learnts:
            (keep if new_true.isdisjoint(clause) else drop).append(clause)
        if not drop:
            return
        self.learnts = keep
        dead = {id(clause) for clause in drop}
        for lit in {lit for clause in drop for lit in clause[:2]}:
            watch = self.watches[lit]
            watch[:] = [clause for clause in watch if id(clause) not in dead]

    def _done(self, status: SatStatus, conflicts: int,
              model: dict[int, bool] | None = None) -> SatOutcome:
        self._backtrack(0)
        return SatOutcome(status, model, conflicts)

    def solve(self, assumptions: Sequence[int] = (), conflict_limit: int = 0) -> SatOutcome:
        """Search under ``assumptions``; ``conflict_limit`` counts this call only."""
        if self.ok:
            for unit in self.units:
                if not self._enqueue(unit, None):
                    self.ok = False
                    break
            self.units.clear()
        if self.ok and self._propagate() is not None:
            self.ok = False
        if not self.ok:
            return SatOutcome(SatStatus.UNSAT)
        self._prune_learnts()
        conflicts = 0
        restart_count = 0
        conflicts_until_restart = self._RESTART_BASE * _luby(1)
        while True:
            confl = self._propagate()
            if confl is not None:
                conflicts += 1
                if not self.trail_lim:
                    self.ok = False
                if conflict_limit and conflicts > conflict_limit:
                    return self._done(SatStatus.UNDET, conflicts)
                if not self.ok:
                    return self._done(SatStatus.UNSAT, conflicts)
                learnt, back_level = self._analyze(confl)
                self._backtrack(back_level)
                self.var_inc /= self._DECAY
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self.learnts.append(learnt)
                    self._enqueue(learnt[0], learnt)
                conflicts_until_restart -= 1
                continue
            if conflicts_until_restart <= 0 and self.trail_lim:
                restart_count += 1
                conflicts_until_restart = self._RESTART_BASE * _luby(restart_count + 1)
                self._backtrack(0)
                continue
            decision_level = len(self.trail_lim)
            if decision_level < len(assumptions):
                lit = assumptions[decision_level]
                if self.value[lit] == 0:
                    return self._done(SatStatus.UNSAT, conflicts)
                # An assumption that already holds still opens its level.
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
                continue
            branch = self._pick_branch()
            if branch == 0:
                value = self.value
                model = {v: value[v] == 1 for v in range(1, self.n_vars + 1)}
                return self._done(SatStatus.SAT, conflicts, model)
            self.trail_lim.append(len(self.trail))
            self._enqueue(branch, None)


def solve(problem: Cnf | Solver, assumptions: list[int] | None = None,
          conflict_limit: int = 0) -> SatOutcome:
    """Solve a CNF or query a live :class:`Solver`, under assumption literals.

    On a :class:`Cnf` this is one-shot: the assumptions become unit
    clauses of a fresh solver.  On a :class:`Solver` they are decided
    at levels 1..k, and what the solver learns stays for later queries.
    Either way UNSAT means unsatisfiable under the assumptions.  A
    positive ``conflict_limit`` yields UNDET once this call exceeds it;
    0 means no limit.
    """
    assumptions = list(assumptions or ())
    for lit in assumptions:
        if lit == 0 or abs(lit) > problem.n_vars:
            raise ValueError(f"assumption literal {lit} out of range")
    if isinstance(problem, Solver):
        return problem.solve(assumptions, conflict_limit)
    clauses = [list(clause) for clause in problem.clauses]
    clauses += [[lit] for lit in assumptions]
    return Solver(problem.n_vars, clauses).solve((), conflict_limit)


# ---------------------------------------------------------------------------
# Cone encoding.


def lut_clauses(out_var: int, fanin_vars: list[int], tt: int) -> list[list[int]]:
    """Consistency clauses of one LUT, one clause per input assignment."""
    arity = len(fanin_vars)
    if arity == 0:
        return [[out_var if tt & 1 else -out_var]]
    # One int object per literal, shared by all the LUT's clauses.
    in_lits = [(fv, -fv) for fv in fanin_vars]  # indexed by the input's bit
    out_lits = (-out_var, out_var)  # indexed by the truth-row bit
    clauses = []
    for v in range(1 << arity):
        lits = [pair[(v >> (arity - 1 - i)) & 1] for i, pair in enumerate(in_lits)]
        lits.append(out_lits[(tt >> v) & 1])
        clauses.append(lits)
    return clauses


def encode_cone(net: Network, roots: list[int]) -> Cnf:
    """CNF of the union of the roots' input cones.

    This is the only CNF encoder.  Every cone node, PIs included, gets a
    variable (``cnf.node_var``) in topological order; non-PI nodes
    additionally get their LUT consistency clauses.
    """
    cone = _cone(net, roots)
    cnf = Cnf()
    order = [nid for nid in net.topo_order() if nid in cone]
    for nid in order:
        cnf.new_var(nid)
    for nid in order:
        node = net.nodes[nid]
        if node.is_pi:
            continue
        out_var = cnf.node_var[nid]
        fanin_vars = [cnf.node_var[f] for f in node.fanins]
        for clause in lut_clauses(out_var, fanin_vars, node.tt):
            cnf.add_clause(clause)
    return cnf


def add_xor(cnf: Cnf, va: int, vb: int) -> int:
    """A fresh variable ``t`` constrained to ``t <-> (va xor vb)``."""
    t = cnf.new_var()
    cnf.add_clause([-t, va, vb])
    cnf.add_clause([-t, -va, -vb])
    cnf.add_clause([t, -va, vb])
    cnf.add_clause([t, va, -vb])
    return t


def pi_assignment(net: Network, cnf: Cnf, model: dict[int, bool]) -> dict[int, bool]:
    """The model's values of the PIs encoded in ``cnf``, keyed by PI node id."""
    return {nid: model[var] for nid, var in cnf.node_var.items() if net.nodes[nid].is_pi}


def prove_equiv(
    net: Network,
    a: int,
    b: int,
    inverted: bool = False,
    conflict_limit: int = 0,
) -> SatOutcome:
    """Decide whether node ``a`` equals node ``b`` (or its complement).

    UNSAT certifies the equivalence under the stated phase.  A SAT
    outcome carries a counter-example assignment over the support PIs
    of the two cones, keyed by PI node id.
    """
    if a == b:
        raise ValueError("prove_equiv needs two distinct nodes")
    cnf = encode_cone(net, [a, b])
    t = add_xor(cnf, cnf.node_var[a], cnf.node_var[b])
    # Normal phase: look for a != b; inverted: look for a != not b.
    outcome = solve(cnf, assumptions=[-t if inverted else t], conflict_limit=conflict_limit)
    if not outcome.is_sat:
        return outcome
    return SatOutcome(SatStatus.SAT, pi_assignment(net, cnf, outcome.model), outcome.conflicts)
