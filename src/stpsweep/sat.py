"""CDCL SAT solving and LUT-cone CNF encoding.

Equivalence queries are answered over a Tseitin-style encoding of the
relevant input cones: every LUT contributes one clause per input
assignment forcing the output variable to agree with its truth row.
The solver is a conventional conflict-driven solver with two watched
literals per clause, first-UIP clause learning, activity-based
branching with 0.95 decay, saved polarities, and Luby restarts.  It is
fully deterministic.  A positive conflict limit turns exhausted queries
into an undetermined outcome; 0 disables the limit.
"""

from __future__ import annotations

import heapq
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


class _Cdcl:
    """One-shot CDCL search over a fixed clause list."""

    _DECAY = 0.95
    _RESCALE = 1e100
    _RESTART_BASE = 100

    def __init__(self, n_vars: int, clauses: list[list[int]]):
        self.n_vars = n_vars
        self.assign: list[int] = [-1] * (n_vars + 1)  # -1 unassigned, 0/1 value
        self.level: list[int] = [0] * (n_vars + 1)
        self.reason: list[int] = [-1] * (n_vars + 1)  # clause index
        self.activity: list[float] = [0.0] * (n_vars + 1)
        self.polarity: list[int] = [0] * (n_vars + 1)
        self.var_inc = 1.0
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.heap: list[tuple[float, int]] = []
        self.conflicts = 0
        self.ok = True
        self.units: list[int] = []
        for clause in clauses:
            self._add_clause(clause)
        for v in range(1, n_vars + 1):
            heapq.heappush(self.heap, (-self.activity[v], v))

    def _add_clause(self, lits: list[int]) -> int | None:
        lits = list(dict.fromkeys(lits))
        if any(-l in set(lits) for l in lits):
            return None  # tautology
        if len(lits) == 1:
            self.units.append(lits[0])
            return None
        ci = len(self.clauses)
        self.clauses.append(lits)
        for l in lits[:2]:
            self.watches.setdefault(l, []).append(ci)
        return ci

    # -- assignment machinery ------------------------------------------

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        if v < 0:
            return -1
        return v if lit > 0 else 1 - v

    def _enqueue(self, lit: int, reason: int) -> bool:
        v = abs(lit)
        val = 1 if lit > 0 else 0
        if self.assign[v] >= 0:
            return self.assign[v] == val
        self.assign[v] = val
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause index or -1."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            falsified = -lit
            watch = self.watches.get(falsified)
            if not watch:
                continue
            i = 0
            while i < len(watch):
                ci = watch[i]
                clause = self.clauses[ci]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    i += 1
                    continue
                moved = False
                for j in range(2, len(clause)):
                    if self._value(clause[j]) != 0:
                        clause[1], clause[j] = clause[j], clause[1]
                        self.watches.setdefault(clause[1], []).append(ci)
                        watch[i] = watch[-1]
                        watch.pop()
                        moved = True
                        break
                if moved:
                    continue
                if self._value(first) == 0:
                    return ci  # conflict
                self._enqueue(first, ci)
                i += 1
        return -1

    # -- branching ------------------------------------------------------

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > self._RESCALE:
            for u in range(1, self.n_vars + 1):
                self.activity[u] *= 1.0 / self._RESCALE
            self.var_inc *= 1.0 / self._RESCALE
        heapq.heappush(self.heap, (-self.activity[v], v))

    def _pick_branch(self) -> int:
        while self.heap:
            act, v = heapq.heappop(self.heap)
            if self.assign[v] < 0 and -act == self.activity[v]:
                return v if self.polarity[v] else -v
        for v in range(1, self.n_vars + 1):
            if self.assign[v] < 0:
                return v if self.polarity[v] else -v
        return 0

    def _backtrack(self, target_level: int) -> None:
        while self.trail and self.level[abs(self.trail[-1])] > target_level:
            lit = self.trail.pop()
            v = abs(lit)
            self.polarity[v] = self.assign[v]
            self.assign[v] = -1
            self.reason[v] = -1
            heapq.heappush(self.heap, (-self.activity[v], v))
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # -- conflict analysis -----------------------------------------------

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        learnt: list[int] = []
        seen = [False] * (self.n_vars + 1)
        counter = 0
        p = None  # trail literal most recently resolved on
        idx = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        clause = self.clauses[confl]
        while True:
            for q in clause:
                if p is not None and q == p:
                    continue
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            v = abs(p)
            seen[v] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            clause = self.clauses[self.reason[v]]
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        # Watch the literal from the backjump level in position 1.
        best = 1
        for j in range(2, len(learnt)):
            if self.level[abs(learnt[j])] > self.level[abs(learnt[best])]:
                best = j
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    # -- main loop --------------------------------------------------------

    def solve(self, conflict_limit: int = 0) -> SatOutcome:
        for unit in self.units:
            if not self._enqueue(unit, -1):
                return SatOutcome(SatStatus.UNSAT)
        if self._propagate() != -1:
            return SatOutcome(SatStatus.UNSAT)
        restart_count = 0
        conflicts_until_restart = self._RESTART_BASE * _luby(1)
        while True:
            confl = self._propagate()
            if confl != -1:
                self.conflicts += 1
                if conflict_limit and self.conflicts > conflict_limit:
                    return SatOutcome(SatStatus.UNDET)
                if not self.trail_lim:
                    return SatOutcome(SatStatus.UNSAT)
                learnt, back_level = self._analyze(confl)
                self._backtrack(back_level)
                self.var_inc /= self._DECAY
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], -1):
                        return SatOutcome(SatStatus.UNSAT)
                else:
                    ci = self._add_clause(learnt)
                    self._enqueue(learnt[0], ci if ci is not None else -1)
                conflicts_until_restart -= 1
                continue
            if conflicts_until_restart <= 0 and self.trail_lim:
                restart_count += 1
                conflicts_until_restart = self._RESTART_BASE * _luby(restart_count + 1)
                self._backtrack(0)
                continue
            branch = self._pick_branch()
            if branch == 0:
                model = {v: bool(self.assign[v]) for v in range(1, self.n_vars + 1)}
                return SatOutcome(SatStatus.SAT, model)
            self.trail_lim.append(len(self.trail))
            self._enqueue(branch, -1)


def solve(cnf: Cnf, assumptions: list[int] | None = None, conflict_limit: int = 0) -> SatOutcome:
    """Solve a CNF, optionally under assumption literals.

    Assumptions are installed as unit clauses on a fresh solver, so an
    UNSAT answer means unsatisfiable under the assumptions.  A positive
    ``conflict_limit`` yields UNDET once exceeded; 0 means no limit.
    """
    clauses = list(cnf.clauses)
    for lit in assumptions or []:
        if lit == 0 or abs(lit) > cnf.n_vars:
            raise ValueError(f"assumption literal {lit} out of range")
        clauses.append([lit])
    return _Cdcl(cnf.n_vars, clauses).solve(conflict_limit)


# ---------------------------------------------------------------------------
# Cone encoding.


def lut_clauses(out_var: int, fanin_vars: list[int], tt: int) -> list[list[int]]:
    """Consistency clauses of one LUT, one clause per input assignment."""
    arity = len(fanin_vars)
    if arity == 0:
        return [[out_var if tt & 1 else -out_var]]
    clauses = []
    for v in range(1 << arity):
        lits = []
        for i, fv in enumerate(fanin_vars):
            bit = (v >> (arity - 1 - i)) & 1
            lits.append(-fv if bit else fv)
        out_bit = (tt >> v) & 1
        lits.append(out_var if out_bit else -out_var)
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
    return SatOutcome(SatStatus.SAT, pi_assignment(net, cnf, outcome.model))
