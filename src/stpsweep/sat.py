"""CDCL SAT solving over LUT clauses, every query on a live solver.

Equivalence queries are answered over a Tseitin-style encoding of the
relevant input cones: every LUT contributes the clauses of irredundant
sum-of-products covers of its on-set and off-set (:func:`lut_clauses`),
each cube forcing the output variable to its value there.
The solver is a conventional conflict-driven solver with two watched
literals per clause, first-UIP clause learning, activity-based
branching with 0.95 decay, saved polarities, and Luby restarts.  It is
fully deterministic.  A positive conflict limit turns exhausted queries
into an undetermined outcome; 0 disables the limit.  Each query
builds its heap from its scope: every variable for a plain solver.  The
lazy heap holds, for every unassigned scope variable, an entry at its
current activity (see :class:`Solver`): that invariant alone guarantees
a pick, and a backtrack pushes only variables with no entry.

There is one way to ask: a live :class:`Solver`, with MiniSat's
assumption interface.  Each query decides its assumptions at levels
1..k, and the clauses learnt, the activities and the saved phases carry
over to the next query; variables and clauses may be added between
queries.  A :class:`NetSolver` is such a solver bound to one network: it
loads a node's LUT clauses the first time the node enters a query cone,
from one clause template per distinct ``(arity, tt)``, and a query's
scope is the walk of its loaded fanins.  :func:`prove_equiv` asks an
equivalence as two assumption-only queries in one :func:`solve` call, as
ABC's fraig does; the two share one scope walk and one heap.  A clause
gets in three ways: through :meth:`Solver.add_clause`; straight onto its
watch lists in :meth:`NetSolver.load`, for a LUT whose fanin variables
are distinct and unassigned; and, learnt, onto its watch lists in
:meth:`Solver.solve`.

A SAT answer of a :class:`NetSolver` is a counter-example: a value for
each PI in the query's scope, keyed by PI node id.  The PIs outside the
scope are free; any value of theirs extends the answer.  The sweep
turns counter-examples into simulation patterns (``sweep._ce_rows``),
and CEC reports one as its witness.
"""

from __future__ import annotations

import heapq
from collections.abc import Container, Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

from .netlist import Network


class SatStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNDET = "undet"


@dataclass
class SatOutcome:
    status: SatStatus
    #: The satisfying assignment of a SAT answer, else None.  A plain
    #: :class:`Solver` keys it by variable and covers every variable; a
    #: :class:`NetSolver` keys it by PI node id and covers the PIs of the
    #: query's scope, the others being free.
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

    The initial clauses go through :meth:`add_clause` one by one, as
    clauses added later do; the solver keeps copies, so the caller's
    lists are left as they are.  Values, watch lists and their kin are
    literal-indexed lists of ``2 * n_vars + 1`` slots: literal ``l``
    sits at index ``l``, so ``-v`` lands at ``2 * n_vars + 1 - v``, past
    every positive literal.  Each :meth:`solve` decides its assumptions
    at levels 1..k, returns to level 0, and keeps learnt clauses,
    activities and saved phases for the next call; no learnt clause is
    ever deleted.  Between calls, :meth:`add_vars` and
    :meth:`add_clause` grow the problem.  A conflict at level 0 makes
    the solver UNSAT for good.

    A query branches only on its scope, here every variable
    (:meth:`_walk_scope`), and builds its heap from the scope's
    unassigned variables.  The heap is lazy: it holds
    ``(-activity, var)`` entries, and an entry is valid while its key
    is its variable's activity.  ``in_heap[v]`` says that the heap
    holds a valid entry of ``v``.  A bump in :meth:`_analyze` clears
    the flag, as does popping the valid entry; a backtrack pushes a
    freed variable only if its flag is clear.  So every unassigned
    scope variable has a valid entry, and the pick, the first valid
    entry of an unassigned scope variable, is the one of maximal
    activity, ties going to the lowest id; nothing else picks, so this
    invariant alone guarantees one.  A variable outside the scope is
    never picked, so its flag and entries do not matter.
    """

    _DECAY = 0.95
    _RESCALE = 1e100
    _RESTART_BASE = 100

    def __init__(self, n_vars: int, clauses: Iterable[list[int]] = ()):
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
        #: Lazy max-activity heap of ``(-activity, var)`` entries, built per scope.
        self.heap: list[tuple[float, int]] = []
        #: ``in_heap[v]``: the heap holds an entry of ``v`` at its current activity.
        self.in_heap: list[bool] = [False] * (n + 1)
        #: The variables the current query may branch on.
        self.scope: Container[int] = ()
        #: The assumption variables and level-0 trail length ``scope`` was walked for.
        self.scope_key: tuple[set[int], int] | None = None
        self.ok = True
        for clause in clauses:
            self.add_clause(clause)

    def add_vars(self, count: int) -> int:
        """Add ``count`` fresh variables between calls; returns the first."""
        first = self.n_vars + 1
        self.n_vars += count
        # Negative literals sit at the end of the literal-indexed lists,
        # so the new slots go between the positive and the negative ones.
        self.value[first:first] = [-1] * (2 * count)
        self.watches[first:first] = [[] for _ in range(2 * count)]
        self.level += [0] * count
        self.reason += [None] * count
        self.activity += [0.0] * count
        self.polarity += [0] * count
        self.seen += [False] * count
        self.in_heap += [False] * count
        # A plain solver's scope is every variable: the next query walks anew.
        self.scope_key = None
        return first

    def add_clause(self, lits: list[int]) -> None:
        """Add a clause, simplified by the level-0 assignment.

        Callers' clauses come in here, at construction and between calls.
        Literal 0 and literals of undeclared variables raise
        ``ValueError``.  A clause with a true literal, or with a
        literal and its complement, is dropped and false literals are
        removed; a unit left over is enqueued at level 0 (the next call
        propagates it), and an empty one makes the solver UNSAT for good.
        """
        n = self.n_vars
        if lits and (max(lits) > n or min(lits) < -n or 0 in lits):
            raise ValueError(f"clause {lits} has literal 0 or a variable above {n}")
        if not self.ok:
            return
        value = self.value
        if any(value[lit] == 1 for lit in lits):
            return
        kept = dict.fromkeys(lit for lit in lits if value[lit] < 0)
        if not kept:
            self.ok = False
        elif len(kept) == 1:
            self._enqueue(next(iter(kept)), None)
        elif not any(-lit in kept for lit in kept):
            lits = list(kept)
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
                first = clause[0]
                if first == falsified:
                    first, clause[1] = clause[1], first
                    clause[0] = first
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
        value, activity, heap, in_heap = self.value, self.activity, self.heap, self.in_heap
        scope = self.scope
        while heap:
            act, v = heapq.heappop(heap)
            if -act == activity[v]:
                in_heap[v] = False
                if value[v] < 0 and v in scope:
                    return v if self.polarity[v] else -v
        return 0

    def _backtrack(self, target_level: int) -> None:
        if len(self.trail_lim) > target_level:
            value, activity, polarity = self.value, self.activity, self.polarity
            heap, in_heap = self.heap, self.in_heap
            start = self.trail_lim[target_level]
            for lit in self.trail[start:]:
                value[lit] = value[-lit] = -1
                if lit > 0:
                    polarity[lit] = 1
                else:
                    lit = -lit
                    polarity[lit] = 0
                if not in_heap[lit]:
                    in_heap[lit] = True
                    heapq.heappush(heap, (-activity[lit], lit))
            del self.trail[start:]
            del self.trail_lim[target_level:]
            if len(heap) > 2 * self.n_vars + 64:
                # Drop the stale entries: none can be picked, and the
                # pick only depends on the entries that can.
                heap[:] = [e for e in heap if -e[0] == activity[e[1]]]
                heapq.heapify(heap)
        self.qhead = len(self.trail)

    # -- conflict analysis -----------------------------------------------

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learnt clause (asserting literal first) and its backjump level.

        Each variable met is bumped.  A bumped variable is always on the
        trail, and the backtrack that frees it pushes it onto the heap
        with its new activity, so the bump itself pushes nothing: it
        only marks the variable's heap entry stale.  A rescale scales
        the heap keys with the activities, so every entry stays valid or
        stale as it was.
        """
        seen, level, activity, trail = self.seen, self.level, self.activity, self.trail
        in_heap = self.in_heap
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
                    in_heap[v] = False
                    if activity[v] > self._RESCALE:
                        scale = 1.0 / self._RESCALE
                        activity[:] = [a * scale for a in activity]
                        heap = self.heap
                        heap[:] = [(key * scale, u) for key, u in heap]
                        # Rounding may tie two keys; restore the order on ids.
                        heapq.heapify(heap)
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

    def _walk_scope(self, assumptions: Sequence[int]) -> tuple[Container[int], list[int]]:
        """A query's scope and its unassigned variables: here, every variable."""
        scope = range(1, self.n_vars + 1)
        return scope, [v for v in scope if self.value[v] < 0]

    def _model(self) -> dict[int, bool]:
        value = self.value
        return {v: value[v] == 1 for v in range(1, self.n_vars + 1)}

    def _done(self, status: SatStatus, conflicts: int,
              model: dict[int, bool] | None = None) -> SatOutcome:
        self._backtrack(0)
        return SatOutcome(status, model, conflicts)

    def solve(self, assumptions: Sequence[int] = (), conflict_limit: int = 0) -> SatOutcome:
        """Search under ``assumptions``; ``conflict_limit`` counts this call only.

        A query over the same variables as the last one, with no level-0
        literal fixed and no variable added since, keeps the last one's
        scope and heap; any other walks its scope and builds its heap.
        """
        key = ({abs(lit) for lit in assumptions}, len(self.trail))
        if key != self.scope_key:
            self.scope, order = self._walk_scope(assumptions)
            self.scope_key = key
            self.heap = [(-self.activity[v], v) for v in order]
            heapq.heapify(self.heap)
            for v in order:
                self.in_heap[v] = True
        if self.ok and self._propagate() is not None:
            self.ok = False
        if not self.ok:
            return SatOutcome(SatStatus.UNSAT)
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
                return self._done(SatStatus.SAT, conflicts, self._model())
            self.trail_lim.append(len(self.trail))
            self._enqueue(branch, None)


def solve(solver: Solver, assumptions: Sequence[int] | None = None,
          conflict_limit: int = 0,
          alternatives: Sequence[Sequence[int]] = ()) -> SatOutcome:
    """Query a live :class:`Solver` under assumption literals.

    The assumptions are decided at levels 1..k, and what the solver
    learns stays for later queries.  UNSAT means unsatisfiable under the
    assumptions.  A positive ``conflict_limit`` yields UNDET once this
    call exceeds it; 0 means no limit.

    ``alternatives`` are further assumption sets, each asked in turn
    while every set before it is UNSAT: the outcome is SAT under the
    first satisfiable set, UNSAT if none is.  The sets share
    ``conflict_limit``; once a set has spent all of it, the outcome is
    UNDET.
    """
    cubes = [list(assumptions or ())] + [list(cube) for cube in alternatives]
    for cube in cubes:
        for lit in cube:
            if lit == 0 or abs(lit) > solver.n_vars:
                raise ValueError(f"assumption literal {lit} out of range")
    spent = 0
    for cube in cubes:
        left = conflict_limit - spent
        if conflict_limit and left <= 0:
            return SatOutcome(SatStatus.UNDET, None, spent)
        outcome = solver.solve(cube, left if conflict_limit else 0)
        spent += outcome.conflicts
        if not outcome.is_unsat:
            break
    return SatOutcome(outcome.status, outcome.model, spent)


# ---------------------------------------------------------------------------
# LUT clauses and the net-bound solver.


def lut_clauses(arity: int, tt: int) -> list[list[int]]:
    """Consistency clauses of an ``arity``-input LUT, over literal codes.

    Code ``2 * i`` is fanin ``i`` and ``2 * i + 1`` its complement;
    ``2 * arity`` and ``2 * arity + 1`` are the output and its
    complement.  :meth:`NetSolver.load` fills a LUT's literals in.

    Each cube ``c`` of a Minato-Morreale irredundant sum-of-products
    cover (ISOP) of the on-set gives the clause ``not c or out``, and
    each cube of an ISOP of the off-set gives ``not c or not out``.
    The clauses list the cube's inputs in fanin order, then the output.
    A k-LUT gets at most 2^k clauses: AND-k and OR-k get k + 1 and
    parity-k gets 2^k.  Arity 0 gives one unit clause.

    The cover works on rows 2^j bits wide at level j, fanin 0 first
    (the row's high half is its 1-cofactor), so it recurses at most
    ``arity`` deep.  A variable that neither bound of the interval
    depends on is skipped; the cover found over the halves then holds
    for the whole row.
    """
    clauses: list[list[int]] = []
    cube: list[int] = []  # clause literals of the cube on the current path

    def cover(lower: int, upper: int, j: int, out_lit: int) -> int:
        """Add clauses for an ISOP of some f with 0 < lower <= f <= upper; return f."""
        full = (1 << (1 << j)) - 1
        if upper == full:
            clauses.append(cube + [out_lit])
            return full
        half = 1 << (j - 1)
        mask = (1 << half) - 1
        lower0, lower1 = lower & mask, lower >> half
        upper0, upper1 = upper & mask, upper >> half
        if lower0 == lower1 and upper0 == upper1:
            f = cover(lower0, upper0, j - 1, out_lit)
            return f | f << half
        # An empty lower bound needs no cube, so it gets no call.
        lit0, lit1 = 2 * (arity - j), 2 * (arity - j) + 1
        f0 = f1 = fs = 0
        if part := lower0 & ~upper1:  # cubes with the input at 0
            cube.append(lit0)
            f0 = cover(part, upper0, j - 1, out_lit)
            cube.pop()
        if part := lower1 & ~upper0:  # cubes with the input at 1
            cube.append(lit1)
            f1 = cover(part, upper1, j - 1, out_lit)
            cube.pop()
        if part := (lower0 & ~f0) | (lower1 & ~f1):  # cubes free of the input
            fs = cover(part, upper0 & upper1, j - 1, out_lit)
        return (f0 | fs) | (f1 | fs) << half

    full = (1 << (1 << arity)) - 1
    on, off = tt & full, ~tt & full
    if on:
        cover(on, on, arity, 2 * arity)
    if off:
        cover(off, off, arity, 2 * arity + 1)
    return clauses


class NetSolver(Solver):
    """One incremental :class:`Solver` over a network's LUT clauses.

    :meth:`load` gives a node a variable (``node_var``), and a non-PI
    node its :func:`lut_clauses`, the first time the node enters a query
    cone; nothing is encoded twice.  ``lut_clauses`` runs once per
    distinct ``(arity, tt)``, and its template over fanin positions is
    kept in ``templates``; each LUT gets the template with its own
    variables filled in.  The clauses stay sound while the
    network is swept: a node is merged only once it is proven equal
    to its driver, so each variable still equals its node's
    function of the PIs.

    As ABC's fraig prepares its solver with a query's cone, a query's
    scope (:meth:`_walk_scope`) is its assumption variables and,
    transitively, the fanin variables each was loaded with (the loaded
    fanins, not the current ones, since a merge rewires a node but not
    its clauses), so a query costs time in its own cone, not in all
    that is loaded.  Its model is the values of the scope's PIs, keyed
    by PI node id.  A SAT answer stays sound: the scope's clauses
    mention only scope variables, and every variable outside it is a
    function of the PIs that the model extends to.
    The two halves of an equivalence have one set of variables, so the
    second keeps the first's scope and heap, unless the first fixed new
    level-0 literals: every scope variable the first left unassigned
    still has a valid entry.

    :meth:`add_equivalence` records a merge proven without SAT (by an
    exhaustive window) as the two binary clauses of ``a <-> b'``.  Both
    nodes equal their functions of the PIs and those functions are
    proven equal, so the clauses are implied by the LUT clauses: they
    remove no model, and a scoped model still extends.  They let a
    query that reaches the merged node's variable through a reader
    loaded before the merge propagate into its driver's cone.
    """

    def __init__(self, net: Network):
        super().__init__(0)
        self.net = net
        self.node_var: dict[int, int] = {}
        #: Fanin variables of each variable when it was loaded (PIs: none).
        self.fanin_vars: list[list[int]] = [[]]
        #: :func:`lut_clauses` of each ``(arity, tt)`` loaded so far.
        self.templates: dict[tuple[int, int], list[list[int]]] = {}

    def load(self, roots: list[int]) -> None:
        """Encode the nodes of the roots' input cones not encoded yet.

        A LUT gets its table's template with its own literals filled in,
        one int object per literal.  When its fanin variables are
        distinct and unassigned, :meth:`add_clause` would attach every
        clause as it is, so they go straight to their watch lists; any
        other LUT's clauses go through :meth:`add_clause`.
        """
        new = self.net.cone(roots, known=self.node_var)
        if not new:
            return
        nodes, node_var, value, watches = self.net.nodes, self.node_var, self.value, self.watches
        templates = self.templates
        # Post-order: every fanin has its variable before its readers.
        for var, nid in enumerate(new, self.add_vars(len(new))):
            node_var[nid] = var
            node = nodes[nid]
            fanins = [node_var[f] for f in node.fanins]
            self.fanin_vars.append(fanins)
            if node.is_pi:
                continue
            arity = len(fanins)
            template = templates.get((arity, node.tt))
            if template is None:
                template = templates[arity, node.tt] = lut_clauses(arity, node.tt)
            lits = [lit for fv in fanins for lit in (fv, -fv)]
            lits += (var, -var)
            clauses = [[lits[code] for code in codes] for codes in template]
            # Only a constant table has a unit clause, and it has just one.
            if (self.ok and len(template[0]) > 1 and len(set(fanins)) == arity
                    and all(value[fv] < 0 for fv in fanins)):
                for clause in clauses:
                    watches[clause[0]].append(clause)
                    watches[clause[1]].append(clause)
            else:
                for clause in clauses:
                    self.add_clause(clause)

    def add_equivalence(self, a: int, b: int, inverted: bool = False) -> None:
        """Add ``a <-> b`` (``a <-> not b`` if ``inverted``), proven elsewhere.

        Only a loaded node can be read by a query, so if neither node is
        loaded this does nothing.  Otherwise both cones are loaded and
        the two binary clauses added.  The caller must have proven the
        equivalence: an unproven one would make later answers unsound.
        """
        node_var = self.node_var
        if a not in node_var and b not in node_var:
            return
        self.load([a, b])
        va, vb = node_var[a], node_var[b]
        if inverted:
            vb = -vb
        self.add_clause([-va, vb])
        self.add_clause([va, -vb])

    def _walk_scope(self, assumptions: Sequence[int]) -> tuple[Container[int], list[int]]:
        """The assumption variables and, transitively, their loaded fanins.

        The walk does not enter variables already fixed (a call starts
        at level 0): such a node is constant, so any values of its
        fanins extend to a model.
        """
        value, fanin_vars = self.value, self.fanin_vars
        scope: set[int] = set()
        order: list[int] = []
        stack = [abs(lit) for lit in assumptions]
        while stack:
            v = stack.pop()
            if v in scope:
                continue
            scope.add(v)
            if value[v] < 0:
                order.append(v)
                stack.extend(fanin_vars[v])
        return scope, order

    def _model(self) -> dict[int, bool]:
        value, node_var, scope = self.value, self.node_var, self.scope
        return {nid: value[v] == 1 for nid in self.net.pis if (v := node_var.get(nid)) in scope}


def encode_cone(net: Network, roots: list[int]) -> NetSolver:
    """A :class:`NetSolver` over ``net`` with the roots' input cones loaded.

    No runtime path calls this.  It is kept only because the benchmark's
    tracer (perfbench/tracer.py) wraps ``sat.encode_cone`` and
    ``sweep.encode_cone`` by name, and it goes when the tracer stops
    wrapping them (ROADMAP item 1).
    """
    solver = NetSolver(net)
    solver.load(roots)
    return solver


def prove_equiv(
    solver: NetSolver,
    a: int,
    b: int,
    inverted: bool = False,
    conflict_limit: int = 0,
) -> SatOutcome:
    """Decide whether node ``a`` equals node ``b`` (or its complement).

    Both are nodes of ``solver.net``.  UNSAT certifies the equivalence
    under the stated phase; a SAT outcome carries a counter-example.

    The cones are loaded if need be, and the equivalence is asked as
    two assumption-only queries, ``(a, not b')`` then ``(not a, b')``
    with ``b'`` the phase-adjusted ``b``, in one :func:`solve` call
    whose assumption sets share ``conflict_limit``.
    """
    if a == b:
        raise ValueError("prove_equiv needs two distinct nodes")
    solver.load([a, b])
    va, vb = solver.node_var[a], solver.node_var[b]
    if inverted:
        vb = -vb
    return solve(solver, assumptions=[va, -vb], conflict_limit=conflict_limit,
                 alternatives=[[-va, vb]])
