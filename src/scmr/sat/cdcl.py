"""Conflict-driven clause learning SAT solver.

Self-contained CDCL with two-literal watches, first-UIP learning, VSIDS-style
activities, Luby restarts and phase saving. Built for the instance sizes this
package produces (up to a few hundred thousand clauses); for heavier ones,
write the formula with `write_instance` and run an external solver on it.

As in MiniSat (Een & Sorensson, "An Extensible SAT-solver", SAT 2003), values
and watch lists live in tables indexed by literal (a negative literal counts
from the end), and the decision heap gets a variable's entry again only when
it lacks the one with the current activity. Stale entries from earlier
activities are skipped when popped.

Clauses are loaded in one pass in the constructor, which runs with the
cyclic garbage collector paused. A two-literal clause over
two distinct in-range variables, both unassigned at the root (most clauses
the encoder emits), is kept and watched directly; every other clause goes
through `_add_clause`, which sorts, drops duplicates, tautologies and
root-false literals, and propagates units. Both paths keep the same clause,
in the same watch-list position, as `_add_clause` alone would.

Every `solve` starts at the root level, so one solver may be searched again
after a model, an UNSAT verdict, a `SolverTimeout` or `add_clause`, which
adds one more clause between searches: models can be enumerated by blocking
each one found, and a search cut by its deadline resumes with the clauses
it learned.

Literals use DIMACS convention: variable v > 0, literal +v or -v. Models are
verified against the full clause set before being returned.
"""
from __future__ import annotations

import gc
import time
from heapq import heapify, heappop, heappush


class SolverTimeout(Exception):
    pass


def _luby(i: int) -> int:
    # Luby sequence 1,1,2,1,1,2,4,... (i is 1-based)
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


class CdclSolver:
    def __init__(self, num_vars: int, clauses):
        # The tables and the kept clauses are hundreds of thousands of new
        # tracked lists and tuples on a large formula, and the collections
        # their growth sets off would walk them, and the caller's clauses,
        # again and again. Building them makes no reference cycle, so the
        # cyclic collector is paused instead, and left as it was found.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.n = num_vars
            # indexed by literal: vals[v] and vals[-v] (from the end) are 1 true,
            # -1 false, 0 unassigned
            self.vals = [0] * (2 * num_vars + 1)
            self.level = [0] * (num_vars + 1)
            self.reason: list = [None] * (num_vars + 1)
            self.saved_phase = bytearray(num_vars + 1)
            self.activity = [0.0] * (num_vars + 1)
            self.var_inc = 1.0
            self.heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, num_vars + 1)]
            # queued[v]: the heap holds the entry with v's current activity
            self.queued = bytearray(b"\x01" * (num_vars + 1))
            self.clauses: list[list[int]] = []
            # indexed like vals: watches[l] holds the clauses watching literal l
            self.watches: list[list[list[int]]] = [[] for _ in range(2 * num_vars + 1)]
            self.trail: list[int] = []
            self.trail_lim: list[int] = []
            self.qhead = 0
            self.ok = True
            self._seen = bytearray(num_vars + 1)
            self._load(clauses)
        finally:
            if enabled:
                gc.enable()

    # -- clause management ---------------------------------------------------

    def _load(self, clauses):
        n = self.n
        vals = self.vals
        watches = self.watches
        kept = self.clauses
        add = self._add_clause
        for c in clauses:
            if type(c) is list and len(c) == 2:
                a, b = c
                va = a if a > 0 else -a
                vb = b if b > 0 else -b
                if vb < va:
                    a, b, va, vb = b, a, vb, va
                if 0 < va < vb <= n and not vals[a] and not vals[b]:
                    # what _add_clause keeps of it: a new list sorted by
                    # variable, watched on both literals
                    c = [a, b]
                    kept.append(c)
                    watches[a].append(c)
                    watches[b].append(c)
                    continue
            if not add(c):
                self.ok = False
                break

    def _add_clause(self, lits) -> bool:
        distinct = set(lits)
        lits = sorted(distinct, key=abs)
        if lits and (lits[0] == 0 or abs(lits[-1]) > self.n):
            bad = lits[0] if lits[0] == 0 else lits[-1]
            raise ValueError(f"literal {bad} out of range 1..{self.n}")
        if any(-l in distinct for l in lits):
            return True  # tautology
        vals = self.vals
        out = []
        for l in lits:
            val = vals[l]
            if val == 1:
                return True  # satisfied at root
            if val == 0:
                out.append(l)
        if not out:
            return False
        if len(out) == 1:
            return self._enqueue(out[0], None) and self._propagate() is None
        self.clauses.append(out)
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)
        return True

    def add_clause(self, lits) -> None:
        """Add a clause between searches, such as one that blocks the model
        just found; the next `solve` starts again from the root level."""
        self._cancel_until(0)
        if self.ok:
            self.ok = self._add_clause(lits)

    # -- assignment ----------------------------------------------------------

    def _enqueue(self, lit: int, reason) -> bool:
        val = self.vals[lit]
        if val:
            return val == 1
        self.vals[lit] = 1
        self.vals[-lit] = -1
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _propagate(self):
        """Unit propagation; returns a conflicting clause or None."""
        vals = self.vals
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watches[false_lit]
            if not watchers:
                continue
            keep = []
            i = 0
            n_w = len(watchers)
            while i < n_w:
                clause = watchers[i]
                i += 1
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                val = vals[first]
                if val == 1:
                    keep.append(clause)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if vals[other] != -1:
                        clause[1], clause[k] = other, false_lit
                        watches[other].append(clause)
                        break
                else:
                    keep.append(clause)
                    if val == -1:
                        keep.extend(watchers[i:])
                        watches[false_lit] = keep
                        self.qhead = qhead
                        return clause
                    vals[first] = 1
                    vals[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = cur_level
                    reason[v] = clause
                    trail.append(first)
            watches[false_lit] = keep
        self.qhead = qhead
        return None

    # -- learning ------------------------------------------------------------

    def _bump(self, v: int):
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        heappush(self.heap, (-act, v))
        self.queued[v] = 1
        if act > 1e100:
            for u in range(1, self.n + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
            vals = self.vals
            self.heap = [(-self.activity[u], u) for u in range(1, self.n + 1) if not vals[u]]
            heapify(self.heap)
            self.queued = bytearray(0 if vals[u] else 1 for u in range(self.n + 1))

    def _analyze(self, conflict):
        learnt = [0]  # slot for the asserting literal
        seen = self._seen
        counter = 0
        lit = 0
        reason = conflict
        idx = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        touched = []
        while True:
            # no q is lit: a reason holds -lit and no variable twice; -lit is seen
            for q in reason:
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    touched.append(v)
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            lit = -self.trail[idx]
            v = abs(lit)
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            reason = self.reason[v]
        learnt[0] = lit
        for v in touched:
            seen[v] = 0
        # slot 1 gets the deepest remaining literal so watches stay coherent
        back = 0
        if len(learnt) > 1:
            deepest = max(range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])])
            learnt[1], learnt[deepest] = learnt[deepest], learnt[1]
            back = self.level[abs(learnt[1])]
        return learnt, back

    def _cancel_until(self, level: int):
        trail_lim = self.trail_lim
        if len(trail_lim) > level:
            trail = self.trail
            vals = self.vals
            reason = self.reason
            saved_phase = self.saved_phase
            activity = self.activity
            queued = self.queued
            heap = self.heap
            bound = trail_lim[level]
            del trail_lim[level:]
            for lit in reversed(trail[bound:]):
                v = lit if lit > 0 else -lit
                saved_phase[v] = 1 if lit > 0 else 0
                vals[lit] = 0
                vals[-lit] = 0
                reason[v] = None
                if not queued[v]:
                    heappush(heap, (-activity[v], v))
                    queued[v] = 1
            del trail[bound:]
        self.qhead = len(self.trail)

    def _decide(self) -> int:
        heap = self.heap
        vals = self.vals
        activity = self.activity
        queued = self.queued
        while heap:
            act, v = heappop(heap)
            if -act == activity[v]:
                queued[v] = 0
                if not vals[v]:
                    return v if self.saved_phase[v] else -v
        return 0   # every unassigned variable has its current entry

    # -- main loop -----------------------------------------------------------

    def solve(self, timeout: float | None = None) -> list[int] | None:
        """Return a model as a list of signed literals, or None if UNSAT."""
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self.ok:
            return None
        # When this runs, the level-0 trail is fully propagated: decisions
        # follow only a conflict-free propagate, and a root conflict ends the
        # search. So a search left by a timeout, a model or `add_clause`
        # starts again from the root, keeping what it has learned.
        self._cancel_until(0)
        conflicts = 0
        decisions = 0
        restart_idx = 1
        budget = 100 * _luby(restart_idx)
        since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None and not self.trail_lim:
                self.ok = False
                return None
            if deadline is not None and (conflicts + decisions) % 64 == 0 \
                    and time.monotonic() > deadline:
                raise SolverTimeout(f"no verdict within {timeout:.3f}s")
            if conflict is not None:
                conflicts += 1
                since_restart += 1
                learnt, back = self._analyze(conflict)
                self._cancel_until(back)
                if len(learnt) > 1:
                    self.clauses.append(learnt)
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                self._enqueue(learnt[0], learnt if len(learnt) > 1 else None)
                self.var_inc /= 0.95
                continue
            if since_restart >= budget and self.trail_lim:
                since_restart = 0
                restart_idx += 1
                budget = 100 * _luby(restart_idx)
                self._cancel_until(0)
                continue
            lit = self._decide()
            if lit == 0:
                self._verify()
                return [v if self.vals[v] == 1 else -v for v in range(1, self.n + 1)]
            decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

    def _verify(self):
        """Every kept and learned clause has a true literal under `vals`."""
        value = self.vals.__getitem__
        for clause in self.clauses:
            if 1 not in map(value, clause):
                raise RuntimeError("internal error: model does not satisfy clause set")
