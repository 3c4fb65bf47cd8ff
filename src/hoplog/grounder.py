"""Bounded Herbrand universes and ground instantiation.

The full ground instantiation of a higher-order program is infinite in
general, so every operation here works inside a finite window: terms whose
symbol count (constants, function symbols, predicate constants) does not
exceed a size bound k.  Two groundings are offered:

* ``ground_instantiation``  — every ground instance whose substituted terms
  come from the size-k universe;
* ``relevant_grounding``    — the dependency closure of a set of root atoms.
  Head formals are bound by matching the demanded atom (and are therefore
  not size-restricted); only body-only variables range over the size-k
  universe.  A demanded atom is split into its head and arguments once, when
  it is admitted, and meets only the clauses of its head whose guards on the
  formals its argument nodes match: a fact row it does not match is counted,
  not grounded.  A cap on the atoms and one on the size of a demanded atom
  guard against runaway closures.

A cap on the symbols of one universe bounds both modes against deep or
wide universes.

Clauses that differ only in the ground sides t of their guards V = t share
a shape, compiled once per grounding into atom builders, with one row of
guard constants per clause.  The atom table maps each atom's ``text`` to the
atom, the interned ground term of type o built from field values; it holds
every atom of every instance, filled from each atom literal's projection.
Equalities resolve at grounding time, by the identity of the interned terms
on their two sides; an instance with a false one is dead.  The engines' form,
``GroundProgram.rules`` over atom ids in atom-table order, comes from
semi-naive joins over the possibly-true atoms, so it holds only rules that
can fire.  ``clauses``, the instances as ``GroundClause`` records, is
enumerated when first read.  A grounding whose instance count would pass
``DEFAULT_MAX_CLAUSES`` is refused before any of it.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
from collections.abc import Callable
from operator import attrgetter, itemgetter

from .errors import EmptyUniverse, GroundingLimitExceeded
from .records import FrozenRecord, Record, built_when_read
from .syntax import (
    App,
    Arrow,
    Const,
    Eq,
    Expr,
    Neg,
    Signature,
    TypeExpr,
    Var,
    build_spine,
    instance_builder,
    is_argument_type,
    is_predicate_type,
    spine,
    vars_in_order,
)
from .typecheck import Program

DEFAULT_MAX_ATOMS = 100_000
# Symbols in one demanded atom.  Matched head bindings are not size bounded,
# and an atom's text grows with its size, so under the atom cap alone a chain
# such as ``p X <- p (f X)`` would print on the order of DEFAULT_MAX_ATOMS**2
# characters before it stopped.
DEFAULT_MAX_ATOM_SIZE = 100
# Ground clauses in one grounding, in either mode.
DEFAULT_MAX_CLAUSES = 1_000_000
# Symbols in the terms one ``Universe`` builds, over all its types, counted
# as they are built.  Each term holds its text, so a universe costs memory
# in proportion to its symbols: ``f : i -> i`` at depth d builds d**2 / 2.
DEFAULT_MAX_UNIVERSE_SYMBOLS = 1_000_000


# ---------------------------------------------------------------------------
# Ground atoms, literals, clauses
# ---------------------------------------------------------------------------


def ground_atom(expr: Expr) -> Expr:
    """The ground atom expr itself, once it is checked to be predicate-headed:
    its head is a constant of predicate type."""
    _predicate_spine(expr)
    return expr


def _predicate_spine(expr: Expr) -> tuple[Expr, list[Expr]]:
    """``spine(expr)``, once its head is checked to be a predicate constant."""
    head, args = spine(expr)
    if not isinstance(head, Const) or not is_predicate_type(head.typ):
        raise ValueError(f"not predicate-headed: {expr.text}")
    return head, args


class ConstLit(FrozenRecord):
    """An equality literal resolved at grounding time."""

    __slots__ = ("value",)

    @property
    def text(self) -> str:
        return "true" if self.value else "false"


class GroundClause(FrozenRecord):
    """A ground instance of a source clause.  ``head`` is its ground atom;
    each of ``body`` is an atom, its ``Neg``, or a ``ConstLit``.
    ``source_index`` is the source clause's position in the program, and
    ``theta`` the substitution that produced the instance, as
    ``(variable name, ground term)`` pairs."""

    __slots__ = ("head", "body", "source_index", "theta")

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head.text}."
        return f"{self.head.text} <- {', '.join([l.text for l in self.body])}."


# A compiled clause body: (positive atom ids, negative atom ids).
Rule = tuple[tuple[int, ...], tuple[int, ...]]


# (head predicate, body predicate, negated): an instance's head and one of
# its atom literals, by their leftmost predicate constants.
PredicateEdge = tuple[str, str, bool]


class GroundProgram(Record):
    """A finite propositional program over an atom table.

    ``atoms`` is the atom table, a dict from an atom's text to the atom, in
    insertion order.  ``rules`` is the integer form both engines run on, a
    tuple of ``Rule`` tuples per atom id.  Atom ids follow the atom table's
    order.  ``rules[h]`` lists one ``(positive ids, negative ids)`` pair per
    live instance with head h whose positive atoms can all be true;
    ``true`` literals are stripped, so no rule carries a resolved
    equality.  ``predicate_edges`` holds each ``PredicateEdge`` of some
    instance, dead ones included, once, in order of first appearance;
    ``localize`` checks strata on it.  ``clauses`` lists every instance,
    dead ones included, as a ``GroundClause``.  It is given either as a
    tuple or as a function that builds the tuple the first time
    ``clauses`` is read.
    """

    __slots__ = ("atoms", "rules", "predicate_edges", "_clauses")
    _fields = ("atoms", "rules", "predicate_edges", "clauses")
    clauses = built_when_read("_clauses")


# ---------------------------------------------------------------------------
# Herbrand universes
# ---------------------------------------------------------------------------


class Universe:
    """Size-bounded Herbrand universes per argument type, canonically ordered.

    Terms are ordered by symbol count first, then lexicographically by their
    canonical text, so enlarging the bound only appends.  ``symbols`` counts
    the symbols of every term built so far; the term that takes it past
    ``DEFAULT_MAX_UNIVERSE_SYMBOLS`` raises ``GroundingLimitExceeded``.
    """

    def __init__(self, signature: Signature):
        self.signature = signature
        self._by_size: dict[tuple[TypeExpr, int], tuple[Expr, ...]] = {}
        # per type: every size below this one is in _by_size
        self._built_below: dict[TypeExpr, int] = {}
        self._terms: dict[tuple[TypeExpr, int], tuple[Expr, ...]] = {}  # of terms(rho, k)
        self.symbols = 0

    def _terms_exact(self, rho: TypeExpr, size: int) -> tuple[Expr, ...]:
        key = (rho, size)
        cached = self._by_size.get(key)
        if cached is not None:
            return cached
        found: list[Expr] = []
        for term in self._build(rho, size):
            self.symbols += size
            if self.symbols > DEFAULT_MAX_UNIVERSE_SYMBOLS:
                raise GroundingLimitExceeded(
                    f"the terms of type {rho} and size {size} take the universe "
                    f"over the cap of {DEFAULT_MAX_UNIVERSE_SYMBOLS} symbols"
                )
            found.append(term)
        terms = self._by_size[key] = tuple(sorted(found, key=attrgetter("text")))
        return terms

    def _build(self, rho: TypeExpr, size: int):
        """The terms of type rho with exactly ``size`` symbols, unordered: the
        signature's producers of rho applied to arguments."""
        types = self.signature.types
        for name, argtypes in self.signature.producers.get(rho, ()):
            head = Const(name, types[name])
            if argtypes:
                for args in self._arg_tuples(argtypes, size - 1):
                    yield build_spine(head, args)
            elif size == 1:
                yield head

    def _arg_tuples(self, argtypes: tuple[TypeExpr, ...], budget: int):
        """All tuples of ground arguments with the given types and total size."""
        first, rest = argtypes[0], argtypes[1:]
        if not rest:
            if budget < 1:
                return
            # The last argument takes the whole budget.  Its smaller sizes
            # are built first, in order, so that building this size recurses
            # once per type, never once per size.
            below = self._built_below.get(first, 1)
            for s in range(below, budget):
                self._terms_exact(first, s)
            self._built_below[first] = max(below, budget)
            for t in self._terms_exact(first, budget):
                yield (t,)
            return
        max_first = budget - len(rest)
        for s in range(1, max_first + 1):
            for t in self._terms_exact(first, s):
                for tail in self._arg_tuples(rest, budget - s):
                    yield (t,) + tail

    def terms(self, rho: TypeExpr, k: int) -> tuple[Expr, ...]:
        if (rho, k) not in self._terms:
            sizes = [self._terms_exact(rho, s) for s in range(1, k + 1)]
            self._terms[rho, k] = tuple(itertools.chain.from_iterable(sizes))
        return self._terms[rho, k]


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


_TRUE, _FALSE = ConstLit(True), ConstLit(False)


class _Template:
    """A clause shape compiled once per grounding, with a row per clause of
    the shape: (its index, its guards' ground sides, ``rest``'s domains
    narrowed by its guards).  Field i of each builder is the i-th variable
    of ``clause.variables()``, filled with its value, a ground term; field
    ``len(variables) + j`` is the j-th guard's ground side.  The ``n_bound``
    leading variables take a matched head's arguments (demand grounding binds
    the formals); the rest range over ``domains``.  A projection numbers a
    literal's unbound variables after the bound ones."""

    def __init__(self, g: _Grounding, index: int, shape: tuple) -> None:
        clause, k = g.program.clauses[index], g.k
        n_bound = len(clause.formals) if g.bind_formals else 0
        self.rows = []
        self.variables = variables = clause.variables()
        self.fields = fields = {v.name: i for i, v in enumerate(variables)}
        self.domains = domains = []
        for v in variables[n_bound:]:
            domains.append(g.universe.terms(v.typ, k))
            if not domains[-1]:
                raise EmptyUniverse(f"variable {v.name} : {v.typ} of clause {index} has an "
                                    f"empty size-{k} universe")
        self.count = math.prod(len(d) for d in domains)  # instances per call
        self.head_pred = head_pred = clause.head_pred.name
        self.body = body = []  # (negated, atom), or (None, (lhs, rhs) builders) for an equality
        self.bound_heads = []  # (field, negated) per literal a bound variable heads
        # per atom literal, the head first: (projection pattern, free fields, builder)
        self.literals = literals = [_literal(clause.head_atom(), fields, n_bound)]
        self.checks, self.guards = [], []  # the equalities' builder pairs; per guard, its field
        self.pos, looked_up = [], [0]  # the positive atoms' literals; the head's and negated ones'
        for lit in shape[2]:
            if isinstance(lit, (tuple, Eq)):  # a guard's ground side is the next parameter
                param = itemgetter(len(variables) + len(self.guards))
                sides = lit if isinstance(lit, tuple) else (lit.lhs, lit.rhs)
                self.checks.append(tuple(instance_builder(s, fields) if s else param for s in sides))
                body.append((None, self.checks[-1]))
                if isinstance(lit, tuple):
                    self.guards.append(fields[(lit[0] or lit[1]).name])
                continue
            negated = isinstance(lit, Neg)
            atom = lit.atom if negated else lit
            body.append((negated, atom))
            (looked_up if negated else self.pos).append(len(literals))
            literals.append(_literal(atom, fields, n_bound))
            lead, _ = spine(atom)
            if isinstance(lead, Const):
                g.edges[head_pred, lead.name, negated] = None
            elif fields[lead.name] < n_bound:
                self.bound_heads.append((fields[lead.name], negated))
            else:
                for value in domains[fields[lead.name] - n_bound]:
                    g.edges[head_pred, spine(value)[0].name, negated] = None
        self.looked_up = [(i, literals[i][1] and _key(literals[i][1])) for i in looked_up]
        # plans[q] joins a tuple of positive atom q with the others in body
        # order.  A step (r, key positions, the key of their fields, (field,
        # position) per field it binds) looks r's tuples up by the fields bound so far.
        lvs = [literals[i][1] for i in self.pos]
        self.plans = []
        for q, lv in enumerate(lvs):
            seen, steps = set(lv), []
            for r, other in enumerate(lvs):
                if r != q:
                    keys = tuple(p for p, f in enumerate(other) if f in seen)
                    binds = tuple((f, p) for p, f in enumerate(other) if f not in seen)
                    steps.append((r, keys, _key(tuple(other[p] for p in keys)), binds))
                    seen.update(other)
            self.plans.append(steps)
        # per positive atom, the key positions its tuples are indexed by, with their key
        self.slots = [{s[1]: _key(s[1]) for p in self.plans for s in p if s[0] == q}
                      for q in range(len(lvs))]
        joined = set(range(n_bound)).union(*lvs)
        self.rest = [f for f in range(len(variables)) if f not in joined]  # fields no join binds
        self.rest_domains = [domains[f - n_bound] for f in self.rest]
        # per guarded field of rest: its place in rest, its domain's values, its guards
        self.narrowing = [(i, set(self.rest_domains[i]),
                           [j for j, g in enumerate(self.guards) if g == f])
                          for i, f in enumerate(self.rest) if f in self.guards]

    def add(self, index: int, consts: tuple[Expr, ...]) -> int:
        """Add clause ``index``, with ``consts`` its guards' ground sides, as a row.  A
        guarded field keeps the value that is each of its guards' sides, if its domain
        holds it: interned terms, alive in the row and the universe, compare by identity."""
        domains = list(self.rest_domains)
        for i, values, guards in self.narrowing:
            kept = {consts[j] for j in guards}
            domains[i] = list(kept & values) if len(kept) == 1 else []
        self.rows.append((index, consts, domains))
        return len(self.rows) - 1


def _literal(atom: Expr, fields: dict[str, int], n_bound: int) -> tuple:
    """(pattern, free fields, builder, reads) of an atom literal.  The builder takes the
    bound fields, then the free ones in order of first use; the pattern is the atom with
    each variable its builder's field.  The pattern and the values of the bound fields
    the literal reads key its projection: ``reads`` picks those values out of the bound
    ones, or is None when it reads them all."""
    names = dict.fromkeys(v.name for v in vars_in_order(atom))
    own = tuple(fields[x] for x in names if fields[x] >= n_bound)
    number = {x: n_bound + own.index(fields[x]) if fields[x] >= n_bound else fields[x]
              for x in names}  # bound fields keep theirs
    read = tuple(f for f in number.values() if f < n_bound)
    return (_pattern(atom, number), own, instance_builder(atom, number),
            None if len(read) == n_bound else _key(read))


def _pattern(e: Expr, number: dict[str, int]):
    """The term e up to its variables' names: a variable is its field and type,
    an application a pair, and a constant itself.  Literals of one pattern
    thus share their projection: ``edge X Y`` as a head and ``edge X Z`` in
    a body."""
    if isinstance(e, Var):
        return number[e.name], e.typ
    if isinstance(e, App):
        return _pattern(e.op, number), _pattern(e.arg, number)
    return e


def _key(fields: tuple[int, ...]) -> Callable[[list], tuple]:
    """The function from field values to the tuple of those of ``fields``."""
    if len(fields) > 1:
        return itemgetter(*fields)
    return (lambda values, f=fields[0]: (values[f],)) if fields else lambda values: ()


class _Grounding:
    """One grounding under way: shape templates, the atom table and the
    compiled rules.  A literal's projection, its atoms by its own variables'
    values, holds those of all instances, dead ones included.  Every atom is
    built by its literal's builder and found in the table by its own text."""

    bind_formals = False

    def __init__(self, program: Program, k: int):
        self.program, self.k = program, k
        self.universe = Universe(program.signature)
        self.table: list[Expr] = []  # the atoms by id
        self.ids: dict[str, int] = {}
        self.edges: dict[PredicateEdge, None] = {}
        self.clause_count = 0
        self._shapes, self._templates = {}, {}  # per shape, its template; per clause, it and a row
        self._projections: dict[tuple, dict[tuple[Expr, ...], int]] = {}
        # per call, (template, row, bound values, per literal its atom id or projection);
        # per atom id, (call, positive atom, tuple) per use
        self._live: list[tuple[_Template, int, tuple, tuple]] = []
        self._uses: defaultdict[int, list] = defaultdict(list)

    def result(self, calls, heads=None, roots=()) -> GroundProgram:
        return GroundProgram({atom.text: atom for atom in self.table}, self._solve(),
                             tuple(self.edges), lambda: _clauses(calls, heads, roots))

    def template(self, index: int) -> tuple[_Template, int]:
        """The template of clause ``index``'s shape, and the clause's row in it, once
        the clause's instances are counted: the clause that would take the grounding
        over the cap is refused.  The shape is the clause with each guard V = t
        (t ground) as (V, None) or (None, V)."""
        found = self._templates.get(index)
        if found is None:
            clause, body, consts = self.program.clauses[index], [], []
            for lit in clause.body:
                if isinstance(lit, Eq):
                    for var, t in ((lit.lhs, lit.rhs), (lit.rhs, lit.lhs)):
                        if isinstance(var, Var) and not vars_in_order(t):
                            lit = (var, None) if var is lit.lhs else (None, var)
                            consts.append(t)
                            break
                body.append(lit)
            shape = (clause.head_pred, clause.formals, tuple(body))
            t = self._shapes.get(shape)
            if t is None:
                t = self._shapes[shape] = _Template(self, index, shape)
            found = self._templates[index] = (t, t.add(index, tuple(consts)))
        total = self.clause_count + found[0].count
        if total > DEFAULT_MAX_CLAUSES:
            raise GroundingLimitExceeded(f"clause {index} would bring the grounding to "
                                         f"{total} clauses, over the cap of {DEFAULT_MAX_CLAUSES}")
        self.clause_count = total
        return found

    def ground(self, t: _Template, r: int, bound: tuple[Expr, ...] = (), head=None) -> None:
        """Admit row r's projections and keep a live call; head: its known id."""
        for field, negated in t.bound_heads:
            self.edges[t.head_pred, spine(bound[field])[0].name, negated] = None
        ids, projected = self.ids, [] if head is None else [head]
        for literal in t.literals[len(projected):]:
            if literal[1]:
                projected.append(self._project(t, literal, bound))
                continue
            atom = literal[2](bound)  # no free variable: one atom, likely known
            a = ids.get(atom.text)
            projected.append(self._admit(atom) if a is None else a)
        c = len(self._live)
        self._live.append((t, r, bound, tuple(projected)))
        for q, i in enumerate(t.pos):
            for tup, a in projected[i].items() if t.literals[i][1] else [((), projected[i])]:
                self._uses[a].append((c, q, tup))

    def _project(self, t: _Template, literal: tuple, bound: tuple[Expr, ...]) -> dict:
        """A literal's projection, computed once per pattern and values of the bound
        fields it reads: the atom id per tuple of its free variables' values.  New atoms
        are admitted."""
        pattern, free, build, reads = literal
        found = self._projections.get(key := (pattern, bound if reads is None else reads(bound)))
        if found is None:
            n, found, ids = len(bound), {}, self.ids
            for tup in itertools.product(*[t.domains[f - n] for f in free]):
                atom = build(bound + tup)
                a = ids.get(atom.text)
                found[tup] = self._admit(atom) if a is None else a
            self._projections[key] = found
        return found

    def _admit(self, atom: Expr) -> int:  # the new atom's id
        i = self.ids[atom.text] = len(self.table)
        self.table.append(atom)
        return i

    def _solve(self) -> tuple:
        """The rules per atom id: one for each live instance whose positive atoms
        are all possibly true, in the least model of the live instances with
        their negated atoms dropped.  No other rule fires in any stage of either
        engine.  Semi-naive: instances without a positive atom come first; then
        each atom found possibly true joins each tuple it gives a positive atom q
        with those the call's other positive atoms take from atoms found before
        it, or from it after q, so an instance is built once, with its last
        positive atom.  A rule's ids come from the projections.  An atom gets a
        list with its first rule, when it is found possibly true; every other
        atom keeps the empty tuple."""
        live, uses = self._live, self._uses
        rules = [()] * len(self.table)
        indexes: dict[tuple, dict] = {}  # (call, positive atom, key positions) -> tuples by key
        queue: deque[int] = deque()

        def start(c: int) -> list:  # a call's field values, the free ones None
            t, r, bound, _ = live[c]
            return [*bound, *[None] * len(t.domains), *t.rows[r][1]]

        def fire(c: int, values: list, pos_ids: tuple[int, ...]) -> None:
            t, r, _, at = live[c]
            for combo in itertools.product(*t.rows[r][2]):
                for f, v in zip(t.rest, combo):
                    values[f] = v
                if t.checks and any(x(values) is not y(values) for x, y in t.checks):
                    continue
                h, *neg = [at[i][key(values)] if key else at[i] for i, key in t.looked_up]
                if not rules[h]:  # h is found possibly true
                    rules[h] = []
                    queue.append(h)
                rules[h].append((pos_ids, tuple(neg)))

        for c, (t, *_) in enumerate(live):  # the instances without a positive atom
            if not t.pos:
                fire(c, start(c), ())
        while queue:
            a = queue.popleft()
            for c, q, tup in uses.get(a, ()):
                for keys, key in live[c][0].slots[q].items():
                    index = indexes.setdefault((c, q, keys), {})
                    index.setdefault(key(tup), []).append((tup, a))
            for c, q, tup in uses.get(a, ()):
                t = live[c][0]
                values = start(c)
                for f, v in zip(t.literals[t.pos[q]][1], tup):
                    values[f] = v
                _join(fire, indexes, c, t.plans[q], values, [a] * len(t.pos), a, q)
        return tuple(map(tuple, rules))


def _join(fire, indexes: dict, c: int, steps, values: list, pos_ids: list, a: int, q: int) -> None:
    """Fire call c's instances for each choice of a tuple per step that the
    step's index holds for the fields bound so far.  A function of the
    module, not a closure in ``_solve``, so that no closure refers to itself
    and the grounding is freed as soon as it is dropped."""
    if not steps:
        fire(c, values, tuple(pos_ids))
        return
    r, keys, key, binds = steps[0]
    for tup, b in indexes.get((c, r, keys), {}).get(key(values), ()):
        if b != a or r > q:
            for f, p in binds:
                values[f] = tup[p]
            pos_ids[r] = b
            _join(fire, indexes, c, steps[1:], values, pos_ids, a, q)


class _DemandGrounding(_Grounding):
    """A grounding that binds each clause's formals by matching a demanded
    atom, and demands every atom it meets.  An atom is split into its spine
    once, when it is admitted: its queue entry is its id, its (head predicate,
    arity) key and its arguments.  The clauses of a key are compiled into a
    group when its first atom is met: their (template, row)s in source order,
    their instance count, and an index of them by the argument nodes that a
    clause with no atom literal requires of the formals it guards, compared
    by identity.  A demanded atom counts every clause of its group and
    grounds only those it matches, as no other would admit an atom or have a
    live instance."""

    bind_formals = True

    def __init__(self, program: Program, k: int):
        super().__init__(program, k)
        self.queue: deque[tuple] = deque()  # per atom to close: (id, key, arguments)
        # (head predicate, arity), which fix the argument types -> clauses
        self.by_head: dict[tuple[str, int], list[int]] = {}
        for i, clause in enumerate(program.clauses):
            self.by_head.setdefault((clause.head_pred.name, len(clause.formals)), []).append(i)
        # per key met: (instances per atom, (template, row)s in source order,
        # {guarded fields: (their getter, {their nodes: (template, row)s})})
        self.groups: dict[tuple, tuple[int, list, dict]] = {}

    def _admit(self, atom: Expr, root: bool = False) -> int:
        """Admit and demand a new atom, a root or one an instance meets."""
        head, args = (_predicate_spine if root else spine)(atom)
        if len(self.table) >= DEFAULT_MAX_ATOMS:
            raise GroundingLimitExceeded(f"dependency closure exceeded {DEFAULT_MAX_ATOMS} atoms")
        if atom.size > DEFAULT_MAX_ATOM_SIZE:
            raise GroundingLimitExceeded(
                f"a demanded {head.text} atom has {atom.size} symbols, "
                f"over the cap of {DEFAULT_MAX_ATOM_SIZE}"
            )
        self.queue.append((len(self.table), (head.name, len(args)), tuple(args)))
        return super()._admit(atom)

    def close(self) -> None:
        while self.queue:
            a, key, args = self.queue.popleft()
            group = self.groups.get(key)
            if group is not None and self.clause_count + group[0] <= DEFAULT_MAX_CLAUSES:
                self.clause_count += group[0]
                for get, table in group[2].values():
                    for t, r in table.get(get(args), ()):
                        self.ground(t, r, args, a)
                continue
            # The key's first atom compiles its group: each clause in order is
            # counted, so the first over a cap is named, and grounded if the atom
            # matches it.  An atom that would pass the clause cap walks it again.
            before, calls, index = self.clause_count, [], {}
            for i in self.by_head.get(key, ()):
                t, r = self.template(i)
                pairs = [(f, c) for f, c in zip(t.guards, t.rows[r][1]) if f < len(args)]
                fields, nodes = zip(*pairs) if pairs and len(t.literals) == 1 else ((), ())
                get, table = index.setdefault(fields, (_key(fields), {}))
                table.setdefault(nodes, []).append((t, r))
                calls.append((t, r))
                if get(args) == nodes:
                    self.ground(t, r, args, a)
            self.groups[key] = (self.clause_count - before, calls, index)


def _clauses(calls: list, heads=None, roots=()) -> tuple:
    """Every instance of every call, dead ones included, in order.  Given
    ``heads``, the groups of a closed demand grounding, whose second fields
    are the (template, row)s of each key in order, the calls are its: the
    roots', then each atom's, after the instance that meets it first.  Each
    atom is built anew: it is the atom-table node, which the
    ``GroundProgram`` keeps alive."""

    def calls_of(atom: Expr) -> list:
        head, args = spine(atom)
        return [(t, r, tuple(args)) for t, r in heads[head.name, len(args)][1]]

    out, met, builders = [], {atom.text for atom in roots}, {}
    calls = list(calls) + [call for atom in roots for call in calls_of(atom)]
    for t, r, bound in calls:
        if t not in builders:  # each atom literal's builder over all of t's fields
            builders[t] = [(negated, part if negated is None else instance_builder(part, t.fields))
                           for negated, part in t.body]
        for combo in itertools.product(*t.domains):
            values = bound + combo + t.rows[r][1]
            body = []
            for negated, build in builders[t]:
                if negated is None:
                    lhs, rhs = build
                    body.append(_TRUE if lhs(values) is rhs(values) else _FALSE)
                    continue
                atom = build(values)
                if heads is not None and atom.text not in met:
                    met.add(atom.text)
                    calls.extend(calls_of(atom))
                body.append(Neg(atom) if negated else atom)
            theta = tuple(sorted(zip([v.name for v in t.variables], values)))
            head = t.literals[0][2](values)
            out.append(GroundClause(head, tuple(body), t.rows[r][0], theta))
    return tuple(out)


def ground_instantiation(program: Program, k: int) -> GroundProgram:
    """All ground instances whose substituted terms have at most k symbols."""
    if k < 1:
        raise ValueError("size bound k must be >= 1")
    grounding, calls = _Grounding(program, k), []
    for i in range(len(program.clauses)):
        calls.append((*grounding.template(i), ()))
        grounding.ground(*calls[-1])
    return grounding.result(calls)


def relevant_grounding(program: Program, roots, k: int) -> GroundProgram:
    """Dependency closure of the root atoms.

    For every reachable atom, all ground instances whose head matches it are
    added; their body atoms become reachable in turn.  Termination is
    enforced by ``DEFAULT_MAX_ATOMS`` and ``DEFAULT_MAX_ATOM_SIZE`` because
    matched head bindings are not size bounded.  The atom table lists the roots
    first, then the other atoms in the order their projections admit them.
    """
    if k < 1:
        raise ValueError("size bound k must be >= 1")
    grounding = _DemandGrounding(program, k)
    for atom in roots:
        if atom.text not in grounding.ids:
            grounding._admit(atom, root=True)
    demanded = list(grounding.table)
    grounding.close()
    # Only the groups outlive the grounding: every key met has one.
    return grounding.result([], grounding.groups, demanded)


def truncated_types(program: Program, k: int) -> tuple[str, ...]:
    """Argument types whose size-k universe is a strict prefix of the full
    one: the universe is infinite, or its largest term has more than k
    symbols.

    The signature's producers are the rules: each entry
    ``s : r1 -> ... -> rm -> t`` gives one per j, s applied to terms of
    types r1 .. rj is a term of type ``r(j+1) -> ... -> t``.  (A function
    symbol's partial applications get rules too, but their types are no
    argument types, so no other rule takes them.)  With n the number of
    types the rules build, n rounds over the rules size the largest term of
    every finite universe, whose terms are at most n deep.  A type with a
    term more than n deep repeats a type along one path, so it has ever
    deeper terms and no largest."""
    types = program.signature.producers
    rules = [(t, way) for t, ways in types.items() for _, way in ways]
    largest = {}  # type -> symbols of its largest term found
    for _ in types:
        for t, way in rules:
            if largest.keys() >= set(way):
                largest[t] = max(largest.get(t, 0), 1 + sum([largest[a] for a in way]))
    deep = set(largest)  # after round r: the types with a term more than r deep
    for _ in types:
        deep = {t for t, way in rules if largest.keys() >= set(way) and not deep.isdisjoint(way)}
    return tuple(sorted(str(t) for t in argument_types(program) if t in deep or largest.get(t, 0) > k))


def argument_types(program: Program) -> tuple[TypeExpr, ...]:
    """All argument types mentioned (at any depth) by the signature."""
    found, stack = set(), [t for _, t in program.signature.entries]
    while stack:
        t = stack.pop()
        if is_argument_type(t):
            found.add(t)
        if isinstance(t, Arrow):
            stack += (t.argument, t.result)
    return tuple(sorted(found, key=lambda t: (t.size, t.text)))
