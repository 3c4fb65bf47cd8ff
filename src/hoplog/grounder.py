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
  universe.  A cap on the atoms and one on the size of a demanded atom
  guard against runaway closures.

A cap on the symbols of one universe bounds both modes, and the
truncation probe, against deep or wide universes.

Clauses that differ only in the ground sides t of their guards V = t share
a shape, compiled once per grounding into ``str.format`` templates and atom
builders, with one row of guard constants per clause.  The atom table maps
each printed key to its atom, the interned ground term of type o with that
``text``, built from field values; it holds every atom of every instance,
filled from each atom literal's projection.  Equalities resolve at grounding
time; an instance with a false one is dead.  The engines' form,
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

from .errors import EmptyUniverse, GroundingLimitExceeded, TemplateMismatch
from .records import FrozenRecord, Record, _set, built_when_read
from .syntax import (
    IOTA,
    Arrow,
    Eq,
    Expr,
    FunApp,
    IndConst,
    IndVar,
    Neg,
    PredConst,
    PredVar,
    Signature,
    TypeExpr,
    build_spine,
    instance_builder,
    is_argument_type,
    peel,
    print_template,
    spine,
    suffix_types,
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
    """The ground atom expr itself, once it is checked to be predicate-headed."""
    head, _ = spine(expr)
    if not isinstance(head, PredConst):
        raise ValueError(f"not predicate-headed: {expr.text}")
    return expr


class ConstLit(FrozenRecord):
    """An equality literal resolved at grounding time."""

    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        _set(self, "value", value)

    @property
    def text(self) -> str:
        return "true" if self.value else "false"


class GroundClause(FrozenRecord):
    __slots__ = ("head", "body", "source_index", "theta")

    def __init__(
        self,
        head: Expr,  # the ground atom
        body: tuple[Expr | ConstLit, ...],  # each an atom, its Neg, or a ConstLit
        source_index: int,  # clause position in the source program
        theta: tuple[tuple[str, Expr], ...],  # substitution that produced the instance
    ) -> None:
        _set(self, "head", head)
        _set(self, "body", body)
        _set(self, "source_index", source_index)
        _set(self, "theta", theta)

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

    ``rules`` is the integer form both engines run on.  Atom ids follow the
    atom table's order.  ``rules[h]`` lists one ``(positive ids, negative
    ids)`` pair per live instance with head h whose positive atoms can all
    be true; ``true`` literals are stripped, so no rule carries a resolved
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

    def __init__(
        self,
        atoms: dict[str, Expr],  # the atom table by text, insertion-ordered
        rules: tuple[tuple[Rule, ...], ...],  # per atom id
        predicate_edges: tuple[PredicateEdge, ...],
        clauses: tuple[GroundClause, ...] | Callable[[], tuple[GroundClause, ...]],
    ) -> None:
        self.atoms = atoms
        self.rules = rules
        self.predicate_edges = predicate_edges
        self._clauses = clauses


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
        # spine heads: predicate constants with every partial-application
        # result type they can produce
        self._pred_heads = [(PredConst(name, ptype), tuple(suffix_types(ptype)))
                            for name, ptype in signature.predicate_constants()]

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
        """The terms of type rho with exactly ``size`` symbols, unordered."""
        if size < 1:
            return
        if rho == IOTA:
            if size == 1:
                yield from (IndConst(n) for n in self.signature.individual_constants())
            for fname, arity in self.signature.function_symbols():
                for args in self._arg_tuples((IOTA,) * arity, size - 1):
                    yield FunApp(fname, args)
        for pred, suffixes in self._pred_heads:
            for j, result in enumerate(suffixes):
                if result != rho:
                    continue
                if j == 0:
                    if size == 1:
                        yield pred
                    continue
                argtypes, _ = peel(pred.ptype, j)
                for args in self._arg_tuples(argtypes, size - 1):
                    yield build_spine(pred, args)

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

    def is_truncated(self, rho: TypeExpr, k: int) -> bool:
        """True if terms of type rho exist beyond the size bound."""
        return bool(self._terms_exact(rho, k + 1))


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


_TRUE, _FALSE = ConstLit(True), ConstLit(False)


class _Template:
    """A clause shape compiled once per grounding, with a row per clause of
    the shape: (its index, its guards' ground sides, ``rest``'s domains
    narrowed by its guards).  Field i of each format string and builder is
    the i-th variable of ``clause.variables()``, filled with its value, a
    ground term; field ``len(variables) + j`` is the j-th guard's ground
    side.  The ``n_bound`` leading variables take a matched head's arguments
    (demand grounding binds the formals); the rest range over ``domains``.
    A projection numbers a literal's unbound variables after the bound ones."""

    def __init__(self, g: _Grounding, index: int, shape: tuple) -> None:
        clause, k = g.program.clauses[index], g.k
        n_bound = len(clause.formals) if g.bind_formals else 0
        self.index, self.rows = index, []
        self.variables = variables = clause.variables()
        fields = {v.name: i for i, v in enumerate(variables)}
        self.domains = domains = []
        for v in variables[n_bound:]:
            domains.append(g.universe.terms(v.typ, k))
            if not domains[-1]:
                raise EmptyUniverse(f"variable {v.name} : {v.typ} of clause {index} has an "
                                    f"empty size-{k} universe")
        self.count = math.prod(len(d) for d in domains)  # instances per call
        self.head_pred = head_pred = clause.head_pred.name
        self.body = body = []  # (negated, format, atom), or (None, lhs, rhs) for an equality
        self.bound_heads = []  # (field, negated) per literal a bound variable heads
        # per atom literal, the head first: (projection format, free fields, builder)
        head = clause.head_atom()
        self.literals = literals = [_literal(head, print_template(head, fields), fields, n_bound)]
        self.checks, self.guards = [], []  # the equalities' formats; per guard, its field
        self.pos, looked_up = [], [0]  # the positive atoms' literals; the head's and negated ones'
        for lit in shape[2]:
            if isinstance(lit, (tuple, Eq)):  # a guard's ground side is the next parameter
                param = f"{{{len(variables) + len(self.guards)}.text}}"
                sides = lit if isinstance(lit, tuple) else (lit.lhs, lit.rhs)
                self.checks.append(tuple(print_template(s, fields) if s else param for s in sides))
                body.append((None, *self.checks[-1]))
                if isinstance(lit, tuple):
                    self.guards.append(fields[(lit[0] or lit[1]).name])
                continue
            negated = isinstance(lit, Neg)
            atom = lit.atom if negated else lit
            body.append((negated, print_template(atom, fields), atom))
            (looked_up if negated else self.pos).append(len(literals))
            literals.append(_literal(atom, body[-1][1], fields, n_bound))
            lead, _ = spine(atom)
            if isinstance(lead, PredConst):
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

    def add(self, index: int, consts: tuple[Expr, ...]) -> int:
        """Add clause ``index``, with ``consts`` its guards' ground sides, as a row."""
        texts = [{c.text for c, g in zip(consts, self.guards) if g == f} for f in self.rest]
        self.rows.append((index, consts, [[v for v in d if len(ts) == 1 and v.text in ts] if ts
                                          else d for d, ts in zip(self.rest_domains, texts)]))
        return len(self.rows) - 1


def _literal(atom: Expr, fmt: str, fields: dict[str, int], n_bound: int) -> tuple:
    names = dict.fromkeys(v.name for v in vars_in_order(atom))
    own = tuple(fields[x] for x in names if fields[x] >= n_bound)
    number = {x: n_bound + own.index(fields[x]) if fields[x] >= n_bound else fields[x]
              for x in names}  # bound fields keep theirs
    if number != {x: fields[x] for x in names}:
        fmt = print_template(atom, number)
    return fmt, own, instance_builder(atom, number)


def _key(fields: tuple[int, ...]) -> Callable[[list], tuple]:
    """The function from field values to the tuple of those of ``fields``."""
    if len(fields) > 1:
        return itemgetter(*fields)
    return (lambda values, f=fields[0]: (values[f],)) if fields else lambda values: ()


class _Grounding:
    """One grounding under way: shape templates, the atom table and the
    compiled rules.  A literal's projection, its atoms by its own variables'
    values, holds those of all instances, dead ones included.  A key printed
    the first time builds its atom, whose canonical printing must equal the
    key: the printer stays authoritative."""

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
        atoms = {atom.text: atom for atom in self.table}
        return GroundProgram(atoms, self._solve(), tuple(self.edges),
                             lambda: _clauses(atoms, calls, heads, roots))

    def template(self, index: int) -> tuple[_Template, int]:
        """The template of clause ``index``'s shape, and the clause's row in it: the
        shape is the clause with each guard V = t (t ground) as (V, None) or (None, V)."""
        found = self._templates.get(index)
        if found is None:
            clause, body, consts = self.program.clauses[index], [], []
            for lit in clause.body:
                if isinstance(lit, Eq):
                    for var, t in ((lit.lhs, lit.rhs), (lit.rhs, lit.lhs)):
                        if isinstance(var, (IndVar, PredVar)) and not vars_in_order(t):
                            lit = (var, None) if var is lit.lhs else (None, var)
                            consts.append(t)
                            break
                body.append(lit)
            shape = (clause.head_pred, clause.formals, tuple(body))
            t = self._shapes.get(shape)
            if t is None:
                t = self._shapes[shape] = _Template(self, index, shape)
            found = self._templates[index] = (t, t.add(index, tuple(consts)))
        return found

    def ground(self, t: _Template, r: int, bound: tuple[Expr, ...] = (), head=None) -> None:
        """Count row r's instances, admit its projections, keep a live call; head: its known id."""
        total = self.clause_count + t.count
        if total > DEFAULT_MAX_CLAUSES:
            raise GroundingLimitExceeded(f"clause {t.rows[r][0]} would bring the grounding to "
                                         f"{total} clauses, over the cap of {DEFAULT_MAX_CLAUSES}")
        self.clause_count = total
        for field, negated in t.bound_heads:
            self.edges[t.head_pred, spine(bound[field])[0].name, negated] = None
        ids, projected = self.ids, [] if head is None else [head]
        for literal in t.literals[len(projected):]:  # an atom with no free variable is likely known
            a = None if literal[1] else ids.get(literal[0].format(*bound))
            projected.append(self._project(t, literal, bound) if a is None else a)
        c = len(self._live)
        self._live.append((t, r, bound, tuple(projected)))
        for q, i in enumerate(t.pos):
            for tup, a in projected[i].items() if t.literals[i][1] else [((), projected[i])]:
                self._uses[a].append((c, q, tup))

    def _project(self, t: _Template, literal: tuple, bound: tuple[Expr, ...]) -> int | dict:
        """The atom id of a literal with no free variable, else its projection, computed
        once: the atom id per tuple of its free variables' values.  New atoms are admitted."""
        fmt, free, build = literal
        if free:
            key = (fmt, bound, tuple([t.variables[f].typ for f in free]))
            found = self._projections.get(key)
            if found is not None:
                return found
        n, found, ids = len(bound), {}, self.ids
        for tup in itertools.product(*[t.domains[f - n] for f in free]):  # () if none is free
            text = fmt.format(*bound, *tup)
            a = ids.get(text)
            if a is None:
                atom = build(bound + tup)
                if atom.text != text:
                    raise TemplateMismatch(f"clause {t.index}: the template printed "
                                           f"{text!r} for the atom {atom.text!r}")
                a = self._admit(atom)
            found[tup] = a
        if free:
            self._projections[key] = found
        return found if free else found[()]

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
        positive atom; a one-instance call counts them.  A rule's ids come from
        the projections.  An atom gets a list with its first rule, when it is
        found possibly true; every other atom keeps the empty tuple."""
        live, uses = self._live, self._uses
        rules = [()] * len(self.table)
        indexes: dict[tuple, dict] = {}  # (call, positive atom, key positions) -> tuples by key
        pending = [len(t.pos) for t, *_ in live]  # positive atoms not yet found, per call
        queue: deque[int] = deque()

        def start(c: int) -> list:  # a call's field values, the free ones None
            t, r, bound, _ = live[c]
            return [*bound, *[None] * len(t.domains), *t.rows[r][1]]

        def fire(c: int, values: list, pos_ids: tuple[int, ...]) -> None:
            t, r, _, at = live[c]
            for combo in itertools.product(*t.rows[r][2]):
                for f, v in zip(t.rest, combo):
                    values[f] = v
                if t.checks and any(x.format(*values) != y.format(*values) for x, y in t.checks):
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
                t, _, _, projected = live[c]
                pending[c] -= 1
                if not t.domains:  # one instance: counted, not joined
                    if not pending[c]:
                        fire(c, start(c), tuple([projected[i] for i in t.pos]))
                    continue
                for keys, key in t.slots[q].items():
                    index = indexes.setdefault((c, q, keys), {})
                    index.setdefault(key(tup), []).append((tup, a))
            for c, q, tup in uses.get(a, ()):
                t = live[c][0]
                if not t.domains:
                    continue
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
    atom, and demands every atom it meets.  A clause with no atom literal in
    its body is indexed by the values its guards require of its formals: a
    demanded atom meets only those it can match, as no other would admit an
    atom or have a live instance."""

    bind_formals = True

    def __init__(self, program: Program, k: int):
        super().__init__(program, k)
        self.queue: deque[Expr] = deque()
        # (head predicate, arity), which fix the argument types -> clauses
        self.by_head: dict[tuple[str, int], list[int]] = {}
        for i, clause in enumerate(program.clauses):
            self.by_head.setdefault((clause.head_pred.name, len(clause.formals)), []).append(i)
        # per key met: (instances per atom, {guarded fields: {texts: (template, row)s}})
        self.groups: dict[tuple, tuple[int, dict]] = {}

    def demand(self, atom: Expr) -> int:
        if atom.size > DEFAULT_MAX_ATOM_SIZE:
            raise GroundingLimitExceeded(
                f"a demanded {spine(atom)[0].name} atom has {atom.size} symbols, "
                f"over the cap of {DEFAULT_MAX_ATOM_SIZE}"
            )
        self.queue.append(atom)
        return _Grounding._admit(self, atom)

    def _admit(self, atom: Expr) -> int:
        if len(self.table) >= DEFAULT_MAX_ATOMS:
            raise GroundingLimitExceeded(f"dependency closure exceeded {DEFAULT_MAX_ATOMS} atoms")
        return self.demand(atom)

    def close(self) -> None:
        while self.queue:
            head, args = spine(atom := self.queue.popleft())
            key, args, a = (head.name, len(args)), tuple(args), self.ids[atom.text]
            group = self.groups.get(key)
            if group is None or self.clause_count + group[0] > DEFAULT_MAX_CLAUSES:
                before, index = self.clause_count, {}
                for i in self.by_head.get(key, ()):  # in order: the first over a cap is named
                    t, r = self.template(i)
                    self.ground(t, r, args, a)
                    pairs = [(f, c.text) for f, c in zip(t.guards, t.rows[r][1]) if f < len(args)]
                    fields, texts = zip(*pairs) if pairs and len(t.literals) == 1 else ((), ())
                    index.setdefault(fields, {}).setdefault(texts, []).append((t, r))
                self.groups[key] = (self.clause_count - before, index)
                continue
            count, index = group
            calls = [call for fields, table in index.items()
                     for call in table.get(tuple([args[f].text for f in fields]), ())]
            self.clause_count += count - sum(t.count for t, _ in calls)
            for t, r in calls:
                self.ground(t, r, args, a)


def _clauses(atoms: dict[str, Expr], calls: list, heads=None, roots=()) -> tuple:
    """Every instance of every call, dead ones included, in order.  Given
    ``heads``, the (template, row)s per (head predicate, arity) of a closed
    demand grounding, the calls are its: the roots', then each atom's, after
    the instance that meets it first."""

    def calls_of(atom: Expr) -> list:
        head, args = spine(atom)
        return [(t, r, tuple(args)) for t, r in heads.get((head.name, len(args)), ())]

    out, met = [], {atom.text for atom in roots}
    calls = list(calls) + [call for atom in roots for call in calls_of(atom)]
    for t, r, bound in calls:
        for combo in itertools.product(*t.domains):
            values = bound + combo + t.rows[r][1]
            body = []
            for negated, fmt, arg in t.body:
                if negated is None:
                    body.append(_TRUE if fmt.format(*values) == arg.format(*values) else _FALSE)
                    continue
                atom = atoms[fmt.format(*values)]
                if heads is not None and atom.text not in met:
                    met.add(atom.text)
                    calls.extend(calls_of(atom))
                body.append(Neg(atom) if negated else atom)
            theta = tuple(sorted(zip([v.name for v in t.variables], values)))
            head = atoms[t.literals[0][0].format(*values)]
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
    for a in roots:
        atom = ground_atom(a)
        if atom.text not in grounding.ids:
            grounding.demand(atom)
    demanded = list(grounding.queue)
    grounding.close()
    # Only these calls outlive the grounding: every key met has its templates.
    heads = {key: [grounding.template(i) for i in grounding.by_head.get(key, ())]
             for key in grounding.groups}
    return grounding.result([], heads, demanded)


def truncated_types(program: Program, k: int) -> tuple[str, ...]:
    """Argument types whose size-k universe is a strict prefix of the full one."""
    universe = Universe(program.signature)
    return tuple(sorted(str(t) for t in argument_types(program) if universe.is_truncated(t, k)))


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
