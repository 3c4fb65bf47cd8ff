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
  universe.  A configurable atom cap and a cap on the size of a demanded
  atom guard against runaway closures.

A cap on the symbols of one universe bounds both modes, and the
truncation probe, against deep or wide universes.

Both modes compile each clause once per grounding into ``str.format``
templates, one for its head and one for each body literal, and print each
instance's atoms from the printed forms of its variables' values.  The atom
table maps each printed key to its atom, the interned ground term of type o
whose ``text`` is that key, built only the first time the key appears; a
grounding whose clause count would pass ``DEFAULT_MAX_CLAUSES`` is refused
before it is enumerated.

Equality literals are resolved at grounding time: syntactically identical
sides make the literal true, different sides false.  An instance with a
false equality is dead.  Its atoms still enter the atom table, so the model
lists them, but it yields no rule.

The grounding produces the integer form both engines run on
(``GroundProgram.compiled``) as it goes: an atom gets its id when it enters
the table, and each live instance appends its rule.  No clause object is
built on that path.  A grounding call whose atom literals can bring no new
atom into the table enumerates only its live instances.  ``clauses``, the
instances as ``GroundClause`` records, dead ones included, is built the
first time something reads it.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Callable
from typing import NamedTuple

from .errors import EmptyUniverse, GroundingLimitExceeded, TemplateMismatch
from .records import FrozenRecord, Record, _set
from .syntax import (
    IOTA,
    App,
    Arrow,
    Clause,
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
    Var,
    apply_substitution,
    canonical_print,
    is_argument_type,
    is_ground,
    peel,
    print_template,
    spine,
    suffix_types,
    type_size,
    vars_in_order,
)
from .typecheck import Program

DEFAULT_MAX_ATOMS = 100_000
# Symbols in one demanded atom.  Matched head bindings are not size bounded,
# and an atom's text grows with its size, so under the atom cap alone a chain
# such as ``p X <- p (f X)`` would print on the order of max_atoms**2
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
        raise ValueError(f"not predicate-headed: {canonical_print(expr)}")
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
        source_index: int,  # clause position in the source program; -1 if synthetic
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


class CompiledProgram(FrozenRecord):
    """The integer form both engines run on.

    Atom ids follow the atom table's order.  ``rules[h]`` lists one
    ``(positive ids, negative ids)`` pair per live clause with head h.  A
    clause with a ``false`` literal is dropped and ``true`` literals are
    stripped, so no rule carries a resolved equality.
    """

    __slots__ = ("keys", "rules")

    def __init__(self, keys: tuple[str, ...], rules: tuple[tuple[Rule, ...], ...]) -> None:
        _set(self, "keys", keys)
        _set(self, "rules", rules)


# (head predicate, body predicate, negated): an instance's head and one of
# its atom literals, by their leftmost predicate constants.
PredicateEdge = tuple[str, str, bool]


class GroundProgram(Record):
    """A finite propositional program over an atom table.

    ``compiled`` is the form the engines run on.  ``predicate_edges`` holds
    each ``PredicateEdge`` of some instance, dead ones included, once, in
    order of first appearance; ``localize`` checks strata on it.
    ``clauses`` lists every instance, dead ones included, as a
    ``GroundClause``.  It is given either as a tuple or as a function that
    builds the tuple the first time ``clauses`` is read.
    """

    __slots__ = ("atoms", "compiled", "predicate_edges", "_clauses", "_build_clauses")
    _fields = ("atoms", "compiled", "predicate_edges", "clauses")

    def __init__(
        self,
        atoms: dict[str, Expr],  # the atom table by text, insertion-ordered
        compiled: CompiledProgram,
        predicate_edges: tuple[PredicateEdge, ...],
        clauses: tuple[GroundClause, ...] | Callable[[], tuple[GroundClause, ...]],
    ) -> None:
        self.atoms = atoms
        self.compiled = compiled
        self.predicate_edges = predicate_edges
        if callable(clauses):
            self._clauses, self._build_clauses = None, clauses
        else:
            self._clauses, self._build_clauses = clauses, None

    @property
    def clauses(self) -> tuple[GroundClause, ...]:
        if self._clauses is None:
            self._clauses = self._build_clauses()
            self._build_clauses = None
        return self._clauses


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
        self.symbols = 0
        # spine heads: predicate constants with every partial-application
        # result type they can produce
        self._pred_heads: list[tuple[PredConst, tuple[TypeExpr, ...]]] = []
        for name, ptype in signature.predicate_constants():
            self._pred_heads.append((PredConst(name, ptype), tuple(suffix_types(ptype))))

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
        result_terms = tuple(sorted(found, key=canonical_print))
        self._by_size[key] = result_terms
        return result_terms

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
                    e: Expr = pred
                    for a in args:
                        e = App(e, a)
                    yield e

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
        out: list[Expr] = []
        for s in range(1, k + 1):
            out.extend(self._terms_exact(rho, s))
        return tuple(out)

    def is_truncated(self, rho: TypeExpr, k: int) -> bool:
        """True if terms of type rho exist beyond the size bound."""
        return bool(self._terms_exact(rho, k + 1))


def herbrand_universe(program: Program, rho: TypeExpr, k: int) -> tuple[Expr, ...]:
    """Ground terms of argument type rho with at most k symbol occurrences.

    An empty universe at type i is reported as an error rather than papered
    over with an invented constant.
    """
    if k < 1:
        raise ValueError("size bound k must be >= 1")
    if not is_argument_type(rho):
        raise ValueError(f"{rho} is not an argument type")
    terms = Universe(program.signature).terms(rho, k)
    if rho == IOTA and not terms:
        raise EmptyUniverse("the program has no individual constants")
    return terms


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


_TRUE = ConstLit(True)
_FALSE = ConstLit(False)


class _LiveInstances(NamedTuple):
    """What a template needs to enumerate its live instances alone.

    An atom literal's projection is the set of atoms it takes over the
    product of its own variables' domains.  ``projections`` gives, for each
    atom literal with an unbound variable (the head first), its format with
    the fields renumbered by first use, and per renumbered field the clause
    field and its variable's type.  ``singles`` gives the formats of the atom
    literals whose variables are all bound: each projects to one atom.
    """

    projections: tuple[tuple[str, tuple[tuple[int, TypeExpr], ...]], ...]
    singles: tuple[str, ...]
    binding_checks: tuple[tuple[str, str], ...]  # equalities over bound fields
    domains: tuple[tuple[Expr, ...], ...]  # narrowed by each guard V = t, t ground
    instance_checks: tuple[tuple[str, str], ...]  # every other equality
    pos: tuple[str, ...]  # formats of the positive body atoms
    neg: tuple[str, ...]  # formats of the negated body atoms


class _Template(NamedTuple):
    """A clause compiled once per grounding.

    Field i of each format string is the i-th variable of
    ``clause.variables()``, filled with its value, a ground term.  The values
    of the leading variables come from a matched head (demand grounding
    binds the formals); the rest range over ``domains``.
    """

    index: int
    theta: tuple[tuple[str, int], ...]  # (name, field), sorted by name
    domains: tuple[tuple[Expr, ...], ...]
    count: int  # instances per binding of the leading variables
    head: tuple[str, Expr]  # (format, head atom)
    # (negated, format, atom) for an atom or a negated atom;
    # (None, lhs format, rhs format) for an equality
    body: tuple[tuple, ...]
    head_pred: str
    # (field, negated) for each atom literal headed by a bound variable
    bound_heads: tuple[tuple[int, bool], ...]
    # None when a binding has one instance and the body no equality, so
    # that enumerating live instances alone could save nothing
    live: _LiveInstances | None


def _live_instances(
    clause: Clause,
    variables: tuple[Var, ...],
    fields: dict[str, int],
    n_bound: int,
    domains: list[tuple[Expr, ...]],
) -> _LiveInstances:
    projections, singles, pos, neg = [], [], [], []
    binding_checks, instance_checks = [], []
    narrowed = list(domains)

    def project(atom: Expr) -> None:
        order = list(dict.fromkeys(fields[v.name] for v in vars_in_order(atom)))
        if all(f < n_bound for f in order):
            singles.append(print_template(atom, fields))
        else:
            renumbered = {variables[f].name: j for j, f in enumerate(order)}
            spec = tuple((f, variables[f].typ) for f in order)
            projections.append((print_template(atom, renumbered), spec))

    project(clause.head_atom())
    for lit in clause.body:
        if isinstance(lit, Eq):
            lhs, rhs = print_template(lit.lhs, fields), print_template(lit.rhs, fields)
            if all(fields[v.name] < n_bound for v in vars_in_order(lit)):
                binding_checks.append((lhs, rhs))
                continue
            for var, other, other_format in ((lit.lhs, lit.rhs, rhs), (lit.rhs, lit.lhs, lhs)):
                if isinstance(var, (IndVar, PredVar)) and is_ground(other):
                    i = fields[var.name] - n_bound  # a bound var would leave no free field
                    text = other_format.format()
                    narrowed[i] = tuple(v for v in narrowed[i] if v.text == text)
                    break
            else:
                instance_checks.append((lhs, rhs))
            continue
        negated = isinstance(lit, Neg)
        atom = lit.atom if negated else lit
        project(atom)
        (neg if negated else pos).append(print_template(atom, fields))
    return _LiveInstances(
        tuple(projections),
        tuple(singles),
        tuple(binding_checks),
        tuple(narrowed),
        tuple(instance_checks),
        tuple(pos),
        tuple(neg),
    )


class _Grounding:
    """One grounding under way: clause templates, the atom table, the
    compiled rules so far and the calls that produced them.

    Each atom gets its id when it is admitted, and each live instance
    appends its ``(positive ids, negative ids)`` rule to its head's, so the
    compiled form comes straight out of the grounding.  An instance costs
    one ``str.format`` per literal and a lookup in the atom table.  Only a
    key printed for the first time builds its atom, by substitution; that
    atom's canonical printing must equal the key, so the printer stays
    authoritative.

    A call enumerates every instance, dead ones included, so that the table
    holds every atom of every instance, unless the projections of all its
    atom literals are in the table already: a full enumeration fills every
    projection it touches.  Such a call can admit nothing new, so only its
    live instances are enumerated, and each guard ``V = t`` with t ground
    narrows V's domain first.
    """

    bind_formals = False

    def __init__(self, program: Program, k: int):
        self.program = program
        self.k = k
        self.universe = Universe(program.signature)
        self.atoms: dict[str, Expr] = {}
        self.ids: dict[str, int] = {}
        self.rules: list[list[Rule]] = []
        self.edges: dict[PredicateEdge, None] = {}
        self.calls: list[tuple[_Template, tuple[Expr, ...]]] = []
        self.clause_count = 0
        self._filled: set[tuple] = set()  # projections a full enumeration filled
        self._templates: dict[int, _Template] = {}

    def result(self) -> GroundProgram:
        compiled = CompiledProgram(tuple(self.atoms), tuple(tuple(r) for r in self.rules))
        calls, atoms = self.calls, self.atoms
        return GroundProgram(atoms, compiled, tuple(self.edges), lambda: _clauses(calls, atoms))

    def template(self, index: int) -> _Template:
        t = self._templates.get(index)
        if t is None:
            t = self._templates[index] = self._build_template(index)
        return t

    def _build_template(self, index: int) -> _Template:
        clause = self.program.clauses[index]
        variables = clause.variables()
        fields = {v.name: i for i, v in enumerate(variables)}
        n_bound = len(clause.formals) if self.bind_formals else 0
        domains = []
        for v in variables[n_bound:]:
            domain = self.universe.terms(v.typ, self.k)
            if not domain:
                raise EmptyUniverse(
                    f"variable {v.name} : {v.typ} of clause {index} has an empty "
                    f"size-{self.k} universe"
                )
            domains.append(domain)
        head_pred = clause.head_pred.name
        body, bound_heads = [], []
        for lit in clause.body:
            if isinstance(lit, Eq):
                body.append(
                    (None, print_template(lit.lhs, fields), print_template(lit.rhs, fields))
                )
                continue
            negated = isinstance(lit, Neg)
            atom = lit.atom if negated else lit
            body.append((negated, print_template(atom, fields), atom))
            lead, _ = spine(atom)
            if isinstance(lead, PredConst):
                self.edges[head_pred, lead.name, negated] = None
            elif fields[lead.name] < n_bound:
                bound_heads.append((fields[lead.name], negated))
            else:
                for value in domains[fields[lead.name] - n_bound]:
                    self.edges[head_pred, spine(value)[0].name, negated] = None
        count = math.prod(len(d) for d in domains)
        live = None
        if count > 1 or any(negated is None for negated, _, _ in body):
            live = _live_instances(clause, variables, fields, n_bound, domains)
        head = clause.head_atom()
        return _Template(
            index,
            tuple(sorted(fields.items())),
            tuple(domains),
            count,
            (print_template(head, fields), head),
            tuple(body),
            head_pred,
            tuple(bound_heads),
            live,
        )

    def ground(self, t: _Template, bound: tuple[Expr, ...] = ()) -> None:
        """Add every instance of t whose leading variables take ``bound``."""
        total = self.clause_count + t.count
        if total > DEFAULT_MAX_CLAUSES:
            raise GroundingLimitExceeded(
                f"clause {t.index} would bring the grounding to {total} clauses, "
                f"over the cap of {DEFAULT_MAX_CLAUSES}"
            )
        self.clause_count = total
        self.calls.append((t, bound))
        for field, negated in t.bound_heads:
            self.edges[t.head_pred, spine(bound[field])[0].name, negated] = None
        plan = t.live
        if plan is None:
            self._enumerate_all(t, bound)
            return
        n = len(bound)
        keys = [
            (fmt, tuple([bound[f] if f < n else typ for f, typ in spec]))
            for fmt, spec in plan.projections
        ]
        ids = self.ids
        for fmt in plan.singles:
            if fmt.format(*bound) not in ids:
                break
        else:
            if self._filled.issuperset(keys):
                self._enumerate_live(plan, t.head[0], bound)
                return
        self._enumerate_all(t, bound)
        self._filled.update(keys)

    def _enumerate_all(self, t: _Template, bound: tuple[Expr, ...]) -> None:
        """Every instance: admit each new atom, and add each live rule."""
        ids, rules = self.ids, self.rules
        head_format, head_expr = t.head
        for combo in itertools.product(*t.domains):
            values = bound + combo
            key = head_format.format(*values)
            head = ids.get(key)
            if head is None:
                head = self._new_atom(key, head_expr, t, values)
            pos, neg, live = [], [], True
            for negated, fmt, arg in t.body:
                if negated is None:
                    live = live and fmt.format(*values) == arg.format(*values)
                    continue
                key = fmt.format(*values)
                a = ids.get(key)
                if a is None:
                    a = self._new_atom(key, arg, t, values)
                (neg if negated else pos).append(a)
            if live:
                rules[head].append((tuple(pos), tuple(neg)))

    def _enumerate_live(
        self, plan: _LiveInstances, head_format: str, bound: tuple[Expr, ...]
    ) -> None:
        """The live instances alone; every atom they print is in the table."""
        for lhs, rhs in plan.binding_checks:
            if lhs.format(*bound) != rhs.format(*bound):
                return
        ids, rules, checks = self.ids, self.rules, plan.instance_checks
        for combo in itertools.product(*plan.domains):
            values = bound + combo
            if checks and any(lhs.format(*values) != rhs.format(*values) for lhs, rhs in checks):
                continue
            rules[ids[head_format.format(*values)]].append(
                (
                    tuple([ids[fmt.format(*values)] for fmt in plan.pos]),
                    tuple([ids[fmt.format(*values)] for fmt in plan.neg]),
                )
            )

    def _new_atom(
        self, key: str, expr: Expr, t: _Template, values: tuple[Expr, ...]
    ) -> int:
        theta = {name: values[i] for name, i in t.theta}
        atom = ground_atom(apply_substitution(expr, theta))
        if atom.text != key:
            raise TemplateMismatch(
                f"clause {t.index}: the template printed {key!r} for the atom {atom.text!r}"
            )
        return self._admit(atom)

    def _admit(self, atom: Expr) -> int:
        """Add an atom to the table; return its id."""
        i = self.ids[atom.text] = len(self.rules)
        self.atoms[atom.text] = atom
        self.rules.append([])
        return i


class _DemandGrounding(_Grounding):
    """A grounding that binds each clause's formals by matching a demanded
    atom, and demands every atom it meets."""

    bind_formals = True

    def __init__(self, program: Program, k: int, max_atoms: int):
        super().__init__(program, k)
        self.max_atoms = max_atoms
        self.queue: deque[Expr] = deque()

    def demand(self, atom: Expr) -> int:
        if atom.size > DEFAULT_MAX_ATOM_SIZE:
            raise GroundingLimitExceeded(
                f"a demanded {spine(atom)[0].name} atom has {atom.size} symbols, "
                f"over the cap of {DEFAULT_MAX_ATOM_SIZE}"
            )
        self.queue.append(atom)
        return _Grounding._admit(self, atom)

    def _admit(self, atom: Expr) -> int:
        if len(self.atoms) >= self.max_atoms:
            raise GroundingLimitExceeded(f"dependency closure exceeded {self.max_atoms} atoms")
        return self.demand(atom)


def _clauses(
    calls: list[tuple[_Template, tuple[Expr, ...]]], atoms: dict[str, Expr]
) -> tuple[GroundClause, ...]:
    """Every instance of every call, dead ones included, in order, as
    clauses."""
    out = []
    for t, bound in calls:
        head_format = t.head[0]
        for combo in itertools.product(*t.domains):
            values = bound + combo
            body = []
            for negated, fmt, arg in t.body:
                if negated is None:
                    body.append(_TRUE if fmt.format(*values) == arg.format(*values) else _FALSE)
                    continue
                atom = atoms[fmt.format(*values)]
                body.append(Neg(atom) if negated else atom)
            theta = tuple([(name, values[i]) for name, i in t.theta])
            head = atoms[head_format.format(*values)]
            out.append(GroundClause(head, tuple(body), t.index, theta))
    return tuple(out)


def ground_instantiation(program: Program, k: int) -> GroundProgram:
    """All ground instances whose substituted terms have at most k symbols."""
    if k < 1:
        raise ValueError("size bound k must be >= 1")
    grounding = _Grounding(program, k)
    for i in range(len(program.clauses)):
        grounding.ground(grounding.template(i))
    return grounding.result()


def relevant_grounding(
    program: Program,
    roots,
    k: int,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> GroundProgram:
    """Dependency closure of the root atoms.

    For every reachable atom, all ground instances whose head matches it are
    added; their body atoms become reachable in turn.  Termination is
    enforced by ``max_atoms`` and ``DEFAULT_MAX_ATOM_SIZE`` because matched
    head bindings are not size bounded.  The atom table lists the roots
    first, then the other atoms in order of first appearance.
    """
    if k < 1:
        raise ValueError("size bound k must be >= 1")
    grounding = _DemandGrounding(program, k, max_atoms)
    # head predicate -> (clause index, formal types), in program order
    by_pred: dict[str, list[tuple[int, tuple[TypeExpr, ...]]]] = {}
    for i, clause in enumerate(program.clauses):
        formal_types = tuple(f.typ for f in clause.formals)
        by_pred.setdefault(clause.head_pred.name, []).append((i, formal_types))
    for a in roots:
        atom = ground_atom(a)
        if atom.text not in grounding.atoms:
            grounding.demand(atom)
    while grounding.queue:
        head, args = spine(grounding.queue.popleft())
        arg_types = tuple(a.typ for a in args)
        matching = [i for i, types in by_pred.get(head.name, ()) if types == arg_types]
        for i in matching:
            grounding.ground(grounding.template(i), tuple(args))
    return grounding.result()


def truncated_types(program: Program, k: int) -> tuple[str, ...]:
    """Argument types whose size-k universe is a strict prefix of the full one."""
    universe = Universe(program.signature)
    out = []
    for rho in argument_types(program):
        if universe.is_truncated(rho, k):
            out.append(str(rho))
    return tuple(sorted(out))


def argument_types(program: Program) -> tuple[TypeExpr, ...]:
    """All argument types mentioned (at any depth) by the signature."""
    found: set[TypeExpr] = set()

    def visit(t: TypeExpr) -> None:
        if is_argument_type(t):
            found.add(t)
        if isinstance(t, Arrow):
            visit(t.argument)
            visit(t.result)

    for _, t in program.signature.entries:
        visit(t)
    return tuple(sorted(found, key=lambda t: (type_size(t), str(t))))
