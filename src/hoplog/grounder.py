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
table maps each printed key to its ``GroundAtom``, which is built only the
first time the key appears; a grounding whose clause count would pass
``DEFAULT_MAX_CLAUSES`` is refused before it is enumerated.

Equality literals are resolved at grounding time: syntactically identical
sides become the constant true, different sides the constant false.  These
constants never enter the atom table.

``GroundProgram.compiled`` lowers a grounding, once, into the integer form
that the well-founded and perfect-model engines both run on.  Only that
form drops the dead clauses (a ``false`` literal in the body) and strips
the ``true`` literals; the clauses, the atom table and the printed
grounding keep them.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import NamedTuple

from .errors import EmptyUniverse, GroundingLimitExceeded, TemplateMismatch
from .records import FrozenRecord, Record, _set
from .syntax import (
    IOTA,
    App,
    Arrow,
    Eq,
    Expr,
    FunApp,
    IndConst,
    Neg,
    PredConst,
    Signature,
    TypeExpr,
    apply_substitution,
    canonical_print,
    is_argument_type,
    peel,
    print_template,
    spine,
    suffix_types,
    term_size,
    type_size,
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


class GroundAtom(FrozenRecord):
    """A ground term of type o headed by a predicate constant."""

    __slots__ = ("key", "expr")

    def __init__(self, key: str, expr: Expr) -> None:
        _set(self, "key", key)
        _set(self, "expr", expr)

    def __str__(self) -> str:
        return self.key


def ground_atom(expr: Expr) -> GroundAtom:
    head, _ = spine(expr)
    if not isinstance(head, PredConst):
        raise ValueError(f"not predicate-headed: {canonical_print(expr)}")
    return GroundAtom(canonical_print(expr), expr)


class GroundLiteral(FrozenRecord):
    __slots__ = ()


class PosLit(GroundLiteral):
    __slots__ = ("atom",)

    def __init__(self, atom: GroundAtom) -> None:
        _set(self, "atom", atom)

    def __str__(self) -> str:
        return self.atom.key


class NegLit(GroundLiteral):
    __slots__ = ("atom",)

    def __init__(self, atom: GroundAtom) -> None:
        _set(self, "atom", atom)

    def __str__(self) -> str:
        inner = self.atom.key
        return f"~({inner})" if " " in inner else f"~{inner}"


class ConstLit(GroundLiteral):
    """An equality literal resolved at grounding time."""

    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        _set(self, "value", value)

    def __str__(self) -> str:
        return "true" if self.value else "false"


class GroundClause(FrozenRecord):
    __slots__ = ("head", "body", "source_index", "theta")

    def __init__(
        self,
        head: GroundAtom,
        body: tuple[GroundLiteral, ...],
        source_index: int,  # clause position in the source program; -1 if synthetic
        theta: tuple[tuple[str, Expr], ...],  # substitution that produced the instance
    ) -> None:
        _set(self, "head", head)
        _set(self, "body", body)
        _set(self, "source_index", source_index)
        _set(self, "theta", theta)

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} <- {', '.join(str(l) for l in self.body)}."


# A compiled clause body: (positive atom ids, negative atom ids).
Rule = tuple[tuple[int, ...], tuple[int, ...]]


class CompiledProgram(FrozenRecord):
    """The integer form both engines run on.

    Atom ids follow the atom table's order.  ``rules[h]`` lists one
    ``(positive ids, negative ids)`` pair per live clause with head h;
    ``dependents[a]`` lists the heads of the live clauses that use atom a
    positively.  A clause with a ``false`` literal is dropped and ``true``
    literals are stripped, so no rule carries a resolved equality.
    """

    __slots__ = ("keys", "rules", "dependents")

    def __init__(
        self,
        keys: tuple[str, ...],
        rules: tuple[tuple[Rule, ...], ...],
        dependents: tuple[tuple[int, ...], ...],
    ) -> None:
        _set(self, "keys", keys)
        _set(self, "rules", rules)
        _set(self, "dependents", dependents)


class GroundProgram(Record):
    """A finite propositional program over an atom table."""

    __slots__ = ("clauses", "atoms", "_compiled")

    def __init__(
        self,
        clauses: tuple[GroundClause, ...],
        atoms: dict[str, GroundAtom],  # the atom table, insertion-ordered
    ) -> None:
        self.clauses = clauses
        self.atoms = atoms
        self._compiled: CompiledProgram | None = None

    @property
    def compiled(self) -> CompiledProgram:
        """The program lowered once for the engines; the clauses and the
        atom table stay as they are."""
        if self._compiled is None:
            self._compiled = self._compile()
        return self._compiled

    def _compile(self) -> CompiledProgram:
        keys = tuple(self.atoms)
        ids = {key: i for i, key in enumerate(keys)}
        rules: list[list[Rule]] = [[] for _ in keys]
        dependents: list[set[int]] = [set() for _ in keys]
        for gc in self.clauses:
            if any(isinstance(lit, ConstLit) and not lit.value for lit in gc.body):
                continue
            head = ids[gc.head.key]
            pos = tuple(ids[lit.atom.key] for lit in gc.body if isinstance(lit, PosLit))
            neg = tuple(ids[lit.atom.key] for lit in gc.body if isinstance(lit, NegLit))
            rules[head].append((pos, neg))
            for a in pos:
                dependents[a].add(head)
        return CompiledProgram(
            keys,
            tuple(tuple(r) for r in rules),
            tuple(tuple(sorted(d)) for d in dependents),
        )


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
    # (literal table, format, atom) for an atom or a negated atom;
    # (None, lhs format, rhs format) for an equality
    body: tuple[tuple, ...]


class _Grounding:
    """One grounding under way: clause templates, the clauses so far and
    the atom table.

    An instance costs one ``str.format`` per literal and a lookup in the
    atom table.  Only a key printed for the first time builds its atom, by
    substitution; that atom's canonical printing must equal the key, so the
    printer stays authoritative.  Each literal over an atom is built once.
    """

    bind_formals = False

    def __init__(self, program: Program, k: int):
        self.program = program
        self.k = k
        self.universe = Universe(program.signature)
        self.atoms: dict[str, GroundAtom] = {}
        self.clauses: list[GroundClause] = []
        self._pos: dict[str, GroundLiteral] = {}
        self._neg: dict[str, GroundLiteral] = {}
        self._templates: dict[int, _Template] = {}

    def result(self) -> GroundProgram:
        return GroundProgram(tuple(self.clauses), self.atoms)

    def template(self, index: int) -> _Template:
        t = self._templates.get(index)
        if t is None:
            t = self._templates[index] = self._compile(index)
        return t

    def _compile(self, index: int) -> _Template:
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
        body = []
        for lit in clause.body:
            if isinstance(lit, Eq):
                body.append(
                    (None, print_template(lit.lhs, fields), print_template(lit.rhs, fields))
                )
            elif isinstance(lit, Neg):
                body.append((self._neg, print_template(lit.atom, fields), lit.atom))
            else:
                body.append((self._pos, print_template(lit, fields), lit))
        head = clause.head_atom()
        return _Template(
            index,
            tuple(sorted(fields.items())),
            tuple(domains),
            math.prod(len(d) for d in domains),
            (print_template(head, fields), head),
            tuple(body),
        )

    def ground(self, t: _Template, bound: tuple[Expr, ...] = ()) -> None:
        """Append every instance of t whose leading variables take ``bound``."""
        total = len(self.clauses) + t.count
        if total > DEFAULT_MAX_CLAUSES:
            raise GroundingLimitExceeded(
                f"clause {t.index} would bring the grounding to {total} clauses, "
                f"over the cap of {DEFAULT_MAX_CLAUSES}"
            )
        atoms, append = self.atoms, self.clauses.append
        head_format, head_expr = t.head
        for combo in itertools.product(*t.domains):
            values = bound + combo
            key = head_format.format(*values)
            head = atoms.get(key)
            if head is None:
                head = self._new_atom(key, head_expr, t, values)
            body = []
            for table, fmt, arg in t.body:
                if table is None:
                    body.append(_TRUE if fmt.format(*values) == arg.format(*values) else _FALSE)
                    continue
                key = fmt.format(*values)
                lit = table.get(key)
                if lit is None:
                    atom = atoms.get(key)
                    if atom is None:
                        atom = self._new_atom(key, arg, t, values)
                    lit = table[key] = (PosLit if table is self._pos else NegLit)(atom)
                body.append(lit)
            theta = tuple([(name, values[i]) for name, i in t.theta])
            append(GroundClause(head, tuple(body), t.index, theta))

    def _new_atom(
        self, key: str, expr: Expr, t: _Template, values: tuple[Expr, ...]
    ) -> GroundAtom:
        theta = {name: values[i] for name, i in t.theta}
        atom = ground_atom(apply_substitution(expr, theta))
        if atom.key != key:
            raise TemplateMismatch(
                f"clause {t.index}: the template printed {key!r} for the atom {atom.key!r}"
            )
        self._admit(atom)
        return atom

    def _admit(self, atom: GroundAtom) -> None:
        self.atoms[atom.key] = atom


class _DemandGrounding(_Grounding):
    """A grounding that binds each clause's formals by matching a demanded
    atom, and demands every atom it meets."""

    bind_formals = True

    def __init__(self, program: Program, k: int, max_atoms: int):
        super().__init__(program, k)
        self.max_atoms = max_atoms
        self.queue: deque[GroundAtom] = deque()

    def demand(self, atom: GroundAtom) -> None:
        size = term_size(atom.expr)
        if size > DEFAULT_MAX_ATOM_SIZE:
            raise GroundingLimitExceeded(
                f"a demanded {spine(atom.expr)[0].name} atom has {size} symbols, "
                f"over the cap of {DEFAULT_MAX_ATOM_SIZE}"
            )
        self.atoms[atom.key] = atom
        self.queue.append(atom)

    def _admit(self, atom: GroundAtom) -> None:
        if len(self.atoms) >= self.max_atoms:
            raise GroundingLimitExceeded(f"dependency closure exceeded {self.max_atoms} atoms")
        self.demand(atom)


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
        atom = a if isinstance(a, GroundAtom) else ground_atom(a)
        if atom.key not in grounding.atoms:
            grounding.demand(atom)
    while grounding.queue:
        atom = grounding.queue.popleft()
        head, args = spine(atom.expr)
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
