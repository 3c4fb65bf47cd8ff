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
  universe.  A configurable atom cap guards against runaway closures.

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
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import EmptyUniverse, GroundingLimitExceeded
from .syntax import (
    IOTA,
    App,
    Arrow,
    Clause,
    Eq,
    Expr,
    FunApp,
    IndConst,
    Neg,
    PredConst,
    Signature,
    TypeExpr,
    canonical_print,
    is_argument_type,
    spine,
    substitute_clause,
    suffix_types,
    term_size,
    type_size,
)
from .typecheck import Program

DEFAULT_MAX_ATOMS = 100_000


# ---------------------------------------------------------------------------
# Ground atoms, literals, clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundAtom:
    """A ground term of type o headed by a predicate constant."""

    key: str
    expr: Expr

    def __str__(self) -> str:
        return self.key


def ground_atom(expr: Expr) -> GroundAtom:
    head, _ = spine(expr)
    if not isinstance(head, PredConst):
        raise ValueError(f"not predicate-headed: {canonical_print(expr)}")
    return GroundAtom(canonical_print(expr), expr)


class GroundLiteral:
    __slots__ = ()


@dataclass(frozen=True)
class PosLit(GroundLiteral):
    atom: GroundAtom

    def __str__(self) -> str:
        return self.atom.key


@dataclass(frozen=True)
class NegLit(GroundLiteral):
    atom: GroundAtom

    def __str__(self) -> str:
        inner = self.atom.key
        return f"~({inner})" if " " in inner else f"~{inner}"


@dataclass(frozen=True)
class ConstLit(GroundLiteral):
    """An equality literal resolved at grounding time."""

    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class GroundClause:
    head: GroundAtom
    body: tuple[GroundLiteral, ...]
    source_index: int  # clause position in the source program; -1 if synthetic
    theta: tuple[tuple[str, Expr], ...]  # substitution that produced the instance

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} <- {', '.join(str(l) for l in self.body)}."


# A compiled clause body: (positive atom ids, negative atom ids).
Rule = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class CompiledProgram:
    """The integer form both engines run on.

    Atom ids follow the atom table's order.  ``rules[h]`` lists one
    ``(positive ids, negative ids)`` pair per live clause with head h;
    ``dependents[a]`` lists the heads of the live clauses that use atom a
    positively.  A clause with a ``false`` literal is dropped and ``true``
    literals are stripped, so no rule carries a resolved equality.
    """

    keys: tuple[str, ...]
    rules: tuple[tuple[Rule, ...], ...]
    dependents: tuple[tuple[int, ...], ...]


@dataclass
class GroundProgram:
    """A finite propositional program over an atom table."""

    clauses: tuple[GroundClause, ...]
    atoms: dict[str, GroundAtom]  # the atom table, insertion-ordered

    @cached_property
    def compiled(self) -> CompiledProgram:
        """The program lowered once for the engines; the clauses and the
        atom table stay as they are."""
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


def _make_ground_program(
    clauses: list[GroundClause], extra_atoms: list[GroundAtom] = []
) -> GroundProgram:
    atoms: dict[str, GroundAtom] = {}
    for a in extra_atoms:
        atoms.setdefault(a.key, a)
    for gc in clauses:
        atoms.setdefault(gc.head.key, gc.head)
        for lit in gc.body:
            if isinstance(lit, (PosLit, NegLit)):
                atoms.setdefault(lit.atom.key, lit.atom)
    return GroundProgram(tuple(clauses), atoms)


# ---------------------------------------------------------------------------
# Herbrand universes
# ---------------------------------------------------------------------------


class Universe:
    """Size-bounded Herbrand universes per argument type, canonically ordered.

    Terms are ordered by symbol count first, then lexicographically by their
    canonical text, so enlarging the bound only appends.
    """

    def __init__(self, signature: Signature):
        self.signature = signature
        self._by_size: dict[tuple[TypeExpr, int], tuple[Expr, ...]] = {}
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
        if size >= 1:
            if rho == IOTA:
                if size == 1:
                    found.extend(IndConst(n) for n in self.signature.individual_constants())
                for fname, arity in self.signature.function_symbols():
                    for args in self._arg_tuples((IOTA,) * arity, size - 1):
                        found.append(FunApp(fname, args))
            for pred, suffixes in self._pred_heads:
                for j, result in enumerate(suffixes):
                    if result != rho:
                        continue
                    if j == 0:
                        if size == 1:
                            found.append(pred)
                        continue
                    argtypes = _pred_prefix(pred.ptype, j)
                    for args in self._arg_tuples(argtypes, size - 1):
                        e: Expr = pred
                        for a in args:
                            e = App(e, a)
                        found.append(e)
        result_terms = tuple(sorted(found, key=canonical_print))
        self._by_size[key] = result_terms
        return result_terms

    def _arg_tuples(self, argtypes: tuple[TypeExpr, ...], budget: int):
        """All tuples of ground arguments with the given types and total size."""
        if not argtypes:
            if budget == 0:
                yield ()
            return
        first, rest = argtypes[0], argtypes[1:]
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


def _pred_prefix(ptype: TypeExpr, j: int) -> tuple[TypeExpr, ...]:
    args = []
    t = ptype
    for _ in range(j):
        assert isinstance(t, Arrow)
        args.append(t.argument)
        t = t.result
    return tuple(args)


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


def _resolve_literal(lit: Expr) -> GroundLiteral:
    if isinstance(lit, Eq):
        return ConstLit(lit.lhs == lit.rhs)
    if isinstance(lit, Neg):
        return NegLit(ground_atom(lit.atom))
    return PosLit(ground_atom(lit))


def _instances(clause: Clause, index: int, universe: Universe, k: int, base_theta: dict):
    """Ground instances of one clause; base_theta pre-binds matched formals."""
    free = [(v.name, v.typ) for v in clause.variables() if v.name not in base_theta]
    domains = []
    for name, typ in free:
        terms = universe.terms(typ, k)
        if not terms:
            raise EmptyUniverse(
                f"variable {name} : {typ} of clause {index} has an empty "
                f"size-{k} universe"
            )
        domains.append(terms)
    for combo in itertools.product(*domains):
        theta = dict(base_theta)
        theta.update({name: t for (name, _), t in zip(free, combo)})
        head, body = substitute_clause(clause, theta)
        yield GroundClause(
            ground_atom(head),
            tuple(_resolve_literal(l) for l in body),
            index,
            tuple(sorted(theta.items())),
        )


def ground_instantiation(program: Program, k: int) -> GroundProgram:
    """All ground instances whose substituted terms have at most k symbols."""
    if k < 1:
        raise ValueError("size bound k must be >= 1")
    universe = Universe(program.signature)
    clauses: list[GroundClause] = []
    for i, clause in enumerate(program.clauses):
        clauses.extend(_instances(clause, i, universe, k, {}))
    return _make_ground_program(clauses)


def _match_head(clause: Clause, atom: GroundAtom) -> dict[str, Expr] | None:
    head, args = spine(atom.expr)
    if not isinstance(head, PredConst) or head.name != clause.head_pred.name:
        return None
    if len(args) != len(clause.formals):
        return None
    theta: dict[str, Expr] = {}
    for formal, value in zip(clause.formals, args):
        if formal.typ != value.typ:
            return None
        theta[formal.name] = value
    return theta


def relevant_grounding(
    program: Program,
    roots,
    k: int,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> GroundProgram:
    """Dependency closure of the root atoms.

    For every reachable atom, all ground instances whose head matches it are
    added; their body atoms become reachable in turn.  Termination is
    enforced by ``max_atoms`` because matched head bindings are not size
    bounded.
    """
    if k < 1:
        raise ValueError("size bound k must be >= 1")
    universe = Universe(program.signature)
    seen: dict[str, GroundAtom] = {}
    for a in roots:
        atom = a if isinstance(a, GroundAtom) else ground_atom(a)
        seen.setdefault(atom.key, atom)
    queue = deque(seen.values())
    clauses: list[GroundClause] = []
    while queue:
        atom = queue.popleft()
        for i, clause in enumerate(program.clauses):
            base = _match_head(clause, atom)
            if base is None:
                continue
            for gc in _instances(clause, i, universe, k, base):
                clauses.append(gc)
                for lit in gc.body:
                    if isinstance(lit, (PosLit, NegLit)) and lit.atom.key not in seen:
                        if len(seen) >= max_atoms:
                            raise GroundingLimitExceeded(
                                f"dependency closure exceeded {max_atoms} atoms"
                            )
                        seen[lit.atom.key] = lit.atom
                        queue.append(lit.atom)
    return _make_ground_program(clauses, extra_atoms=list(seen.values()))


def truncated_types(program: Program, k: int) -> tuple[str, ...]:
    """Argument types whose size-k universe is a strict prefix of the full one."""
    universe = Universe(program.signature)
    out = []
    for rho in _argument_types(program.signature):
        if universe.is_truncated(rho, k):
            out.append(str(rho))
    return tuple(sorted(out))


def _argument_types(signature: Signature) -> tuple[TypeExpr, ...]:
    """All argument types mentioned (at any depth) by the signature."""
    found: set[TypeExpr] = set()

    def visit(t: TypeExpr) -> None:
        if is_argument_type(t):
            found.add(t)
        if isinstance(t, Arrow):
            visit(t.argument)
            visit(t.result)

    for _, t in signature.entries:
        visit(t)
    return tuple(sorted(found, key=lambda t: (type_size(t), str(t))))


def argument_types(program: Program) -> tuple[TypeExpr, ...]:
    return _argument_types(program.signature)
