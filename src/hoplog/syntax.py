"""Typed abstract syntax: types, terms, literals, clauses, printing.

The type system has two base types, ``i`` (individuals) and ``o`` (booleans).
Composite types split into three classes:

  functional   f : i -> ... -> i        (function symbols)
  predicate    p : r1 -> ... -> rn -> o (predicate symbols)
  argument     r : i or any predicate type (what predicates may consume)

Terms are applicative.  A term is a constant, a variable or a curried
application; a constant or variable carries its type, and the type alone
says whether a constant is an individual, a function symbol or a predicate
constant.  A function symbol is applied to all its arguments, and a clause
variable ranges over an argument type.  Negation ``~`` and individual
equality ``=`` exist only at the literal level.

All values here are immutable and hashable; they can be shared freely.
Types and terms are hash-consed: each distinct one exists once (see ``Interned``).
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Mapping, Sequence
from operator import itemgetter

from .errors import IllTyped, IllTypedApplication, UnboundSymbol
from .records import FrozenRecord, _set

# ---------------------------------------------------------------------------
# Hash-consed nodes
# ---------------------------------------------------------------------------


class Interned(FrozenRecord):
    """Base class for hash-consed nodes: types and expressions.

    Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
    hash-consing", 2006): constructing a node returns the one live node of
    its class with the same fields, so equal nodes are identical, ``==`` is
    ``is``, and a node hashes by its identity.  A node stores, computed once
    from its children's fields:

    * ``text``: its canonical printing, deterministic and re-parseable;
    * ``atomic``: the same, parenthesized when it would not re-parse as one
      argument.  A leaf's is its ``text``, the same string.  An ``App`` has
      no ``atomic`` slot: it derives its own each time it is read.  The
      slot is declared below ``Interned``, on ``TypeExpr`` and on
      ``_StoredAtomic``, the base of every other expression class;
    * ``size``: its size (see ``TypeExpr`` and ``Expr``).

    So printing, sizing, comparing and hashing a node never recurse.  Each
    class's intern table maps a node's fields tuple to a weak reference to
    the node: a node lives exactly as long as something else refers to it,
    and then its reference's callback drops its entry.  A fields tuple
    hashes and compares its child nodes by identity, so a lookup never
    walks a term.  The tables take no lock, so nodes must be built from one
    thread at a time.  A subclass's ``__slots__`` are its fields, in
    constructor order; ``Interned``'s own slots, and ``atomic``, hold the
    values derived from them.  A node is built by its class's ``__new__``,
    so no Python-level ``__init__`` runs after it.
    """

    __slots__ = ("text", "size", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    __init__ = object.__init__

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        table = cls._table = {}  # fields -> a weak reference to the node

        def drop(ref: _Ref) -> None:  # a node died: unless a newer node holds its entry
            if table.get(ref.key) is ref:
                del table[ref.key]

        cls._drop = staticmethod(drop)

    @classmethod
    def _find(cls, fields: tuple):
        """The live node of this class with these fields, or None."""
        ref = cls._table.get(fields)
        return None if ref is None else ref()

    @classmethod
    def _intern(cls, fields: tuple, text: str, atomic: str, size: int):
        """Build, register and return the node of this class with these
        fields; the caller has found none in the table."""
        node = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            _set(node, name, value)
        _set(node, "text", text)
        _set(node, "atomic", atomic)
        _set(node, "size", size)
        ref = cls._table[fields] = _Ref(node, cls._drop)
        ref.key = fields
        return node


class _Ref(weakref.ref):
    """A weak reference to a node, with the node's key in its table."""

    __slots__ = ("key",)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class TypeExpr(Interned):
    """Base class for type expressions; a type's size counts its arrows and
    base types."""

    __slots__ = ("atomic",)
    _fields = ()  # atomic is derived, not a field

    def __str__(self) -> str:
        return self.text


class Iota(TypeExpr):
    __slots__ = ()

    def __new__(cls) -> Iota:
        return cls._find(()) or cls._intern((), "i", "i", 1)


class Omicron(TypeExpr):
    __slots__ = ()

    def __new__(cls) -> Omicron:
        return cls._find(()) or cls._intern((), "o", "o", 1)


class Arrow(TypeExpr):
    __slots__ = ("argument", "result")

    def __new__(cls, argument: TypeExpr, result: TypeExpr) -> Arrow:
        fields = (argument, result)
        node = cls._find(fields)
        if node is None:
            text = f"{argument.atomic} -> {result.text}"
            node = cls._intern(fields, text, f"({text})", 1 + argument.size + result.size)
        return node


IOTA = Iota()
OMICRON = Omicron()


def is_predicate_type(t: TypeExpr) -> bool:
    while isinstance(t, Arrow):
        if not is_argument_type(t.argument):
            return False
        t = t.result
    return t == OMICRON


def is_argument_type(t: TypeExpr) -> bool:
    return t == IOTA or is_predicate_type(t)


def predicate_arg_types(t: TypeExpr) -> tuple[TypeExpr, ...]:
    """Argument types r1..rn of a predicate type r1 -> ... -> rn -> o."""
    args = []
    while isinstance(t, Arrow):
        args.append(t.argument)
        t = t.result
    if t != OMICRON:
        raise IllTyped(f"not a predicate type: {t}")
    return tuple(args)


def peel(t: TypeExpr, n: int) -> tuple[tuple[TypeExpr, ...], TypeExpr] | None:
    """Split r1 -> ... -> rn -> rest into ((r1..rn), rest); None if too short."""
    args = []
    for _ in range(n):
        if not isinstance(t, Arrow):
            return None
        args.append(t.argument)
        t = t.result
    return tuple(args), t


# ---------------------------------------------------------------------------
# Terms and expressions
# ---------------------------------------------------------------------------


class Expr(Interned):
    """Base class for terms and literal expressions. Nodes carry their type.

    A term is a constant, a variable, or an application: a function term
    ``f t1 ... tn`` is the same curried ``App`` spine as an atom.  Nodes are
    hash-consed (see ``Interned``).  ``text`` prints application
    left-associatively by juxtaposition, with minimal parentheses; ``~``
    binds a single argument and ``=`` joins two individual terms.  ``size``
    counts the occurrences of constants, function symbols and predicate
    constants.  Every node stores ``text`` and ``size``.  Each also stores
    ``atomic``, except an ``App``: an atom is almost never an argument, so
    an ``App`` has no ``atomic`` slot and derives ``atomic`` when it is
    read.  ``typ`` is a field of a constant or a variable, ``o`` for ``Neg``
    and ``Eq``, and computed by an ``App`` from its operator's.
    """

    __slots__ = ()


class _StoredAtomic(Expr):
    """Base class of every expression class but ``App``: one that stores
    its ``atomic`` text."""

    __slots__ = ("atomic",)
    _fields = ()  # atomic is derived, not a field


class Const(_StoredAtomic):
    """An individual constant, function symbol or predicate constant, as
    its type says."""

    __slots__ = ("name", "typ")

    def __new__(cls, name: str, typ: TypeExpr) -> Const:
        fields = (name, typ)
        return cls._find(fields) or cls._intern(fields, name, name, 1)


class Var(_StoredAtomic):
    """A clause variable; its type is an argument type."""

    __slots__ = ("name", "typ")

    def __new__(cls, name: str, typ: TypeExpr) -> Var:
        fields = (name, typ)
        return cls._find(fields) or cls._intern(fields, name, name, 0)


class App(Expr):
    __slots__ = ("op", "arg")

    def __new__(cls, op: Expr, arg: Expr) -> App:
        key = (op, arg)
        ref = cls._table.get(key)
        if ref is None or (node := ref()) is None:
            node = object.__new__(cls)
            _set(node, "op", op)
            _set(node, "arg", arg)
            # op's text prints the rest of the spine: spine_text is this rule over a spine
            _set(node, "text", f"{op.text} {arg.atomic}")
            _set(node, "size", op.size + arg.size)
            ref = cls._table[key] = _Ref(node, cls._drop)
            ref.key = key
        return node

    @property
    def atomic(self) -> str:
        return f"({self.text})"

    @property
    def typ(self) -> TypeExpr:
        optype = self.op.typ
        if not isinstance(optype, Arrow):
            raise IllTypedApplication(f"operator {self.op.text} has non-arrow type {optype}")
        return optype.result


class Neg(_StoredAtomic):
    __slots__ = ("atom",)
    typ = OMICRON

    def __new__(cls, atom: Expr) -> Neg:
        fields = (atom,)
        node = cls._find(fields)
        if node is None:
            text = f"~{atom.atomic}"
            node = cls._intern(fields, text, text, atom.size)
        return node


class Eq(_StoredAtomic):
    __slots__ = ("lhs", "rhs")
    typ = OMICRON

    def __new__(cls, lhs: Expr, rhs: Expr) -> Eq:
        fields = (lhs, rhs)
        node = cls._find(fields)
        if node is None:
            text = f"{lhs.text} = {rhs.text}"
            node = cls._intern(fields, text, text, lhs.size + rhs.size)
        return node


def spine(e: Expr) -> tuple[Expr, list[Expr]]:
    """Decompose nested applications: spine(((h a) b)) == (h, [a, b])."""
    args: list[Expr] = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.op
    args.reverse()
    return e, args


def build_spine(head: Expr, args: Sequence[Expr]) -> Expr:
    out = head
    for a in args:
        out = App(out, a)
    return out


def spine_text(head: Expr, args: Sequence[Expr]) -> str:
    """The ``text`` of ``build_spine(head, args)``, without building it:
    ``App``'s printing rule over a whole spine, the head's ``text``, then
    each argument's ``atomic``, each after a space."""
    text = head.text
    for a in args:
        text = f"{text} {a.atomic}"
    return text


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def instance_builder(e: Expr, fields: Mapping[str, int]) -> Callable[[Sequence[Expr]], Expr]:
    """The function from field values to the instance of the term e, in
    which each variable takes the value ``values[fields[name]]``, a ground
    term of its type."""
    if isinstance(e, Var):
        return itemgetter(fields[e.name])
    if isinstance(e, App):  # the whole spine in one loop, not a closure per application
        lead, args = spine(e)
        head, parts = instance_builder(lead, fields), [instance_builder(a, fields) for a in args]

        def build(values):
            out = head(values)
            for part in parts:
                out = App(out, part(values))
            return out

        return build
    return lambda values: e


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


class Signature(FrozenRecord):
    """Immutable symbol table: constant / function-symbol name -> type.

    Each entry is classified once, when the signature is built, into tables
    that the checker, the universe, the stratifier and the truncation report
    read:

    * ``types``: name -> type;
    * ``functions``: name -> arity, for each individual constant (arity 0)
      and function symbol ``f : i -> ... -> i``;
    * ``predicates``: name -> argument types, for each predicate constant
      ``p : r1 -> ... -> rn -> o``;
    * ``producers``: type t -> ``(name, (r1, ..., rj))`` for every entry
      ``name : r1 -> ... -> rj -> t`` and every j, in entry order: the name
      applied to terms of types r1 .. rj is a term of type t.

    An entry of neither kind is in neither table and produces nothing.  Only
    ``entries`` is a field: the tables are neither compared nor printed, and
    loading a pickled signature builds them again.
    """

    __slots__ = ("entries", "types", "functions", "predicates", "producers")
    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[str, TypeExpr], ...]) -> None:
        functions, predicates, producers = {}, {}, {}
        for name, t in entries:
            args, suffixes = [], [t]
            while isinstance(t, Arrow):
                args.append(t.argument)
                t = t.result
                suffixes.append(t)
            if t is IOTA and all(a is IOTA for a in args):
                functions[name] = len(args)
            elif t is OMICRON and all(map(is_argument_type, args)):
                predicates[name] = tuple(args)
            else:
                continue
            for j, suffix in enumerate(suffixes):
                producers.setdefault(suffix, []).append((name, tuple(args[:j])))
        tables = (entries, dict(entries), functions, predicates, producers)
        for slot, table in zip(self.__slots__, tables):
            _set(self, slot, table)

    def lookup(self, name: str) -> TypeExpr:
        t = self.types.get(name)
        if t is None:
            raise UnboundSymbol(f"undeclared symbol: {name}")
        return t


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------


class Clause(FrozenRecord):
    """head_pred V1 ... Vn <- L1, ..., Lm with pairwise-distinct variable formals."""

    __slots__ = ("head_pred", "formals", "body")

    def head_atom(self) -> Expr:
        return build_spine(self.head_pred, list(self.formals))

    def variables(self) -> tuple[Var, ...]:
        """All clause variables: formals first, then body-only ones in order of first use."""
        seen = list(self.formals)
        for lit in self.body:
            for v in vars_in_order(lit):
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    def __str__(self) -> str:
        head = self.head_atom().text
        if not self.body:
            return f"{head}."
        return f"{head} <- {', '.join(l.text for l in self.body)}."


def vars_in_order(e: Expr) -> list[Var]:
    """The variable occurrences of e, left to right, repeats included."""
    if isinstance(e, Var):
        return [e]
    if isinstance(e, Const):
        return []
    if isinstance(e, App):
        return vars_in_order(e.op) + vars_in_order(e.arg)
    if isinstance(e, Neg):
        return vars_in_order(e.atom)
    if isinstance(e, Eq):
        return vars_in_order(e.lhs) + vars_in_order(e.rhs)
    raise TypeError(f"not an expression: {e!r}")
