"""Typed abstract syntax: types, terms, literals, clauses, printing.

The type system has two base types, ``i`` (individuals) and ``o`` (booleans).
Composite types split into three classes:

  functional   f : i -> ... -> i        (function symbols)
  predicate    p : r1 -> ... -> rn -> o (predicate symbols)
  argument     r : i or any predicate type (what predicates may consume)

Terms are applicative: constants and variables, fully applied function
symbols over individuals, and curried application of predicate-typed terms.
Negation ``~`` and individual equality ``=`` exist only at the literal level.

All values here are immutable and hashable; they can be shared freely.
Types and terms are hash-consed: each distinct one exists once (see ``Interned``).
"""

from __future__ import annotations

import sys
import weakref
from collections.abc import Callable, Iterator, Mapping, Sequence
from operator import itemgetter
from typing import Union

from .errors import IllTyped, IllTypedApplication, UnboundSymbol
from .records import FrozenRecord, _set

# ---------------------------------------------------------------------------
# Hash-consed nodes
# ---------------------------------------------------------------------------


class Interned(FrozenRecord):
    """Base class for hash-consed nodes: types and expressions.

    Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
    hash-consing", 2006): constructing a node returns the one live node of
    its class with the same fields, so equal nodes are identical and ``==``
    is ``is``.  A node stores, computed once from its children's fields:

    * ``text``: its canonical printing, deterministic and re-parseable;
    * ``atomic``: the same, parenthesized when it would not re-parse as one
      argument.  A leaf's is its ``text``, the same string.  An ``App``
      derives its own each time it is read, and leaves the slot empty;
    * ``size``: its size (see ``TypeExpr`` and ``Expr``);
    * its hash: the hash of its fields, never of its address, computed when
      the node is built.  An ``App`` computes it the first time it is asked
      for and keeps it; its slot holds None until then.

    So printing, sizing and comparing a node never recurse.  Hashing one
    recurses only through applications not hashed before, which the nesting
    cap (``parser.MAX_NESTING``) keeps at most 100 deep in a parsed program
    and its groundings; a ``FunApp`` chain of any depth hashes at once.  Each
    class's intern table maps a key to a weak reference to the node: a node
    lives exactly as long as something else refers to it, and then its
    reference's callback drops its entry.  A leaf's key is its fields.  A
    compound node's key is one int made of its children's ``id()``s (and of
    the interned name of a function symbol), so a lookup hashes no node.
    That is sound because a node holds its children, and its entry is
    dropped before they can be freed: an address in a live key belongs to
    the child it was taken from.  The tables take no lock, so nodes must be
    built from one thread at a time.  A subclass's ``__slots__`` are its
    fields, in constructor order; ``Interned``'s own slots hold the values
    derived from them.
    """

    __slots__ = ("_hash", "text", "atomic", "size", "__weakref__")
    __eq__ = object.__eq__

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        table = cls._table = {}  # key -> a weak reference to the node

        def drop(ref: _Ref) -> None:  # a node died: unless a newer node holds its entry
            if table.get(ref.key) is ref:
                del table[ref.key]

        cls._drop = staticmethod(drop)

    @classmethod
    def _find(cls, key):
        """The live node of this class with this key, or None."""
        ref = cls._table.get(key)
        return None if ref is None else ref()

    @classmethod
    def _intern(cls, key, fields: tuple, text: str, atomic: str, size: int):
        """Build, register under ``key`` and return the node of this class
        with these fields; the caller has found none in the table."""
        node = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            _set(node, name, value)
        _set(node, "_hash", hash(fields))
        _set(node, "text", text)
        _set(node, "atomic", atomic)
        _set(node, "size", size)
        ref = cls._table[key] = _Ref(node, cls._drop)
        ref.key = key
        return node

    def __hash__(self) -> int:
        return self._hash


class _Ref(weakref.ref):
    """A weak reference to a node, with the node's key in its table."""

    __slots__ = ("key",)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class TypeExpr(Interned):
    """Base class for type expressions; a type's size counts its arrows and
    base types."""

    __slots__ = ()

    def __str__(self) -> str:
        return self.text


class Iota(TypeExpr):
    __slots__ = ()

    def __new__(cls) -> Iota:
        return cls._find(()) or cls._intern((), (), "i", "i", 1)


class Omicron(TypeExpr):
    __slots__ = ()

    def __new__(cls) -> Omicron:
        return cls._find(()) or cls._intern((), (), "o", "o", 1)


class Arrow(TypeExpr):
    __slots__ = ("argument", "result")

    def __new__(cls, argument: TypeExpr, result: TypeExpr) -> Arrow:
        key = id(argument) << 64 | id(result)
        ref = cls._table.get(key)
        if ref is None or (node := ref()) is None:
            text = f"{argument.atomic} -> {result.text}"
            node = cls._intern(key, (argument, result), text, f"({text})",
                               1 + argument.size + result.size)
        return node


IOTA = Iota()
OMICRON = Omicron()


def is_functional_type(t: TypeExpr) -> bool:
    while isinstance(t, Arrow):
        if t.argument != IOTA:
            return False
        t = t.result
    return t == IOTA


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


def functional_arity(t: TypeExpr) -> int:
    n = 0
    while isinstance(t, Arrow):
        n += 1
        t = t.result
    return n


def suffix_types(t: TypeExpr) -> Iterator[TypeExpr]:
    """t itself and every result type reachable by peeling arguments."""
    yield t
    while isinstance(t, Arrow):
        t = t.result
        yield t


def type_geq(t1: TypeExpr, t2: TypeExpr) -> bool:
    """t1 >= t2: t1 equals t2 or is of the form r1 -> ... -> rn -> t2."""
    return any(s == t2 for s in suffix_types(t1))


# ---------------------------------------------------------------------------
# Terms and expressions
# ---------------------------------------------------------------------------


class Expr(Interned):
    """Base class for terms and literal expressions. Nodes carry their type.

    Nodes are hash-consed (see ``Interned``).  ``text`` prints application
    left-associatively by juxtaposition, with minimal parentheses; ``~``
    binds a single argument and ``=`` joins two individual terms.  ``size``
    counts the occurrences of constants, function symbols and predicate
    constants.  Every node stores ``text`` and ``size``.  Each also stores
    ``atomic`` and its hash, except an ``App``: an atom is almost never an
    argument, and most atoms of a grounding are never hashed, so an ``App``
    derives ``atomic`` when it is read and its hash when first asked for.
    A ``FunApp`` stores both, since universe terms are printed as arguments
    again and again, and a chain of them can be thousands deep.
    """

    __slots__ = ()

    @property
    def typ(self) -> TypeExpr:
        raise NotImplementedError


class IndConst(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str) -> IndConst:
        fields = (name,)
        return cls._find(fields) or cls._intern(fields, fields, name, name, 1)

    @property
    def typ(self) -> TypeExpr:
        return IOTA


class PredConst(Expr):
    __slots__ = ("name", "ptype")

    def __new__(cls, name: str, ptype: TypeExpr) -> PredConst:
        fields = (name, ptype)
        return cls._find(fields) or cls._intern(fields, fields, name, name, 1)

    @property
    def typ(self) -> TypeExpr:
        return self.ptype


class IndVar(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str) -> IndVar:
        fields = (name,)
        return cls._find(fields) or cls._intern(fields, fields, name, name, 0)

    @property
    def typ(self) -> TypeExpr:
        return IOTA


class PredVar(Expr):
    __slots__ = ("name", "ptype")

    def __new__(cls, name: str, ptype: TypeExpr) -> PredVar:
        fields = (name, ptype)
        return cls._find(fields) or cls._intern(fields, fields, name, name, 0)

    @property
    def typ(self) -> TypeExpr:
        return self.ptype


class FunApp(Expr):
    __slots__ = ("fun", "args")

    def __new__(cls, fun: str, args: tuple[Expr, ...]) -> FunApp:
        key = id(fun := sys.intern(fun))  # the node holds this one copy of its name
        for a in args:
            key = key << 64 | id(a)
        ref = cls._table.get(key)
        if ref is None or (node := ref()) is None:
            text = " ".join([fun] + [a.atomic for a in args])
            node = cls._intern(key, (fun, args), text, f"({text})" if args else text,
                               1 + sum(a.size for a in args))
        return node

    @property
    def typ(self) -> TypeExpr:
        return IOTA


class App(Expr):
    __slots__ = ("op", "arg")

    def __new__(cls, op: Expr, arg: Expr) -> App:
        key = id(op) << 64 | id(arg)
        ref = cls._table.get(key)
        if ref is None or (node := ref()) is None:
            node = object.__new__(cls)
            _set(node, "op", op)
            _set(node, "arg", arg)
            _set(node, "_hash", None)
            _set(node, "text", f"{op.text} {arg.atomic}")  # op's text prints the rest of the spine
            _set(node, "size", op.size + arg.size)
            ref = cls._table[key] = _Ref(node, cls._drop)
            ref.key = key
        return node

    @property
    def atomic(self) -> str:
        return f"({self.text})"

    def __hash__(self):
        if self._hash is None:  # asked for the first time
            _set(self, "_hash", hash((self.op, self.arg)))
        return self._hash

    @property
    def typ(self) -> TypeExpr:
        optype = self.op.typ
        if not isinstance(optype, Arrow):
            raise IllTypedApplication(f"operator {self.op.text} has non-arrow type {optype}")
        return optype.result


class Neg(Expr):
    __slots__ = ("atom",)

    def __new__(cls, atom: Expr) -> Neg:
        key = id(atom)
        ref = cls._table.get(key)
        if ref is None or (node := ref()) is None:
            text = f"~{atom.atomic}"
            node = cls._intern(key, (atom,), text, text, atom.size)
        return node

    @property
    def typ(self) -> TypeExpr:
        return OMICRON


class Eq(Expr):
    __slots__ = ("lhs", "rhs")

    def __new__(cls, lhs: Expr, rhs: Expr) -> Eq:
        key = id(lhs) << 64 | id(rhs)
        ref = cls._table.get(key)
        if ref is None or (node := ref()) is None:
            text = f"{lhs.text} = {rhs.text}"
            node = cls._intern(key, (lhs, rhs), text, text, lhs.size + rhs.size)
        return node

    @property
    def typ(self) -> TypeExpr:
        return OMICRON


Var = Union[IndVar, PredVar]


def spine(e: Expr) -> tuple[Expr, list[Expr]]:
    """Decompose nested applications: spine(((h a) b)) == (h, [a, b])."""
    args: list[Expr] = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.op
    args.reverse()
    return e, args


def build_spine(head: Expr, args: list[Expr]) -> Expr:
    out = head
    for a in args:
        out = App(out, a)
    return out


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def print_template(e: Expr, fields: Mapping[str, int]) -> str:
    """A ``str.format`` template that prints the instances of the term e.

    Each variable becomes the positional field ``fields[name]``, to be
    filled with the variable's value, a ground term: its ``text`` where the
    variable heads an application spine (or is all of e), its ``atomic``
    text where it is an argument.  So
    ``print_template(e, fields).format(*values)`` equals
    ``instance_builder(e, fields)(values).text``.
    """
    return _template(e, fields, "text")


def _template(e: Expr, fields: Mapping[str, int], form: str) -> str:
    """``print_template`` of e, printed as its ``text`` or as its ``atomic``
    text: ``form`` names which."""
    if isinstance(e, (IndVar, PredVar)):
        return f"{{{fields[e.name]}.{form}}}"
    if isinstance(e, (IndConst, PredConst)):
        return _literal(e.name)
    if isinstance(e, FunApp):
        if not e.args:
            return _literal(e.fun)
        head, args = _literal(e.fun), e.args
    elif isinstance(e, App):
        lead, args = spine(e)
        head = _template(lead, fields, "text")
    else:
        raise TypeError(f"not a term: {e!r}")
    text = " ".join([head] + [_template(a, fields, "atomic") for a in args])
    return f"({text})" if form == "atomic" else text


def _literal(name: str) -> str:
    return name.replace("{", "{{").replace("}", "}}")


def instance_builder(e: Expr, fields: Mapping[str, int]) -> Callable[[Sequence[Expr]], Expr]:
    """The function from field values to the instance of the term e, in
    which each variable takes the value ``values[fields[name]]``, a ground
    term of its type."""
    if isinstance(e, (IndVar, PredVar)):
        return itemgetter(fields[e.name])
    if isinstance(e, FunApp):
        args = [instance_builder(a, fields) for a in e.args]
        return lambda values: FunApp(e.fun, tuple([a(values) for a in args]))
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
    """Immutable symbol table: constant / function-symbol name -> type."""

    __slots__ = ("entries", "_types")

    def __init__(self, entries: tuple[tuple[str, TypeExpr], ...]) -> None:
        for name, t in entries:
            self.kind_of_type(name, t)
        _set(self, "entries", entries)
        _set(self, "_types", dict(entries))

    @staticmethod
    def kind_of_type(name: str, t: TypeExpr) -> None:
        """Reject a type that is neither functional nor a predicate type."""
        if not (is_functional_type(t) or is_predicate_type(t)):
            raise IllTyped(f"{name}: {t} is neither a functional nor a predicate type")

    def as_dict(self) -> dict[str, TypeExpr]:
        return dict(self.entries)

    def lookup(self, name: str) -> TypeExpr:
        t = self._types.get(name)
        if t is None:
            raise UnboundSymbol(f"undeclared symbol: {name}")
        return t

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def individual_constants(self) -> tuple[str, ...]:
        return tuple(n for n, t in self.entries if t == IOTA)

    def function_symbols(self) -> tuple[tuple[str, int], ...]:
        return tuple(
            (n, functional_arity(t))
            for n, t in self.entries
            if t != IOTA and is_functional_type(t)
        )

    def predicate_constants(self) -> tuple[tuple[str, TypeExpr], ...]:
        return tuple((n, t) for n, t in self.entries if is_predicate_type(t))


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------


class Clause(FrozenRecord):
    """head_pred V1 ... Vn <- L1, ..., Lm with pairwise-distinct variable formals."""

    __slots__ = ("head_pred", "formals", "body")

    def __init__(
        self, head_pred: PredConst, formals: tuple[Var, ...], body: tuple[Expr, ...]
    ) -> None:
        _set(self, "head_pred", head_pred)
        _set(self, "formals", formals)
        _set(self, "body", body)

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
    if isinstance(e, (IndVar, PredVar)):
        return [e]
    if isinstance(e, (IndConst, PredConst)):
        return []
    if isinstance(e, FunApp):
        out: list[Var] = []
        for a in e.args:
            out.extend(vars_in_order(a))
        return out
    if isinstance(e, App):
        return vars_in_order(e.op) + vars_in_order(e.arg)
    if isinstance(e, Neg):
        return vars_in_order(e.atom)
    if isinstance(e, Eq):
        return vars_in_order(e.lhs) + vars_in_order(e.rhs)
    raise TypeError(f"not an expression: {e!r}")
