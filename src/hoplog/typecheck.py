"""Elaboration of parsed source into checked, typed programs.

Responsibilities: build the signature (declarations plus defaulted
individual constants), enforce the clause-head discipline (every head
argument a distinct variable), infer the types of clause variables, refuse
a variable whose type is no argument type, and produce typed clauses.  All
violations in a program are collected and reported together.
"""

from __future__ import annotations

from .errors import (
    AmbiguousVariableType,
    ArityMismatch,
    ConflictingVariableType,
    EqOfNonIndividual,
    IllTyped,
    IllTypedApplication,
    NegOfNonBoolean,
    NonVariableHeadArgument,
    ProgramCheckError,
    RepeatedHeadVariable,
    TypeCheckError,
    UnboundSymbol,
)
from .parser import SourceProgram, parse_atom, position
from .records import FrozenRecord
from .syntax import (
    IOTA,
    OMICRON,
    App,
    Arrow,
    Clause,
    Const,
    Eq,
    Expr,
    Neg,
    Signature,
    TypeExpr,
    Var,
    is_argument_type,
    peel,
)


class Program(FrozenRecord):
    """A checked program: signature plus typed clauses."""

    __slots__ = ("signature", "clauses")


# ---------------------------------------------------------------------------
# Signature
# ---------------------------------------------------------------------------


def _build_signature(sp: SourceProgram) -> Signature:
    """The signature of the declarations, with each undeclared lowercase
    name an individual constant; the first bad declaration in source order
    is reported."""
    mapping = {name: typ for name, typ, _ in sp.declarations}
    for name in sp.names:
        if name not in mapping and not name[0].isupper():
            mapping[name] = IOTA
    sig = Signature(tuple(sorted(mapping.items())))
    for name, typ, pos in sp.declarations:
        if name[0].isupper():
            at = "%d:%d" % position(sp.text, pos)
            raise IllTyped(f"{at}: cannot declare variable {name}")
        if name not in sig.functions and name not in sig.predicates:
            raise IllTyped(f"{name}: {typ} is neither a functional nor a predicate type")
    return sig


# ---------------------------------------------------------------------------
# Variable-type inference
# ---------------------------------------------------------------------------


class _ClauseChecker:
    """Types one raw clause, ``(head, body, pos)``, or one root atom; raw
    syntax is the parser's tuples."""

    def __init__(self, sig: Signature, clause: tuple | None, text: str):
        self.types, self.functions = sig.types, sig.functions
        self.clause = clause  # None for a root atom
        self.text = text  # the source the positions are offsets into
        self.env: dict[str, TypeExpr] = {}
        self.errors: list[TypeCheckError] = []
        self.conflicts: set[int] = set()  # positions whose conflict is reported

    def at(self, pos: int) -> str:
        """``line:column`` of an offset into the checked source."""
        return "%d:%d" % position(self.text, pos)

    @property
    def where(self) -> str:
        """The clause or atom checked, as error messages name it."""
        if self.clause is None:
            return "a root atom"
        (name, args, _), _, pos = self.clause  # checked: distinct variables follow the name
        names = " ".join([name] + [a[0] for a in args])
        return f"the clause for '{names}' at {self.at(pos)}"

    def check_head(self, heads: dict) -> tuple[Const, tuple[Var, ...]]:
        """The head's predicate and formals; ``heads`` maps each predicate
        constant's name to it and its argument types."""
        (name, args, head_pos), _, pos = self.clause
        at = self.at
        if name not in heads:  # no variable is declared, so none is a predicate constant
            if name[0].isupper():
                raise IllTyped(f"{at(head_pos)}: clause head must start with a predicate constant")
            raise IllTyped(f"{at(head_pos)}: head symbol {name} is not a declared predicate")
        pred, argtypes = heads[name]
        if len(args) != len(argtypes):
            raise ArityMismatch(
                f"{at(head_pos)}: {name} : {pred.typ} takes {len(argtypes)} "
                f"arguments, head has {len(args)}"
            )
        formals: list[Var] = []
        for (var, var_args, var_pos), t in zip(args, argtypes):
            if var_args or not var[0].isupper():
                raise NonVariableHeadArgument(
                    f"{at(pos)}: head argument of {name} must be a variable"
                )
            if var in self.env:
                raise RepeatedHeadVariable(
                    f"{at(var_pos)}: variable {var} appears twice in the head of {name}"
                )
            self.env[var] = t
            formals.append(Var(var, t))
        return pred, tuple(formals)

    # -- binding pass ---------------------------------------------------------

    def bind(self, name: str, typ: TypeExpr, pos: int) -> None:
        known = self.env.get(name)
        if known is None:
            self.env[name] = typ
        elif known is not typ and pos not in self.conflicts:
            # every inference pass meets the occurrence again
            self.conflicts.add(pos)
            self.errors.append(
                ConflictingVariableType(
                    f"{self.at(pos)}: variable {name} used both at {known} and at {typ}"
                    f" in {self.where}"
                )
            )

    def walk(self, raw: tuple, expected: TypeExpr | None) -> TypeExpr | None:
        """Propagate type information through a spine; returns its type when determinable."""
        name, args, pos = raw
        if not name[0].isupper():
            known = self.types.get(name)
        elif not args:
            if expected is not None:
                self.bind(name, expected, pos)
            return self.env.get(name)
        else:
            known = self.env.get(name)
            if known is None:
                argtypes = [self.walk(a, None) for a in args]
                if expected is None or None in argtypes:
                    return None
                typ = expected
                for t in reversed(argtypes):
                    typ = Arrow(t, typ)
                self.bind(name, typ, pos)
                return expected
        if known is None or not args:
            return known
        peeled = peel(known, len(args))
        if peeled is None:
            return None  # an arity error surfaces during build
        for a, t in zip(args, peeled[0]):
            self.walk(a, t)
        return peeled[1]

    def infer(self, body: tuple) -> None:
        # bind never overwrites, so a pass that binds nothing is the last.
        bound = -1
        while bound < len(self.env):
            bound = len(self.env)
            for lit in body:
                kind = lit[0]
                if kind == "~":
                    self.walk(lit[1], OMICRON)
                elif kind == "=":
                    self.walk(lit[1], IOTA)
                    self.walk(lit[2], IOTA)
                else:
                    self.walk(lit, OMICRON)

    # -- build pass -----------------------------------------------------------

    def build_literal(self, raw: tuple) -> Expr:
        kind = raw[0]
        if kind == "~":
            _, inner, pos = raw
            atom = self.build(inner)
            if atom.typ is not OMICRON:
                raise NegOfNonBoolean(f"{self.at(pos)}: ~ over {atom.text} : {atom.typ}")
            return Neg(atom)
        if kind == "=":
            _, lhs, rhs, pos = raw
            lhs, rhs = self.build(lhs), self.build(rhs)
            if lhs.typ is not IOTA or rhs.typ is not IOTA:
                raise EqOfNonIndividual(
                    f"{self.at(pos)}: = compares individuals, got {lhs.typ} and {rhs.typ}"
                )
            return Eq(lhs, rhs)
        return self.build(raw)

    def build(self, raw: tuple) -> Expr:
        name, args, pos = raw
        at = self.at
        if name[0].isupper():
            typ = self.env.get(name)
            if typ is None:
                raise AmbiguousVariableType(
                    f"{at(pos)}: the type of {name} is not determined by any "
                    f"occurrence in {self.where}"
                )
            if not is_argument_type(typ):
                raise IllTyped(
                    f"{at(pos)}: variable {name} : {typ} is of no argument type in {self.where}"
                )
            out = Var(name, typ)
        else:
            typ = self.types.get(name)
            if typ is None:
                raise UnboundSymbol(f"{at(pos)}: undeclared symbol {name}")
            out = Const(name, typ)
            n = self.functions.get(name)
            if n:  # a function symbol, fully applied, makes an individual
                if len(args) != n:
                    raise ArityMismatch(
                        f"{at(pos)}: function symbol {name} expects {n} "
                        f"arguments, got {len(args)}"
                    )
                for a in args:
                    arg = self.build(a)
                    if arg.typ is not IOTA:
                        raise IllTypedApplication(
                            f"{at(pos)}: argument {arg.text} of {name} is not an individual"
                        )
                    out = App(out, arg)
                return out
        if args and typ is IOTA:
            raise IllTypedApplication(f"{at(pos)}: individual {name} cannot be applied")
        for a in args:
            optype = out.typ
            if not isinstance(optype, Arrow):
                raise IllTypedApplication(
                    f"{at(pos)}: {out.text} : {optype} cannot be applied"
                )
            ax = self.build(a)
            if ax.typ is not optype.argument:
                raise IllTypedApplication(
                    f"{at(pos)}: {out.text} expects {optype.argument}, "
                    f"got {ax.text} : {ax.typ}"
                )
            out = App(out, ax)
        return out


def check_clause(rc: tuple, sig: Signature, text: str, heads: dict) -> Clause:
    """The typed clause of the raw clause rc under the signature sig; rc's
    positions are offsets into text; heads is as ``check_head`` takes it."""
    checker = _ClauseChecker(sig, rc, text)
    pred, formals = checker.check_head(heads)
    _, raw_body, pos = rc
    checker.infer(raw_body)
    body: list[Expr] = []
    for lit in raw_body:
        try:
            built = checker.build_literal(lit)
            if built.typ is not OMICRON:
                raise IllTyped(
                    f"{checker.at(pos)}: body literal {built.text} has type "
                    f"{built.typ}, not o"
                )
            body.append(built)
        except TypeCheckError as exc:
            checker.errors.append(exc)
    if checker.errors:
        raise ProgramCheckError(checker.errors)
    return Clause(pred, formals, tuple(body))


def check_program(sp: SourceProgram) -> Program:
    """Elaborate a parsed program; collects every violation before raising."""
    errors: list[TypeCheckError] = []
    try:
        sig = _build_signature(sp)
    except TypeCheckError as exc:
        raise ProgramCheckError([exc]) from exc
    clauses: list[Clause] = []
    heads = {name: (Const(name, sig.types[name]), argtypes)
             for name, argtypes in sig.predicates.items()}
    for rc in sp.clauses:
        try:
            clauses.append(check_clause(rc, sig, sp.text, heads))
        except ProgramCheckError as exc:
            errors.extend(exc.errors)
        except TypeCheckError as exc:
            errors.append(exc)
    if errors:
        raise ProgramCheckError(errors)
    return Program(sig, tuple(clauses))


def elaborate_ground_atom(program: Program, text: str) -> Expr:
    """Typed ground atom from its text (for roots given on the command line).
    A root types no variable, so its first one is ``AmbiguousVariableType``."""
    atom = _ClauseChecker(program.signature, None, text).build(parse_atom(text))
    if atom.typ is not OMICRON:
        raise IllTyped(f"root {atom.text} has type {atom.typ}, not o")
    return atom
