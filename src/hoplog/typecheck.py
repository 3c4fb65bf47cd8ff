"""Elaboration of parsed source into checked, typed programs.

Responsibilities: build the signature (declarations plus defaulted
individual constants), enforce the clause-head discipline (every head
argument a distinct variable), infer the types of clause variables, and
produce typed clauses.  All violations in a program are collected and
reported together.
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
from .parser import (
    RawClause,
    RawEq,
    RawLiteral,
    RawNeg,
    RawSpine,
    SourceProgram,
    parse_atom,
    parse_program,
    position,
)
from .records import FrozenRecord
from .syntax import (
    IOTA,
    OMICRON,
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
    functional_arity,
    is_functional_type,
    is_predicate_type,
    peel,
    predicate_arg_types,
    vars_in_order,
)


class Program(FrozenRecord):
    """A checked program: signature plus typed clauses."""

    __slots__ = ("signature", "clauses")

    def to_source(self) -> str:
        """Canonical source text; parsing it back yields an equal Program."""
        lines = [f"type {name} : {typ}." for name, typ in self.signature.entries]
        lines.extend(str(c) for c in self.clauses)
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Signature
# ---------------------------------------------------------------------------


def _build_signature(sp: SourceProgram) -> Signature:
    mapping: dict[str, TypeExpr] = {}
    for decl in sp.declarations:
        if decl.name[0].isupper():
            at = "%d:%d" % position(sp.text, decl.pos)
            raise IllTyped(f"{at}: cannot declare variable {decl.name}")
        Signature.kind_of_type(decl.name, decl.typ)  # reject malformed types
        mapping[decl.name] = decl.typ
    # Undeclared lowercase nullary symbols default to individual constants.
    for name in sp.names:
        if name not in mapping and not name[0].isupper():
            mapping[name] = IOTA
    return Signature(tuple(sorted(mapping.items())))


# ---------------------------------------------------------------------------
# Variable-type inference
# ---------------------------------------------------------------------------


class _ClauseChecker:
    def __init__(self, types: dict[str, TypeExpr], clause: RawClause | None, text: str):
        self.types = types  # the signature's
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
        head = self.clause.head  # checked: distinct variables follow the name
        names = " ".join([head.name] + [a.name for a in head.args])
        return f"the clause for '{names}' at {self.at(self.clause.pos)}"

    def check_head(self) -> tuple[PredConst, tuple[Var, ...]]:
        rc = self.clause
        name, args, at = rc.head.name, rc.head.args, self.at
        if name[0].isupper():
            raise IllTyped(f"{at(rc.head.pos)}: clause head must start with a predicate constant")
        typ = self.types.get(name)
        if typ is None or not is_predicate_type(typ):
            raise IllTyped(f"{at(rc.head.pos)}: head symbol {name} is not a declared predicate")
        argtypes = predicate_arg_types(typ)
        if len(args) != len(argtypes):
            raise ArityMismatch(
                f"{at(rc.head.pos)}: {name} : {typ} takes {len(argtypes)} "
                f"arguments, head has {len(args)}"
            )
        formals: list[Var] = []
        for a, t in zip(args, argtypes):
            if a.args or not a.name[0].isupper():
                raise NonVariableHeadArgument(
                    f"{at(rc.pos)}: head argument of {name} must be a variable"
                )
            if a.name in self.env:
                raise RepeatedHeadVariable(
                    f"{at(a.pos)}: variable {a.name} appears twice in the head of {name}"
                )
            self.env[a.name] = t
            formals.append(IndVar(a.name) if t is IOTA else PredVar(a.name, t))
        return PredConst(name, typ), tuple(formals)

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

    def walk(self, raw: RawSpine, expected: TypeExpr | None) -> TypeExpr | None:
        """Propagate type information; returns the type when determinable."""
        name, args = raw.name, raw.args
        if not name[0].isupper():
            known = self.types.get(name)
        elif not args:
            if expected is not None:
                self.bind(name, expected, raw.pos)
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
                self.bind(name, typ, raw.pos)
                return expected
        if known is None or not args:
            return known
        peeled = peel(known, len(args))
        if peeled is None:
            return None  # an arity error surfaces during build
        for a, t in zip(args, peeled[0]):
            self.walk(a, t)
        return peeled[1]

    def infer(self, body: tuple[RawLiteral, ...]) -> None:
        # bind never overwrites, so a pass that binds nothing is the last.
        bound = -1
        while bound < len(self.env):
            bound = len(self.env)
            for lit in body:
                if isinstance(lit, RawNeg):
                    self.walk(lit.atom, OMICRON)
                elif isinstance(lit, RawEq):
                    self.walk(lit.lhs, IOTA)
                    self.walk(lit.rhs, IOTA)
                else:
                    self.walk(lit, OMICRON)

    # -- build pass -----------------------------------------------------------

    def build_literal(self, raw: RawLiteral) -> Expr:
        if isinstance(raw, RawNeg):
            atom = self.build(raw.atom)
            if atom.typ is not OMICRON:
                raise NegOfNonBoolean(
                    f"{self.at(raw.pos)}: ~ over {atom.text} : {atom.typ}"
                )
            return Neg(atom)
        if isinstance(raw, RawEq):
            lhs, rhs = self.build(raw.lhs), self.build(raw.rhs)
            if lhs.typ is not IOTA or rhs.typ is not IOTA:
                raise EqOfNonIndividual(
                    f"{self.at(raw.pos)}: = compares individuals, got {lhs.typ} and {rhs.typ}"
                )
            return Eq(lhs, rhs)
        return self.build(raw)

    def build(self, raw: RawSpine) -> Expr:
        name, args, at = raw.name, raw.args, self.at
        if name[0].isupper():
            typ = self.env.get(name)
            if typ is None:
                raise AmbiguousVariableType(
                    f"{at(raw.pos)}: the type of {name} is not determined by any "
                    f"occurrence in {self.where}"
                )
            out = IndVar(name) if typ is IOTA else PredVar(name, typ)
        else:
            typ = self.types.get(name)
            if typ is None:
                raise UnboundSymbol(f"{at(raw.pos)}: undeclared symbol {name}")
            if typ is not IOTA and is_functional_type(typ):
                # a function symbol, fully applied, makes an individual
                n = functional_arity(typ)
                if len(args) != n:
                    raise ArityMismatch(
                        f"{at(raw.pos)}: function symbol {name} expects {n} "
                        f"arguments, got {len(args)}"
                    )
                built = []
                for a in args:
                    built.append(self.build(a))
                    if built[-1].typ is not IOTA:
                        raise IllTypedApplication(
                            f"{at(raw.pos)}: argument {built[-1].text} of "
                            f"{name} is not an individual"
                        )
                return FunApp(name, tuple(built))
            out = IndConst(name) if typ is IOTA else PredConst(name, typ)
        if args and typ is IOTA:
            raise IllTypedApplication(f"{at(raw.pos)}: individual {name} cannot be applied")
        for a in args:
            optype = out.typ
            if not isinstance(optype, Arrow):
                raise IllTypedApplication(
                    f"{at(raw.pos)}: {out.text} : {optype} cannot be applied"
                )
            ax = self.build(a)
            if ax.typ is not optype.argument:
                raise IllTypedApplication(
                    f"{at(raw.pos)}: {out.text} expects {optype.argument}, "
                    f"got {ax.text} : {ax.typ}"
                )
            out = App(out, ax)
        return out


def check_clause(rc: RawClause, types: dict[str, TypeExpr], text: str) -> Clause:
    """The typed clause of rc under the signature's types; rc's positions
    are offsets into text."""
    checker = _ClauseChecker(types, rc, text)
    pred, formals = checker.check_head()
    checker.infer(rc.body)
    body: list[Expr] = []
    for lit in rc.body:
        try:
            built = checker.build_literal(lit)
            if built.typ is not OMICRON:
                raise IllTyped(
                    f"{checker.at(rc.pos)}: body literal {built.text} has type "
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
    types = sig.as_dict()
    clauses: list[Clause] = []
    for rc in sp.clauses:
        try:
            clauses.append(check_clause(rc, types, sp.text))
        except ProgramCheckError as exc:
            errors.extend(exc.errors)
        except TypeCheckError as exc:
            errors.append(exc)
    if errors:
        raise ProgramCheckError(errors)
    return Program(sig, tuple(clauses))


def load_program(text: str) -> Program:
    """Parse and check program text in one step."""
    return check_program(parse_program(text))


def elaborate_ground_atom(program: Program, text: str) -> Expr:
    """Typed ground atom from its text (for roots given on the command line)."""
    atom = _ClauseChecker(program.signature.as_dict(), None, text).build(parse_atom(text))
    if atom.typ is not OMICRON:
        raise IllTyped(f"root {atom.text} has type {atom.typ}, not o")
    if vars_in_order(atom):
        raise IllTyped(f"root {atom.text} is not ground")
    return atom
