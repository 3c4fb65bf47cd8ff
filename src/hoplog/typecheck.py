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
from .parser import RawApp, RawClause, RawEq, RawName, RawNeg, SourceProgram, parse_program
from .records import FrozenRecord, _set
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
    canonical_print,
    functional_arity,
    is_functional_type,
    is_ground,
    is_predicate_type,
    make_signature,
    peel,
    predicate_arg_types,
)


class Program(FrozenRecord):
    """A checked program: signature plus typed clauses."""

    __slots__ = ("signature", "clauses")

    def __init__(self, signature: Signature, clauses: tuple[Clause, ...]) -> None:
        _set(self, "signature", signature)
        _set(self, "clauses", clauses)

    def to_source(self) -> str:
        """Canonical source text; parsing it back yields an equal Program."""
        lines = [f"type {name} : {typ}." for name, typ in self.signature.entries]
        lines.extend(str(c) for c in self.clauses)
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Raw-tree helpers
# ---------------------------------------------------------------------------


def _flatten(raw) -> tuple[RawName, list]:
    args: list = []
    while isinstance(raw, RawApp):
        args.append(raw.arg)
        raw = raw.op
    args.reverse()
    if not isinstance(raw, RawName):
        raise IllTyped("an application must start with a name")
    return raw, args


def _raw_names(raw):
    if isinstance(raw, RawName):
        yield raw
    elif isinstance(raw, RawApp):
        yield from _raw_names(raw.op)
        yield from _raw_names(raw.arg)
    elif isinstance(raw, RawNeg):
        yield from _raw_names(raw.atom)
    elif isinstance(raw, RawEq):
        yield from _raw_names(raw.lhs)
        yield from _raw_names(raw.rhs)


def _build_signature(sp: SourceProgram) -> Signature:
    mapping: dict[str, TypeExpr] = {}
    for decl in sp.declarations:
        if decl.name[0].isupper():
            raise IllTyped(f"{decl.pos}: cannot declare variable {decl.name}")
        Signature.kind_of_type(decl.name, decl.typ)  # reject malformed types
        mapping[decl.name] = decl.typ
    # Undeclared lowercase nullary symbols default to individual constants.
    for rc in sp.clauses:
        for nm in _raw_names(rc.head):
            if not nm.is_variable and nm.name not in mapping:
                mapping[nm.name] = IOTA
        for lit in rc.body:
            for nm in _raw_names(lit):
                if not nm.is_variable and nm.name not in mapping:
                    mapping[nm.name] = IOTA
    return make_signature(mapping)


# ---------------------------------------------------------------------------
# Variable-type inference
# ---------------------------------------------------------------------------


class _ClauseChecker:
    def __init__(self, sig: Signature, clause: RawClause | None):
        self.sig = sig
        self.clause = clause  # None for a root atom
        self.env: dict[str, TypeExpr] = {}
        self.errors: list[TypeCheckError] = []
        self.conflicts: set = set()  # positions whose conflict is reported

    @property
    def where(self) -> str:
        """The clause or atom checked, as error messages name it."""
        if self.clause is None:
            return "a root atom"
        names = " ".join(dict.fromkeys(n.name for n in _raw_names(self.clause.head)))
        return f"the clause for '{names}' at {self.clause.pos}"

    def error(self, exc: TypeCheckError) -> None:
        self.errors.append(exc)

    # -- binding pass ---------------------------------------------------------

    def bind(self, name: str, typ: TypeExpr, pos) -> None:
        known = self.env.get(name)
        if known is None:
            self.env[name] = typ
        elif known != typ and pos not in self.conflicts:
            # every inference pass meets the occurrence again
            self.conflicts.add(pos)
            self.error(
                ConflictingVariableType(
                    f"{pos}: variable {name} used both at {known} and at {typ}"
                    f" in {self.where}"
                )
            )

    def walk(self, raw, expected: TypeExpr | None) -> TypeExpr | None:
        """Propagate type information; returns the type when determinable."""
        if isinstance(raw, RawNeg):
            self.walk(raw.atom, OMICRON)
            return OMICRON
        if isinstance(raw, RawEq):
            self.walk(raw.lhs, IOTA)
            self.walk(raw.rhs, IOTA)
            return OMICRON
        head, args = _flatten(raw)
        if not args:
            if head.is_variable:
                if expected is not None:
                    self.bind(head.name, expected, head.pos)
                return self.env.get(head.name)
            return self.sig.lookup(head.name) if head.name in self.sig else None
        if head.is_variable:
            known = self.env.get(head.name)
            if known is not None:
                peeled = peel(known, len(args))
                if peeled is None:
                    return None  # arity error surfaces during build
                argtypes, rest = peeled
                for a, t in zip(args, argtypes):
                    self.walk(a, t)
                return rest
            argtypes = [self.walk(a, None) for a in args]
            if expected is not None and all(t is not None for t in argtypes):
                typ: TypeExpr = expected
                for t in reversed(argtypes):
                    typ = Arrow(t, typ)  # type: ignore[arg-type]
                self.bind(head.name, typ, head.pos)
                return expected
            return None
        if head.name not in self.sig:
            return None
        headtype = self.sig.lookup(head.name)
        peeled = peel(headtype, len(args))
        if peeled is None:
            return None
        argtypes, rest = peeled
        for a, t in zip(args, argtypes):
            self.walk(a, t)
        return rest

    def infer(self, body) -> None:
        # bind never overwrites, so a pass that binds nothing is the last.
        bound = -1
        while bound < len(self.env):
            bound = len(self.env)
            for lit in body:
                self.walk(lit, OMICRON)

    # -- build pass -----------------------------------------------------------

    def build(self, raw) -> Expr:
        if isinstance(raw, RawNeg):
            atom = self.build(raw.atom)
            if atom.typ != OMICRON:
                raise NegOfNonBoolean(
                    f"{raw.pos}: ~ over {canonical_print(atom)} : {atom.typ}"
                )
            return Neg(atom)
        if isinstance(raw, RawEq):
            lhs = self.build(raw.lhs)
            rhs = self.build(raw.rhs)
            if lhs.typ != IOTA or rhs.typ != IOTA:
                raise EqOfNonIndividual(
                    f"{raw.pos}: = compares individuals, got {lhs.typ} and {rhs.typ}"
                )
            return Eq(lhs, rhs)
        head, args = _flatten(raw)
        # Fully applied function symbols produce individuals.
        if not head.is_variable and head.name in self.sig:
            headtype = self.sig.lookup(head.name)
            if headtype != IOTA and is_functional_type(headtype):
                n = functional_arity(headtype)
                if len(args) != n:
                    raise ArityMismatch(
                        f"{head.pos}: function symbol {head.name} expects {n} "
                        f"arguments, got {len(args)}"
                    )
                built = []
                for a in args:
                    ax = self.build(a)
                    if ax.typ != IOTA:
                        raise IllTypedApplication(
                            f"{head.pos}: argument {canonical_print(ax)} of "
                            f"{head.name} is not an individual"
                        )
                    built.append(ax)
                return FunApp(head.name, tuple(built))
        head_expr = self.build_name(head)
        if isinstance(head_expr, (IndConst, IndVar)) and args:
            raise IllTypedApplication(
                f"{head.pos}: individual {head.name} cannot be applied"
            )
        out = head_expr
        for a in args:
            optype = out.typ
            if not isinstance(optype, Arrow):
                raise IllTypedApplication(
                    f"{head.pos}: {canonical_print(out)} : {optype} cannot be applied"
                )
            ax = self.build(a)
            if ax.typ != optype.argument:
                raise IllTypedApplication(
                    f"{head.pos}: {canonical_print(out)} expects {optype.argument}, "
                    f"got {canonical_print(ax)} : {ax.typ}"
                )
            out = App(out, ax)
        return out

    def build_name(self, nm: RawName) -> Expr:
        if nm.is_variable:
            typ = self.env.get(nm.name)
            if typ is None:
                raise AmbiguousVariableType(
                    f"{nm.pos}: the type of {nm.name} is not determined by any "
                    f"occurrence in {self.where}"
                )
            return IndVar(nm.name) if typ == IOTA else PredVar(nm.name, typ)
        if nm.name not in self.sig:
            raise UnboundSymbol(f"{nm.pos}: undeclared symbol {nm.name}")
        typ = self.sig.lookup(nm.name)
        if typ == IOTA:
            return IndConst(nm.name)
        if is_predicate_type(typ):
            return PredConst(nm.name, typ)
        raise IllTypedApplication(
            f"{nm.pos}: function symbol {nm.name} must be fully applied"
        )


def _check_head(rc: RawClause, sig: Signature, checker: _ClauseChecker):
    head, args = _flatten(rc.head)
    if head.is_variable:
        raise IllTyped(f"{head.pos}: clause head must start with a predicate constant")
    if head.name not in sig or not is_predicate_type(sig.lookup(head.name)):
        raise IllTyped(f"{head.pos}: head symbol {head.name} is not a declared predicate")
    pred = PredConst(head.name, sig.lookup(head.name))
    argtypes = predicate_arg_types(pred.ptype)
    if len(args) != len(argtypes):
        raise ArityMismatch(
            f"{head.pos}: {head.name} : {pred.ptype} takes {len(argtypes)} "
            f"arguments, head has {len(args)}"
        )
    formals: list[Var] = []
    seen: set[str] = set()
    for a, t in zip(args, argtypes):
        if not isinstance(a, RawName) or not a.is_variable:
            raise NonVariableHeadArgument(
                f"{rc.pos}: head argument of {head.name} must be a variable"
            )
        if a.name in seen:
            raise RepeatedHeadVariable(
                f"{a.pos}: variable {a.name} appears twice in the head of {head.name}"
            )
        seen.add(a.name)
        checker.bind(a.name, t, a.pos)
        formals.append(IndVar(a.name) if t == IOTA else PredVar(a.name, t))
    return pred, tuple(formals)


def check_clause(rc: RawClause, sig: Signature) -> Clause:
    checker = _ClauseChecker(sig, rc)
    pred, formals = _check_head(rc, sig, checker)
    checker.infer(rc.body)
    body: list[Expr] = []
    for lit in rc.body:
        try:
            built = checker.build(lit)
            if built.typ != OMICRON:
                raise IllTyped(
                    f"{rc.pos}: body literal {canonical_print(built)} has type "
                    f"{built.typ}, not o"
                )
            body.append(built)
        except ProgramCheckError as exc:
            checker.errors.extend(exc.errors)
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
    for rc in sp.clauses:
        try:
            clauses.append(check_clause(rc, sig))
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


def elaborate_ground_atom(program: Program, raw) -> Expr:
    """Typed ground atom from a raw tree (for roots given on the command line)."""
    checker = _ClauseChecker(program.signature, None)
    atom = checker.build(raw)
    if checker.errors:
        raise ProgramCheckError(checker.errors)
    if atom.typ != OMICRON:
        raise IllTyped(f"root {canonical_print(atom)} has type {atom.typ}, not o")
    if not is_ground(atom):
        raise IllTyped(f"root {canonical_print(atom)} is not ground")
    if isinstance(atom, (Neg, Eq)):
        raise IllTyped("roots must be plain atoms")
    return atom
