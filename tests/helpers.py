"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately avoid the package's own enumeration and
fixpoint machinery:

* ``reference_print``, ``reference_atomic`` and ``reference_size`` print
  and size a term by recursive ``isinstance`` dispatch, where every
  interned ``Expr`` node carries its text, atomic text and size, computed
  once from its children's; ``reference_type_text`` and
  ``reference_type_size`` do the same for types;
* ``enumerate_terms_closure`` grows ground terms by repeated application
  instead of by sized composition;
* ``apply_substitution`` and ``substitute_clause`` replace variables by
  walking a term, where the grounder builds each atom from field values
  through a builder compiled once per literal;
* ``reference_grounding`` grounds by substituting into each clause and
  printing every atom it meets, where the grounder prints from templates
  shared by the clauses of one shape and builds each distinct atom once;
* ``possibly_true`` closes the live ground clauses with their negated
  atoms dropped, one clause at a time, where the grounder joins positive
  atoms semi-naively; ``reference_compile`` keeps the rules it allows;
* ``classical_least_model`` is a plain two-valued immediate-consequence
  closure for negation-free ground programs;
* ``theta_step`` is the reference stage operator: it values every head
  afresh from its rules under the outer and inner interpretations, where
  the engine counts down per rule;
* ``leq`` compares two interpretations in the truth or Fitting order;
  ``is_model`` and ``is_minimal_model`` check a model, and its minimality
  by walking the interpretations below it, on the bitmask view of the
  brute-force oracle in ``hoplog.interp``;
* ``naive_well_founded_model`` iterates ``theta_step`` from the all-false
  start at every stage, where the engine recomputes only the atoms whose
  positive inputs changed;
* ``naive_perfect_model`` iterates the true atoms of ``theta_step`` from
  the empty set at every stratum, where the engine counts down once over
  all strata;
* ``alternating_fixpoint`` computes the well-founded model by Van
  Gelder's alternating fixpoint over the Gelfond-Lifschitz reduct, where
  the engine iterates the two-level stage operators;
* ``reduct_least_model`` and ``is_three_valued_stable`` decide
  three-valued stability (Przymusinski) by a three-valued closure over the
  reduct P/I; ``three_valued_stable_models``, ``fitting_smaller_stable``
  and ``is_fitting_minimal_stable`` walk the candidate interpretations
  themselves instead of using the brute-force oracle in ``hoplog.interp``;
* ``reference_ext_equal`` decides extensional equality by the pairwise
  definition, scanning every argument pair, where ``ExtChecker`` compares
  class ids; ``replay_witness`` recomputes a witness's two valuations on a
  fresh checker;
* ``reference_parser`` declares hoplog's subcommands and options with
  ``argparse``, option by option, where ``hoplog.cli`` parses argv from its
  table ``COMMANDS``;
* ``reference_tokenize`` scans source text character by character, where
  the parser's tokenizer splits it with one regular expression.

``theta_lfp`` is no oracle but the engine under test: the well-founded
engine's inner loop (``wfs._lfp``) run under any outer interpretation,
from counters that ``stage_counters`` builds from scratch for it, so tests
can compare it with ``naive_theta_lfp``.  ``stage_counters`` is also the
yardstick for the counters the engine carries from stage to stage.
``load`` parses and checks program text, ``parse_type`` parses a type's
text, and ``to_source`` prints a checked program back as canonical source.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import random
import sys
from pathlib import Path

from hoplog import cli
from hoplog.errors import (
    DepthExceeded,
    GroundingLimitExceeded,
    ParseError,
    TooLarge,
    UnknownAtom,
)
from hoplog.extensionality import ExtChecker, ValuationOracle, Witness
from hoplog.grounder import (
    DEFAULT_MAX_ATOM_SIZE,
    ConstLit,
    GroundClause,
    GroundProgram,
    Universe,
)
from hoplog.interp import (
    ORACLE_MAX_ATOMS,
    Ordering,
    PartialInterpretation,
    TruthValue,
    _Compiled,
    _submasks,
    interpretation,
)
from hoplog.parser import _Parser, parse_program
from hoplog.syntax import (
    IOTA,
    OMICRON,
    App,
    Arrow,
    Const,
    Eq,
    Expr,
    Neg,
    TypeExpr,
    Var,
    spine,
)
from hoplog.typecheck import Program, check_program, elaborate_ground_atom
from hoplog.wfs import ThetaTrace, WfsResult, _lfp, _to_interp, occurrences


def load(src: str) -> Program:
    return check_program(parse_program(src))


def parse_type(text: str) -> TypeExpr:
    p = _Parser(text)
    typ = p.parse_type()[0]
    p.expect("EOF")
    return typ


def to_source(program: Program) -> str:
    """Canonical source text; parsing it back yields an equal Program."""
    lines = [f"type {name} : {typ}." for name, typ in program.signature.entries]
    lines.extend(str(c) for c in program.clauses)
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Reference printer and sizer (oracles for the interned node fields)
# ---------------------------------------------------------------------------


def reference_print(e: Expr) -> str:
    """Canonical text of e, recomputed from the structure on every call."""
    if isinstance(e, (Const, Var)):
        return e.name
    if isinstance(e, App):
        args = []
        while isinstance(e, App):
            args.append(e.arg)
            e = e.op
        return " ".join([reference_print(e)] + [reference_atomic(a) for a in reversed(args)])
    if isinstance(e, Neg):
        return f"~{reference_atomic(e.atom)}"
    if isinstance(e, Eq):
        return f"{reference_print(e.lhs)} = {reference_print(e.rhs)}"
    raise TypeError(f"not an expression: {e!r}")


def reference_atomic(e: Expr) -> str:
    """``reference_print``, parenthesized when e would not re-parse as one argument."""
    if isinstance(e, App):
        return f"({reference_print(e)})"
    return reference_print(e)


def reference_size(e: Expr) -> int:
    """Constant, function-symbol and predicate-constant occurrences in e."""
    if isinstance(e, Const):
        return 1
    if isinstance(e, Var):
        return 0
    if isinstance(e, App):
        return reference_size(e.op) + reference_size(e.arg)
    if isinstance(e, Neg):
        return reference_size(e.atom)
    if isinstance(e, Eq):
        return reference_size(e.lhs) + reference_size(e.rhs)
    raise TypeError(f"not an expression: {e!r}")


def reference_type_text(t: TypeExpr) -> str:
    """The text of t, an arrow argument parenthesized when it is an arrow."""
    if isinstance(t, Arrow):
        left = reference_type_text(t.argument)
        if isinstance(t.argument, Arrow):
            left = f"({left})"
        return f"{left} -> {reference_type_text(t.result)}"
    if t == IOTA:
        return "i"
    if t == OMICRON:
        return "o"
    raise TypeError(f"not a type: {t!r}")


def reference_type_size(t: TypeExpr) -> int:
    """Arrows and base types in t."""
    if isinstance(t, Arrow):
        return 1 + reference_type_size(t.argument) + reference_type_size(t.result)
    return 1


def reference_classify(entries) -> tuple[dict, dict, dict]:
    """The ``functions``, ``predicates`` and ``producers`` tables of a
    signature's entries, as ``Signature`` keeps them, by recursion on each
    type rather than by ``Signature``'s one loop down its arrows."""

    def is_functional(t: TypeExpr) -> bool:  # i -> ... -> i
        if isinstance(t, Arrow):
            return t.argument == IOTA and is_functional(t.result)
        return t == IOTA

    def is_predicate(t: TypeExpr) -> bool:  # r1 -> ... -> rn -> o, each ri i or a predicate type
        if isinstance(t, Arrow):
            return (t.argument == IOTA or is_predicate(t.argument)) and is_predicate(t.result)
        return t == OMICRON

    def arguments(t: TypeExpr) -> list[TypeExpr]:
        return [t.argument] + arguments(t.result) if isinstance(t, Arrow) else []

    def after(t: TypeExpr, j: int) -> TypeExpr:  # t with its first j arguments taken
        return after(t.result, j - 1) if j else t

    functions, predicates, producers = {}, {}, {}
    for name, t in entries:
        args = arguments(t)
        if is_functional(t):
            functions[name] = len(args)
        elif is_predicate(t):
            predicates[name] = tuple(args)
        else:
            continue
        for j in range(len(args) + 1):
            producers.setdefault(after(t, j), []).append((name, tuple(args[:j])))
    return functions, predicates, producers


# ---------------------------------------------------------------------------
# Independent term enumeration (oracle for the universe builder)
# ---------------------------------------------------------------------------


def enumerate_terms_closure(program: Program, rho: TypeExpr, k: int) -> set[str]:
    """All ground terms of type rho with at most k symbols, by closure.

    Start from the bare constants, function symbols and predicate
    constants, and saturate under single application steps, keeping only
    terms within the size bound.  A function symbol's partial applications
    are built on the way, but no argument type is theirs.  Equivalent to
    the sized enumeration, computed a different way.
    """
    functions, predicates, _ = reference_classify(program.signature.entries)
    terms: dict[str, tuple[Expr, TypeExpr]] = {}

    def add(e: Expr, t: TypeExpr) -> bool:
        key = reference_print(e)
        if reference_size(e) > k or key in terms:
            return False
        terms[key] = (e, t)
        return True

    for name, t in program.signature.entries:
        if name in functions or name in predicates:
            add(Const(name, t), t)
    changed = True
    while changed:
        changed = False
        snapshot = list(terms.values())
        for op, t_op in snapshot:
            if not isinstance(t_op, Arrow):
                continue
            for arg, t_arg in snapshot:
                if t_arg == t_op.argument:
                    if add(App(op, arg), t_op.result):
                        changed = True
    return {key for key, (_, t) in terms.items() if t == rho}


# ---------------------------------------------------------------------------
# Substitution (oracle for the grounder's atom builders)
# ---------------------------------------------------------------------------

# A substitution maps variable names to terms; each variable's type must
# match its replacement's type, which is checked at application sites.
Substitution = dict[str, Expr]


class TypeMismatch(Exception):
    """A substitution maps a variable to a term of another type."""


def apply_substitution(e: Expr, theta: Substitution) -> Expr:
    """Structural replacement of variables; unmapped variables stay put."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        replacement = theta.get(e.name)
        if replacement is None:
            return e
        if replacement.typ != e.typ:
            raise TypeMismatch(
                f"substitution maps {e.name}: {e.typ} to "
                f"{reference_print(replacement)}: {replacement.typ}"
            )
        return replacement
    if isinstance(e, App):
        return App(apply_substitution(e.op, theta), apply_substitution(e.arg, theta))
    if isinstance(e, Neg):
        return Neg(apply_substitution(e.atom, theta))
    if isinstance(e, Eq):
        return Eq(apply_substitution(e.lhs, theta), apply_substitution(e.rhs, theta))
    raise TypeError(f"not an expression: {e!r}")


def substitute_clause(clause, theta: Substitution) -> tuple[Expr, tuple[Expr, ...]]:
    """Instance of a clause under theta: (head atom, body literals)."""
    head = apply_substitution(clause.head_atom(), theta)
    body = tuple(apply_substitution(l, theta) for l in clause.body)
    return head, body


# ---------------------------------------------------------------------------
# Reference grounding (oracle for the template grounder)
# ---------------------------------------------------------------------------


def reference_grounding(program: Program, k: int, roots=None) -> GroundProgram:
    """The grounding by substitution, one instance at a time.

    Each instance is ``substitute_clause`` under its theta, each atom is
    keyed by ``reference_print`` of the substituted expression, and each
    equality is resolved by comparing the two sides' ``reference_print``
    texts.  With ``roots=None`` every clause is grounded over the size-k
    universe; otherwise the dependency closure of the root atom expressions
    is, with head formals bound by matching, and a demanded atom over
    ``DEFAULT_MAX_ATOM_SIZE`` symbols is refused.  The universe terms come from ``Universe``, which
    ``enumerate_terms_closure`` checks on its own.
    """
    universe = Universe(program.signature, k)

    def instances(index: int, base: dict[str, Expr]):
        clause = program.clauses[index]
        free = [v for v in clause.variables() if v.name not in base]
        domains = [universe.terms(v.typ) for v in free]
        for combo in itertools.product(*domains):
            theta = dict(base)
            theta.update(zip((v.name for v in free), combo))
            head, body = substitute_clause(clause, theta)
            lits = []
            for lit in body:
                if isinstance(lit, Eq):
                    lits.append(ConstLit(reference_print(lit.lhs) == reference_print(lit.rhs)))
                else:
                    lits.append(lit)
            yield GroundClause(head, tuple(lits))

    atoms: dict[str, Expr] = {}
    clauses: list[GroundClause] = []
    queue: list[Expr] = []

    def demand(atom: Expr) -> None:
        key = reference_print(atom)
        if reference_size(atom) > DEFAULT_MAX_ATOM_SIZE:
            raise GroundingLimitExceeded(f"{key} is over the atom size cap")
        atoms[key] = atom
        queue.append(atom)

    if roots is None:
        for i in range(len(program.clauses)):
            clauses.extend(instances(i, {}))
    else:
        for expr in roots:
            if reference_print(expr) not in atoms:
                demand(expr)
        while queue:
            head, args = spine(queue.pop(0))
            for i, clause in enumerate(program.clauses):
                if clause.head_pred != head or [f.typ for f in clause.formals] != [
                    a.typ for a in args
                ]:
                    continue
                base = {f.name: a for f, a in zip(clause.formals, args)}
                for gc in instances(i, base):
                    clauses.append(gc)
                    for atom, _ in atom_literals(gc):
                        if reference_print(atom) not in atoms:
                            demand(atom)
    for gc in clauses:
        atoms.setdefault(reference_print(gc.head), gc.head)
        for atom, _ in atom_literals(gc):
            atoms.setdefault(reference_print(atom), atom)
    return ground_program(
        atoms, reference_compile(clauses, atoms), reference_edges(clauses), tuple(clauses)
    )


def ground_program(atoms: dict[str, Expr], rules, predicate_edges, clauses) -> GroundProgram:
    """The ``GroundProgram`` over the atom table ``atoms``, each atom split
    into its parts at its leftmost constant."""
    parts = tuple((head, tuple(args)) for head, args in map(spine, atoms.values()))
    return GroundProgram(tuple(atoms), parts, atoms, rules, predicate_edges, clauses)


def atom_literals(gc: GroundClause):
    """(atom, negated) for each atom literal of a ground clause's body."""
    for lit in gc.body:
        if isinstance(lit, Neg):
            yield lit.atom, True
        elif not isinstance(lit, ConstLit):
            yield lit, False


def is_dead(gc: GroundClause) -> bool:
    """True if a ground clause's body holds a ``false`` literal."""
    return any(isinstance(lit, ConstLit) and not lit.value for lit in gc.body)


def possibly_true(clauses) -> set[str]:
    """The least model of the live clauses with their negated atoms
    dropped: the atoms some stage of either engine can make true."""
    live = [gc for gc in clauses if not is_dead(gc)]
    true: set[str] = set()
    changed = True
    while changed:
        changed = False
        for gc in live:
            if gc.head.text not in true and all(
                atom.text in true for atom, negated in atom_literals(gc) if not negated
            ):
                true.add(gc.head.text)
                changed = True
    return true


def reference_compile(clauses, atoms: dict[str, Expr]) -> tuple:
    """The engines' rules by a second pass over the clauses: atom
    ids in atom-table order, and one ``(positive ids, negative ids)`` rule
    per clause without a ``false`` literal whose positive atoms are all
    ``possibly_true``, ``true`` literals stripped."""
    possible = possibly_true(clauses)
    return unfiltered_compile(
        [gc for gc in clauses if all(a.text in possible for a, neg in atom_literals(gc) if not neg)],
        atoms,
    )


def unfiltered_compile(clauses, atoms: dict[str, Expr]) -> tuple:
    """``reference_compile`` without the possibly-true filter: one rule per
    clause without a ``false`` literal."""
    keys = tuple(atoms)
    ids = {key: i for i, key in enumerate(keys)}
    rules: list[list] = [[] for _ in keys]
    for gc in clauses:
        if is_dead(gc):
            continue
        head = ids[reference_print(gc.head)]
        lits = [(ids[reference_print(atom)], negated) for atom, negated in atom_literals(gc)]
        pos = tuple(a for a, negated in lits if not negated)
        neg = tuple(a for a, negated in lits if negated)
        rules[head].append((pos, neg))
    return tuple(tuple(r) for r in rules)


def compiled_by_key(rules: tuple, keys) -> dict[str, list]:
    """Per head key, the sorted rules as (positive keys, negative keys):
    the rules, over atom ids in the order of ``keys``, with atom ids and
    rule order factored out."""
    keys = tuple(keys)

    def keys_of(ids):
        return tuple(keys[a] for a in ids)

    return {
        keys[h]: sorted((keys_of(pos), keys_of(neg)) for pos, neg in head_rules)
        for h, head_rules in enumerate(rules)
    }


def reference_edges(clauses) -> tuple[tuple[str, str, bool], ...]:
    """(head predicate, literal predicate, negated) for each atom literal of
    each clause, dead ones included, once, in order of first appearance."""
    edges: dict[tuple[str, str, bool], None] = {}
    for gc in clauses:
        head = spine(gc.head)[0].name
        for atom, negated in atom_literals(gc):
            edges[head, spine(atom)[0].name, negated] = None
    return tuple(edges)


# ---------------------------------------------------------------------------
# Classical least model (oracle for negation-free programs)
# ---------------------------------------------------------------------------


def classical_least_model(gp: GroundProgram) -> set[str]:
    """Two-valued least-fixpoint true set; only for negation-free programs."""
    assert is_negation_free(gp)
    true: set[str] = set()
    changed = True
    while changed:
        changed = False
        for gc in gp.clauses:
            if gc.head.text in true or is_dead(gc):
                continue
            if all(atom.text in true for atom, _ in atom_literals(gc)):
                true.add(gc.head.text)
                changed = True
    return true


def is_negation_free(gp: GroundProgram) -> bool:
    return not any(isinstance(l, Neg) for gc in gp.clauses for l in gc.body)


# ---------------------------------------------------------------------------
# Orders and model checks on interpretations
# ---------------------------------------------------------------------------


def everything_false(gp: GroundProgram) -> PartialInterpretation:
    return interpretation(gp, (), gp.atoms.keys())


def leq(
    i1: PartialInterpretation, i2: PartialInterpretation, ordering: Ordering
) -> bool:
    if ordering == Ordering.TRUTH:
        return i1.true_atoms <= i2.true_atoms and i2.false_atoms <= i1.false_atoms
    return i1.true_atoms <= i2.true_atoms and i1.false_atoms <= i2.false_atoms


def masks(compiled: _Compiled, i: PartialInterpretation) -> tuple[int, int]:
    """The bitmasks of i's true and false atoms in the oracle's view of a
    ground program."""
    t = f = 0
    try:
        for k in i.true_atoms:
            t |= 1 << compiled.index[k]
        for k in i.false_atoms:
            f |= 1 << compiled.index[k]
    except KeyError as exc:
        raise UnknownAtom(f"atom {exc.args[0]} is outside the atom table") from None
    return t, f


def is_model(i: PartialInterpretation, gp: GroundProgram) -> bool:
    """Whether no clause of gp has a head value below its body's under i."""
    compiled = _Compiled(gp)
    return compiled.is_model(*masks(compiled, i))


def is_minimal_model(
    gp: GroundProgram, i: PartialInterpretation, ordering: Ordering
) -> bool:
    """Membership in the brute-force minimal set, computed directly.

    Equivalent to ``i in minimal_models_bruteforce(gp, ordering)`` but only
    enumerates the interpretations below i.
    """
    n = len(gp.atoms)
    if n > ORACLE_MAX_ATOMS:
        raise TooLarge(f"{n} atoms exceed the oracle limit of {ORACLE_MAX_ATOMS}")
    compiled = _Compiled(gp)
    tmask, fmask = masks(compiled, i)
    if not compiled.is_model(tmask, fmask):
        return False
    full = (1 << n) - 1
    if ordering == Ordering.FITTING:
        for t in _submasks(tmask):
            for f in _submasks(fmask):
                if (t, f) != (tmask, fmask) and compiled.is_model(t, f):
                    return False
        return True
    for t in _submasks(tmask):
        room = full & ~t & ~fmask
        for extra in _submasks(room):
            f = fmask | extra
            if (t, f) != (tmask, fmask) and compiled.is_model(t, f):
                return False
    return True


# ---------------------------------------------------------------------------
# Reference stage operator, and the engine's inner loop as a probe
# ---------------------------------------------------------------------------

_FALSE, _UNDEFINED, _TRUE = TruthValue.FALSE, TruthValue.UNDEFINED, TruthValue.TRUE


def _head_value(
    rules: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
    jv: list[TruthValue],
    iv: list[TruthValue],
) -> TruthValue:
    """Stage-operator value of one head, given its compiled rules, each a
    (positive atom ids, negative atom ids) pair, the outer values jv and the
    inner values iv."""
    gets_false = True  # vacuously false when no rule exists
    for pos, neg in rules:
        if all(jv[a] == _FALSE for a in neg) and all(
            jv[a] == _TRUE or iv[a] == _TRUE for a in pos
        ):
            return _TRUE
        if gets_false and not (
            any(jv[a] == _TRUE for a in neg)
            or any(jv[a] == _FALSE or iv[a] == _FALSE for a in pos)
        ):
            gets_false = False
    return _FALSE if gets_false else _UNDEFINED


def theta_step(
    J: PartialInterpretation, I: PartialInterpretation, gp: GroundProgram
) -> PartialInterpretation:
    """One application of the stage operator under outer interpretation J."""
    jv = [J.value(k) for k in gp.atoms]
    iv = [I.value(k) for k in gp.atoms]
    return _to_interp([_head_value(rules, jv, iv) for rules in gp.rules], gp)


def stage_counters(gp: GroundProgram, jv: list[TruthValue]) -> dict:
    """The counters an outer stage starts from under the outer values jv,
    built from scratch, keyed by the names that ``wfs.well_founded_model``
    gives them.  Per rule, numbered as ``wfs.occurrences`` numbers them: its
    positive atoms true and false in jv, its negated atoms true and
    undefined in jv, and the inner loop's two counters, set as the engine
    set them afresh at every stage before it kept them across stages.  Per
    head: its rules valued true and undefined by those counters (``rated``,
    by value) and its start value ``top``."""
    heads, bodies, _, _ = occurrences(gp)
    get = jv.__getitem__
    out = {name: [] for name in ("pos_true", "pos_false", "neg_true", "neg_undefined", "t", "d")}
    rated = (None, [0] * len(jv), [0] * len(jv))
    top = [_FALSE] * len(jv)
    for h, (pos, neg) in zip(heads, bodies):
        in_j, neg_j = list(map(get, pos)), list(map(get, neg))
        for name, values, value in (
            ("pos_true", in_j, _TRUE), ("pos_false", in_j, _FALSE),
            ("neg_true", neg_j, _TRUE), ("neg_undefined", neg_j, _UNDEFINED),
        ):
            out[name].append(values.count(value))
        t = d = -1
        most = max(neg_j, default=_FALSE)  # the negated atoms' top value in J
        if most != _TRUE:  # else the rule's body is false
            if most == _FALSE:
                t = len(pos) - in_j.count(_TRUE)
            if _FALSE not in in_j:
                d = len(pos)
        out["t"].append(t)
        out["d"].append(d)
        v = _TRUE if not t else _UNDEFINED if not d else _FALSE
        if v:
            rated[v][h] += 1
            top[h] = max(top[h], v)
    out["rated"], out["top"] = rated, top
    return out


def theta_lfp(J: PartialInterpretation, gp: GroundProgram) -> tuple[PartialInterpretation, int]:
    """The engine under test, not a reference: its inner loop run under any
    outer interpretation J, from the all-false start and from counters
    built from scratch for J (``stage_counters``).  Returns the fixpoint
    and the number of rounds to stabilize."""
    jv = [J.value(k) for k in gp.atoms]
    heads, _, uses, _ = occurrences(gp)
    start = stage_counters(gp, jv)
    values, rounds = _lfp(jv, start["t"], start["d"], start["top"], heads, uses)
    return _to_interp(values, gp), rounds


# ---------------------------------------------------------------------------
# Naive well-founded iteration (reference for the semi-naive inner loop)
# ---------------------------------------------------------------------------


def naive_theta_lfp(J: PartialInterpretation, gp: GroundProgram):
    """theta_step iterated from the all-false interpretation until it
    repeats; returns the fixpoint and the number of applications."""
    current = everything_false(gp)
    rounds = 0
    while True:
        rounds += 1
        nxt = theta_step(J, current, gp)
        if nxt == current:
            return current, rounds
        current = nxt


def naive_psi_lfp(J: PartialInterpretation, gp: GroundProgram) -> set[str]:
    """The two-valued stage operator, the atoms ``theta_step`` makes true
    (it reads the iterate only through its true atoms), iterated from the
    empty set until it repeats."""
    current: set[str] = set()
    while True:
        nxt = set(theta_step(J, interpretation(gp, current), gp).true_atoms)
        if nxt == current:
            return current
        current = nxt


def naive_well_founded_model(gp: GroundProgram) -> WfsResult:
    """The outer stage sequence from everything undefined, each stage the
    naive least fixpoint under the one before, until a stage repeats."""
    current = interpretation(gp)
    stages = [current]
    inner_lengths = []
    while True:
        nxt, rounds = naive_theta_lfp(current, gp)
        inner_lengths.append(rounds)
        if nxt == current:
            return WfsResult(current, ThetaTrace(tuple(stages), tuple(inner_lengths)))
        stages.append(nxt)
        current = nxt


def naive_perfect_model(
    gp: GroundProgram, strata: tuple[tuple[int, ...], ...]
) -> tuple[PartialInterpretation, ...]:
    """The perfect-model stages from everything undefined: per stratum
    alpha, given as atom ids, the naive psi fixpoint under the stage before,
    with the other atoms of strata 1..alpha false."""
    keys = tuple(gp.atoms)
    current = interpretation(gp)
    stages = [current]
    sealed: set[str] = set()
    for ids in strata:
        derived = naive_psi_lfp(current, gp)
        sealed.update(keys[a] for a in ids)
        current = PartialInterpretation(
            frozenset(derived), frozenset(sealed - derived), current.universe
        )
        stages.append(current)
    return tuple(stages)


# ---------------------------------------------------------------------------
# Alternating fixpoint (oracle for the well-founded model at scale)
# ---------------------------------------------------------------------------


def alternating_fixpoint(gp: GroundProgram) -> PartialInterpretation:
    """The well-founded model by the alternating fixpoint (Van Gelder, "The
    alternating fixpoint of logic programs with negation", PODS 1989).

    Gamma(I) is the least model of the Gelfond-Lifschitz reduct P^I: drop
    each clause with a ``~b``, b in I, and the negative literals of the
    rest.  Gamma is antimonotone, so Gamma^2 is monotone; the true atoms are
    lfp(Gamma^2), and the false atoms are those outside Gamma(lfp Gamma^2).
    Each least model counts down, per clause, the positive body atoms not
    yet derived, so one Gamma is linear in the size of the program.
    """
    clauses = []  # (head, positive atoms, negated atoms) of the clauses without false
    for gc in gp.clauses:
        if is_dead(gc):
            continue
        pos = [atom.text for atom, negated in atom_literals(gc) if not negated]
        neg = [atom.text for atom, negated in atom_literals(gc) if negated]
        clauses.append((gc.head.text, pos, neg))
    watchers: dict[str, list[int]] = {key: [] for key in gp.atoms}
    for i, (_, pos, _) in enumerate(clauses):
        for b in pos:
            watchers[b].append(i)

    def gamma(assumed: set[str]) -> set[str]:
        waiting = [
            None if not assumed.isdisjoint(neg) else len(pos)
            for _, pos, neg in clauses
        ]
        derived: set[str] = set()
        todo = [head for (head, _, _), w in zip(clauses, waiting) if w == 0]
        while todo:
            atom = todo.pop()
            if atom in derived:
                continue
            derived.add(atom)
            for i in watchers[atom]:
                if waiting[i] is not None:
                    waiting[i] -= 1
                    if waiting[i] == 0:
                        todo.append(clauses[i][0])
        return derived

    true: set[str] = set()
    while True:
        nxt = gamma(gamma(true))
        if nxt == true:
            break
        true = nxt
    return PartialInterpretation(
        frozenset(true), frozenset(gp.atoms) - frozenset(gamma(true)), frozenset(gp.atoms)
    )


# ---------------------------------------------------------------------------
# Three-valued stable models (oracle for the well-founded model)
# ---------------------------------------------------------------------------

# Truth values are ``TruthValue`` members, integers in the truth order
# (``_FALSE``, ``_UNDEFINED`` and ``_TRUE`` above); ~v is 2 - v.


def reduct_least_model(gp: GroundProgram, i: PartialInterpretation) -> PartialInterpretation:
    """The truth-least three-valued model of the reduct P/I.

    P/I is P with every ``~b`` replaced by the constant value of ``~b``
    under I, so it is negation-free with three-valued constants.  Its least
    model is the closure, from all-false, of head := max(head, min(body)).
    """
    value = {key: _FALSE for key in gp.atoms}
    changed = True
    while changed:
        changed = False
        for gc in gp.clauses:
            head = gc.head.text
            if value[head] == _TRUE:
                continue
            body = _TRUE
            for lit in gc.body:
                if isinstance(lit, ConstLit):
                    v = _TRUE if lit.value else _FALSE
                elif isinstance(lit, Neg):
                    v = _TRUE - i.value(lit.atom.text)
                else:
                    v = value[lit.text]
                body = min(body, v)
                if body == _FALSE:
                    break
            if body > value[head]:
                value[head] = body
                changed = True
    return PartialInterpretation(
        frozenset(k for k, v in value.items() if v == _TRUE),
        frozenset(k for k, v in value.items() if v == _FALSE),
        frozenset(gp.atoms),
    )


def is_three_valued_stable(gp: GroundProgram, i: PartialInterpretation) -> bool:
    """I is three-valued stable iff I is the least model of P/I."""
    return reduct_least_model(gp, i) == i


def three_valued_stable_models(
    gp: GroundProgram, limit: int = 8
) -> list[PartialInterpretation]:
    """Every three-valued stable model, by walking all 3^|atoms|
    interpretations; sorted like ``minimal_models_bruteforce``."""
    keys = list(gp.atoms)
    assert len(keys) <= limit, f"{len(keys)} atoms exceed the limit of {limit}"
    out = []
    for values in itertools.product((_FALSE, _UNDEFINED, _TRUE), repeat=len(keys)):
        i = PartialInterpretation(
            frozenset(k for k, v in zip(keys, values) if v == _TRUE),
            frozenset(k for k, v in zip(keys, values) if v == _FALSE),
            frozenset(keys),
        )
        if is_three_valued_stable(gp, i):
            out.append(i)
    out.sort(key=lambda m: (sorted(m.true_atoms), sorted(m.false_atoms)))
    return out


def _subsets(items: frozenset[str]):
    ordered = sorted(items)
    for r in range(len(ordered) + 1):
        for combo in itertools.combinations(ordered, r):
            yield frozenset(combo)


def fitting_below(i: PartialInterpretation):
    """Every interpretation strictly below I in the Fitting (knowledge)
    order: <T', F'> with T' a subset of T, F' a subset of F, not both equal."""
    for t in _subsets(i.true_atoms):
        for f in _subsets(i.false_atoms):
            if t != i.true_atoms or f != i.false_atoms:
                yield PartialInterpretation(t, f, i.universe)


def fitting_smaller_stable(
    gp: GroundProgram, i: PartialInterpretation, limit: int = 12
) -> PartialInterpretation | None:
    """A three-valued stable model strictly Fitting-below I, or None.

    Walks the 2^|T| * 2^|F| interpretations below I, so the atom table is
    capped like the brute-force oracle's.
    """
    assert len(gp.atoms) <= limit, f"{len(gp.atoms)} atoms exceed the limit of {limit}"
    return next((j for j in fitting_below(i) if is_three_valued_stable(gp, j)), None)


def is_fitting_minimal_stable(
    gp: GroundProgram, i: PartialInterpretation, limit: int = 12
) -> bool:
    """I is three-valued stable and no strictly Fitting-smaller
    interpretation is; the well-founded model must pass this."""
    return is_three_valued_stable(gp, i) and fitting_smaller_stable(gp, i, limit) is None


# ---------------------------------------------------------------------------
# Random well-typed program generator (round-trip and fuzz fodder)
# ---------------------------------------------------------------------------

_PRED_TYPE_POOL: list[TypeExpr] = [
    OMICRON,
    Arrow(IOTA, OMICRON),
    Arrow(IOTA, Arrow(IOTA, OMICRON)),
    Arrow(Arrow(IOTA, OMICRON), OMICRON),
    Arrow(OMICRON, OMICRON),
    Arrow(Arrow(OMICRON, OMICRON), OMICRON),
]


def random_program_source(rng: random.Random) -> str:
    """A syntactically well-typed random program, as source text."""
    lines = []
    n_ind = rng.randint(1, 3)
    individuals = [f"c{i}" for i in range(n_ind)]
    for c in individuals:
        lines.append(f"type {c} : i.")
    functions = []
    if rng.random() < 0.3:
        functions.append(("f0", rng.randint(1, 2)))
        for fname, arity in functions:
            lines.append(f"type {fname} : {' -> '.join(['i'] * (arity + 1))}.")
    preds = []
    for i in range(rng.randint(1, 4)):
        preds.append((f"p{i}", rng.choice(_PRED_TYPE_POOL)))
    for name, t in preds:
        lines.append(f"type {name} : {t}.")
    env: dict[str, TypeExpr] = {}

    def gen_ind_term(depth: int) -> str:
        if functions and depth > 0 and rng.random() < 0.4:
            fname, arity = functions[0]
            args = " ".join(_paren(gen_ind_term(depth - 1)) for _ in range(arity))
            return f"{fname} {args}"
        if env and rng.random() < 0.4:
            ind_vars = [v for v, t in env.items() if t == IOTA]
            if ind_vars:
                return rng.choice(ind_vars)
        return rng.choice(individuals)

    def gen_term(target: TypeExpr, depth: int) -> str | None:
        if target == IOTA:
            return gen_ind_term(depth)
        candidates: list[str] = [n for n, t in preds if t == target]
        candidates += [v for v, t in env.items() if t == target]
        partials = []
        if depth > 0:
            for n, t in preds:
                args = []
                cur = t
                while isinstance(cur, Arrow) and cur != target:
                    args.append(cur.argument)
                    cur = cur.result
                if cur == target and args:
                    partials.append((n, args))
        if partials and (not candidates or rng.random() < 0.4):
            n, args = rng.choice(partials)
            rendered = []
            for at in args:
                sub = gen_term(at, depth - 1)
                if sub is None:
                    return rng.choice(candidates) if candidates else None
                rendered.append(_paren(sub))
            return f"{n} {' '.join(rendered)}"
        if candidates:
            return rng.choice(candidates)
        return None

    def gen_literal(depth: int) -> str | None:
        roll = rng.random()
        if roll < 0.2:
            return f"{gen_ind_term(depth)} = {gen_ind_term(depth)}"
        atom = gen_term(OMICRON, depth)
        if atom is None:
            return None
        if roll < 0.5:
            return f"~{_paren(atom)}"
        return atom

    for ci in range(rng.randint(1, 4)):
        name, t = rng.choice(preds)
        argtypes = []
        cur = t
        while isinstance(cur, Arrow):
            argtypes.append(cur.argument)
            cur = cur.result
        env.clear()
        formals = []
        for j, at in enumerate(argtypes):
            v = f"V{ci}{j}"
            env[v] = at
            formals.append(v)
        head = " ".join([name] + formals)
        body = [l for l in (gen_literal(2) for _ in range(rng.randint(0, 3))) if l]
        if body:
            lines.append(f"{head} <- {', '.join(body)}.")
        else:
            lines.append(f"{head}.")
    return "\n".join(lines) + "\n"


def _paren(text: str) -> str:
    return f"({text})" if " " in text else text


# ---------------------------------------------------------------------------
# Reference extensional equality (the pairwise definition)
# ---------------------------------------------------------------------------


def reference_ext_equal(
    oracle: ValuationOracle,
    universe: Universe,
    rho: TypeExpr,
    d: Expr,
    dprime: Expr,
    memo: dict | None = None,
) -> bool:
    """d = d' at rho by the bounded pairwise definition: identity at i,
    equal value at o, and at sigma -> tau every pair of equal size-k
    arguments, in canonical product order, gives equal applications.

    Returns True or False, or raises ``DepthExceeded`` at the first atom over
    the oracle's budget that the scan meets before it meets a failing pair.
    ``memo`` may carry decided pairs, and raised ones, from one call to the
    next.
    """
    if memo is None:
        memo = {}
    if rho == IOTA:
        return reference_print(d) == reference_print(dprime)
    if rho == OMICRON:
        return oracle.value(d) == oracle.value(dprime)
    assert isinstance(rho, Arrow)
    key = (rho, reference_print(d), reference_print(dprime))
    if key not in memo:
        result: bool | DepthExceeded = True
        try:
            for e, eprime in itertools.product(universe.terms(rho.argument), repeat=2):
                if not reference_ext_equal(oracle, universe, rho.argument, e, eprime, memo):
                    continue
                if not reference_ext_equal(
                    oracle, universe, rho.result, App(d, e), App(dprime, eprime), memo
                ):
                    result = False
                    break
        except DepthExceeded as exc:
            result = exc
        memo[key] = result
    if isinstance(memo[key], DepthExceeded):
        raise memo[key]
    return memo[key]


def replay_witness(program: Program, w: Witness, k: int, budget: int | None = None) -> bool:
    """Recompute the two recorded valuations; True when they match the report."""
    checker = ExtChecker(program, k, budget)
    lhs = elaborate_ground_atom(program, w.lhs_atom)
    rhs = elaborate_ground_atom(program, w.rhs_atom)
    lv = checker.oracle.value(lhs)
    rv = checker.oracle.value(rhs)
    return str(lv) == w.lhs_value and str(rv) == w.rhs_value and lv != rv


# ---------------------------------------------------------------------------
# Random stratified program generator
# ---------------------------------------------------------------------------


def random_stratified_source(rng: random.Random) -> str:
    """A stratified program: <= 3 strata of first-order predicates under up
    to 2 higher-order predicates that consume unary relations.

    Negative literals only mention predicates of strictly lower strata.
    Variable-headed literals appear only in the higher-order stratum, where
    every predicate whose type could match sits strictly below.
    """
    individuals = ["a", "b"]
    lines = [f"type {c} : i." for c in individuals]
    # Two first-order levels plus the higher-order level keeps the canonical
    # stratification within three strata.
    strata: list[list[tuple[str, TypeExpr]]] = [[], []]
    counter = 0
    for level in range(2):
        for _ in range(rng.randint(1, 2)):
            t = rng.choice([OMICRON, Arrow(IOTA, OMICRON)])
            if counter == 0:
                t = Arrow(IOTA, OMICRON)  # higher-order clauses need one unary
            strata[level].append((f"r{counter}", t))
            counter += 1
    ho_preds = []
    for i in range(rng.randint(0, 2)):
        ho_preds.append((f"h{i}", Arrow(Arrow(IOTA, OMICRON), OMICRON)))
    for level in strata:
        for name, t in level:
            lines.append(f"type {name} : {t}.")
    for name, t in ho_preds:
        lines.append(f"type {name} : {t}.")

    def atom_of(pred: tuple[str, TypeExpr], var: str | None = None) -> str:
        name, t = pred
        if t == OMICRON:
            return name
        arg = var if var is not None else rng.choice(individuals)
        return f"{name} {arg}"

    clause_no = 0
    for level in range(2):
        below = [p for lv in strata[:level] for p in lv]
        here = strata[level]
        for pred in here:
            for _ in range(rng.randint(1, 2)):
                name, t = pred
                var = None
                if t == OMICRON:
                    head = name
                else:
                    var = f"X{clause_no}"
                    head = f"{name} {var}"
                clause_no += 1
                body = []
                if var is not None:
                    # Ground the head variable so the model stays two-valued.
                    body.append(f"{var} = {rng.choice(individuals)}")
                for _ in range(rng.randint(0, 2)):
                    pool = below + here
                    roll = rng.random()
                    if below and roll < 0.4:
                        body.append(f"~{_paren(atom_of(rng.choice(below)))}")
                    elif pool and roll < 0.9:
                        body.append(atom_of(rng.choice(pool)))
                if body:
                    lines.append(f"{head} <- {', '.join(body)}.")
                else:
                    lines.append(f"{head}.")
    unary = [p for lv in strata for p in lv if p[1] != OMICRON]
    for name, _t in ho_preds:
        for _ in range(rng.randint(1, 2)):
            clause_no += 1
            qvar = f"Q{clause_no}"
            head = f"{name} {qvar}"
            body = []
            use_neg = rng.random() < 0.5
            applied = f"{qvar} {rng.choice(individuals)}"
            body.append(f"~({applied})" if use_neg else applied)
            if unary and rng.random() < 0.5:
                body.append(f"~{_paren(atom_of(rng.choice(unary)))}")
            lines.append(f"{head} <- {', '.join(body)}.")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random ground programs (for the engine differential tests)
# ---------------------------------------------------------------------------


def random_ground_source(rng: random.Random, n_atoms: int = 5) -> str:
    """A random propositional program over nullary predicates."""
    names = [f"g{i}" for i in range(n_atoms)]
    lines = [f"type {n} : o." for n in names]
    for _ in range(rng.randint(1, 2 * n_atoms)):
        head = rng.choice(names)
        body = []
        for _ in range(rng.randint(0, 3)):
            atom = rng.choice(names)
            body.append(f"~{atom}" if rng.random() < 0.4 else atom)
        if body:
            lines.append(f"{head} <- {', '.join(body)}.")
        else:
            lines.append(f"{head}.")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random lemma-1 style programs (non-extensional ones among them)
# ---------------------------------------------------------------------------


def random_witness_source(rng: random.Random) -> str:
    """A higher-order program with negation through predicate variables, in
    the spirit of lemma 1: a few ``o -> o`` predicates (plain identities,
    identities through a pair of negations, flippers), some nullary atoms,
    and consumers of type ``(o -> o) -> o`` that feed a predicate variable
    an atom built from the consumer itself, such as ``s Q <- Q (s Q)``.
    """
    lines = []
    clauses = []
    atoms = [f"z{i}" for i in range(rng.randint(1, 2))]
    for name in atoms:
        lines.append(f"type {name} : o.")
        clauses.append(rng.choice([f"{name}.", f"{name} <- ~{name}.", f"{name} <- {name}."]))
    unary = [f"p{i}" for i in range(rng.randint(2, 4))]
    for i, name in enumerate(unary):
        lines.append(f"type {name} : o -> o.")
        roll = rng.random()
        if roll < 0.3:
            clauses.append(f"{name} R <- R.")
        elif roll < 0.7:
            # an identity through two negations, as q in lemma 1
            lines.append(f"type n{i} : o -> o.")
            clauses.append(f"{name} R <- ~(n{i} R).")
            clauses.append(f"n{i} R <- ~R.")
        elif roll < 0.85:
            clauses.append(f"{name} R <- ~R.")
        else:
            clauses.append(f"{name} R <- {rng.choice(unary)} R.")
    for i in range(rng.randint(1, 2)):
        name = f"s{i}"
        lines.append(f"type {name} : (o -> o) -> o.")
        body = rng.choice(
            [f"Q ({name} Q)", f"~(Q ({name} Q))", f"Q ({name} Q), {rng.choice(atoms)}"]
        )
        clauses.append(f"{name} Q <- {body}.")
    rng.shuffle(clauses)
    return "\n".join(lines + clauses) + "\n"


def reference_parser() -> argparse.ArgumentParser:
    """hoplog's command line declared with argparse, written out by hand
    rather than read from ``cli.COMMANDS``, with prefix abbreviations
    refused.  It still accepts ``--``, which hoplog refuses."""
    top = argparse.ArgumentParser(prog="hoplog", allow_abbrev=False)
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, grounds=True):
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("input")
        if grounds:
            p.add_argument("--depth", type=int, default=3)
            p.add_argument("--roots", default="")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(func=func)
        return p

    command("check", cli.cmd_check, grounds=False)
    command("ground", cli.cmd_ground)
    command("wfs", cli.cmd_wfs)
    command("perfect", cli.cmd_perfect)
    command("stratify", cli.cmd_stratify, grounds=False)
    command("extcheck", cli.cmd_extcheck).add_argument("--budget", type=int, default=None)
    command("minimal", cli.cmd_minimal).add_argument(
        "--ordering", choices=("truth", "fitting"), default="fitting"
    )
    demo = sub.add_parser("demo", allow_abbrev=False)
    demo.add_argument("name", choices=("lemma1", "bezem", "stratified"))
    demo.add_argument("--format", choices=("json", "text"), default="json")
    demo.set_defaults(func=cli.cmd_demo)
    return top


_PUNCT = {
    "->": "ARROW",
    "<-": "LARROW",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
    "~": "TILDE",
    "=": "EQUALS",
    ":": "COLON",
}


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, column)`` of each token and the ``EOF`` token,
    by a character loop; raises the parser's ``ParseError`` texts."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i) or text.startswith("<-", i):
            two = text[i : i + 2]
            tokens.append((_PUNCT[two], two, line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


def nested_term(levels: int) -> str:
    """An individual term whose nesting is exactly ``levels`` by the
    parser's count: ``f (f (... a))``, each ``f (`` two levels."""
    text = "a" if levels % 2 == 0 else "f a"
    for _ in range(levels // 2):
        text = f"f ({text})"
    return text


def sinking_term(levels: int, width: int) -> str:
    """``g (g (... a ...) a ...) a ...``: at each of ``levels`` levels, a
    parenthesised argument and ``width`` more after it.  An application
    leans left, so each level sits ``width + 2`` levels below the one
    that holds it."""
    text = "a"
    for _ in range(levels):
        text = f"g ({text})" + " a" * width
    return text


def bench_workloads():
    """``bench/workloads.py``, loaded by path and only read: its pools are
    the benchmark's programs, with no hoplog import."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return module
