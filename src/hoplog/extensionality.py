"""Extensional-equality relations and the reflexivity check.

Two ground terms are extensionally equal at a type, under a valuation:

* individuals: syntactic identity;
* booleans: equal valuation;
* arrow types: applying them to any pair of extensionally equal arguments
  (where both applications are defined) yields extensionally equal results.

The full relations quantify over infinite universes, so every verdict here
is bounded: arguments range over the size-k universe and valuations are the
well-founded values over a demand-driven grounding, computed lazily as new
atoms are needed.  A failed reflexivity check is a genuine counterexample;
a clean one only certifies extensionality at the tested depth.  Valuations
whose atoms exceed the total size budget abort that item with
``DepthExceeded`` and are reported as unknown rather than false.

Arguments of boolean type range over atoms only: application never consumes
a negated or equality expression, which is exactly why elements of
boolean-consuming types denote partial functions.
"""

from __future__ import annotations

from itertools import product

from .errors import DepthExceeded
from .grounder import Universe, argument_types, relevant_grounding
from .interp import PartialInterpretation, TruthValue
from .records import Record
from .syntax import (
    IOTA,
    OMICRON,
    App,
    Arrow,
    Expr,
    TypeExpr,
    build_spine,
    predicate_arg_types,
)
from .typecheck import Program
from .wfs import well_founded_model

DEFAULT_BUDGET_FACTOR = 4

# The class of a term whose computation met an atom over the size budget.
_EXCEEDED = object()
_MISSING = object()


class Witness(Record):
    """A replayable reflexivity failure.

    Applying ``term`` to the two sides of ``pair`` (then to the recorded
    further arguments) produced ``lhs_atom`` and ``rhs_atom`` with different
    values under the checked model.
    """

    __slots__ = ("rho", "term", "pair", "lhs_atom", "rhs_atom", "lhs_value", "rhs_value")

    def to_json_dict(self) -> dict:
        return {
            "type": self.rho,
            "term": self.term,
            "argument_pair": list(self.pair),
            "lhs_atom": self.lhs_atom,
            "rhs_atom": self.rhs_atom,
            "lhs_value": self.lhs_value,
            "rhs_value": self.rhs_value,
        }


class UnknownItem(Record):
    __slots__ = ("rho", "term", "reason")

    def to_json_dict(self) -> dict:
        return {"type": self.rho, "term": self.term, "reason": self.reason}


class ExtReport(Record):
    __slots__ = ("depth", "budget", "witnesses", "unknowns", "checked_types", "checked_terms")

    @property
    def extensional_at_depth(self) -> bool:
        return not self.witnesses

    @property
    def verdict(self) -> str:
        if self.witnesses:
            return "non-extensional"
        return f"extensional-at-depth-{self.depth}"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "depth": self.depth,
            "budget": self.budget,
            "checked_types": list(self.checked_types),
            "checked_terms": self.checked_terms,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "unknown": [u.to_json_dict() for u in self.unknowns],
        }


class ValuationOracle:
    """Well-founded values over a growing demand grounding.

    Extending the root set only ever adds dependency cones, so values of
    previously known atoms never change; recomputing from scratch after each
    extension is therefore sound (and kept deliberately simple).
    """

    def __init__(self, program: Program, k: int, budget: int):
        self.program = program
        self.k = k
        self.budget = budget
        self._roots: dict[str, Expr] = {}
        self._model: PartialInterpretation | None = None

    def add_atoms(self, atoms) -> None:
        added = False
        for expr in atoms:
            key = expr.text
            if key not in self._roots and expr.size <= self.budget:
                self._roots[key] = expr
                added = True
        if added:
            self._model = None

    def _solve(self) -> PartialInterpretation:
        if self._model is None:
            gp = relevant_grounding(self.program, self._roots.values(), self.k)
            self._model = well_founded_model(gp).model
        return self._model

    def value(self, atom: Expr) -> TruthValue:
        if atom.size > self.budget:
            raise DepthExceeded(
                f"{atom.text} exceeds the size budget {self.budget}"
            )
        key = atom.text
        if key not in self._roots:
            self.add_atoms([atom])
        model = self._solve()
        return model.value(key)


class ExtChecker:
    """Class ids and universes shared by a family of extensionality queries.

    The relations are partial equivalences (after Bezem): d and d' are
    equal at a type exactly when both are reflexive there and have the same
    class.  ``_class`` computes a term's class once per type, bottom-up: the
    term itself at i, its value at o, and at sigma -> tau a small integer
    for the tuple of tau-classes that the term takes on the sigma-classes,
    in canonical order.  Only the search for a witness, and any decision
    that met an atom over the size budget, scan argument pairs.
    """

    def __init__(self, program: Program, k: int, budget: int | None = None):
        if k < 1:
            raise ValueError("depth bound k must be >= 1")
        self.program = program
        self.k = k
        self.budget = budget if budget is not None else DEFAULT_BUDGET_FACTOR * k
        self.universe = Universe(program.signature, k)
        self.oracle = ValuationOracle(program, k, self.budget)
        # per type: term -> class id, None (not reflexive) or _EXCEEDED
        self._classes: dict[TypeExpr, dict[Expr, object]] = {}
        # per arrow type: tuple of result-class ids -> class id
        self._ids: dict[TypeExpr, dict[tuple, int]] = {}
        # per argument type: class -> its reflexive size-k terms, or None
        self._partitions: dict[TypeExpr, dict[object, list[Expr]] | None] = {}

    def _seed_applications(self, rho: TypeExpr) -> None:
        """Register every full application of size-k terms of type rho up
        front, so the demand grounding is solved once per type rather than
        once per atom."""
        pools = [self.universe.terms(t) for t in predicate_arg_types(rho)]
        self.oracle.add_atoms([build_spine(term, combo) for term in self.universe.terms(rho)
                               for combo in product(*pools)])

    # -- classes ---------------------------------------------------------------

    def _class(self, rho: TypeExpr, d: Expr) -> object:
        """d's class at rho: None when d is not reflexive, ``_EXCEEDED`` when
        computing it needed an atom over the size budget."""
        if rho == IOTA:
            return d
        memo = self._classes.get(rho)
        if memo is None:
            self._seed_applications(rho)
            memo = self._classes[rho] = {}
        c = memo.get(d, _MISSING)
        if c is _MISSING:
            c = memo[d] = self._new_class(rho, d)
        return c

    def _new_class(self, rho: TypeExpr, d: Expr) -> object:
        if rho == OMICRON:
            try:
                return self.oracle.value(d)
            except DepthExceeded:
                return _EXCEEDED
        assert isinstance(rho, Arrow)
        partition = self._partition(rho.argument)
        if partition is None:
            return _EXCEEDED
        # Every application is classed before the verdict, so that a class
        # other than _EXCEEDED certifies that no scan from d meets the budget.
        key = []
        for group in partition.values():
            ids = {self._class(rho.result, App(d, e)) for e in group}
            if _EXCEEDED in ids:
                return _EXCEEDED
            key.append(ids.pop() if len(ids) == 1 else None)
        if None in key:
            return None
        ids = self._ids.setdefault(rho, {})
        return ids.setdefault(tuple(key), len(ids))

    def _partition(self, sigma: TypeExpr) -> dict[object, list[Expr]] | None:
        """The reflexive size-k terms of sigma grouped by class, classes in
        order of first appearance; None if a class exceeded the budget."""
        if sigma not in self._partitions:
            groups: dict[object, list[Expr]] = {}
            for e in self.universe.terms(sigma):
                c = self._class(sigma, e)
                if c is not None:
                    groups.setdefault(c, []).append(e)
            self._partitions[sigma] = None if _EXCEEDED in groups else groups
        return self._partitions[sigma]

    # -- the relations ---------------------------------------------------------

    def equal(self, rho: TypeExpr, d: Expr, dprime: Expr) -> bool:
        c, cprime = self._class(rho, d), self._class(rho, dprime)
        if c is _EXCEEDED or cprime is _EXCEEDED:
            return self._check_reflexive(rho, d, dprime) is None
        return c is not None and c == cprime

    # -- reflexivity -----------------------------------------------------------

    def _check_reflexive(self, rho: TypeExpr, d: Expr, dprime: Expr) -> tuple | None:
        """The first failing branch of d = d' at rho, scanning argument pairs
        in canonical order so witnesses are minimal: None, or the tuple
        (outermost argument pair, lhs atom, rhs atom, lhs value, rhs value).

        Equal classes answer at once.  Otherwise the scan visits only the
        pairs of equal arguments, and it meets ``DepthExceeded`` at the same
        atom as the plain pairwise scan would.
        """
        if rho == OMICRON:
            lv, rv = self.oracle.value(d), self.oracle.value(dprime)
            if lv != rv:
                return None, d.text, dprime.text, lv, rv
            return None
        c = self._class(rho, d)
        if c is not None and c is not _EXCEEDED and c == self._class(rho, dprime):
            return None
        assert isinstance(rho, Arrow)
        sigma = rho.argument
        terms = self.universe.terms(sigma)
        partition = self._partition(sigma)
        for e in terms:
            # the pairs skipped here are the ones whose classes differ
            group = terms if partition is None else partition.get(self._class(sigma, e), ())
            for eprime in group:
                if not self.equal(sigma, e, eprime):
                    continue
                fail = self._check_reflexive(rho.result, App(d, e), App(dprime, eprime))
                if fail is not None:
                    return (e.text, eprime.text), *fail[1:]
        return None

    def reflexivity_report(self) -> ExtReport:
        report = ExtReport(self.k, self.budget, [], [], [], 0)
        for rho in argument_types(self.program):
            report.checked_types.append(str(rho))
            if rho in (IOTA, OMICRON):
                # Reflexive outright: identity at i, v(E) = v(E) at o.
                report.checked_terms += len(self.universe.terms(rho))
                continue
            for term in self.universe.terms(rho):
                report.checked_terms += 1
                try:
                    fail = self._check_reflexive(rho, term, term)
                except DepthExceeded as exc:
                    report.unknowns.append(
                        UnknownItem(str(rho), term.text, str(exc))
                    )
                    continue
                if fail is not None:
                    pair, lhs, rhs, lv, rv = fail
                    report.witnesses.append(
                        Witness(str(rho), term.text, pair, lhs, rhs, str(lv), str(rv))
                    )
        return report
