"""Well-founded model computation by iterated stage operators.

The engine follows the two-level construction for possibly-negated ground
programs: an inner operator (parameterized by a fixed outer interpretation
J) is iterated to its least fixed point from the all-false interpretation,
and the outer sequence M_0 = <{}, {}>, M_{a+1} = lfp(inner under M_a) climbs
in the Fitting order until it stabilizes.  On a finite atom table both
iterations terminate; the final stage is the well-founded model.

Negative literals are evaluated against J only; positive literals may draw
on either J or the inner iterate.  Atoms with no live clauses are false.

Both iterations run on the grounding's rules (``GroundProgram.rules``):
integer atom ids, per-head rules, no dead clauses.  J and the stages are
value vectors indexed by atom id.  Only the model becomes a
``PartialInterpretation`` at once; the trace's stages are built from their
vectors the first time they are read.

The inner loop counts instead of rescanning, after Dowling and Gallier's
linear-time Horn least model (J. Logic Programming, 1984): see ``_lfp``.
The counter records are built once per model and reset at each stage, so a
stage's Python-level loops run over the rules and the atoms that change;
the atom table is met only by whole-list operations, such as comparing
stages.  Rounds are synchronous, each reading only the previous round's
values, so the stages and round counts are those of naive iteration of the
stage operator; a differential test checks this against the reference
operator ``theta_step`` in ``tests/helpers.py``.
"""

from __future__ import annotations

from itertools import compress
from operator import ne

from .errors import NotIncreasing
from .grounder import GroundProgram
from .interp import PartialInterpretation, TruthValue, interpretation
from .records import FrozenRecord, built_when_read


class ThetaTrace(FrozenRecord):
    """Outer stages M_0..M_lambda and the inner iteration length per stage.
    ``stages`` is given either as a tuple or as a function that builds the
    tuple the first time ``stages`` is read."""

    __slots__ = ("_stages", "inner_lengths")
    _fields = ("stages", "inner_lengths")
    stages = built_when_read("_stages")

    @property
    def fixpoint_stage(self) -> int:
        return len(self.inner_lengths) - 1


class WfsResult(FrozenRecord):
    __slots__ = ("model", "trace")


_FALSE, _UNDEFINED, _TRUE = TruthValue.FALSE, TruthValue.UNDEFINED, TruthValue.TRUE


def _to_interp(values: list[TruthValue], gp: GroundProgram) -> PartialInterpretation:
    split = ([], [], [])  # the keys valued false, undefined and true, in one pass
    for k, v in zip(gp.texts, values):
        split[v].append(k)
    return interpretation(gp, split[_TRUE], split[_FALSE])


def occurrences(gp: GroundProgram) -> tuple[list[list], list]:
    """A record ``[head, need_true, need_defined, positive ids, negative
    ids]`` per rule, counters unset, and per atom id the records of the
    rules that hold it positively, once per occurrence: a list only for an
    atom that some rule holds so, the empty tuple for any other."""
    uses = [()] * len(gp.rules)
    records = []
    for h in compress(range(len(gp.rules)), gp.rules):  # the heads of rules
        for pos, neg in gp.rules[h]:
            rule = [h, -1, -1, pos, neg]
            records.append(rule)
            for a in pos:
                if uses[a]:
                    uses[a].append(rule)
                else:
                    uses[a] = [rule]
    return records, uses


def _lfp(jv: list[TruthValue], records: list, uses: list) -> tuple[list[TruthValue], int]:
    """Least fixed point of the stage operator under the outer values jv,
    from the all-false start, and the number of rounds to stabilize.

    A rule with a negated atom true in J is dropped.  Each other rule counts
    its positive atoms not yet true, in J or inside (kept when its negated
    atoms are all false in J), and those still false inside (kept when none
    is false in J).  Its head becomes true when the first count reaches
    zero, and otherwise undefined when the second one does."""
    n, get = len(jv), jv.__getitem__
    # A counter the rule does not keep is -1, so never reaches zero.
    top = [_FALSE] * n  # per head, the value its rules' counters give
    dirty = []  # the heads that top raises above false, once each
    for rule in records:
        h, _, _, pos, neg = rule
        t = d = -1
        most = max(map(get, neg)) if neg else _FALSE  # the negated atoms' top value in J
        if most != _TRUE:  # else the rule's body is false
            if pos:
                in_j = list(map(get, pos))
                if most == _FALSE:
                    t = len(pos) - in_j.count(_TRUE)
                if _FALSE not in in_j:
                    d = len(pos)
            else:  # no positive atom to count
                t, d = (0 if most == _FALSE else -1), 0
        rule[1], rule[2] = t, d
        v = _TRUE if not t else _UNDEFINED if not d else _FALSE
        if v > top[h]:
            if not top[h]:
                dirty.append(h)
            top[h] = v
    values = [_FALSE] * n
    rounds = 0
    while True:
        rounds += 1
        # Value every revisited head before applying any change, so a round
        # reads only the previous round's values, as the stage operator does.
        changed = []
        for h in dirty:
            v = top[h]
            if v != values[h]:
                if v < values[h]:
                    raise NotIncreasing("inner stage sequence left the truth order")
                changed.append((h, v))
        if not changed:
            return values, rounds
        dirty = set()
        for a, v in changed:
            leaves_false = values[a] == _FALSE
            becomes_true = v == _TRUE and jv[a] != _TRUE
            for rule in uses[a]:
                h = rule[0]
                if leaves_false:
                    rule[2] -= 1
                    if not rule[2] and top[h] == _FALSE:
                        top[h] = _UNDEFINED
                        dirty.add(h)
                if becomes_true:
                    rule[1] -= 1
                    if not rule[1]:
                        top[h] = _TRUE
                        dirty.add(h)
            values[a] = v
        # A bounded chain: each atom climbs false -> undefined -> true at most
        # twice, so stabilization needs at most 2|atoms| + 1 rounds.
        if rounds > 2 * n + 2:
            raise NotIncreasing("inner iteration failed to stabilize")


def well_founded_model(gp: GroundProgram) -> WfsResult:
    """Iterate the outer stage sequence to its least fixpoint.

    The outer sequence must climb in the Fitting order; any violation is an
    internal-consistency failure, not a recoverable condition.
    """
    records, uses = occurrences(gp)
    jv = [_UNDEFINED] * len(gp.rules)
    stages, inner_lengths = [jv], []
    while True:
        values, rounds = _lfp(jv, records, uses)
        inner_lengths.append(rounds)
        if values == jv:
            break
        # Every atom whose value changed was undefined in J.
        if not {_UNDEFINED}.issuperset(compress(jv, map(ne, jv, values))):
            raise NotIncreasing("outer stage sequence left the Fitting order")
        stages.append(values)
        jv = values
    return WfsResult(
        _to_interp(jv, gp),
        ThetaTrace(lambda: tuple(_to_interp(v, gp) for v in stages), tuple(inner_lengths)),
    )
