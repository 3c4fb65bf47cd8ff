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
The counters it starts from depend on J alone, and J changes from stage to
stage only on atoms that leave undefined, each at most once in the run.  So
they are carried across the outer stages, as the alternating fixpoint's
stages are (Van Gelder, JCSS 1993): per rule, the counts of its body atoms
by their value in J, and per head, the counts of its rules by their start
value (see ``well_founded_model``).  After a stage only the rules that hold
an atom that left undefined are recounted (``_settle``), and the next stage
starts from copies of flat lists.  So a stage's Python-level loops run over
the atoms that change and the rules that hold them; the atom table is met
only by whole-list operations, such as copying and comparing stages.
Rounds are synchronous, each reading only the previous round's values, so
the stages and round counts are those of naive iteration of the stage
operator; a differential test checks this against the reference operator
``theta_step`` in ``tests/helpers.py``, and another checks the carried
counters against counters built from scratch for each stage's J.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, ne, not_

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


def occurrences(gp: GroundProgram) -> tuple[list[int], list[tuple], list, list]:
    """The rules, numbered in head order: each one's head and its
    ``(positive ids, negative ids)`` pair.  Then per atom id the numbers of
    the rules that hold it positively, and of those that hold it negated,
    once per occurrence: a list only for an atom that some rule holds so,
    the empty tuple for any other."""
    heads: list[int] = []
    bodies: list[tuple] = []
    for h in compress(range(len(gp.rules)), gp.rules):  # the heads of rules
        heads += [h] * len(gp.rules[h])
        bodies += gp.rules[h]
    uses, negated = [()] * len(gp.rules), [()] * len(gp.rules)
    for r, (pos, neg) in enumerate(bodies):
        for a in pos:
            if uses[a]:
                uses[a].append(r)
            else:
                uses[a] = [r]
        for a in neg:
            if negated[a]:
                negated[a].append(r)
            else:
                negated[a] = [r]
    return heads, bodies, uses, negated


def _settle(changed: list[int], values: list[TruthValue], state: tuple) -> int:
    """Count the atoms ``changed``, undefined in J and valued ``values`` in
    the next J, into the counters ``state`` that the stages carry (see
    ``well_founded_model``), recount the rules that hold them, and revalue
    their heads.  Returns the number of rules recounted."""
    (heads, uses, negated, sizes,
     pos_true, pos_false, neg_true, neg_undefined, t, d, rated, top) = state
    touched = []
    for a in changed:
        true = values[a] == _TRUE
        counts = pos_true if true else pos_false
        for r in uses[a]:
            counts[r] += 1
        for r in negated[a]:
            neg_undefined[r] -= 1
            if true:
                neg_true[r] += 1
        touched += uses[a]
        touched += negated[a]
    recounted = 0
    for r in touched:
        recounted += 1
        old = _TRUE if not t[r] else _UNDEFINED if not d[r] else _FALSE
        if neg_true[r]:  # the body is false in J
            t[r] = d[r] = -1
        else:
            t[r] = -1 if neg_undefined[r] else sizes[r] - pos_true[r]
            d[r] = -1 if pos_false[r] else sizes[r]
        new = _TRUE if not t[r] else _UNDEFINED if not d[r] else _FALSE
        if new != old:
            h = heads[r]
            if old:
                rated[old][h] -= 1
            if new:
                rated[new][h] += 1
            top[h] = _TRUE if rated[_TRUE][h] else _UNDEFINED if rated[_UNDEFINED][h] else _FALSE
    return recounted


def _lfp(jv: list[TruthValue], t: list[int], d: list[int], top: list[TruthValue],
         heads: list[int], uses: list) -> tuple[list[TruthValue], int]:
    """Least fixed point of the stage operator under the outer values jv,
    from the all-false start, and the number of rounds to stabilize.

    A rule with a negated atom true in J is dropped.  Each other rule counts
    its positive atoms not yet true, in J or inside (``t``, kept when its
    negated atoms are all false in J), and those still false inside (``d``,
    kept when none is false in J); a counter the rule does not keep is -1,
    so never reaches zero.  Its head becomes true when the first count
    reaches zero, and otherwise undefined when the second one does.  ``t``
    and ``d`` come per rule, and ``top``, per head the value its rules'
    counters give, as ``well_founded_model`` carries them for jv; all three
    are used up.  ``heads`` and ``uses`` are those of ``occurrences``."""
    n = len(jv)
    dirty = list(compress(range(n), top))  # the heads that top raises above false
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
            for r in uses[a]:
                h = heads[r]
                if leaves_false:
                    d[r] -= 1
                    if not d[r] and top[h] == _FALSE:
                        top[h] = _UNDEFINED
                        dirty.add(h)
                if becomes_true:
                    t[r] -= 1
                    if not t[r]:
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
    heads, bodies, uses, negated = occurrences(gp)
    m, n = len(heads), len(gp.rules)
    # The counters each stage starts from, carried across the stages.  Per
    # rule: the counts of its positive atoms true and false in J and of its
    # negated atoms true and undefined in J, and from these the counters t
    # and d that _lfp runs.  Per head: the counts of its rules valued true
    # and undefined by those counters (rated, by value), and from these its
    # start value top.  J starts all undefined and changes only on atoms
    # that leave undefined, each at most once, so _settle recounts only the
    # rules that hold such an atom.
    sizes = list(map(len, map(itemgetter(0), bodies)))
    neg_undefined = list(map(len, map(itemgetter(1), bodies)))
    t, d = sizes[:], sizes[:]
    for r in compress(range(m), neg_undefined):  # t waits on the negated atoms
        t[r] = -1
    rated, top = (None, [0] * n, [0] * n), [_FALSE] * n
    for r in compress(range(m), map(not_, sizes)):  # the rules valued above false
        h, v = heads[r], _UNDEFINED if t[r] else _TRUE
        rated[v][h] += 1
        top[h] = max(top[h], v)
    state = (heads, uses, negated, sizes,
             [0] * m, [0] * m, [0] * m, neg_undefined, t, d, rated, top)
    jv = [_UNDEFINED] * n
    stages, inner_lengths = [jv], []
    while True:
        values, rounds = _lfp(jv, t[:], d[:], top[:], heads, uses)
        inner_lengths.append(rounds)
        if values == jv:
            break
        changed = list(compress(range(n), map(ne, jv, values)))
        # Every atom whose value changed was undefined in J.
        if not {_UNDEFINED}.issuperset(map(jv.__getitem__, changed)):
            raise NotIncreasing("outer stage sequence left the Fitting order")
        _settle(changed, values, state)
        stages.append(values)
        jv = values
    return WfsResult(
        _to_interp(jv, gp),
        ThetaTrace(lambda: tuple(_to_interp(v, gp) for v in stages), tuple(inner_lengths)),
    )
