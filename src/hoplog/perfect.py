"""Stratification analysis and perfect-model computation.

A program is stratified when its predicate constants can be partitioned
into strata so that positive dependencies never ascend and negative
dependencies strictly descend.  A body literal headed by a predicate
variable Q depends on every predicate constant whose type is greater than
or equal to Q's type, where "greater" means reachable by prepending
argument types.

A stratification of the program induces a local stratification of any of
its groundings: a ground atom inherits the stratum of its leftmost
predicate constant.  ``localize`` gives each stratum's atom ids.  The
perfect model is then built stratum by stratum with a two-valued stage
operator, the true atoms of the well-founded stage operator (the reference
``theta_step`` in ``tests/helpers.py``); the resulting stage sequence
climbs in the Fitting order and its last element is total.

The stage operator's least fixed point under the current stage J holds
the atoms of some live clause with every negated atom false in J and
every positive atom derived.  It grows with J in the Fitting order, so
``perfect_model`` computes all stages in one countdown on the grounding's
rules (``GroundProgram.rules``), where dead clauses are already dropped,
with the rule numbering and occurrence lists of the well-founded engine
(``wfs.occurrences``): each rule's counter is paid once, not once a
stratum, and only the model
becomes a ``PartialInterpretation`` at once: the stages are built when
read.  ``localize`` reads the grounding's predicate edges, which every
instance contributes to, dead ones included, so it checks the strata of
dead clauses too.
"""

from __future__ import annotations

from .errors import LocalStratificationViolation, NotIncreasing
from .grounder import GroundProgram
from .interp import PartialInterpretation, interpretation
from .records import FrozenRecord, built_when_read
from .syntax import Const, Eq, Expr, Neg, spine
from .typecheck import Program
from .wfs import occurrences


# ---------------------------------------------------------------------------
# Higher-order stratification
# ---------------------------------------------------------------------------


class Stratification(FrozenRecord):
    """Ordered partition of the predicate constants; indices start at 1."""

    __slots__ = ("strata", "index")

    @property
    def count(self) -> int:
        return len(self.strata)


class Unstratifiable(FrozenRecord):
    """Witness: a dependency cycle that passes through a strict edge."""

    __slots__ = ("cycle", "strict_edge")


def _literal_sources(lit: Expr, program: Program) -> tuple[tuple[str, ...], bool]:
    """Predicate constants a body literal may depend on, plus strictness.

    A literal starting with predicate constant q depends on q alone; one
    starting with predicate variable Q depends on every predicate constant
    whose type is >= Q's type, the signature's producers of that type (no
    function symbol makes a predicate type); an equality depends on nothing.
    """
    strict = False
    if isinstance(lit, Neg):
        strict = True
        lit = lit.atom
    if isinstance(lit, Eq):
        return (), strict
    head, _ = spine(lit)
    if isinstance(head, Const):
        return (head.name,), strict
    return tuple([name for name, _ in program.signature.producers.get(head.typ, ())]), strict


def _dependency_edges(program: Program) -> dict[tuple[str, str], bool]:
    """Edges source -> head predicate; value records a strict (negative) use."""
    edges: dict[tuple[str, str], bool] = {}
    for clause in program.clauses:
        target = clause.head_pred.name
        for lit in clause.body:
            sources, strict = _literal_sources(lit, program)
            for src in sources:
                key = (src, target)
                edges[key] = edges.get(key, False) or strict
    return edges


def _cycle_through(src: str, dst: str, successors) -> tuple[str, ...] | None:
    """Nodes of a cycle dst -> ... -> src closed by the edge src -> dst, found
    breadth-first from dst; None when dst does not reach src."""
    if src == dst:
        return (dst,)
    frontier = [(dst, (dst,))]
    visited = {dst}
    while frontier:
        node, path = frontier.pop(0)
        for succ in successors[node]:
            if succ == src:
                return path + (src,)
            if succ not in visited:
                visited.add(succ)
                frontier.append((succ, path + (succ,)))
    return None


def stratify(program: Program) -> Stratification | Unstratifiable:
    """Least stratification, or a witness cycle when none exists.

    The strata are the least levels with level[dst] >= level[src] + strict
    over the dependency edges (Apt, Blair and Walker, 1988), so they run
    consecutively from 1.  From level 1 everywhere, passes over the sorted
    edges raise levels until none changes; levels still rising after
    len(preds) + 1 passes mean a cycle through a strict edge.  The witness
    is the first strict edge in sorted order whose head reaches its source.
    Finding it takes one breadth-first search per strict edge, so an
    unstratifiable program with hundreds of predicates can take a tenth of
    a second.
    """
    preds = list(program.signature.predicates)
    edges = sorted(_dependency_edges(program).items())
    level = dict.fromkeys(preds, 1)
    for _ in range(len(preds) + 1):
        settled = True
        for (src, dst), strict in edges:
            need = level[src] + strict
            if level[dst] < need:
                level[dst] = need
                settled = False
        if settled:
            strata: list[list[str]] = [[] for _ in range(max(level.values(), default=0))]
            for name in sorted(level):
                strata[level[name] - 1].append(name)
            return Stratification(tuple(tuple(s) for s in strata), level)
    successors: dict[str, list[str]] = {p: [] for p in preds}
    for (src, dst), _strict in edges:
        successors[src].append(dst)
    for (src, dst), strict in edges:
        if strict:
            cycle = _cycle_through(src, dst, successors)
            if cycle is not None:
                return Unstratifiable(cycle, (src, dst))
    raise AssertionError("levels that never settle need a cycle through a strict edge")


# ---------------------------------------------------------------------------
# Local stratification of a grounding
# ---------------------------------------------------------------------------


def localize(strat: Stratification, gp: GroundProgram) -> tuple[tuple[int, ...], ...]:
    """The atom ids of each stratum, in order: an atom sits with its leftmost
    predicate constant.  The conditions are re-checked on every instance of
    the grounding, dead ones included.

    An instance's head sits with its clause's head predicate and each atom
    literal with its leftmost predicate constant, so the grounding's
    predicate edges carry every condition an instance poses.  A violation
    here contradicts the stratification analysis and is reported as an
    internal-consistency failure."""
    index = strat.index
    for head, pred, negated in gp.predicate_edges:
        if negated and index[pred] >= index[head]:
            raise LocalStratificationViolation(
                f"a negated {pred} atom is not below the head of a {head} instance"
            )
        if not negated and index[pred] > index[head]:
            raise LocalStratificationViolation(
                f"a {pred} atom is above the head of a {head} instance"
            )
    strata: list[list[int]] = [[] for _ in range(strat.count)]
    for a, (head, _) in enumerate(gp.parts):
        strata[index[spine(head)[0].name] - 1].append(a)
    return tuple(map(tuple, strata))


# ---------------------------------------------------------------------------
# Perfect model
# ---------------------------------------------------------------------------


class PerfectResult(FrozenRecord):
    """The perfect model and the stages M_0..M_n, one per stratum after
    M_0.  ``stages`` is given either as a tuple or as a function that
    builds the tuple the first time ``stages`` is read."""

    __slots__ = ("model", "_stages")
    _fields = ("model", "stages")
    stages = built_when_read("_stages")


def perfect_model(gp: GroundProgram, strata: tuple[tuple[int, ...], ...]) -> PerfectResult:
    """Stage through the strata: stage a derives every currently supported
    atom and seals the falsehood of the unsupported atoms in strata 1..a.
    The sequence climbs in the Fitting order; its last stage is total.

    In one countdown, a rule waits on each positive atom until it is
    derived, and on each negated atom until it is sealed false.  Stage a
    seals the atoms of stratum a - 1 still underived, then derives.  The
    atoms are kept in the order they are derived and sealed, and a mark per
    stratum counts both by its stage, so each stage is a pair of prefixes."""
    keys = gp.texts
    heads, bodies, uses, negated = occurrences(gp)
    waits = [len(pos) + len(neg) for pos, neg in bodies]  # per rule, the body atoms it waits on
    todo = [h for h, w in zip(heads, waits) if not w]  # heads to derive
    derived = [False] * len(keys)
    sealed = [False] * len(keys)
    true_keys: list[str] = []  # in the order they are derived
    false_keys: list[str] = []  # in the order they are sealed
    marks: list[tuple[int, int]] = []  # per stratum: atoms derived, atoms sealed

    def count_down(rules: list[int]) -> None:
        for r in rules:
            waits[r] -= 1
            if not waits[r]:
                todo.append(heads[r])

    for stratum in strata:
        while todo:
            h = todo.pop()
            if sealed[h]:
                raise NotIncreasing("perfect-model stage sequence left the Fitting order")
            if not derived[h]:
                derived[h] = True
                true_keys.append(keys[h])
                count_down(uses[h])
        closing = [a for a in stratum if not derived[a]]
        false_keys += [keys[a] for a in closing]
        marks.append((len(true_keys), len(false_keys)))
        for a in closing:
            sealed[a] = True
            count_down(negated[a])
    model = interpretation(gp, true_keys, false_keys)
    return PerfectResult(model, lambda: tuple(
        PartialInterpretation(frozenset(true_keys[:d]), frozenset(false_keys[:f]), model.universe)
        for d, f in [(0, 0), *marks]
    ))
