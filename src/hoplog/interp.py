"""Three-valued interpretations of ground programs.

An interpretation is a pair of disjoint atom sets <T, F> over the atom
table; atoms in neither set are undefined.  Two partial orders matter:

* truth order:    false <= undefined <= true   (pointwise: T grows, F shrinks)
* Fitting order:  undefined below both false and true (pointwise: both grow)

``minimal_models_bruteforce`` is the desk-scale oracle: it enumerates every
interpretation of a small atom table outright, so anything it reports is
independent of the fixpoint engines.  The tests' comparison in either
order (``leq``), model check (``is_model``) and minimality check
(``is_minimal_model``) live in ``tests/helpers.py``; the last two run on
this oracle's bitmask view, ``_Compiled``.
"""

from __future__ import annotations

from enum import Enum, IntEnum

from .errors import TooLarge, UnknownAtom
from .grounder import ConstLit, GroundProgram
from .records import FrozenRecord, _set
from .syntax import Neg


class TruthValue(IntEnum):
    """false < undefined < true in the truth order (the integer order)."""

    FALSE = 0
    UNDEFINED = 1
    TRUE = 2

    def __str__(self) -> str:
        return {0: "false", 1: "undefined", 2: "true"}[self.value]


class Ordering(Enum):
    TRUTH = "truth"
    FITTING = "fitting"


class PartialInterpretation(FrozenRecord):
    """<T, F> over a fixed atom table; immutable and hashable."""

    __slots__ = ("true_atoms", "false_atoms", "universe")

    def __init__(
        self, true_atoms: frozenset[str], false_atoms: frozenset[str], universe: frozenset[str]
    ) -> None:
        if true_atoms & false_atoms:
            raise ValueError("T and F must be disjoint")
        if not (true_atoms | false_atoms) <= universe:
            raise ValueError("T and F must lie inside the atom table")
        _set(self, "true_atoms", true_atoms)
        _set(self, "false_atoms", false_atoms)
        _set(self, "universe", universe)

    @property
    def is_total(self) -> bool:
        return self.true_atoms | self.false_atoms == self.universe

    def value(self, key: str) -> TruthValue:
        if key in self.true_atoms:
            return TruthValue.TRUE
        if key in self.false_atoms:
            return TruthValue.FALSE
        if key not in self.universe:
            raise UnknownAtom(f"atom {key} is outside the atom table")
        return TruthValue.UNDEFINED

    def to_json_dict(self) -> dict[str, list[str]]:
        undef = self.universe - self.true_atoms - self.false_atoms
        return {
            "true": sorted(self.true_atoms),
            "false": sorted(self.false_atoms),
            "undefined": sorted(undef),
        }


def interpretation(
    gp: GroundProgram, true_atoms=(), false_atoms=()
) -> PartialInterpretation:
    return PartialInterpretation(
        frozenset(true_atoms), frozenset(false_atoms), frozenset(gp.texts)
    )


# ---------------------------------------------------------------------------
# Brute-force minimal-model oracle
# ---------------------------------------------------------------------------

# The oracle walks all 3^n interpretations of n atoms: at 12 that is 531,441
# of them, a few seconds; each further atom triples time and memory.
ORACLE_MAX_ATOMS = 12


class _Compiled:
    """Bitmask view of a ground program for fast enumeration."""

    def __init__(self, gp: GroundProgram):
        self.index = {k: n for n, k in enumerate(gp.texts)}
        self.clauses: list[tuple[int, int, int]] = []  # (head bit, pos mask, neg mask)
        for gc in gp.clauses:
            pos = neg = 0
            dead = False
            for lit in gc.body:
                if isinstance(lit, ConstLit):
                    dead = dead or not lit.value  # a false body never binds
                elif isinstance(lit, Neg):
                    neg |= 1 << self.index[lit.atom.text]
                else:
                    pos |= 1 << self.index[lit.text]
            if not dead:
                self.clauses.append((1 << self.index[gc.head.text], pos, neg))

    def is_model(self, tmask: int, fmask: int) -> bool:
        for head, pos, neg in self.clauses:
            if (pos & fmask) or (neg & tmask):
                continue  # body false: clause satisfied
            if (pos & ~tmask) == 0 and (neg & ~fmask) == 0:
                if not head & tmask:  # body true: head must be true
                    return False
            elif head & fmask:  # body undefined: head must not be false
                return False
        return True

    def to_interpretation(self, gp: GroundProgram, tmask: int, fmask: int):
        return interpretation(gp, [k for k, n in self.index.items() if tmask >> n & 1],
                              [k for k, n in self.index.items() if fmask >> n & 1])


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _all_interpretations(n: int):
    for defined in range(1 << n):
        for tmask in _submasks(defined):
            yield tmask, defined & ~tmask


def minimal_models_bruteforce(
    gp: GroundProgram, ordering: Ordering
) -> list[PartialInterpretation]:
    """Models with no strictly smaller model, by exhaustive enumeration.

    Walks all 3^|atoms| interpretations, so the atom table is capped; this
    is a desk-scale oracle, not an engine.
    """
    n = len(gp.texts)
    if n > ORACLE_MAX_ATOMS:
        raise TooLarge(f"{n} atoms exceed the oracle limit of {ORACLE_MAX_ATOMS}")
    compiled = _Compiled(gp)
    models = [
        (t, f) for t, f in _all_interpretations(n) if compiled.is_model(t, f)
    ]
    if ordering == Ordering.TRUTH:
        # In the truth order, smaller means T shrinks while F grows.
        below = lambda a, b: (a[0] | b[0]) == b[0] and (b[1] | a[1]) == a[1]
        rank = lambda m: (bin(m[0]).count("1") - bin(m[1]).count("1"), m)
    else:
        below = lambda a, b: (a[0] | b[0]) == b[0] and (a[1] | b[1]) == b[1]
        rank = lambda m: (bin(m[0]).count("1") + bin(m[1]).count("1"), m)
    minimal: list[tuple[int, int]] = []
    for m in sorted(models, key=rank):
        if not any(d != m and below(d, m) for d in minimal):
            minimal.append(m)
    out = [compiled.to_interpretation(gp, t, f) for t, f in minimal]
    out.sort(key=lambda i: (sorted(i.true_atoms), sorted(i.false_atoms)))
    return out
