"""The test corpus: small programs whose groundings stay inside the
brute-force oracle limit.  The test suite runs every engine over all of
them; ``CORPUS`` names each with the depth to ground it at and, for some,
the root atoms to ground on demand from.
"""

from __future__ import annotations

from hoplog.programs import NONEXTENSIONAL, POSITIVE_ID, STRATIFIED_OK
from hoplog.records import FrozenRecord, _set

# Set inclusion over unary relations, with a two-element base.
SUBSET = """\
type subset : (i -> o) -> (i -> o) -> o.
type nonsubset : (i -> o) -> (i -> o) -> o.
type item1 : i -> o.
type item2 : i -> o.

item1 X <- X = a.
item2 X <- X = a.
item2 X <- X = b.
subset S1 S2 <- ~(nonsubset S1 S2).
nonsubset S1 S2 <- S1 X, ~(S2 X).
"""

# Select the undominated tuples of a relation under a preference; not
# stratifiable (winnow's own partial applications are unary relations, so
# the variable literal in the second clause feeds back through negation),
# but its demand-driven well-founded model is total.
WINNOW = """\
type winnow : (i -> i -> o) -> (i -> o) -> i -> o.
type bypassed : (i -> i -> o) -> (i -> o) -> i -> o.
type item : i -> o.
type better : i -> i -> o.

item X <- X = a.
item X <- X = b.
better X Y <- X = b, Y = a.
winnow P R T <- R T, ~(bypassed P R T).
bypassed P R T <- R T1, P T1 T.
"""


class CorpusEntry(FrozenRecord):
    __slots__ = ("name", "source", "depth", "roots")

    def __init__(
        self, name: str, source: str, depth: int = 2, roots: tuple[str, ...] | None = None
    ) -> None:
        _set(self, "name", name)
        _set(self, "source", source)
        _set(self, "depth", depth)
        _set(self, "roots", roots)


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("empty", ""),
    CorpusEntry("fact_single", "type p : o. p."),
    CorpusEntry("facts_pair", "type p : o. type q : o. p. q."),
    CorpusEntry("pos_chain2", "type p : o. type q : o. p <- q. q."),
    CorpusEntry("pos_chain3", "type p : o. type q : o. type r : o. p <- q. q <- r. r."),
    CorpusEntry("pos_loop2", "type p : o. type q : o. p <- q. q <- p."),
    CorpusEntry(
        "pos_loop_base",
        "type p : o. type q : o. type b : o. p <- q. q <- p. q <- b. b.",
    ),
    CorpusEntry("unsupported", "type p : o. type q : o. p <- q."),
    CorpusEntry("neg_self", "type p : o. p <- ~p."),
    CorpusEntry("neg_cycle2", "type p : o. type q : o. p <- ~q. q <- ~p."),
    CorpusEntry(
        "neg_cycle3",
        "type p : o. type q : o. type r : o. p <- ~q. q <- ~r. r <- ~p.",
    ),
    CorpusEntry("neg_chain2", "type p : o. type q : o. p <- ~q. q."),
    CorpusEntry(
        "neg_chain3", "type a : o. type b : o. type c : o. a <- ~b. b <- ~c. c."
    ),
    CorpusEntry(
        "neg_chain4",
        "type a : o. type b : o. type c : o. type d : o. "
        "a <- ~b. b <- ~c. c <- ~d. d.",
    ),
    CorpusEntry(
        "neg_guarded",
        "type p : o. type q : o. type r : o. p <- ~q, r. r. q <- ~r.",
    ),
    CorpusEntry(
        "undefined_join",
        "type p : o. type q : o. type r : o. p <- ~q. q <- ~p. r <- p. r <- q.",
    ),
    CorpusEntry("conj", "type p : o. type q : o. type r : o. p <- q, r. q. r."),
    CorpusEntry("conj_mixed", "type p : o. type q : o. type r : o. p <- q, ~r. q."),
    CorpusEntry(
        "eq_facts",
        "type q : i -> o. type c : i. q X <- X = a. q X <- X = b.",
        depth=1,
    ),
    CorpusEntry(
        "eq_neg",
        "type q : i -> o. type p : o. type b : i. q X <- X = a. p <- ~(q b).",
        depth=1,
    ),
    CorpusEntry(
        "win_move",
        "type win : i -> o. type move : i -> i -> o. type c : i.\n"
        "move X Y <- X = a, Y = b.\n"
        "move X Y <- X = b, Y = a.\n"
        "move X Y <- X = b, Y = c.\n"
        "win X <- move X Y, ~(win Y).",
        depth=1,
    ),
    CorpusEntry(
        "win_move_draw",
        "type win : i -> o. type move : i -> i -> o.\n"
        "move X Y <- X = a, Y = b.\n"
        "move X Y <- X = b, Y = a.\n"
        "win X <- move X Y, ~(win Y).",
        depth=1,
    ),
    CorpusEntry("ho_loop_false", NONEXTENSIONAL, depth=3, roots=("s p",)),
    CorpusEntry("ho_loop_undef", NONEXTENSIONAL, depth=3, roots=("s q",)),
    CorpusEntry("ho_positive", POSITIVE_ID, depth=2),
    CorpusEntry("ho_stratified", STRATIFIED_OK, depth=3),
    CorpusEntry("subset_pair", SUBSET, depth=1),
    CorpusEntry(
        "winnow_best",
        WINNOW,
        depth=1,
        roots=("winnow better item a", "winnow better item b"),
    ),
)
