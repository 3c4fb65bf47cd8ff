"""Concrete-syntax front end: grammar, positions, robustness."""

import random
import string

import pytest

from hoplog import parser
from hoplog.errors import DuplicateDeclaration, HoplogError, ParseError
from hoplog.parser import (
    MAX_NESTING,
    _tokenize,
    parse_atom,
    parse_program,
)
from hoplog.programs import DEMOS
from hoplog.syntax import IOTA, OMICRON, Arrow

from corpus import CORPUS
from helpers import (
    bench_workloads,
    load,
    nested_term,
    parse_type,
    reference_tokenize,
    sinking_term,
    to_source,
)


class TestParseType:
    def test_higher_order_type(self):
        assert parse_type("(o -> o) -> o") == Arrow(Arrow(OMICRON, OMICRON), OMICRON)

    def test_base(self):
        assert parse_type("i") == IOTA

    def test_right_associativity(self):
        assert parse_type("i -> i -> i") == Arrow(IOTA, Arrow(IOTA, IOTA))
        assert parse_type("i -> i -> o") == Arrow(IOTA, Arrow(IOTA, OMICRON))

    def test_rejects_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_type("i -> ")
        with pytest.raises(ParseError):
            parse_type("i i")


class TestParseProgram:
    def test_decl_and_clause(self):
        sp = parse_program("type p : o -> o.  p R <- R.")
        # a declaration is (name, type, pos), a clause (head, body, pos)
        assert sp.declarations == [("p", Arrow(OMICRON, OMICRON), 5)]
        assert sp.declarations[0][1] is Arrow(OMICRON, OMICRON)
        assert sp.clauses == [(("p", (("R", (), 20),), 18), (("R", (), 25),), 18)]
        assert list(sp.names) == ["p", "R"]

    def test_empty_text(self):
        sp = parse_program("")
        assert sp.declarations == [] and sp.clauses == []

    def test_negative_literal_clause(self):
        sp = parse_program("subset S1 S2 <- ~(nonsubset S1 S2).")
        (clause,) = sp.clauses
        (lit,) = clause[1]
        assert lit == ("~", ("nonsubset", (("S1", (), 28), ("S2", (), 31)), 18), 16)

    def test_equality_literal(self):
        sp = parse_program("q X <- X = a.")
        (lit,) = sp.clauses[0][1]
        assert lit == ("=", ("X", (), 7), ("a", (), 11), 9)

    def test_comments_ignored(self):
        sp = parse_program("% a comment\ntype p : o. % trailing\np.\n")
        assert len(sp.declarations) == 1 and len(sp.clauses) == 1

    def test_juxtaposition_is_left_associative(self):
        # id q a is (id q) a: the name and all its arguments in one spine
        q, a = ("q", (), 3), ("a", (), 5)
        assert parse_program("id q a.").clauses[0][0] == ("id", (q, a), 0)
        q, a = ("q", (), 4), ("a", (), 7)
        assert parse_program("(id q) a.").clauses[0][0] == ("id", (q, a), 1)
        q, a = ("q", (), 6), ("a", (), 9)
        assert parse_program("((id) q) a.").clauses[0][0] == ("id", (q, a), 2)

    def test_names_in_order_of_first_use(self):
        sp = parse_program("type q : i -> o.\nq X <- r X, ~(q a), X = b.\nr Y <- q a.\n")
        assert list(sp.names) == ["q", "X", "r", "a", "b", "Y"]

    def test_duplicate_declaration(self):
        with pytest.raises(DuplicateDeclaration):
            parse_program("type p : o. type p : o -> o.")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("type p : o.\np <- ~.\n")
        assert err.value.line == 2
        assert err.value.column > 0

    def test_reserved_word(self):
        with pytest.raises(ParseError):
            parse_program("type type : o.")
        # as a term: in a clause body, and as a --roots atom
        with pytest.raises(ParseError, match="^2:6: 'type' is reserved$"):
            parse_program("type p : o.\np <- type.")
        with pytest.raises(ParseError, match="^1:1: 'type' is reserved$"):
            parse_atom("type")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_program("p (q a.")

    def test_parse_atom_helper(self):
        atom = parse_atom("s (p q)")
        assert atom == ("s", (("p", (("q", (), 5),), 3),), 0)
        with pytest.raises(ParseError):
            parse_atom("s p,")


class TestRobustness:
    def test_fuzz_smoke(self):
        # Arbitrary bytes may only raise ParseError, never crash.
        rng = random.Random(20240811)
        alphabet = string.ascii_letters + string.digits + " ()~=<->.,:%\n\t_"
        for _ in range(2000):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 40))
            )
            try:
                parse_program(text)
            except ParseError:
                pass
            except HoplogError as exc:  # pragma: no cover
                pytest.fail(f"non-parse error {type(exc).__name__} on {text!r}")

    def test_non_ascii_rejected_cleanly(self):
        with pytest.raises(ParseError):
            parse_program("p ← q.")


class TestSourceRoundTrip:
    def test_checked_program_round_trips(self):
        src = """
        type s : (o -> o) -> o.
        type p : o -> o.
        s Q <- Q (s Q).
        p R <- R.
        """
        program = load(src)
        assert load(to_source(program)) == program


def _stream(tokenize, text: str):
    """The ``(kind, text, line, column)`` tokens of text, or its ParseError."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc)


def _line_column(text: str, offset: int) -> tuple[int, int]:
    lines = text[:offset].split("\n")
    return len(lines), len(lines[-1]) + 1


def _tokenize_flat(text: str):
    """The tokens with each offset turned into a line and a column."""
    return [(kind, word, *_line_column(text, offset)) for kind, word, offset in _tokenize(text)]


def _bench_sources() -> tuple[list[str], list[str]]:
    """The sources and roots of the seed-1 bench pools."""
    workloads = bench_workloads()
    queries = workloads.game_pool(1) + workloads.strat_pool(1) + workloads.ext_pool(1)
    roots = [q.args[q.args.index("--roots") + 1] for q in queries if "--roots" in q.args]
    return [q.source for q in queries], roots


class TestPositions:
    def test_position_of_every_offset(self):
        rng = random.Random(20261019)
        for _ in range(300):
            text = "".join(rng.choice("ab \n\r\t%") for _ in range(rng.randint(0, 30)))
            for offset in range(len(text) + 1):
                assert parser.position(text, offset) == _line_column(text, offset), repr(text)


class TestTokenizerAgainstReference:
    """The one-pattern tokenizer against the character loop in helpers."""

    ALPHABET = string.ascii_letters + string.digits + " ()~=<->.,:%\n\t_\r\u2028\u3000é²Ⅷ"

    def test_corpus_demos_and_bench_pools(self):
        sources, roots = _bench_sources()
        sources += [e.source for e in CORPUS] + list(DEMOS.values()) + roots
        for text in sources:
            assert _stream(_tokenize_flat, text) == _stream(reference_tokenize, text)

    def test_fuzz(self):
        rng = random.Random(20261018)
        refused = 0
        for _ in range(20_000):
            text = "".join(rng.choice(self.ALPHABET) for _ in range(rng.randint(0, 40)))
            if rng.random() < 0.2:  # a comment that ends the text
                text += "%" + "".join(rng.choice(self.ALPHABET) for _ in range(3)).split("\n")[0]
            expected = _stream(reference_tokenize, text)
            assert _stream(_tokenize_flat, text) == expected, repr(text)
            refused += isinstance(expected, str)
        assert 2_000 < refused < 18_000  # both outcomes are exercised

    def test_quirks(self):
        # A word must start with a letter; the end of a text that closes
        # with a comment sits at the comment's "%".
        for text in ("1a", "p _x", "p\n ²"):
            assert "unexpected character" in _stream(_tokenize_flat, text)
        assert _tokenize_flat("p. % done")[-1] == ("EOF", "", 1, 4)
        assert _tokenize_flat("p.\n\u3000\r% done")[-1] == ("EOF", "", 2, 3)


class TestNestingLimit:
    def test_parentheses_arguments_and_arrows_count(self):
        parse_program("p <- " + "(" * MAX_NESTING + "q" + ")" * MAX_NESTING + ".")
        parse_type("(" * MAX_NESTING + "o" + ")" * MAX_NESTING)
        parse_type("i -> " * MAX_NESTING + "o")
        parse_atom("q" + " a" * MAX_NESTING)
        parse_atom(nested_term(MAX_NESTING))
        with pytest.raises(ParseError, match=f"^1:{MAX_NESTING + 6}: nesting deeper than"):
            parse_program("p <- " + "(" * (MAX_NESTING + 1) + "q" + ")" * (MAX_NESTING + 1) + ".")
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
            parse_type("(" * (MAX_NESTING + 1) + "o" + ")" * (MAX_NESTING + 1))
        with pytest.raises(ParseError, match=f"^1:{5 * MAX_NESTING + 3}: nesting deeper"):
            parse_type("i -> " * (MAX_NESTING + 1) + "o")
        with pytest.raises(ParseError, match=f"^1:{2 * MAX_NESTING + 3}: nesting deeper"):
            parse_atom("q" + " a" * (MAX_NESTING + 1))
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
            parse_atom(nested_term(MAX_NESTING + 1))

    def test_each_part_counts_on_its_own(self):
        # Each head, body literal, root atom and declared type counts from zero.
        arrows = "i -> " * MAX_NESTING
        deep = nested_term(MAX_NESTING)
        parse_program(f"type q : {arrows}o.\ntype r : {arrows}o.\np <- {deep}, {deep}.")

    def test_wide_and_shallow_input_parses(self):
        # A closed group gives its levels back: only the deepest path counts.
        parse_type("(i -> o) -> " * 34 + "o")  # 36 levels
        parse_type("(i -> o) -> " * (MAX_NESTING - 2) + "o")
        parse_atom("p" + " (a)" * 60)  # 61 levels
        parse_atom("p" + " (a)" * (MAX_NESTING - 1))
        half = nested_term(MAX_NESTING // 2)
        parse_atom(f"q ({half}) ({half})")
        arrows = "i -> " * (MAX_NESTING // 2)
        parse_type(f"({arrows}o) -> {arrows}o")

    def test_arguments_and_arrows_still_count_one_each(self):
        wide = "(i -> o) -> " * (MAX_NESTING - 1) + "o"
        column = len("(i -> o) -> " * (MAX_NESTING - 2) + "(i -> o) ") + 1
        with pytest.raises(ParseError, match=f"^1:{column}: nesting deeper than"):
            parse_type(wide)
        for arg in (" a", " (a)"):
            text = "p" + arg * (MAX_NESTING + 1)
            with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
                parse_atom(text)
        column = len("p" + " (a)" * (MAX_NESTING - 1)) + 2
        with pytest.raises(ParseError, match=f"^1:{column}: nesting deeper than"):
            parse_atom("p" + " (a)" * MAX_NESTING)

    def test_later_arguments_sink_the_earlier_ones(self):
        # An application leans left: q (T) a a a puts T three levels below
        # where q (T) does, and the parenthesis and q's argument add two.
        deep = nested_term(MAX_NESTING - 5)
        parse_atom(f"q ({deep}) a a a")
        with pytest.raises(ParseError, match=f"^1:{len(deep) + 12}: nesting deeper than"):
            parse_atom(f"q ({deep}) a a a a")
        # Each level of g (...) a ... a is far deeper than its parentheses.
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
            parse_atom(sinking_term(35, 30))

    def test_sources_stay_far_below_the_limit(self, monkeypatch):
        monkeypatch.setattr(parser, "MAX_NESTING", MAX_NESTING // 4)
        sources, roots = _bench_sources()
        for text in sources + [e.source for e in CORPUS] + list(DEMOS.values()):
            parse_program(text)
        for root in roots + [r for e in CORPUS for r in e.roots or ()]:
            parse_atom(root)
