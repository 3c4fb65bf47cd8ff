"""Concrete-syntax front end for ``.hop`` program files.

Grammar::

    program := (decl | clause)*
    decl    := "type" name ":" type "."
    type    := tatom ("->" type)?          -- right-associative
    tatom   := "i" | "o" | "(" type ")"
    clause  := atom ("<-" literal ("," literal)*)? "."
    literal := atom | "~" arg | term "=" term
    atom    := arg+                         -- application by juxtaposition
    arg     := name | "(" atom ")"

Comments run from ``%`` to end of line.  Names starting with an uppercase
letter are variables; all other names are constants or function symbols.
``type`` is reserved.  The parser is untyped: it produces raw trees whose
positions are offsets into the source, which the checker elaborates into
typed syntax.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice

from .errors import DuplicateDeclaration, ParseError
from .records import Record
from .syntax import IOTA, OMICRON, Arrow, TypeExpr

RESERVED = ("type",)
_BASE_TYPES = {"i": IOTA, "o": OMICRON}


# ---------------------------------------------------------------------------
# Raw (untyped) syntax trees
# ---------------------------------------------------------------------------
#
# Raw syntax is plain tuples.  A position is the offset of a token in the
# source text; ``position`` turns it into a line and a column when an error
# is reported.
#
# * a spine, ``name args[0] ... args[n-1]``: ``(name, args, pos)``, with
#   ``args == ()`` for a bare name and ``pos`` the name's offset;
# * a negation ``~ atom``: ``("~", atom, pos)``;
# * an equality ``lhs = rhs``: ``("=", lhs, rhs, pos)``, ``pos`` the ``=``'s;
# * a clause: ``(head, body, pos)``, ``body`` a tuple of literals;
# * a declaration: ``(name, type, pos)``.
#
# A name is a word, so no spine's name is ``~`` or ``=``.


def position(text: str, offset: int) -> tuple[int, int]:
    """Line and column, both from 1, of the character at offset in text."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class SourceProgram(Record):
    """A parsed text: its declarations and clauses, every name it uses in
    order of first use, and the text itself, which error positions read."""

    __slots__ = ("declarations", "clauses", "names", "text")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

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

# Split around each token or comment: punctuation, a word (str.isalnum() or
# "_"), a comment, or any other character that is no blank (str.isspace()),
# so what lies between is blanks.
_TOKEN = re.compile(r"(->|<-|[(),.~=:]|\w+|%[^\n]*|\S)")

# Nesting levels in one clause head, body literal, root atom or declared
# type: the levels on the deepest path of its tree, where each parenthesis,
# each application and each arrow counts one.  An application leans left,
# so a spine's head sits one level down per argument; an arrow leans right.
# The count bounds the depth of the trees, which the passes after the
# parser recurse over.
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` of each token, then an ``EOF`` token."""
    parts = _TOKEN.split(text)  # blanks, then a token or comment, and so on
    tokens = []
    for word, at in zip(parts[1::2], islice(accumulate(map(len, parts)), 0, None, 2)):
        if word in _PUNCT:
            tokens.append((_PUNCT[word], word, at))
        elif word[0].isalpha():
            tokens.append(("NAME", word, at))
        elif word[0] != "%":
            raise ParseError(f"unexpected character {word[0]!r}", *position(text, at))
    # A comment that ends the text leaves the end at its "%".
    end = text.find("%", text.rfind("\n") + 1)
    tokens.append(("EOF", "", len(text) if end < 0 else end))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = iter(_tokenize(text))
        self.tok = next(self.tokens)  # the next token, EOF at the end
        self.names: dict[str, None] = {}  # every name parsed, in order

    def next(self) -> tuple[str, str, int]:
        tok = self.tok
        self.tok = next(self.tokens, tok)
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        found, text, _ = self.tok
        if found != kind:
            raise self.fail(f"expected {kind.lower()}, found {text or 'end of input'!r}")
        return self.next()

    def fail(self, message: str) -> ParseError:
        """The error at the next token."""
        return ParseError(message, *position(self.text, self.tok[2]))

    def reach(self, depth: int, height: int) -> None:
        """Refuse the next token when it makes a tree ``height`` levels high,
        with its root ``depth`` levels down, too deep.  The parse methods
        take the depth of what they parse and return it with its height."""
        if depth + height > MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels")

    # -- types --------------------------------------------------------------

    def parse_type(self, depth: int = 0) -> tuple[TypeExpr, int]:
        left, height = self.parse_type_atom(depth)
        if self.tok[0] != "ARROW":
            return left, height
        self.reach(depth, height + 1)
        self.next()
        right, right_height = self.parse_type(depth + 1)
        return Arrow(left, right), 1 + max(height, right_height)

    def parse_type_atom(self, depth: int) -> tuple[TypeExpr, int]:
        kind, text, _ = self.tok
        if kind == "NAME" and text in _BASE_TYPES:
            self.next()
            return _BASE_TYPES[text], 0
        if kind == "LPAREN":
            self.reach(depth, 1)
            self.next()
            inner, height = self.parse_type(depth + 1)
            self.expect("RPAREN")
            return inner, height + 1
        raise self.fail(f"expected a type, found {text or 'end of input'!r}")

    # -- terms and literals ---------------------------------------------------

    def parse_arg(self, depth: int) -> tuple[tuple, int]:
        kind, text, pos = self.tok
        if kind == "NAME":
            if text in RESERVED:
                raise self.fail(f"{text!r} is reserved")
            self.names[text] = None
            self.next()
            return (text, (), pos), 0
        if kind == "LPAREN":
            self.reach(depth, 1)
            self.next()
            inner, height = self.parse_atom(depth + 1)
            self.expect("RPAREN")
            return inner, height + 1
        raise self.fail(f"expected a term, found {text or 'end of input'!r}")

    def parse_atom(self, depth: int = 0) -> tuple[tuple, int]:
        head, height = self.parse_arg(depth)
        args = []
        while self.tok[0] in ("NAME", "LPAREN"):
            self.reach(depth, height + 1)  # the spine so far sinks one level
            arg, arg_height = self.parse_arg(depth + 1)
            args.append(arg)
            height = 1 + max(height, arg_height)
        if not args:
            return head, height
        name, head_args, pos = head
        return (name, head_args + tuple(args), pos), height

    def parse_literal(self) -> tuple:
        kind, _, pos = self.tok
        if kind == "TILDE":
            self.next()
            return ("~", self.parse_arg(0)[0], pos)
        lhs = self.parse_atom()[0]
        if self.tok[0] == "EQUALS":
            eq = self.next()[2]
            return ("=", lhs, self.parse_atom()[0], eq)
        return lhs

    # -- declarations and clauses ---------------------------------------------

    def parse_decl(self, seen: dict[str, int]) -> tuple:
        """A declaration; ``seen`` maps each name declared before to its offset."""
        self.next()  # the "type" keyword, checked by the caller
        if self.tok[1] in RESERVED:
            raise self.fail(f"{self.tok[1]!r} is reserved")
        _, name, pos = self.expect("NAME")
        self.expect("COLON")
        typ = self.parse_type()[0]
        self.expect("DOT")
        if name in seen:
            raise DuplicateDeclaration(
                "%s already declared at %d:%d" % (name, *position(self.text, seen[name])),
                *position(self.text, pos),
            )
        seen[name] = pos
        return name, typ, pos

    def parse_clause(self) -> tuple:
        pos = self.tok[2]
        head = self.parse_atom()[0]
        body: list = []
        if self.tok[0] == "LARROW":
            self.next()
            # An empty body after <- is allowed: "p <- ." means the fact "p."
            if self.tok[0] != "DOT":
                body.append(self.parse_literal())
                while self.tok[0] == "COMMA":
                    self.next()
                    body.append(self.parse_literal())
        self.expect("DOT")
        return head, tuple(body), pos

    def parse_program(self) -> SourceProgram:
        sp = SourceProgram([], [], self.names, self.text)
        seen: dict[str, int] = {}
        while self.tok[0] != "EOF":
            kind, text, _ = self.tok
            if kind == "NAME" and text == "type":
                sp.declarations.append(self.parse_decl(seen))
            else:
                sp.clauses.append(self.parse_clause())
        return sp


def parse_program(text: str) -> SourceProgram:
    """Parse a full program file; raises ParseError with a position on failure."""
    return _Parser(text).parse_program()


def parse_atom(text: str) -> tuple:
    """Parse a single atom (used for --roots arguments)."""
    p = _Parser(text)
    atom = p.parse_atom()[0]
    p.expect("EOF")
    return atom
