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
``type`` is reserved.  The parser is untyped: it produces raw trees with
source positions, which the checker elaborates into typed syntax.
"""

from __future__ import annotations

import re

from .errors import DuplicateDeclaration, ParseError
from .records import FrozenRecord, Record, _set
from .syntax import IOTA, OMICRON, Arrow, TypeExpr

RESERVED = ("type",)


# ---------------------------------------------------------------------------
# Raw (untyped) syntax trees
# ---------------------------------------------------------------------------


class Pos(FrozenRecord):
    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int) -> None:
        _set(self, "line", line)
        _set(self, "column", column)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class RawName(FrozenRecord):
    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: Pos) -> None:
        _set(self, "name", name)
        _set(self, "pos", pos)

    @property
    def is_variable(self) -> bool:
        return self.name[0].isupper()


class RawApp(FrozenRecord):
    __slots__ = ("op", "arg", "pos")

    def __init__(self, op: RawExpr, arg: RawExpr, pos: Pos) -> None:
        _set(self, "op", op)
        _set(self, "arg", arg)
        _set(self, "pos", pos)


class RawNeg(FrozenRecord):
    __slots__ = ("atom", "pos")

    def __init__(self, atom: RawExpr, pos: Pos) -> None:
        _set(self, "atom", atom)
        _set(self, "pos", pos)


class RawEq(FrozenRecord):
    __slots__ = ("lhs", "rhs", "pos")

    def __init__(self, lhs: RawExpr, rhs: RawExpr, pos: Pos) -> None:
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "pos", pos)


RawExpr = "RawName | RawApp | RawNeg | RawEq"


class RawClause(FrozenRecord):
    __slots__ = ("head", "body", "pos")

    def __init__(self, head: RawExpr, body: tuple[RawExpr, ...], pos: Pos) -> None:
        _set(self, "head", head)
        _set(self, "body", body)
        _set(self, "pos", pos)


class Declaration(FrozenRecord):
    __slots__ = ("name", "typ", "pos")

    def __init__(self, name: str, typ: TypeExpr, pos: Pos) -> None:
        _set(self, "name", name)
        _set(self, "typ", typ)
        _set(self, "pos", pos)


class SourceProgram(Record):
    __slots__ = ("declarations", "clauses")

    def __init__(
        self,
        declarations: list[Declaration] | None = None,
        clauses: list[RawClause] | None = None,
    ) -> None:
        self.declarations = [] if declarations is None else declarations
        self.clauses = [] if clauses is None else clauses


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

# A newline; blanks (str.isspace() but the newline); a comment; punctuation;
# a word (str.isalnum() or "_"); any other character.
_TOKEN = re.compile(r"(\n)|([^\S\n]+)|(%[^\n]*)|(->|<-|[(),.~=:])|(\w+)|(.)")

# Nesting levels in one clause head, body literal, root atom or declared
# type: the levels on the deepest path of its tree, where each parenthesis,
# each application and each arrow counts one.  An application leans left,
# so a spine's head sits one level down per argument; an arrow leans right.
# The count bounds the depth of the trees, which the passes after the
# parser recurse over.
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, Pos]]:
    """``(kind, text, position)`` of each token, then an ``EOF`` token."""
    tokens = []
    line, start = 1, 0  # start: offset of the line's first character
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 1:
            line += 1
            start = m.end()
        elif group > 3:
            word = m.group()
            col = m.start() - start + 1
            if group == 4:
                tokens.append((_PUNCT[word], word, Pos(line, col)))
            elif group == 5 and word[0].isalpha():
                tokens.append(("NAME", word, Pos(line, col)))
            else:
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
    # A comment that ends the text leaves the end at its "%".
    end = text.find("%", start)
    tokens.append(("EOF", "", Pos(line, (len(text) if end < 0 else end) - start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, Pos]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, Pos]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, Pos]:
        found, text, _ = self.peek()
        if found != kind:
            raise self.fail(f"expected {kind.lower()}, found {text or 'end of input'!r}")
        return self.next()

    def fail(self, message: str) -> ParseError:
        pos = self.peek()[2]
        return ParseError(message, pos.line, pos.column)

    def reach(self, depth: int, height: int) -> None:
        """Refuse the next token when it makes a tree ``height`` levels high,
        with its root ``depth`` levels down, too deep.  The parse methods
        take the depth of what they parse and return it with its height."""
        if depth + height > MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels")

    # -- types --------------------------------------------------------------

    def parse_type(self, depth: int = 0) -> tuple[TypeExpr, int]:
        left, height = self.parse_type_atom(depth)
        if self.peek()[0] != "ARROW":
            return left, height
        self.reach(depth, height + 1)
        self.next()
        right, right_height = self.parse_type(depth + 1)
        return Arrow(left, right), 1 + max(height, right_height)

    def parse_type_atom(self, depth: int) -> tuple[TypeExpr, int]:
        kind, text, _ = self.peek()
        if kind == "NAME" and text == "i":
            self.next()
            return IOTA, 0
        if kind == "NAME" and text == "o":
            self.next()
            return OMICRON, 0
        if kind == "LPAREN":
            self.reach(depth, 1)
            self.next()
            inner, height = self.parse_type(depth + 1)
            self.expect("RPAREN")
            return inner, height + 1
        raise self.fail(f"expected a type, found {text or 'end of input'!r}")

    # -- terms and literals ---------------------------------------------------

    def parse_name(self) -> RawName:
        _, text, pos = self.expect("NAME")
        if text in RESERVED:
            raise ParseError(f"{text!r} is reserved", pos.line, pos.column)
        return RawName(text, pos)

    def parse_arg(self, depth: int):
        kind, text, _ = self.peek()
        if kind == "NAME":
            return self.parse_name(), 0
        if kind == "LPAREN":
            self.reach(depth, 1)
            self.next()
            inner, height = self.parse_atom(depth + 1)
            self.expect("RPAREN")
            return inner, height + 1
        raise self.fail(f"expected a term, found {text or 'end of input'!r}")

    def parse_atom(self, depth: int = 0):
        pos = self.peek()[2]
        out, height = self.parse_arg(depth)
        while self.peek()[0] in ("NAME", "LPAREN"):
            self.reach(depth, height + 1)  # the spine so far sinks one level
            arg, arg_height = self.parse_arg(depth + 1)
            out = RawApp(out, arg, pos)
            height = 1 + max(height, arg_height)
        return out, height

    def parse_literal(self):
        kind, _, pos = self.peek()
        if kind == "TILDE":
            self.next()
            return RawNeg(self.parse_arg(0)[0], pos)
        lhs = self.parse_atom()[0]
        if self.peek()[0] == "EQUALS":
            eq = self.next()[2]
            return RawEq(lhs, self.parse_atom()[0], eq)
        return lhs

    # -- declarations and clauses ---------------------------------------------

    def parse_decl(self, seen: dict[str, Pos]) -> Declaration:
        self.next()  # the "type" keyword, checked by the caller
        name = self.parse_name()
        self.expect("COLON")
        typ = self.parse_type()[0]
        self.expect("DOT")
        if name.name in seen:
            raise DuplicateDeclaration(
                f"{name.name} already declared at {seen[name.name]}",
                name.pos.line,
                name.pos.column,
            )
        return Declaration(name.name, typ, name.pos)

    def parse_clause(self) -> RawClause:
        pos = self.peek()[2]
        head = self.parse_atom()[0]
        body: list = []
        if self.peek()[0] == "LARROW":
            self.next()
            # An empty body after <- is allowed: "p <- ." means the fact "p."
            if self.peek()[0] != "DOT":
                body.append(self.parse_literal())
                while self.peek()[0] == "COMMA":
                    self.next()
                    body.append(self.parse_literal())
        self.expect("DOT")
        return RawClause(head, tuple(body), pos)

    def parse_program(self) -> SourceProgram:
        sp = SourceProgram()
        seen: dict[str, Pos] = {}
        while self.peek()[0] != "EOF":
            kind, text, _ = self.peek()
            if kind == "NAME" and text == "type":
                decl = self.parse_decl(seen)
                seen[decl.name] = decl.pos
                sp.declarations.append(decl)
            else:
                sp.clauses.append(self.parse_clause())
        return sp


def parse_program(text: str) -> SourceProgram:
    """Parse a full program file; raises ParseError with a position on failure."""
    return _Parser(text).parse_program()


def parse_type(text: str) -> TypeExpr:
    p = _Parser(text)
    typ = p.parse_type()[0]
    p.expect("EOF")
    return typ


def parse_atom(text: str):
    """Parse a single atom (used for --roots arguments)."""
    p = _Parser(text)
    atom = p.parse_atom()[0]
    p.expect("EOF")
    return atom
