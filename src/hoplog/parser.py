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


class Token(FrozenRecord):
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: Pos) -> None:
        _set(self, "kind", kind)
        _set(self, "text", text)
        _set(self, "pos", pos)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
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
            tokens.append(Token(_PUNCT[two], two, Pos(line, col)))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, Pos(line, col)))
            i += 1
            col += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], Pos(line, col)))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", Pos(line, col)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind.lower()}, found {tok.text or 'end of input'!r}",
                tok.pos.line,
                tok.pos.column,
            )
        return self.next()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.pos.line, tok.pos.column)

    # -- types --------------------------------------------------------------

    def parse_type(self) -> TypeExpr:
        left = self.parse_type_atom()
        if self.peek().kind == "ARROW":
            self.next()
            return Arrow(left, self.parse_type())
        return left

    def parse_type_atom(self) -> TypeExpr:
        tok = self.peek()
        if tok.kind == "NAME" and tok.text == "i":
            self.next()
            return IOTA
        if tok.kind == "NAME" and tok.text == "o":
            self.next()
            return OMICRON
        if tok.kind == "LPAREN":
            self.next()
            inner = self.parse_type()
            self.expect("RPAREN")
            return inner
        raise self.fail(f"expected a type, found {tok.text or 'end of input'!r}")

    # -- terms and literals ---------------------------------------------------

    def parse_name(self) -> RawName:
        tok = self.expect("NAME")
        if tok.text in RESERVED:
            raise ParseError(f"{tok.text!r} is reserved", tok.pos.line, tok.pos.column)
        return RawName(tok.text, tok.pos)

    def parse_arg(self):
        tok = self.peek()
        if tok.kind == "NAME":
            return self.parse_name()
        if tok.kind == "LPAREN":
            self.next()
            inner = self.parse_atom()
            self.expect("RPAREN")
            return inner
        raise self.fail(f"expected a term, found {tok.text or 'end of input'!r}")

    def parse_atom(self):
        pos = self.peek().pos
        out = self.parse_arg()
        while self.peek().kind in ("NAME", "LPAREN"):
            out = RawApp(out, self.parse_arg(), pos)
        return out

    def parse_literal(self):
        tok = self.peek()
        if tok.kind == "TILDE":
            self.next()
            return RawNeg(self.parse_arg(), tok.pos)
        lhs = self.parse_atom()
        if self.peek().kind == "EQUALS":
            eq = self.next()
            return RawEq(lhs, self.parse_atom(), eq.pos)
        return lhs

    # -- declarations and clauses ---------------------------------------------

    def parse_decl(self, seen: dict[str, Pos]) -> Declaration:
        kw = self.expect("NAME")  # the "type" keyword, checked by caller
        name_tok = self.expect("NAME")
        if name_tok.text in RESERVED:
            raise ParseError(
                f"{name_tok.text!r} is reserved", name_tok.pos.line, name_tok.pos.column
            )
        self.expect("COLON")
        typ = self.parse_type()
        self.expect("DOT")
        if name_tok.text in seen:
            raise DuplicateDeclaration(
                f"{name_tok.text} already declared at {seen[name_tok.text]}",
                name_tok.pos.line,
                name_tok.pos.column,
            )
        del kw
        return Declaration(name_tok.text, typ, name_tok.pos)

    def parse_clause(self) -> RawClause:
        pos = self.peek().pos
        head = self.parse_atom()
        body: list = []
        if self.peek().kind == "LARROW":
            self.next()
            # An empty body after <- is allowed: "p <- ." means the fact "p."
            if self.peek().kind != "DOT":
                body.append(self.parse_literal())
                while self.peek().kind == "COMMA":
                    self.next()
                    body.append(self.parse_literal())
        self.expect("DOT")
        return RawClause(head, tuple(body), pos)

    def parse_program(self) -> SourceProgram:
        sp = SourceProgram()
        seen: dict[str, Pos] = {}
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind == "NAME" and tok.text == "type":
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
    typ = p.parse_type()
    p.expect("EOF")
    return typ


def parse_atom(text: str):
    """Parse a single atom (used for --roots arguments)."""
    p = _Parser(text)
    atom = p.parse_atom()
    p.expect("EOF")
    return atom
