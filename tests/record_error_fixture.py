"""Record ``error_fixture.json``: failing front-end inputs and their errors.

Each entry holds a program text, optionally a root atom, and the rule and
message of the error that checking them raises: ``parse_program`` and
``check_program`` on the text, then, for an entry with a root,
``elaborate_ground_atom`` on the root's own text.  The inputs are

* random texts over the alphabet of acceptance criterion 7,
* ill-typed mutations of ``helpers.random_program_source`` programs: two
  names swapped, a name dropped, a variable in place of a head's
  predicate or a constant in place of a head's argument,
* ill-typed root atoms over those programs, some over two lines,
* a few texts written by hand, for the rules the others seldom meet.

``tests/test_error_fixture.py`` checks that the front end still raises
every recorded message, byte for byte.  Run from the repository root::

    PYTHONPATH=src:tests python tests/record_error_fixture.py > tests/error_fixture.json
"""

from __future__ import annotations

import json
import random
import re
import string
import sys

from hoplog.errors import HoplogError
from hoplog.parser import parse_program
from hoplog.typecheck import check_program, elaborate_ground_atom

from helpers import random_program_source

ALPHABET = string.ascii_letters + string.digits + " ()~=<->.,:%\n\t_"
WORD = re.compile(r"[A-Za-z]\w*")


def outcome(source: str, root: str | None = None):
    """``(rule, message)`` of the error checking raises, or None."""
    try:
        program = check_program(parse_program(source))
        if root is not None:
            elaborate_ground_atom(program, root)
    except HoplogError as exc:
        return exc.rule, str(exc)
    return None


def fuzz_inputs(rng: random.Random, count: int):
    while count:
        text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 32)))
        if outcome(text) is not None:
            count -= 1
            yield "fuzz", text, None


def _clause_words(source: str):
    """``(start, end, line)`` of every word in a clause line of source."""
    offset = 0
    for line_no, line in enumerate(source.splitlines(keepends=True)):
        if not line.startswith("type "):
            for m in WORD.finditer(line):
                yield offset + m.start(), offset + m.end(), line_no
        offset += len(line)


def mutate(rng: random.Random, source: str):
    """One mutation of source: ``(kind, text)``."""
    words = list(_clause_words(source))
    kind = rng.choice(("swap", "drop", "head"))
    if kind == "swap":
        (a0, a1, _), (b0, b1, _) = sorted(rng.sample(words, 2))
        text = source[:a0] + source[b0:b1] + source[a1:b0] + source[a0:a1] + source[b1:]
        return kind, text
    if kind == "drop":
        start, end, _ = rng.choice(words)
        return kind, source[:start] + source[end:]
    # A head: the first word of its line.  Replace the predicate by a
    # variable, or one of its arguments by a constant.
    heads = [i for i, w in enumerate(words) if i == 0 or words[i - 1][2] != w[2]]
    i = rng.choice(heads)
    line = words[i][2]
    args = [j for j in range(i + 1, len(words)) if words[j][2] == line]
    start, end, _ = words[i]
    if args and rng.random() < 0.5:
        start, end, _ = words[rng.choice(args[:3])]
        return kind, source[:start] + "c0" + source[end:]
    return kind, source[:start] + "Q" + source[end:]


def mutation_inputs(rng: random.Random, count: int):
    seed = 0
    while count:
        source = random_program_source(random.Random(seed))
        seed += 1
        if len(list(_clause_words(source))) < 2:
            continue
        kind, text = mutate(rng, source)
        if outcome(text) is not None:
            count -= 1
            yield kind, text, None


def root_inputs(rng: random.Random, count: int):
    seed = 0
    while count:
        source = random_program_source(random.Random(seed))
        seed += 1
        names = sorted({w for w in WORD.findall(source) if w != "type" and not w[0].isupper()})
        parts = [rng.choice(names + ["X", "zz"]) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            parts.insert(rng.randint(1, len(parts)), "(" + " ".join(rng.sample(names, 1)) + ")")
        root = rng.choice((" ", " ", "\n ")).join(parts)
        if outcome(source) is None and outcome(source, root) is not None:
            count -= 1
            yield "root", source, root


BY_HAND = (
    ("type p : o.\ntype q : i -> o.\n  type p : i -> o.\n", None),
    ("type Q : o.\n", None),
    ("type h : (i -> o) -> i.\n", None),
    ("p X <- Q R, p X.\ntype p : i -> o.\n", None),
    ("type foo : o.\ntype q : i -> o.\n\n  foo <- q X,\n    X.\n", None),
    ("type p : o.\np <- " + "(" * 101 + "p" + ")" * 101 + ".\n", None),
    ("type q : i -> o.\nq X <- X = a.\n", "q\n  (q a)"),
    ("type q : i -> o.\nq X <- X = a.\n", " q b"),
    ("type q : i -> o.\nq X <- X = a.\n", "q\n  b"),
    ("\n\ttype p : o.\n\t\tp <- ~q.\n", None),
    ("type q : i -> o.\ntype f : i -> i -> i.\nq X <- X = f a.\nq (f X) <- X = a.\n", None),
)


def hand_inputs():
    for text, root in BY_HAND:
        yield "hand", text, root


def main() -> None:
    rng = random.Random(1800)
    entries = []
    inputs = (fuzz_inputs(rng, 300), mutation_inputs(rng, 200), root_inputs(rng, 40))
    for inputs in (*inputs, hand_inputs()):
        for kind, text, root in inputs:
            rule, message = outcome(text, root)
            entries.append(
                {"kind": kind, "source": text, "root": root, "rule": rule, "message": message}
            )
    json.dump(entries, sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
