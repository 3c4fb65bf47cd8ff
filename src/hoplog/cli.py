"""Command-line driver.

One table, ``COMMANDS``, gives each subcommand's handler, summary and
options; a small argv parser and the --help text both read it.  Options are
spelled in full, as ``--opt value`` or ``--opt=value``; there is no ``--``.
Exit codes: 0 when the requested property holds (or the computation
succeeded), 2 when a semantic check fails (non-extensional model,
unstratifiable program), 1 for usage, I/O, parse or type errors.  Output
into a pipe whose reader has gone stops quietly, with exit 0.  Output is
JSON by default (stable key order, sorted arrays) or indented text.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace

from .errors import HoplogError, InvalidBudget, InvalidDepth
from .extensionality import ExtChecker
from .grounder import (
    GroundProgram,
    ground_instantiation,
    relevant_grounding,
    truncated_types,
)
from .interp import Ordering, minimal_models_bruteforce
from .parser import parse_program
from .perfect import Stratification, Unstratifiable, localize, perfect_model, stratify
from .programs import DEMOS
from .syntax import PredConst
from .typecheck import Program, check_program, elaborate_ground_atom
from .wfs import well_founded_model


def _read_input(path: str) -> str:
    if path == "-":  # stdin's bytes are decoded as a file's, whatever the locale
        if hasattr(sys.stdin, "buffer"):
            return sys.stdin.buffer.read().decode("utf-8", "surrogateescape")
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return fh.read()


def _load(path: str) -> Program:
    return check_program(parse_program(_read_input(path)))


def _parse_roots(program: Program, spec: str):
    roots = []
    for part in spec.split(","):
        part = part.strip()
        if part:
            roots.append(elaborate_ground_atom(program, part))
    return roots


def _depth(args) -> int:
    """The --depth bound, rejected before any grounding when below 1."""
    if args.depth < 1:
        raise InvalidDepth(f"--depth must be at least 1, got {args.depth}")
    return args.depth


def _grounding(program: Program, args) -> GroundProgram:
    k = _depth(args)
    if args.roots:
        return relevant_grounding(program, _parse_roots(program, args.roots), k)
    return ground_instantiation(program, k)


def _unstratifiable(strat: Unstratifiable) -> dict:
    return {"cycle": list(strat.cycle), "negative_edge": list(strat.strict_edge)}


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit_text(payload, indent=0)


def _emit_text(value, indent: int) -> None:
    """Print a dict's keys, sorted, or a list's items, each marked ``-``, one
    a line at this indent; a dict or list they hold follows one level deeper."""
    pad = "  " * indent
    if isinstance(value, dict):
        items = [(f"{key}:", value[key]) for key in sorted(value)]
    else:
        items = [("-", item) for item in value]
    for head, item in items:
        if isinstance(item, (dict, list)):
            print(f"{pad}{head}")
            _emit_text(item, indent + 1)
        else:
            print(f"{pad}{head} {item}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> tuple[dict, int]:
    program = _load(args.input)
    return {
        "ok": True,
        "clauses": len(program.clauses),
        "signature": {n: str(t) for n, t in program.signature.entries},
    }, 0


def cmd_ground(args) -> tuple[dict, int]:
    program = _load(args.input)
    gp = _grounding(program, args)
    return {
        "depth": args.depth,
        "atoms": sorted(gp.atoms),
        "clauses": [str(c) for c in gp.clauses],
        "truncated_types": list(truncated_types(program, args.depth)),
    }, 0


def cmd_wfs(args) -> tuple[dict, int]:
    program = _load(args.input)
    gp = _grounding(program, args)
    result = well_founded_model(gp)
    return {
        "depth": args.depth,
        "model": result.model.to_json_dict(),
        "stages": result.trace.fixpoint_stage,
    }, 0


def cmd_perfect(args) -> tuple[dict, int]:
    program = _load(args.input)
    strat = stratify(program)
    if isinstance(strat, Unstratifiable):
        return {
            "error": "perfect-model mode needs a stratified program",
            "unstratifiable": _unstratifiable(strat),
        }, 2
    gp = _grounding(program, args)
    result = perfect_model(gp, localize(strat, gp))
    return {
        "depth": args.depth,
        "model": result.model.to_json_dict(),
        "strata_used": strat.count,
    }, 0


def cmd_stratify(args) -> tuple[dict, int]:
    program = _load(args.input)
    strat = stratify(program)
    if isinstance(strat, Unstratifiable):
        return {"unstratifiable": _unstratifiable(strat)}, 2
    return {"strata": [list(s) for s in strat.strata]}, 0


def cmd_extcheck(args) -> tuple[dict, int]:
    program = _load(args.input)
    k = _depth(args)
    if args.budget is not None and args.budget < 1:
        raise InvalidBudget(f"--budget must be at least 1, got {args.budget}")
    checker = ExtChecker(program, k, args.budget)
    if args.roots:
        checker.oracle.add_atoms(_parse_roots(program, args.roots))
    report = checker.reflexivity_report()
    return {"report": report.to_json_dict()}, 0 if report.extensional_at_depth else 2


def cmd_minimal(args) -> tuple[dict, int]:
    program = _load(args.input)
    gp = _grounding(program, args)
    ordering = Ordering(args.ordering)
    models = minimal_models_bruteforce(gp, ordering)
    return {
        "ordering": ordering.value,
        "count": len(models),
        "models": [m.to_json_dict() for m in models],
    }, 0


# ---------------------------------------------------------------------------
# Demos
# ---------------------------------------------------------------------------


def _demo_lemma1() -> tuple[bool, dict]:
    program = check_program(parse_program(DEMOS["lemma1"]))
    roots = _parse_roots(program, "s p, s q")
    gp = relevant_grounding(program, roots, 3)
    model = well_founded_model(gp).model
    expected = {
        "s p": "false",
        "p (s p)": "false",
        "s q": "undefined",
        "q (s q)": "undefined",
        "w (s q)": "undefined",
    }
    values = {key: str(model.value(key)) for key in expected}
    checker = ExtChecker(program, 3)
    ptype = program.signature.lookup("p")
    p_const = PredConst("p", ptype)
    q_const = PredConst("q", program.signature.lookup("q"))
    p_equals_q = checker.equal(ptype, p_const, q_const)
    report = checker.reflexivity_report()
    witness_terms = {(w.term, w.pair) for w in report.witnesses}
    ok = (
        values == expected
        and p_equals_q
        and not report.extensional_at_depth
        and ("s", ("p", "q")) in witness_terms
    )
    details = {
        "model": {k: values[k] for k in sorted(values)},
        "p_extensionally_equals_q": p_equals_q,
        "report": report.to_json_dict(),
    }
    return ok, details


def _demo_bezem() -> tuple[bool, dict]:
    program = check_program(parse_program(DEMOS["bezem"]))
    gp = ground_instantiation(program, 2)
    model = well_founded_model(gp).model
    expected_true = ["q a", "q b", "p q", "id q a", "id q b", "p (id q)"]
    values = {key: str(model.value(key)) for key in expected_true}
    ok = all(v == "true" for v in values.values()) and model.is_total
    details = {"model": model.to_json_dict(), "total": model.is_total}
    return ok, details


def _demo_stratified() -> tuple[bool, dict]:
    program = check_program(parse_program(DEMOS["stratified"]))
    strat = stratify(program)
    ok = isinstance(strat, Stratification) and strat.strata == (("q",), ("p",))
    details: dict = {}
    if isinstance(strat, Stratification):
        gp = ground_instantiation(program, 3)
        perfect = perfect_model(gp, localize(strat, gp)).model
        wfs = well_founded_model(gp).model
        report = ExtChecker(program, 3).reflexivity_report()
        ok = (
            ok
            and perfect == wfs
            and perfect.is_total
            and report.extensional_at_depth
        )
        details.update(
            {
                "strata": [list(s) for s in strat.strata],
                "perfect_equals_wfs": perfect == wfs,
                "report": report.to_json_dict(),
            }
        )
    bad = stratify(check_program(parse_program(DEMOS["stratified_bad"])))
    bad_ok = isinstance(bad, Unstratifiable) and bad.strict_edge == ("q", "p")
    if isinstance(bad, Unstratifiable):
        details["rejected"] = _unstratifiable(bad)
    return ok and bad_ok, details


def cmd_demo(args) -> tuple[dict, int]:
    runners = {
        "lemma1": _demo_lemma1,
        "bezem": _demo_bezem,
        "stratified": _demo_stratified,
    }
    ok, details = runners[args.name]()
    return {"demo": args.name, "ok": ok, "details": details}, 0 if ok else 1


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

# An argument is (name, type, choices, default, help); a subcommand is
# (handler, summary, positional argument, options).
_INPUT = ("input", str, None, None, "program file, or - for stdin")
_FORMAT = ("--format", str, ("json", "text"), "json", "output format (default json)")
_DEPTH = ("--depth", int, None, 3, "term-size bound for universes (default 3)")
_ROOTS = ("--roots", str, None, "", "comma-separated ground atoms for demand grounding")
_BUDGET = ("--budget", int, None, None, "term-size budget for valuations (default 4*depth)")
_ORDERING = ("--ordering", str, ("truth", "fitting"), "fitting", "model order (default fitting)")
_DEMO = ("name", str, ("lemma1", "bezem", "stratified"), None, "the demonstration to run")
COMMANDS = {
    "check": (cmd_check, "parse and type-check", _INPUT, (_FORMAT,)),
    "ground": (cmd_ground, "dump a bounded grounding", _INPUT, (_DEPTH, _ROOTS, _FORMAT)),
    "wfs": (cmd_wfs, "well-founded model", _INPUT, (_DEPTH, _ROOTS, _FORMAT)),
    "perfect": (cmd_perfect, "perfect model (stratified only)", _INPUT, (_DEPTH, _ROOTS, _FORMAT)),
    "stratify": (cmd_stratify, "stratification analysis", _INPUT, (_FORMAT,)),
    "extcheck": (cmd_extcheck, "extensionality check", _INPUT, (_DEPTH, _ROOTS, _FORMAT, _BUDGET)),
    "minimal": (cmd_minimal, "brute-force minimal models", _INPUT,
                (_DEPTH, _ROOTS, _FORMAT, _ORDERING)),
    "demo": (cmd_demo, "run a bundled demonstration", _DEMO, (_FORMAT,)),
}
_COMMAND = ("command", str, tuple(COMMANDS), None, None)


class _UsageError(Exception):
    """A malformed command line: its args are the subcommand, or None, and the message."""


def _is_option(token: str) -> bool:
    return token[:1] == "-" and len(token) > 1 and not token[1:].isdecimal() and " " not in token


def _checked(command, argument, text: str):
    name, convert, choices = argument[:3]
    if choices and text not in choices:
        allowed = ", ".join(map(repr, choices))
        raise _UsageError(command, f"argument {name}: invalid choice: {text!r} "
                                   f"(choose from {allowed})")
    try:
        return convert(text)
    except ValueError:
        raise _UsageError(command, f"argument {name}: invalid int value: {text!r}") from None


def _parse_argv(argv: list[str]):
    """``(handler, args)`` for a command line, or ``(None, help text)`` if it asks for it."""
    if not argv:
        raise _UsageError(None, "the following arguments are required: command")
    if argv[0] in ("-h", "--help"):
        return None, _help(None)
    command = _checked(None, _COMMAND, argv[0])
    handler, _, positional, options = COMMANDS[command]
    by_name = {option[0]: option for option in options}
    values = {option[0][2:]: option[3] for option in options}
    extra, tokens = [], iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return None, _help(command)
        name, eq, text = token.partition("=")
        if name in by_name:
            text = text if eq else next(tokens, None)
            if text is None or (not eq and _is_option(text)):
                raise _UsageError(command, f"argument {name}: expected one argument")
            values[name[2:]] = _checked(command, by_name[name], text)
        elif _is_option(token) or positional[0] in values:
            extra.append(token)
        else:
            values[positional[0]] = _checked(command, positional, token)
    if values.get("roots") and not any(part.strip() for part in values["roots"].split(",")):
        raise _UsageError(command, f"argument --roots: names no atom: {values['roots']!r}")
    if positional[0] not in values:
        raise _UsageError(command, f"the following arguments are required: {positional[0]}")
    if extra:
        raise _UsageError(command, "unrecognized arguments: " + " ".join(extra))
    return handler, SimpleNamespace(**values)


def _spelled(argument) -> str:
    name, _, choices = argument[:3]
    value = "{" + ",".join(choices) + "}" if choices else name.lstrip("-").upper()
    return f"{name} {value}" if name[0] == "-" else value


def _help(command) -> str:
    """The --help text of a subcommand, or of hoplog for None; its first line is the usage."""
    if command is None:
        usage = f"hoplog [-h] {_spelled(_COMMAND)} ..."
        summary = "typed higher-order logic programs: grounding, well-founded and perfect models"
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        _, summary, positional, options = COMMANDS[command]
        flags = "".join(f" [{_spelled(option)}]" for option in options)
        usage = f"hoplog {command} [-h]{flags} {_spelled(positional)}"
        rows = [(_spelled(argument), argument[4]) for argument in (positional, *options)]
    rows = [f"  {left:<21} {right}" for left, right in [("-h, --help", "show this help"), *rows]]
    return "\n".join([f"usage: {usage}", "", summary, "", *rows])


# The collector's generation-0 threshold while a command runs (the
# interpreter's default is 700).  A run frees its objects by reference
# counting and leaves next to no cyclic garbage, so the default's passes
# over the young objects, several a query, would find nothing to free.
COLLECTOR_THRESHOLD = 50_000


def main(argv=None) -> int:
    thresholds = gc.get_threshold()
    gc.set_threshold(COLLECTOR_THRESHOLD, *thresholds[1:])
    try:
        handler, args = _parse_argv(sys.argv[1:] if argv is None else argv)
        if handler is None:
            print(args)
            code = 0
        else:
            payload, code = handler(args)
            _emit(payload, args.format)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except _UsageError as exc:
        command, message = exc.args
        prog = "hoplog" if command is None else f"hoplog {command}"
        print(_help(command).partition("\n")[0], f"{prog}: error: {message}", sep="\n",
              file=sys.stderr)
        return 1
    except HoplogError as exc:
        print(json.dumps({"error": str(exc), "rule": exc.rule}, sort_keys=True),
              file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader has gone, as under ``| head -1``: stop writing.  Point
        # stdout at the null device so the interpreter's flush at exit of
        # what is left unwritten meets no closed pipe either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
