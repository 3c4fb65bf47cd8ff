"""Command-line driver.

Subcommands: check, ground, wfs, perfect, stratify, extcheck, minimal and
demo.  Exit codes: 0 when the requested property holds (or the computation
succeeded), 2 when a semantic check fails (non-extensional model,
unstratifiable program), 1 for usage, I/O, parse or type errors.  Output is
JSON by default (stable key order, sorted arrays) or indented text.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import HoplogError, InvalidBudget, InvalidDepth
from .extensionality import ExtChecker
from .grounder import (
    GroundProgram,
    ground_instantiation,
    relevant_grounding,
    truncated_types,
)
from .interp import Ordering, minimal_models_bruteforce
from .parser import parse_atom, parse_program
from .perfect import Stratification, Unstratifiable, localize, perfect_model, stratify
from .programs import DEMOS
from .syntax import PredConst
from .typecheck import Program, check_program, elaborate_ground_atom
from .wfs import well_founded_model


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str) -> Program:
    return check_program(parse_program(_read_input(path)))


def _parse_roots(program: Program, spec: str):
    roots = []
    for part in spec.split(","):
        part = part.strip()
        if part:
            roots.append(elaborate_ground_atom(program, parse_atom(part)))
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


def _emit_text(value, indent: int, label: str = "") -> None:
    pad = "  " * indent
    prefix = f"{pad}{label}: " if label else pad
    if isinstance(value, dict):
        if label:
            print(f"{pad}{label}:")
        for key in sorted(value):
            _emit_text(value[key], indent + (1 if label else 0), key)
    elif isinstance(value, list):
        if label:
            print(f"{pad}{label}:")
        for item in value:
            if isinstance(item, (dict, list)):
                _emit_text(item, indent + 1)
            else:
                print(f"{'  ' * (indent + 1)}- {item}")
    else:
        print(f"{prefix}{value}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    program = _load(args.input)
    _emit(
        {
            "ok": True,
            "clauses": len(program.clauses),
            "signature": {n: str(t) for n, t in program.signature.entries},
        },
        args.format,
    )
    return 0


def cmd_ground(args) -> int:
    program = _load(args.input)
    gp = _grounding(program, args)
    _emit(
        {
            "depth": args.depth,
            "atoms": sorted(gp.atoms),
            "clauses": [str(c) for c in gp.clauses],
            "truncated_types": list(truncated_types(program, args.depth)),
        },
        args.format,
    )
    return 0


def cmd_wfs(args) -> int:
    program = _load(args.input)
    gp = _grounding(program, args)
    result = well_founded_model(gp)
    _emit(
        {
            "depth": args.depth,
            "model": result.model.to_json_dict(),
            "stages": result.trace.fixpoint_stage,
        },
        args.format,
    )
    return 0


def cmd_perfect(args) -> int:
    program = _load(args.input)
    strat = stratify(program)
    if isinstance(strat, Unstratifiable):
        _emit(
            {
                "error": "perfect-model mode needs a stratified program",
                "unstratifiable": _unstratifiable(strat),
            },
            args.format,
        )
        return 2
    gp = _grounding(program, args)
    ls = localize(strat, gp)
    result = perfect_model(gp, ls)
    _emit(
        {
            "depth": args.depth,
            "model": result.model.to_json_dict(),
            "strata_used": strat.count,
        },
        args.format,
    )
    return 0


def cmd_stratify(args) -> int:
    program = _load(args.input)
    strat = stratify(program)
    if isinstance(strat, Unstratifiable):
        _emit({"unstratifiable": _unstratifiable(strat)}, args.format)
        return 2
    _emit({"strata": [list(s) for s in strat.strata]}, args.format)
    return 0


def cmd_extcheck(args) -> int:
    program = _load(args.input)
    k = _depth(args)
    if args.budget is not None and args.budget < 1:
        raise InvalidBudget(f"--budget must be at least 1, got {args.budget}")
    checker = ExtChecker(program, k, args.budget)
    if args.roots:
        checker.oracle.add_atoms(_parse_roots(program, args.roots))
    report = checker.reflexivity_report()
    _emit({"report": report.to_json_dict()}, args.format)
    return 0 if report.extensional_at_depth else 2


def cmd_minimal(args) -> int:
    program = _load(args.input)
    gp = _grounding(program, args)
    ordering = Ordering(args.ordering)
    models = minimal_models_bruteforce(gp, ordering)
    _emit(
        {
            "ordering": ordering.value,
            "count": len(models),
            "models": [m.to_json_dict() for m in models],
        },
        args.format,
    )
    return 0


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
        ls = localize(strat, gp)
        perfect = perfect_model(gp, ls).model
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


def cmd_demo(args) -> int:
    runners = {
        "lemma1": _demo_lemma1,
        "bezem": _demo_bezem,
        "stratified": _demo_stratified,
    }
    ok, details = runners[args.name]()
    _emit({"demo": args.name, "ok": ok, "details": details}, args.format)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hoplog",
        description="Typed higher-order logic programs: grounding, "
        "well-founded and perfect models, extensionality checking.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, summary, grounds=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("input", help="program file, or - for stdin")
        if grounds:
            p.add_argument("--depth", type=int, default=3, metavar="K",
                           help="term-size bound for universes (default 3)")
            p.add_argument("--roots", default="", metavar="ATOMS",
                           help="comma-separated ground atoms for demand grounding")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(func=func)
        return p

    command("check", cmd_check, "parse and type-check", grounds=False)
    command("ground", cmd_ground, "dump a bounded grounding")
    command("wfs", cmd_wfs, "well-founded model")
    command("perfect", cmd_perfect, "perfect model (stratified only)")
    command("stratify", cmd_stratify, "stratification analysis", grounds=False)
    ext_p = command("extcheck", cmd_extcheck, "extensionality check")
    ext_p.add_argument("--budget", type=int, default=None,
                       help="total term-size budget for valuations (default 4*depth)")
    min_p = command("minimal", cmd_minimal, "brute-force minimal models")
    min_p.add_argument("--ordering", choices=("truth", "fitting"), default="fitting")
    demo_p = sub.add_parser("demo", help="run a bundled demonstration")
    demo_p.add_argument("name", choices=("lemma1", "bezem", "stratified"))
    demo_p.add_argument("--format", choices=("json", "text"), default="json")
    demo_p.set_defaults(func=cmd_demo)
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except HoplogError as exc:
        print(json.dumps({"error": str(exc), "rule": exc.rule}, sort_keys=True),
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
