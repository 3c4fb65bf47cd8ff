"""Command-line driver: subcommands, exit codes, output determinism."""

import argparse
import ast
import collections
import enum
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hoplog
from hoplog import cli
from hoplog.cli import COMMANDS, _parse_argv, main
from hoplog.interp import PartialInterpretation
from hoplog.parser import MAX_NESTING
from hoplog.programs import NONEXTENSIONAL, POSITIVE_ID, STRATIFIED_BAD, STRATIFIED_OK

from corpus import CORPUS
from helpers import bench_workloads, nested_term, reference_parser, sinking_term


@pytest.fixture
def run(capsys, tmp_path):
    def invoke(argv, program=None, stdin=None):
        if program is not None:
            path = tmp_path / "input.hop"
            path.write_text(program)
            argv = argv + [str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def payload(out: str) -> dict:
    return json.loads(out)


class TestCheck:
    def test_ok(self, run):
        code, out, _ = run(["check"], program=POSITIVE_ID)
        assert code == 0
        data = payload(out)
        assert data["ok"] is True and data["clauses"] == 4

    def test_head_violation_exits_one(self, run):
        code, _, err = run(
            ["check"],
            program="type q : i -> o.\ntype r : (i -> o) -> o.\nq a.\nr q.",
        )
        assert code == 1
        assert "NonVariableHeadArgument" in err

    def test_parse_error_exits_one(self, run):
        code, _, err = run(["check"], program="type p : o.\np <- .")
        assert code == 0  # an empty body after <- is the fact "p."
        code, _, err = run(["check"], program="p <-- q.")
        assert code == 1

    def test_missing_file(self, run):
        code, _, err = run(["check", "/nonexistent/path.hop"])
        assert code == 1


class TestUndecodableInput:
    """A program that is not valid UTF-8 is refused at the offending byte's
    L:C, from a file as from stdin, and never with a traceback."""

    DATA = b"type p : o.\np. \xff\n"

    @staticmethod
    def hoplog(argv, stdin=b""):
        # UTF-8 mode: stdin decodes with surrogateescape, as under the POSIX
        # and C.UTF-8 locales
        env = dict(os.environ, PYTHONPATH=str(Path(hoplog.__file__).resolve().parents[1]),
                   PYTHONUTF8="1")
        return subprocess.run([sys.executable, "-m", "hoplog.cli", *argv], input=stdin,
                              env=env, capture_output=True, timeout=60)

    def test_file_and_stdin_give_the_same_error(self, tmp_path):
        path = tmp_path / "bad.hop"
        path.write_bytes(self.DATA)
        from_file = self.hoplog(["check", str(path)])
        from_stdin = self.hoplog(["check", "-"], self.DATA)
        for done in (from_file, from_stdin):
            assert done.returncode == 1 and done.stdout == b""
            assert b"Traceback" not in done.stderr
        assert from_file.stderr == from_stdin.stderr
        assert json.loads(from_file.stderr) == {
            "error": r"2:4: unexpected character '\udcff'", "rule": "ParseError"
        }

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "demo"])
    def test_every_subcommand_reads_a_file_as_it_reads_stdin(
        self, command, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "bad.hop"
        path.write_bytes(self.DATA)
        assert main([command, str(path)]) == 1
        from_file = capsys.readouterr()
        stdin = io.TextIOWrapper(io.BytesIO(self.DATA), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main([command, "-"]) == 1
        assert capsys.readouterr() == from_file
        assert from_file.out == "" and json.loads(from_file.err)["rule"] == "ParseError"

    def test_stdin_wrapper_of_any_encoding_gives_the_files_error(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "bad.hop"
        path.write_bytes(self.DATA)
        assert main(["check", str(path)]) == 1
        from_file = capsys.readouterr()
        assert json.loads(from_file.err)["rule"] == "ParseError"
        for encoding, errors in [("utf-8", "strict"), ("latin-1", "strict"), ("ascii", "replace")]:
            stdin = io.TextIOWrapper(io.BytesIO(self.DATA), encoding=encoding, errors=errors)
            monkeypatch.setattr(sys, "stdin", stdin)
            assert main(["check", "-"]) == 1
            assert capsys.readouterr() == from_file

    def test_valid_utf8_from_stdin_under_a_latin1_locale(self, tmp_path):
        data = "type café : o.\ncafé.\n".encode()
        path = tmp_path / "cafe.hop"
        path.write_bytes(data)
        env = dict(os.environ, PYTHONPATH=str(Path(hoplog.__file__).resolve().parents[1]),
                   PYTHONIOENCODING="latin-1")
        runs = [subprocess.run([sys.executable, "-m", "hoplog.cli", "wfs", name, "--depth", "1"],
                               input=data, env=env, capture_output=True, timeout=60)
                for name in (str(path), "-")]
        for done in runs:
            assert done.returncode == 0 and done.stderr == b""
        assert runs[0].stdout == runs[1].stdout
        assert json.loads(runs[0].stdout.decode("latin-1"))["model"]["true"] == ["café"]


class _Small(enum.IntEnum):
    TWO = 2


# Payload trees: what the JSON writer takes.  Strings reach non-ASCII
# characters, control characters, quotes, backslashes and lone surrogates.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\ud800", "caf\u00e9 \U0001f600"]
)
_SCALARS = _TEXT | st.integers() | st.just(_Small.TWO) | st.booleans() | st.none()
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


class TestJsonWriter:
    """The CLI's JSON writer gives the bytes of ``json.dumps(indent=2,
    sort_keys=True)`` and refuses what that would write but payloads never hold."""

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(_PAYLOADS)
    def test_same_text_as_json_dumps(self, value):
        assert cli._json(value, "\n") == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [1.5, {1, 2}, [0.0], {"a": {"b": frozenset()}}, {1: 2}])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json(value, "\n")


class TestLineEnds:
    """CRLF and a lone CR end a line as a newline does, in a file and on
    stdin alike, whether stdin has a byte buffer or not."""

    PROGRAMS = {
        "cr": b"type p : o.\r% note\rp.\r",
        "crlf": b"type p : o.\r\n% note\r\np.\r\n",
        "mixed": b"type p : o.\r\n% note\rp.\n",
    }

    @staticmethod
    def outputs(argv, data, tmp_path, monkeypatch, capsys):
        """(exit code, stdout, stderr) from a file, from stdin's buffer, and
        from a stdin of text only."""
        path = tmp_path / "input.hop"
        path.write_bytes(data)
        runs = [(main(argv + [str(path)]), *capsys.readouterr())]
        for stdin in (io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""),
                      io.StringIO(data.decode(), newline="")):
            monkeypatch.setattr(sys, "stdin", stdin)
            runs.append((main(argv + ["-"]), *capsys.readouterr()))
        return runs

    @pytest.mark.parametrize("ends", sorted(PROGRAMS))
    @pytest.mark.parametrize("argv", [["check"], ["ground", "--depth", "1"]],
                             ids=["check", "ground"])
    def test_file_and_stdin_read_one_program(self, argv, ends, tmp_path, monkeypatch, capsys):
        runs = self.outputs(argv, self.PROGRAMS[ends], tmp_path, monkeypatch, capsys)
        expected = self.outputs(argv, b"type p : o.\n% note\np.\n", tmp_path, monkeypatch, capsys)
        assert runs == expected and len(set(runs)) == 1
        code, out, err = runs[0]
        assert code == 0 and err == ""
        if argv == ["check"]:
            assert payload(out)["clauses"] == 1
        else:
            assert payload(out)["clauses"] == ["p."]

    @pytest.mark.parametrize("ends", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    def test_parse_error_at_the_same_line_and_column(self, ends, tmp_path, monkeypatch, capsys):
        data = ends.join([b"type p : o.", b"", b"  p <- ~.", b""])
        runs = self.outputs(["check"], data, tmp_path, monkeypatch, capsys)
        assert len(set(runs)) == 1
        error = '{"error": "3:9: expected a term, found \'.\'", "rule": "ParseError"}\n'
        assert runs[0] == (1, "", error)


def _parens(n: int, inner: str) -> str:
    return "(" * n + inner + ")" * n


# Each shape nested n levels deep, as (program, root or None).
NESTED = {
    "term_parens": lambda n: (f"type p : o.\ntype q : o.\nq.\np <- {_parens(n, 'q')}.", None),
    "type_parens": lambda n: (f"type p : {_parens(n, 'o')}.\np.", None),
    "arrows": lambda n: (
        f"type a : i.\ntype q : {'i -> ' * n}o.\nq {' '.join(f'X{j}' for j in range(n))}.",
        None,
    ),
    "arguments": lambda n: (
        f"type p : o.\ntype q : {'i -> ' * MAX_NESTING}o.\np <- q{' a' * n}.", None
    ),
    "root": lambda n: (
        "type f : i -> i.\ntype p : i -> o.\np X <- X = a.", f"p ({nested_term(n - 2)})"
    ),
    "function_term": lambda n: (
        f"type f : i -> i.\ntype q : i -> o.\nq X <- X = {nested_term(n)}.", None
    ),
}


class TestNestingLimit:
    """Input nested past ``MAX_NESTING`` is a ParseError, not a crash; input
    at the limit checks, grounds and prints."""

    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_at_the_limit(self, run, shape):
        program, root = NESTED[shape](MAX_NESTING)
        roots = [] if root is None else ["--roots", root]
        assert run(["check"], program=program)[0] == 0
        for argv in (["ground"], ["wfs"], ["ground", "--format", "text"]):
            code, out, err = run(argv + ["--depth", "1"] + roots, program=program)
            assert (code, err) == (0, ""), argv
            assert out

    @pytest.mark.parametrize("deeper", [1, 2900])
    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_past_the_limit(self, run, shape, deeper):
        program, root = NESTED[shape](MAX_NESTING + deeper)
        if root is None:
            commands = [["check"], ["ground", "--depth", "1"]]
        else:
            commands = [["wfs", "--depth", "1", "--roots", root]]
        for argv in commands:
            code, out, err = run(argv, program=program)
            assert (code, out) == (1, ""), argv
            error = json.loads(err)
            assert error["rule"] == "ParseError"
            assert error["error"].endswith(f": nesting deeper than {MAX_NESTING} levels")

    def test_wide_and_shallow_input_checks(self, run):
        program = (
            f"type h : {'(i -> o) -> ' * 34}o.\ntype p : {'i -> ' * 60}o.\n"
            f"q <- p{' (a)' * 60}.\ntype q : o."
        )
        assert run(["check"], program=program)[0] == 0

    def test_sinking_arguments_are_refused(self, run):
        program = (
            f"type g : {'i -> ' * 31}i.\ntype p : i -> o.\n"
            f"p X <- X = {sinking_term(35, 30)}."
        )
        code, out, err = run(["check"], program=program)
        assert (code, out) == (1, "")
        assert json.loads(err)["rule"] == "ParseError"


class TestGround:
    def test_dump_contains_resolved_equalities(self, run):
        code, out, _ = run(
            ["ground", "--depth", "1"],
            program="type q : i -> o.\ntype b : i.\nq X <- X = a.",
        )
        assert code == 0
        data = payload(out)
        assert "q a <- true." in data["clauses"]
        assert "q b <- false." in data["clauses"]
        assert data["atoms"] == ["q a", "q b"]

    def test_roots_restrict_grounding(self, run):
        code, out, _ = run(
            ["ground", "--depth", "3", "--roots", "s p"], program=NONEXTENSIONAL
        )
        data = payload(out)
        assert sorted(data["clauses"]) == ["p (s p) <- s p.", "s p <- p (s p)."]

    def test_clause_cap_exits_one(self, run):
        # 8 variables over 10 individuals: 10^8 instances, refused up front.
        program = (
            "".join(f"type c{i} : i.\n" for i in range(10))
            + "type q : o.\ntype r : i -> o.\n"
            + "q <- " + ", ".join(f"r X{j}" for j in range(8)) + ".\n"
        )
        code, out, err = run(["ground", "--depth", "1"], program=program)
        assert code == 1 and out == ""
        assert json.loads(err)["rule"] == "GroundingLimitExceeded"

    def test_deep_universe(self, run):
        # The universe of i runs up to f applied 599 times; sorting, hashing
        # and comparing such terms must not recurse once per nesting level.
        code, out, _ = run(
            ["ground", "--depth", "600"],
            program="type a : i.\ntype f : i -> i.\ntype p : i -> o.\np X <- X = a.",
        )
        assert code == 0
        data = payload(out)
        assert len(data["clauses"]) == 600 == len(data["atoms"])
        assert data["clauses"][0] == "p a <- true."
        assert data["clauses"][1:3] == ["p (f a) <- false.", "p (f (f a)) <- false."]
        assert data["clauses"][-1] == "p " + "(f " * 599 + "a" + ")" * 599 + " <- false."
        assert "i" in data["truncated_types"]

    def test_universe_over_the_cap_is_refused(self, run):
        # At depth 10,000 the universe of i would hold about 5 * 10**7
        # symbols; its build stops at the cap of 10**6, at size 1414.
        start = time.perf_counter()
        code, out, err = run(
            ["ground", "--depth", "10000"],
            program="type a : i.\ntype f : i -> i.\ntype p : i -> o.\np X <- X = a.",
        )
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["rule"] == "GroundingLimitExceeded"
        assert "size 1414" in error["error"]
        assert time.perf_counter() - start < 30


class TestWfs:
    def test_model_dump_and_stage_count(self, run):
        code, out, _ = run(
            ["wfs", "--depth", "3", "--roots", "s p, s q"], program=NONEXTENSIONAL
        )
        assert code == 0
        data = payload(out)
        assert data["model"] == {
            "true": [],
            "false": ["p (s p)", "s p"],
            "undefined": ["q (s q)", "s q", "w (s q)"],
        }
        assert data["stages"] == 1

    def test_deep_demand_exits_one(self, run):
        # p a demands p (f a), p (f (f a)), ...: the atom size cap stops the
        # chain long before printing or hashing it could overflow the stack.
        code, out, err = run(
            ["wfs", "--depth", "1", "--roots", "p a"],
            program="type a : i.\ntype p : i -> o.\ntype f : i -> i.\np X <- p (f X).",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["rule"] == "GroundingLimitExceeded"

    def test_empty_program(self, run):
        code, out, _ = run(["wfs", "--depth", "1"], program="")
        assert code == 0
        assert payload(out)["model"] == {"true": [], "false": [], "undefined": []}

    def test_stdin(self, run, monkeypatch, capsys):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO("type p : o.\np <- ~p.\n"))
        code = main(["wfs", "-", "--depth", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert payload(out)["model"]["undefined"] == ["p"]


class TestPerfect:
    def test_stratified_program(self, run):
        code, out, _ = run(["perfect", "--depth", "3"], program=STRATIFIED_OK)
        assert code == 0
        data = payload(out)
        assert data["strata_used"] == 2
        assert data["model"]["undefined"] == []

    def test_unstratifiable_exits_two(self, run):
        code, out, _ = run(["perfect", "--depth", "3"], program=NONEXTENSIONAL)
        assert code == 2
        data = payload(out)
        assert "unstratifiable" in data


class TestOneInterpretation:
    """A `wfs` or `perfect` run builds one `PartialInterpretation`, the
    model: the stages run on value vectors, and the trace is never read."""

    def test_each_run_builds_only_the_model(self, tmp_path, capsys, monkeypatch):
        built = []
        init = PartialInterpretation.__init__

        def counting(self, *args):
            built.append(True)
            init(self, *args)

        monkeypatch.setattr(PartialInterpretation, "__init__", counting)
        argvs = []
        for entry in CORPUS:
            path = tmp_path / f"{entry.name}.hop"
            path.write_text(entry.source)
            roots = ["--roots", ", ".join(entry.roots)] if entry.roots else []
            for command in ("wfs", "perfect"):
                argv = [command, str(path), "--depth", str(entry.depth)]
                argvs += [argv, argv + roots, argv + ["--format", "text"]]
        workloads = bench_workloads()
        for pool in (workloads.game_pool, workloads.strat_pool):
            for i, query in enumerate(pool(1)):
                path = tmp_path / f"{pool.__name__}-{i}.hop"
                path.write_text(query.source)
                argvs.append([str(path) if a == "{input}" else a for a in query.args])
        codes = []
        for argv in argvs:
            built.clear()
            codes.append(main(argv))
            assert len(built) == (codes[-1] == 0), argv
        capsys.readouterr()
        assert codes.count(0) > 100 and codes.count(2) > 10


class TestStratify:
    def test_accepted(self, run):
        code, out, _ = run(["stratify"], program=STRATIFIED_OK)
        assert code == 0
        assert payload(out) == {"strata": [["q"], ["p"]]}

    def test_rejected_with_cycle(self, run):
        code, out, _ = run(["stratify"], program=STRATIFIED_BAD)
        assert code == 2
        data = payload(out)["unstratifiable"]
        assert data["negative_edge"] == ["q", "p"]
        assert set(data["cycle"]) == {"p", "q"}


class TestExtcheck:
    def test_non_extensional_exits_two(self, run):
        code, out, _ = run(["extcheck", "--depth", "3"], program=NONEXTENSIONAL)
        assert code == 2
        report = payload(out)["report"]
        assert report["verdict"] == "non-extensional"
        assert report["witnesses"][0]["term"] == "s"

    def test_extensional_exits_zero(self, run):
        code, out, _ = run(["extcheck", "--depth", "3"], program=STRATIFIED_OK)
        assert code == 0
        assert payload(out)["report"]["verdict"] == "extensional-at-depth-3"

    def test_budget_exhaustion_reports_unknown(self, run):
        # q (f a) needs 3 symbols against a budget of 2: the check of q is
        # unknown, never a witness.
        code, out, _ = run(
            ["extcheck", "--depth", "3", "--budget", "2"],
            program="type q : i -> o.\ntype f : i -> i.\nq X <- X = a.",
        )
        assert code == 0
        report = payload(out)["report"]
        assert report["witnesses"] == []
        assert report["unknown"]
        assert all(item["type"] == "i -> o" for item in report["unknown"])
        assert report["verdict"] == "extensional-at-depth-3"

    def test_roots_leave_the_report_unchanged(self, run):
        # extcheck always grounds on demand: --roots only adds its atoms to
        # the oracle's demand, whose values do not depend on it.
        entries = [entry for entry in CORPUS if entry.roots]
        for entry in entries:
            for k in ("1", "2", "3"):
                plain = run(["extcheck", "--depth", k], program=entry.source)
                rooted = run(["extcheck", "--depth", k, "--roots", ", ".join(entry.roots)],
                             program=entry.source)
                assert rooted == plain, (entry.name, k)
        assert len(entries) == 3

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_is_refused(self, run, budget):
        # Under such a budget every item would be unknown, and the lemma 1
        # program would read as extensional.
        code, out, err = run(
            ["extcheck", "--depth", "3", "--budget", budget], program=NONEXTENSIONAL
        )
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": f"--budget must be at least 1, got {budget}",
            "rule": "InvalidBudget",
        }


class TestMinimal:
    def test_fitting_minimal_models(self, run):
        code, out, _ = run(
            ["minimal", "--depth", "1", "--ordering", "fitting"],
            program="type p : o.\ntype q : o.\np <- ~q.",
        )
        assert code == 0
        data = payload(out)
        assert data["count"] == 1
        assert data["models"] == [{"true": [], "false": [], "undefined": ["p", "q"]}]

    def test_oracle_limit(self, run):
        names = [f"x{i}" for i in range(13)]
        src = "\n".join(f"type {n} : o." for n in names) + "\n" + "\n".join(
            f"{n}." for n in names
        )
        code, _, err = run(["minimal", "--depth", "1"], program=src)
        assert code == 1
        assert "TooLarge" in err


class TestDemo:
    @pytest.mark.parametrize("name", ["lemma1", "bezem", "stratified"])
    def test_demos_pass(self, run, name):
        code, out, _ = run(["demo", name])
        assert code == 0
        assert payload(out)["ok"] is True

    def test_lemma1_details(self, run):
        _, out, _ = run(["demo", "lemma1"])
        details = payload(out)["details"]
        assert details["model"]["s p"] == "false"
        assert details["model"]["s q"] == "undefined"
        assert details["p_extensionally_equals_q"] is True
        witness = details["report"]["witnesses"][0]
        assert witness["argument_pair"] == ["p", "q"]


class TestDepthBelowOne:
    @pytest.mark.parametrize("command", ["ground", "wfs", "perfect", "minimal", "extcheck"])
    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_json_error_and_exit_one(self, run, command, depth):
        code, out, err = run([command, "--depth", depth], program=STRATIFIED_OK)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": f"--depth must be at least 1, got {depth}",
            "rule": "InvalidDepth",
        }


class TestVariableOfNoArgumentType:
    """A variable inferred at a functional type ranges over no universe, so
    the checker refuses its clause, and no subcommand runs on it."""

    PROGRAM = "type a : i. type b : i. type f : i -> i. type p : o. p <- X a = b."

    @pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"demo"}))
    def test_every_subcommand_exits_one(self, run, command):
        code, out, err = run([command], program=self.PROGRAM)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "IllTyped: 1:59: variable X : i -> i is of no argument type"
                     " in the clause for 'p' at 1:54",
            "rule": "ProgramCheckError",
        }


class TestEmptyUniverse:
    """A clause whose variable has no term of at most K symbols has no
    instance, as the bound drops larger terms: no subcommand refuses it."""

    # R : i -> o has no term at all; Y : i has none in the second program
    PROGRAMS = {
        "predicate-variable": "type p : o. type h : (i -> o) -> o. h R <- R a. p <- h R.",
        "body-only-individual": "type p : o -> o. type q : o. type r : i -> o. p X <- r Y. q.",
    }

    @pytest.mark.parametrize("command", ["ground", "wfs", "perfect", "extcheck", "minimal"])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_every_subcommand_exits_zero(self, run, command, name):
        code, out, err = run([command, "--depth", "2"], program=self.PROGRAMS[name])
        assert (code, err) == (0, "")
        assert payload(out)

    def test_ground_keeps_only_the_instances(self, run):
        grounded = [payload(run(["ground", "--depth", "2"], program=self.PROGRAMS[name])[1])
                    for name in ("predicate-variable", "body-only-individual")]
        assert [(g["atoms"], g["clauses"]) for g in grounded] == [([], []), (["q"], ["q."])]

    def test_stratified_bad_grounds_at_depth_one(self, run):
        code, out, err = run(["ground", "--depth", "1"], program=STRATIFIED_BAD)
        assert (code, err) == (0, "")
        assert payload(out) == {
            "atoms": ["p (q a)", "q a a"],
            "clauses": ["q a a <- true, true, p (q a)."],
            "depth": 1,
            "truncated_types": ["i -> o", "o"],
        }


class TestUsageErrors:
    """A malformed command line exits 1 with a usage line and an error line
    on stderr, and nothing on stdout; exit 2 stays reserved for a failed
    semantic check."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["wfs", "FILE", "--bogus"],  # unknown option
            [],  # no subcommand
            ["wfs"],  # no input
            ["wfs", "FILE", "--depth", "abc"],  # non-integer --depth
            ["wfs", "FILE", "--format", "xml"],
            ["nosuch", "FILE"],
            ["wfs", "FILE", "--depth"],  # missing value
            ["wfs", "FILE", "--depth=abc"],
            ["wfs", "FILE", "--dep", "1"],  # options are spelled in full
            ["wfs", "--", "FILE"],  # no -- separator
        ],
        ids=[
            "unknown-option",
            "no-subcommand",
            "no-input",
            "non-integer-depth",
            "unknown-format",
            "unknown-subcommand",
            "missing-value",
            "non-integer-depth-after-equals",
            "abbreviated-option",
            "double-dash",
        ],
    )
    def test_usage_error_exits_one(self, capsys, tmp_path, argv):
        path = tmp_path / "input.hop"
        path.write_text(STRATIFIED_OK)
        assert main([str(path) if a == "FILE" else a for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: hoplog" in captured.err and "error:" in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["wfs", "--help"], ["wfs", "FILE", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: hoplog")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_lists_the_options_of_the_table_entry(self, capsys, command):
        assert main([command, "--help"]) == 0
        usage, _, rows = capsys.readouterr().out.partition("\n")
        declared = {option[0] for option in COMMANDS[command][3]}
        assert set(re.findall(r"--[a-z]+", usage)) == declared
        assert set(re.findall(r"--[a-z]+", rows)) == declared | {"--help"}

    # Each option a subcommand's handler never reads: 11 in all.
    IGNORED = [
        *((c, "--oracle-limit=2") for c in ("check", "ground", "wfs", "perfect", "stratify")),
        ("extcheck", "--oracle-limit=2"),
        ("minimal", "--oracle-limit=2"),
        *((c, o) for c in ("check", "stratify") for o in ("--depth=2", "--roots=p")),
    ]

    @pytest.mark.parametrize("command, option", IGNORED)
    def test_option_the_subcommand_ignores_is_refused(self, run, command, option):
        code, out, err = run([command, option], program=STRATIFIED_OK)
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {option}" in err


ROOTS_COMMANDS = [name for name, entry in COMMANDS.items()
                  if any(option[0] == "--roots" for option in entry[3])]


class TestRootsNamingNoAtom:
    """A ``--roots`` value whose comma-separated parts are all blank names no
    atom: a usage error, where ``--roots ""`` grounds exhaustively."""

    def test_the_subcommands_that_take_roots(self):
        assert ROOTS_COMMANDS == ["ground", "wfs", "perfect", "extcheck", "minimal"]

    @pytest.mark.parametrize("command", ROOTS_COMMANDS)
    @pytest.mark.parametrize("roots", [",", " ", " , ,"])
    def test_usage_error_exits_one(self, run, command, roots):
        for argv in ([command, "--roots", roots], [command, f"--roots={roots}"]):
            code, out, err = run(argv, program=STRATIFIED_OK)
            assert code == 1 and out == ""
            usage, error = err.splitlines()
            assert usage.startswith(f"usage: hoplog {command} ")
            assert error == f"hoplog {command}: error: argument --roots: names no atom: {roots!r}"

    @pytest.mark.parametrize("command", ROOTS_COMMANDS)
    def test_empty_roots_ground_exhaustively(self, run, command):
        program = "type a : i.\ntype b : i.\ntype p : i -> o.\ntype q : i -> o.\n" \
                  "p X <- ~(q X).\nq X <- X = a."
        exhaustive = run([command], program=program)
        assert exhaustive[0] in (0, 2) and exhaustive[1]
        assert run([command, "--roots", ""], program=program) == exhaustive
        assert run([command, "--roots", "p b, "], program=program) == \
               run([command, "--roots", "p b"], program=program)


class TestDeterminism:
    def test_byte_identical_output(self, run):
        first = run(["extcheck", "--depth", "3"], program=NONEXTENSIONAL)
        second = run(["extcheck", "--depth", "3"], program=NONEXTENSIONAL)
        assert first == second

    def test_text_format(self, run):
        code, out, _ = run(
            ["wfs", "--depth", "1", "--format", "text"],
            program="type p : o.\np.",
        )
        assert code == 0
        assert "true" in out and "p" in out


def read_text(text: str):
    """The tree that ``--format text`` printed, read back: dicts and lists,
    each scalar as its printed string, each empty dict or list as None."""
    lines = [(len(line) - len(line.lstrip(" ")), line.lstrip(" ")) for line in text.splitlines()]

    def block(i: int, indent: int):  # the value whose lines start at i; the next line's index
        if i == len(lines) or lines[i][0] < indent:
            return None, i
        out = [] if lines[i][1].startswith("-") else {}
        while i < len(lines) and lines[i][0] == indent:
            line = lines[i][1]
            if isinstance(out, list):
                key, nested, scalar = None, line == "-", line[2:]
            else:
                key, sep, scalar = line.partition(": ")
                nested = not sep
                key = key[:-1] if nested else key
            value, i = block(i + 1, indent + 2) if nested else (scalar, i + 1)
            if key is None:
                out.append(value)
            else:
                out[key] = value
        return out, i

    tree, end = block(0, 0)
    assert end == len(lines) and lines[0][0] == 0, text
    return tree


def printed(value):
    """A JSON payload as the text form shows it: see ``read_text``."""
    if isinstance(value, dict):
        return {k: printed(v) for k, v in value.items()} or None
    if isinstance(value, list):
        return [printed(v) for v in value] or None
    return str(value)


class TestTextFormat:
    """``--format text`` renders the JSON tree as indented lines: a dict's
    keys and a list's ``-`` items one a line, and the dict or list an item
    holds one level below its line."""

    def test_each_model_is_one_item(self, run):
        program = "type p : o.\ntype q : o.\np <- ~q.\nq <- ~p.\n"
        code, out, _ = run(["minimal", "--ordering", "truth", "--format", "text"], program=program)
        assert code == 0
        assert out == (
            "count: 3\nmodels:\n"
            "  -\n    false:\n    true:\n    undefined:\n      - p\n      - q\n"
            "  -\n    false:\n      - q\n    true:\n      - p\n    undefined:\n"
            "  -\n    false:\n      - p\n    true:\n      - q\n    undefined:\n"
            "ordering: truth\n"
        )

    def test_two_strata_differ_from_one(self, run):
        two = run(["stratify", "--format", "text"], program="type p : o.\ntype q : o.\np <- ~q.\nq.")
        one = run(["stratify", "--format", "text"], program="type p : o.\ntype q : o.\np <- q.\nq <- p.")
        assert two == (0, "strata:\n  -\n    - q\n  -\n    - p\n", "")
        assert one == (0, "strata:\n  -\n    - p\n    - q\n", "")

    def test_text_reads_back_as_the_json_tree(self, run, tmp_path):
        checked = 0
        for entry in CORPUS:
            path = tmp_path / f"{entry.name}.hop"
            path.write_text(entry.source)
            for command in ("check", "stratify", "ground", "wfs", "perfect", "extcheck", "minimal"):
                argv = [command, str(path)]
                if command not in ("check", "stratify"):
                    argv += ["--depth", str(entry.depth)]
                code, json_out, _ = run(argv)
                text_code, text_out, _ = run(argv + ["--format", "text"])
                assert text_code == code and bool(text_out) == bool(json_out), argv
                if json_out:
                    assert read_text(text_out) == printed(json.loads(json_out)), argv
                    checked += 1
        for name in ("lemma1", "bezem", "stratified"):
            _, json_out, _ = run(["demo", name])
            assert read_text(run(["demo", name, "--format", "text"])[1]) == printed(json.loads(json_out))
        assert checked > 150


class TestDeadClauses:
    SOURCE = "type p : i -> o.\ntype r : i -> o.\ntype b : i.\np X <- X = a, ~(r X)."

    def test_ground_prints_dead_clauses(self, run):
        code, out, _ = run(["ground", "--depth", "1"], program=self.SOURCE)
        assert code == 0
        data = payload(out)
        assert data["atoms"] == ["p a", "p b", "r a", "r b"]
        assert data["clauses"] == ["p a <- true, ~(r a).", "p b <- false, ~(r b)."]

    @pytest.mark.parametrize("command", ["wfs", "perfect"])
    def test_dead_only_atoms_stay_in_the_model_dump(self, run, command):
        code, out, _ = run([command, "--depth", "1"], program=self.SOURCE)
        assert code == 0
        assert payload(out)["model"] == {
            "true": ["p a"],
            "false": ["p b", "r a", "r b"],
            "undefined": [],
        }


class TestHashSeed:
    """CLI output must not depend on string hashing: run the same commands
    under two hash seeds, each in its own interpreter, and compare stdout."""

    def commands(self, tmp_path):
        argvs = [["demo", name] for name in ("lemma1", "bezem", "stratified")]
        for entry in CORPUS:
            if entry.name not in ("win_move", "ho_positive", "ho_stratified", "winnow_best"):
                continue
            path = tmp_path / f"{entry.name}.hop"
            path.write_text(entry.source)
            roots = ["--roots", ", ".join(entry.roots)] if entry.roots else []
            for command in ("ground", "wfs", "perfect", "extcheck"):
                argv = [command, str(path), "--depth", str(entry.depth)]
                if command != "extcheck":
                    argv += roots
                argvs += [argv, argv + ["--format", "text"]]
            argvs += [["stratify", str(path)], ["stratify", str(path), "--format", "text"]]
        path = tmp_path / "lemma1.hop"
        path.write_text(NONEXTENSIONAL)
        argvs.append(["extcheck", str(path), "--depth", "4"])
        return argvs

    def run_under_seed(self, seed: str, argvs) -> str:
        script = (
            "import json, sys\n"
            "from hoplog.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    code = main(argv)\n"
            "    print('$', *argv, '->', code)\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(Path(hoplog.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_stdout_is_independent_of_the_hash_seed(self, tmp_path):
        argvs = self.commands(tmp_path)
        first = self.run_under_seed("0", argvs)
        assert first.count("\n$ ") == len(argvs)
        assert self.run_under_seed("1", argvs) == first


def _from_hoplog(obj) -> bool:
    """obj is an instance of a hoplog class, or a hoplog function, method,
    frame or generator."""
    code = getattr(obj, "f_code", None) or getattr(obj, "gi_code", None)
    modules = [type(obj).__module__, getattr(obj, "__module__", None),
               code and Path(code.co_filename).parent.name]
    return any(isinstance(m, str) and m.split(".")[0] == "hoplog" for m in modules)


class TestCycleFree:
    """A run frees what it builds by reference counting alone: with the
    collector off, no object is left in a reference cycle.  The CLI writes
    its JSON itself; the standard library's pretty-printer left a cycle of
    its own closures a run."""

    def argvs(self, tmp_path) -> list[list[str]]:
        argvs = [["demo", name] for name in ("lemma1", "bezem", "stratified")]
        for entry in CORPUS:
            path = tmp_path / f"{entry.name}.hop"
            path.write_text(entry.source)
            roots = ["--roots", ", ".join(entry.roots)] if entry.roots else []
            argvs += [["check", str(path)], ["stratify", str(path)]]
            for command in ROOTS_COMMANDS:
                argvs.append([command, str(path), "--depth", str(entry.depth), *roots])
        workloads = bench_workloads()
        for pool in (workloads.game_pool, workloads.strat_pool, workloads.ext_pool):
            for i, query in enumerate(pool(1)):
                path = tmp_path / f"{pool.__name__}-{i}.hop"
                path.write_text(query.source)
                argvs.append([str(path) if a == "{input}" else a for a in query.args])
        return argvs

    def test_no_hoplog_object_is_cyclic_garbage(self, tmp_path, capsys):
        argvs = self.argvs(tmp_path)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            codes = [main(argv) for argv in argvs]
            capsys.readouterr()
            gc.collect()
            found = [repr(obj)[:120] for obj in gc.garbage if _from_hoplog(obj)]
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert len(argvs) > 200 and codes.count(0) > 150
        assert found == []
        assert garbage == 0


class TestClosedPipe:
    """Output into a pipe whose reader has gone, as under ``| head -1``."""

    @pytest.mark.parametrize("argv", [["demo", "lemma1"], ["--help"]], ids=" ".join)
    def test_exits_zero_with_nothing_on_stderr(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(hoplog.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hoplog.cli", *argv],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # before hoplog writes a byte
        try:
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""


class TestStartup:
    @staticmethod
    def loaded_after_import(modules) -> list[str]:
        """Those of ``modules`` that ``import hoplog.cli`` loads; -S keeps
        site customizations from importing any of them first."""
        script = (
            "import sys, hoplog.cli\n"
            f"loaded = sorted(m for m in {tuple(modules)!r} if m in sys.modules)\n"
            "import json; print(json.dumps(loaded))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(hoplog.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-S", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    def test_import_leaves_dataclasses_and_inspect_unloaded(self):
        # Records are plain slotted classes: defining them generates and
        # compiles no code, and needs neither module.
        assert self.loaded_after_import(("dataclasses", "inspect")) == []

    def test_import_leaves_argparse_gettext_and_locale_unloaded(self):
        # The command line is parsed from the COMMANDS table, and nothing
        # translates its messages.
        assert self.loaded_after_import(("argparse", "gettext", "locale")) == []

    def test_every_exported_name_resolves(self):
        namespace: dict = {}
        exec("from hoplog import *", namespace)  # raises on a name that does not resolve
        assert set(hoplog.__all__) <= set(namespace)


class TestShippedCode:
    """Every definition in ``src/hoplog`` is read somewhere in ``src/hoplog``
    or ``bench/``, outside its own definition: code and data that only
    tests read belong in ``tests/``.  Four kinds of definition count:

    * a method, a property among them, but not a dunder: matched by name
      alone, so any load of a same-named name or attribute passes it (the
      method ``_Parser.next`` passes on the loads of the builtin ``next``);
    * a public slot of a record: read when some attribute load has its name;
    * a top-level function or class, and a module-level name other than a
      dunder: read by a load of its own name, in its module or in a file
      that imports it from there, or as an attribute of its module in a
      file that imports the module.  A same-named method or attribute does
      not pass it."""

    FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

    @staticmethod
    def loaded(tree):
        """Every ``ast.Name`` and ``ast.Attribute`` in load context in tree."""
        return [node for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]

    def loads(self, tree) -> collections.Counter:
        """How often each name is loaded in tree, as a name or an attribute."""
        return collections.Counter(
            node.id if isinstance(node, ast.Name) else node.attr for node in self.loaded(tree)
        )

    @staticmethod
    def bindings(tree, stems) -> dict:
        """What each name that a file imports from hoplog stands for: a
        module, by its stem (``""`` for the package), or ``(stem, name)`` for
        a name defined in a module."""
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == "hoplog":
                        bound[alias.asname or "hoplog"] = "".join(parts[1:]) if alias.asname else ""
            elif isinstance(node, ast.ImportFrom):
                parts = node.module.split(".") if node.module else []
                if not node.level:
                    if parts[:1] != ["hoplog"]:
                        continue
                    parts = parts[1:]
                for alias in node.names:
                    if not parts and alias.name in stems:
                        target = alias.name
                    else:
                        target = (parts[-1] if parts else "__init__", alias.name)
                    bound[alias.asname or alias.name] = target
        return bound

    def own_loads(self, tree, module, bound) -> collections.Counter:
        """Loads of module-level names in tree, by (module stem, name): a
        name is its module's own, or what it was imported as; an attribute
        of a module is that module's.  ``module`` is None outside hoplog."""

        def module_of(node):
            if isinstance(node, ast.Name):
                target = bound.get(node.id)
                return target if isinstance(target, str) else None
            if isinstance(node, ast.Attribute) and module_of(node.value) == "":
                return node.attr
            return None

        found = collections.Counter()
        for node in self.loaded(tree):
            if isinstance(node, ast.Name):
                target = bound.get(node.id, (module, node.id) if module else None)
                if isinstance(target, tuple):
                    found[target] += 1
            elif base := module_of(node.value):
                found[base, node.attr] += 1
        return found

    def test_every_definition_is_loaded_outside_itself(self):
        root = Path(__file__).resolve().parents[1]
        package = sorted((root / "src" / "hoplog").glob("*.py"))
        stems = {path.stem for path in package}
        files = []  # (module stem or None, tree, its bindings)
        for path in package + sorted((root / "bench").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            files.append((path.stem if path in package else None, tree, self.bindings(tree, stems)))
        names, attributes, own = collections.Counter(), collections.Counter(), collections.Counter()
        for module, tree, bound in files:
            names += self.loads(tree)
            attributes.update(node.attr for node in self.loaded(tree) if isinstance(node, ast.Attribute))
            own += self.own_loads(tree, module, bound)

        def dunder(name: str) -> bool:
            return name.startswith("__") and name.endswith("__")

        unused = []
        for module, tree, bound in files[: len(package)]:
            for node in tree.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                elif isinstance(node, (*self.FUNCTIONS, ast.ClassDef)):
                    defined = [node.name]
                else:
                    continue
                inside = self.own_loads(node, module, bound)
                unused += [f"{module}.{name}" for name in defined
                           if not dunder(name) and own[module, name] == inside[module, name]]
                if not isinstance(node, ast.ClassDef):
                    continue
                for member in node.body:
                    if isinstance(member, self.FUNCTIONS) and not dunder(member.name):
                        if names[member.name] == self.loads(member)[member.name]:
                            unused.append(f"{module}.{node.name}.{member.name}")
                    elif isinstance(member, ast.Assign) and ast.unparse(member.targets[0]) == "__slots__":
                        unused += [f"{module}.{node.name}.{slot}"
                                   for slot in ast.literal_eval(member.value)
                                   if not slot.startswith("_") and not attributes[slot]]
        assert unused == []


class TestParserAgainstArgparse:
    """``cli._parse_argv`` against ``helpers.reference_parser``: the same
    handler and values on every well-formed command line tried, and a usage
    error on every malformed one."""

    # Two values per option, the second a negative integer where it can be;
    # a --roots value may begin with a dash when it holds a space.
    VALUES = {
        "--depth": ("2", "-1"),
        "--roots": ("p, q", "-x y"),
        "--format": ("text", "json"),
        "--budget": ("7", "-3"),
        "--ordering": ("truth", "fitting"),
    }

    @staticmethod
    def subparsers():
        top = reference_parser()
        (action,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
        return top, action.choices

    @staticmethod
    def options(subparser) -> list[str]:
        names = [a.option_strings[-1] for a in subparser._actions if a.option_strings]
        return [name for name in names if name != "--help"]

    def assert_same(self, reference, argv):
        expected = vars(reference.parse_args(argv))
        handler, args = _parse_argv(argv)
        assert handler is expected.pop("func"), argv
        expected.pop("command")
        assert vars(args) == expected, argv

    def test_the_table_declares_the_reference_options(self):
        _, subparsers = self.subparsers()
        assert list(subparsers) == list(COMMANDS)
        for name, subparser in subparsers.items():
            assert [option[0] for option in COMMANDS[name][3]] == self.options(subparser)

    def test_every_option_subset_form_and_placement(self):
        reference, subparsers = self.subparsers()
        checked = 0
        for name, subparser in subparsers.items():
            options = self.options(subparser)
            inputs = ("lemma1", "stratified") if name == "demo" else ("prog.hop", "-")
            for size in range(len(options) + 1):
                for subset in itertools.combinations(options, size):
                    for joined, positional in itertools.product((True, False), inputs):
                        words = [
                            [f"{o}={self.VALUES[o][0]}"] if joined else [o, self.VALUES[o][0]]
                            for o in subset
                        ]
                        flat = [w for word in words for w in word]
                        half = [w for word in words[: len(words) // 2] for w in word]
                        rest = [w for word in words[len(words) // 2 :] for w in word]
                        for argv in (
                            [name, *flat, positional],
                            [name, positional, *flat],
                            [name, *half, positional, *rest],
                        ):
                            self.assert_same(reference, argv)
                            checked += 1
        assert checked == 744

    def test_repeated_options_and_negative_integers(self):
        reference, subparsers = self.subparsers()
        for name, subparser in subparsers.items():
            positional = "bezem" if name == "demo" else "prog.hop"
            for option in self.options(subparser):
                first, second = self.VALUES[option]
                for argv in (
                    [name, positional, option, first, option, second],
                    [name, f"{option}={second}", positional, f"{option}={first}"],
                    [name, option, second, positional],
                ):
                    self.assert_same(reference, argv)
        self.assert_same(reference, ["wfs", "--depth", "-0", "--depth=-12", "-"])

    BAD = [
        ["wfs", "FILE", "--bogus"],
        ["wfs", "FILE", "--bogus=2"],
        ["wfs", "--bogus", "FILE", "extra"],
        ["check", "FILE", "--depth=2"],
        ["stratify", "--roots", "p", "FILE"],
        ["extcheck", "FILE", "--ordering", "truth"],
        ["wfs", "FILE", "FILE"],
        ["wfs", "FILE", "--dep", "1"],
        ["nosuch", "FILE"],
        [],
        ["wfs"],
        ["wfs", "--depth", "2"],
        ["wfs", "FILE", "--depth"],
        ["wfs", "FILE", "--depth", "--format", "json"],
        ["wfs", "FILE", "--depth=abc"],
        ["wfs", "FILE", "--depth", "1.5"],
        ["extcheck", "FILE", "--budget", "x"],
        ["wfs", "FILE", "--format", "xml"],
        ["minimal", "FILE", "--ordering", "bogus"],
        ["demo", "nosuch"],
        ["demo", "lemma1", "bezem"],
        ["--depth", "1", "wfs", "FILE"],
    ]

    @pytest.mark.parametrize("argv", BAD, ids=lambda argv: " ".join(argv) or "empty")
    def test_both_refuse(self, capsys, tmp_path, argv):
        path = tmp_path / "input.hop"
        path.write_text(STRATIFIED_OK)
        argv = [str(path) if a == "FILE" else a for a in argv]
        with pytest.raises(SystemExit) as refused:
            reference_parser().parse_args(argv)
        assert refused.value.code == 2
        expected = capsys.readouterr().err
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: hoplog")
        error = [line for line in captured.err.splitlines() if "error: " in line]
        assert len(error) == 1
        if "unrecognized arguments" in expected:
            assert error[0].split("error: ", 1)[1] == expected.split("error: ", 1)[1].strip()
