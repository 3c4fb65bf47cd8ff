"""Program checking: head discipline, variable-type inference, error rules."""

import pytest

from hoplog.errors import AmbiguousVariableType, ProgramCheckError
from hoplog.syntax import IOTA, OMICRON, Arrow
from hoplog.typecheck import elaborate_ground_atom

from helpers import load, to_source


def var_types(src: str) -> dict:
    """The inferred type of each variable of a one-clause program."""
    (clause,) = load(src).clauses
    return {v.name: v.typ for v in clause.variables()}


def rules_of(src: str) -> list[str]:
    with pytest.raises(ProgramCheckError) as err:
        load(src)
    return [e.rule for e in err.value.errors]


ILLEGAL_CONSTANT_ARG = """
type q : i -> o.
type r : (i -> o) -> o.
q a.
r q.
"""

ILLEGAL_REPEATED_VAR = """
type p : (i -> o) -> (i -> o) -> o.
p Q Q <- Q a.
"""

UNION = """
type union : (i -> o) -> (i -> o) -> i -> o.
union P Q X <- P X.
union P Q X <- Q X.
"""


class TestHeadDiscipline:
    def test_constant_head_arguments_rejected(self):
        rules = rules_of(ILLEGAL_CONSTANT_ARG)
        # Both clauses break the restriction; the predicate-argument one
        # ("r q") must be among the reported violations.
        assert rules == ["NonVariableHeadArgument", "NonVariableHeadArgument"]

    def test_repeated_head_variable_rejected(self):
        assert rules_of(ILLEGAL_REPEATED_VAR) == ["RepeatedHeadVariable"]

    def test_union_program_accepted(self):
        program = load(UNION)
        assert len(program.clauses) == 2
        assert all(len(c.formals) == 3 for c in program.clauses)

    def test_complex_head_argument_rejected(self):
        src = "type q : i -> o.\ntype f : i -> i.\nq (f X) <- X = a."
        assert rules_of(src) == ["NonVariableHeadArgument"]

    def test_head_arity_mismatch(self):
        assert rules_of("type q : i -> o.\nq X Y <- X = a, Y = a.") == ["ArityMismatch"]
        assert rules_of("type q : i -> o.\nq.") == ["ArityMismatch"]

    def test_undeclared_head_predicate(self):
        assert rules_of("p X <- X = a.") == ["IllTyped"]

    def test_all_violations_reported(self):
        src = ILLEGAL_CONSTANT_ARG + ILLEGAL_REPEATED_VAR.replace("type p", "type pp").replace(
            "p Q Q", "pp Q Q"
        )
        rules = rules_of(src)
        assert rules.count("NonVariableHeadArgument") == 2
        assert rules.count("RepeatedHeadVariable") == 1


class TestInference:
    def test_self_application_variable(self):
        env = var_types("type s : (o -> o) -> o.\ns Q <- Q (s Q).")
        assert env == {"Q": Arrow(OMICRON, OMICRON)}

    def test_equality_variable(self):
        env = var_types("type q : i -> o.\nq X <- X = a.")
        assert env == {"X": IOTA}

    def test_bare_boolean_variable(self):
        env = var_types("type w : o -> o.\nw R <- ~R.")
        assert env == {"R": OMICRON}

    def test_body_only_variable_allowed(self):
        src = """
        type nonsubset : (i -> o) -> (i -> o) -> o.
        nonsubset S1 S2 <- S1 X, ~(S2 X).
        """
        program = load(src)
        clause = program.clauses[0]
        names = [v.name for v in clause.variables()]
        assert names == ["S1", "S2", "X"]

    def test_body_only_variable_inferred_from_application(self):
        src = "type foo : o.\ntype r : i -> o.\nfoo <- Q (r a)."
        program = load(src)
        (clause,) = program.clauses
        (lit,) = clause.body
        assert lit.typ == OMICRON

    def test_later_literals_type_earlier_variables(self):
        # A pass types only what the bindings before it determine: Q waits
        # for R, which waits for S, which the last literal binds.
        env = var_types("type foo : o.\ntype q : (i -> o) -> o.\nfoo <- Q R, R S, q S.")
        s_type = Arrow(IOTA, OMICRON)
        r_type = Arrow(s_type, OMICRON)
        assert env == {"Q": Arrow(r_type, OMICRON), "R": r_type, "S": s_type}

    def test_parentheses_around_an_applied_head_change_nothing(self):
        src = "type p : i -> i -> o.\ntype q : o.\nq <- {}.\n"
        assert load(src.format("(p a) b")) == load(src.format("p a b"))

    def test_ambiguous_variable(self):
        assert "AmbiguousVariableType" in rules_of("type foo : o.\nfoo <- Q R.")

    def test_conflicting_variable(self):
        src = "type foo : o.\ntype q : i -> o.\nfoo <- q X, X."
        assert "ConflictingVariableType" in rules_of(src)


class TestInferenceMessages:
    """The clause or root atom that an inference error names."""

    def messages(self, src: str) -> list[str]:
        with pytest.raises(ProgramCheckError) as err:
            load(src)
        return [str(e) for e in err.value.errors]

    def test_conflicting_variable(self):
        src = "p X <- q X, X.\ntype p : i -> o.\ntype q : i -> o."
        assert self.messages(src) == [
            "1:13: variable X used both at i and at o in the clause for 'p X' at 1:1",
            "1:1: body literal X has type i, not o",
        ]

    def test_conflict_met_on_every_pass_is_reported_once(self):
        # the second pass binds nothing new but meets the conflict again
        src = "type foo : o. type q : i -> o. foo <- q X, X."
        assert self.messages(src) == [
            "1:44: variable X used both at i and at o in the clause for 'foo' at 1:32",
            "1:32: body literal X has type i, not o",
        ]

    def test_ambiguous_variable(self):
        src = "p X <- Q R, p X.\ntype p : i -> o."
        assert self.messages(src) == [
            "1:8: the type of Q is not determined by any occurrence"
            " in the clause for 'p X' at 1:1"
        ]

    def test_ambiguous_variable_in_a_root_atom(self):
        program = load("type p : i -> o.\np X <- X = a.")
        with pytest.raises(
            AmbiguousVariableType,
            match="^1:3: the type of X is not determined by any occurrence in a root atom$",
        ):
            elaborate_ground_atom(program, "p X")


class TestExpressionErrors:
    def test_individual_cannot_be_applied(self):
        assert "IllTypedApplication" in rules_of("type foo : o.\nfoo <- a b.")

    def test_operand_type_mismatch(self):
        src = (
            "type foo : o.\ntype s : (o -> o) -> o.\ntype r : i -> o.\nfoo <- s r."
        )
        assert "IllTypedApplication" in rules_of(src)

    def test_equality_over_booleans_rejected(self):
        src = "type foo : o.\ntype p : o.\nfoo <- p = p."
        assert "EqOfNonIndividual" in rules_of(src)

    def test_literal_must_be_boolean(self):
        src = "type foo : o.\ntype q : i -> o.\nfoo <- q."
        assert "IllTyped" in rules_of(src)

    def test_function_symbol_arity(self):
        src = "type q : i -> o.\ntype f : i -> i -> i.\nq X <- X = f a."
        assert "ArityMismatch" in rules_of(src)

    def test_declared_variable_rejected(self):
        assert rules_of("type Q : o.") == ["IllTyped"]

    def test_malformed_constant_type_rejected(self):
        assert rules_of("type h : (i -> o) -> i.") == ["IllTyped"]

    @pytest.mark.parametrize("src, message", [
        # the first bad declaration in source order, not in sorted order
        ("type zz : o -> i. type aa : (i -> o) -> i.",
         "IllTyped: zz: o -> i is neither a functional nor a predicate type"),
        ("type aa : (i -> o) -> i. type zz : o -> i.",
         "IllTyped: aa: (i -> o) -> i is neither a functional nor a predicate type"),
        # a declaration's name is checked before its type
        ("type q : o -> i. type X : o.",
         "IllTyped: q: o -> i is neither a functional nor a predicate type"),
        ("type X : o. type q : o -> i.", "IllTyped: 1:6: cannot declare variable X"),
    ])
    def test_first_bad_declaration_in_source_order_is_reported(self, src, message):
        with pytest.raises(ProgramCheckError) as err:
            load(src)
        assert str(err.value) == message


    @pytest.mark.parametrize("src, message", [
        ("type a : i. type b : i. type f : i -> i. type p : o. p <- X a = b.",
         "IllTyped: 1:59: variable X : i -> i is of no argument type in the clause for 'p' at 1:54"),
        ("type a : i. type f : i -> i. type q : i -> o. type p : o. p <- q (f (X a)).",
         "IllTyped: 1:70: variable X : i -> i is of no argument type in the clause for 'p' at 1:59"),
    ])
    def test_variable_of_no_argument_type_is_refused(self, src, message):
        with pytest.raises(ProgramCheckError) as err:
            load(src)
        assert str(err.value) == message


class TestDefaults:
    def test_undeclared_lowercase_defaults_to_individual(self):
        program = load("type q : i -> o.\nq X <- X = a.")
        assert program.signature.lookup("a") == IOTA

    def test_declared_individuals_kept(self):
        program = load("type a : i.\ntype q : i -> o.\nq X <- X = a.")
        assert program.signature.lookup("a") == IOTA


class TestIdempotence:
    def test_recheck_yields_identical_program(self):
        src = """
        type s : (o -> o) -> o.
        type p : o -> o.
        type q : i -> o.
        s Q <- Q (s Q).
        p R <- ~R.
        q X <- X = a.
        """
        once = load(src)
        twice = load(to_source(once))
        assert once == twice
        assert load(to_source(twice)) == twice
