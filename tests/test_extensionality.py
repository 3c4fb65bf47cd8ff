"""Extensional equality and the bounded reflexivity check."""

import random
from itertools import product

import pytest

from hoplog.errors import DepthExceeded, GroundingLimitExceeded
from hoplog.extensionality import ExtChecker
from hoplog.grounder import argument_types
from hoplog.programs import NONEXTENSIONAL, POSITIVE_ID, STRATIFIED_OK
from hoplog.syntax import IOTA, OMICRON, App, Const

from corpus import CORPUS
from helpers import (
    load,
    parse_type,
    random_program_source,
    random_stratified_source,
    random_witness_source,
    reference_ext_equal,
    replay_witness,
    to_source,
)

OO = parse_type("o -> o")
HOO = parse_type("(o -> o) -> o")


def pred(program, name):
    return Const(name, program.signature.lookup(name))


def equal_pairs(checker, rho):
    """The pairs of size-k terms of rho, as texts, that ``checker.equal``
    relates."""
    terms = checker.universe.terms(rho)
    return frozenset(
        (d.text, dprime.text) for d, dprime in product(terms, repeat=2)
        if checker.equal(rho, d, dprime)
    )


class TestExtEqual:
    def test_identity_and_double_negation_agree(self):
        program = load(NONEXTENSIONAL)
        checker = ExtChecker(program, 3)
        assert checker.equal(OO, pred(program, "p"), pred(program, "q"))

    def test_syntactic_identity_at_individuals(self):
        program = load(POSITIVE_ID)
        checker = ExtChecker(program, 3)
        assert checker.equal(parse_type("i"), Const("a", IOTA), Const("a", IOTA))
        assert not checker.equal(parse_type("i"), Const("a", IOTA), Const("b", IOTA))

    def test_consumer_of_equals_is_not_self_equal(self):
        program = load(NONEXTENSIONAL)
        checker = ExtChecker(program, 3)
        assert not checker.equal(HOO, pred(program, "s"), pred(program, "s"))

    def test_identity_not_equal_to_flipper(self):
        program = load(NONEXTENSIONAL)
        checker = ExtChecker(program, 3)
        assert not checker.equal(OO, pred(program, "p"), pred(program, "w"))
        assert not checker.equal(OO, pred(program, "q"), pred(program, "w"))


class TestReflexivityCheck:
    def test_counterexample_yields_the_expected_witness(self):
        report = ExtChecker(load(NONEXTENSIONAL), 3).reflexivity_report()
        assert report.verdict == "non-extensional"
        assert not report.unknowns
        (witness,) = report.witnesses
        assert witness.term == "s"
        assert witness.rho == "(o -> o) -> o"
        assert witness.pair == ("p", "q")
        assert witness.lhs_atom == "s p" and witness.rhs_atom == "s q"
        assert witness.lhs_value == "false" and witness.rhs_value == "undefined"

    def test_witness_names_the_outermost_argument_pair(self):
        # t fails at its second argument, on (p, q); the witness names the
        # pair of its first argument, (p, p), as the pairwise definition does
        source = NONEXTENSIONAL + "type t : (o -> o) -> (o -> o) -> o.\nt P Q <- s Q.\n"
        report = assert_matches_reference(load(source), 1)
        witness = report.witnesses[1]
        assert (witness.rho, witness.term) == ("(o -> o) -> (o -> o) -> o", "t")
        assert witness.pair == ("p", "p")
        assert (witness.lhs_atom, witness.rhs_atom) == ("t p p", "t p q")

    def test_stratified_example_is_extensional_at_depth(self):
        report = ExtChecker(load(STRATIFIED_OK), 3).reflexivity_report()
        assert report.verdict == "extensional-at-depth-3"
        assert report.witnesses == [] and report.unknowns == []

    def test_positive_program_is_extensional_at_depth(self):
        report = ExtChecker(load(POSITIVE_ID), 2).reflexivity_report()
        assert report.extensional_at_depth

    def test_all_false_program_is_extensional(self):
        # One predicate level above o -> o, every atom false.
        src = "type s : (o -> o) -> o.\ntype p : o -> o.\ns Q <- Q (s Q).\np R <- R."
        report = ExtChecker(load(src), 3).reflexivity_report()
        assert report.extensional_at_depth

    def test_witnesses_replay(self):
        program = load(NONEXTENSIONAL)
        report = ExtChecker(program, 3).reflexivity_report()
        for witness in report.witnesses:
            assert replay_witness(program, witness, 3)

    def test_refutation_is_monotone_in_depth(self):
        program = load(NONEXTENSIONAL)
        for k in (3, 4, 5):
            report = ExtChecker(program, k).reflexivity_report()
            assert not report.extensional_at_depth, k
            assert any(w.term == "s" for w in report.witnesses)


class TestRelationProperties:
    @pytest.mark.parametrize("src,rho,k", [
        (NONEXTENSIONAL, OO, 3),
        (NONEXTENSIONAL, parse_type("o"), 2),
        (POSITIVE_ID, parse_type("i -> o"), 2),
        (STRATIFIED_OK, parse_type("i -> o"), 3),
    ])
    def test_symmetric_and_transitive(self, src, rho, k):
        program = load(src)
        checker = ExtChecker(program, k)
        pairs = equal_pairs(checker, rho)
        members = {a for a, _ in pairs} | {b for _, b in pairs}
        for a, b in pairs:
            assert (b, a) in pairs
        for (a, b), (c, d) in product(pairs, repeat=2):
            if b == c:
                assert (a, d) in pairs

    def test_individual_relation_is_syntactic_equality(self):
        program = load(POSITIVE_ID)
        checker = ExtChecker(program, 2)
        assert equal_pairs(checker, parse_type("i")) == frozenset({("a", "a"), ("b", "b")})


class TestDepthBudget:
    def test_budget_exhaustion_reports_unknown(self):
        src = "type q : i -> o.\ntype f : i -> i.\nq X <- X = a."
        program = load(src)
        checker = ExtChecker(program, 3, budget=2)
        report = checker.reflexivity_report()
        # Valuing q (f a) needs 3 symbols, above the budget of 2.
        assert report.unknowns
        assert all(u.rho == "i -> o" for u in report.unknowns)
        # the oracle grounds from no root over the budget: it filters what it is given
        sizes = [atom.size for atom in checker.oracle._roots.values()]
        assert sizes and max(sizes) <= 2

    def test_direct_value_raises(self):
        src = "type q : i -> o.\ntype f : i -> i.\nq X <- X = a."
        program = load(src)
        checker = ExtChecker(program, 3, budget=2)
        q, f = pred(program, "q"), pred(program, "f")
        big = App(q, App(f, App(f, Const("a", IOTA))))
        with pytest.raises(DepthExceeded):
            checker.oracle.value(big)


class TestStratifiedFamily:
    def test_random_stratified_programs_have_no_witnesses(self):
        rng = random.Random(23)
        for _ in range(10):
            program = load(random_stratified_source(rng))
            report = ExtChecker(program, 2).reflexivity_report()
            assert report.extensional_at_depth, to_source(program)


def _outcome(call):
    """A decision's result, or the reason it ran over the size budget."""
    try:
        return call()
    except DepthExceeded as exc:
        return ("unknown", str(exc))


def assert_matches_reference(program, k, budget=None):
    """``equal``, the pairs it relates and the reflexivity report of a fresh checker
    agree with the pairwise definition on every pair of size-k terms of
    every argument type: verdicts, unknowns with their reasons, and each
    witness's argument pair, the first failing one in canonical order."""
    checker = ExtChecker(program, k, budget)
    report = checker.reflexivity_report()
    memo: dict = {}

    def ref(rho, d, dprime):
        return _outcome(
            lambda: reference_ext_equal(
                checker.oracle, checker.universe, rho, d, dprime, memo
            )
        )

    witnesses, unknowns, applications = [], [], []
    for rho in argument_types(program):
        terms = checker.universe.terms(rho)
        expected = {(d, dp): ref(rho, d, dp) for d, dp in product(terms, repeat=2)}
        for (d, dp), want in expected.items():
            assert _outcome(lambda: checker.equal(rho, d, dp)) == want, (str(rho), d, dp)
        raised = [want for want in expected.values() if isinstance(want, tuple)]
        pairs = _outcome(lambda: equal_pairs(checker, rho))
        if raised:
            assert pairs == raised[0]
        else:
            assert pairs == {
                (d.text, dp.text) for (d, dp), want in expected.items() if want
            }
        if rho in (IOTA, OMICRON):
            continue
        for term in terms:
            verdict = expected[(term, term)]
            if isinstance(verdict, tuple):
                unknowns.append((str(rho), term.text, verdict[1]))
            elif not verdict:
                pairs = product(checker.universe.terms(rho.argument), repeat=2)
                e, ep = next(
                    (e, ep)
                    for e, ep in pairs
                    if ref(rho.argument, e, ep) is True
                    and ref(rho.result, App(term, e), App(term, ep)) is False
                )
                witnesses.append((str(rho), term.text, (e.text, ep.text)))
                applications.append((App(term, e).text, App(term, ep).text))
    assert [(u.rho, u.term, u.reason) for u in report.unknowns] == unknowns
    assert [(w.rho, w.term, w.pair) for w in report.witnesses] == witnesses
    for w, (lhs, rhs) in zip(report.witnesses, applications):
        # the witness atoms apply the term to the pair, then to more arguments
        assert w.lhs_atom == lhs or w.lhs_atom.startswith(lhs + " ")
        assert w.rhs_atom == rhs or w.rhs_atom.startswith(rhs + " ")
        assert replay_witness(program, w, k, budget)
    return report


# An extra o -> o -> o predicate: its partial applications r x are o -> o
# terms whose own applications run over a budget of 4 or 5, so the class of s
# exceeds the budget too, though the scan for s fails at (p, q) first.
LEMMA1_WITH_WIDE_TERMS = NONEXTENSIONAL + "type r : o -> o -> o.\nr X Y <- X.\n"


class TestAgainstReference:
    @pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: entry.name)
    def test_corpus(self, entry):
        program = load(entry.source)
        for k in (1, 2, 3):
            for budget in (2, 3, None):
                assert_matches_reference(program, k, budget)

    def test_random_programs(self):
        rng = random.Random(71)
        for _ in range(40):
            program = load(random_program_source(rng))
            for k, budget in ((1, None), (2, None), (2, 3)):
                try:
                    assert_matches_reference(program, k, budget)
                except GroundingLimitExceeded:
                    break  # a runaway demand closure; the grounder's caps refuse it

    def test_random_stratified_programs(self):
        rng = random.Random(72)
        for _ in range(15):
            program = load(random_stratified_source(rng))
            for k, budget in ((1, None), (2, None), (2, 3)):
                assert_matches_reference(program, k, budget)

    def test_random_lemma_programs_yield_witnesses(self):
        rng = random.Random(73)
        witnesses = unknowns = 0
        for _ in range(40):
            program = load(random_witness_source(rng))
            for k, budget in ((1, None), (2, None), (2, 2), (2, 3)):
                report = assert_matches_reference(program, k, budget)
                witnesses += len(report.witnesses)
                unknowns += len(report.unknowns)
        assert witnesses >= 10 and unknowns >= 10

    @pytest.mark.parametrize("k,budget", [(3, 3), (3, 4), (3, 5), (4, 5)])
    def test_pinned_budget_programs(self, k, budget):
        assert_matches_reference(load(LEMMA1_WITH_WIDE_TERMS), k, budget)

    def test_budget_met_before_a_failing_pair_is_unknown(self):
        # At budget 3 the first pair (p, p) already needs p (p (s p)).
        report = assert_matches_reference(load(NONEXTENSIONAL), 3, 3)
        assert report.witnesses == []
        assert ("(o -> o) -> o", "s", "p (p (s p)) exceeds the size budget 3") in [
            (u.rho, u.term, u.reason) for u in report.unknowns
        ]

    def test_failing_pair_met_before_the_budget_is_a_witness(self):
        report = assert_matches_reference(load(LEMMA1_WITH_WIDE_TERMS), 3, 4)
        assert [(w.term, w.pair) for w in report.witnesses] == [("s", ("p", "q"))]
        assert ("o -> o", "r (s p)") in [(u.rho, u.term) for u in report.unknowns]
        assert "s" not in [u.term for u in report.unknowns]
