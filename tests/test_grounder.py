"""Universe enumeration and the two grounding modes."""

import pytest

from hoplog.errors import EmptyUniverse, GroundingLimitExceeded
from hoplog.grounder import (
    ConstLit,
    Universe,
    ground_atom,
    ground_instantiation,
    herbrand_universe,
    relevant_grounding,
    truncated_types,
)
from hoplog.parser import parse_atom, parse_type
from hoplog.programs import NONEXTENSIONAL, POSITIVE_ID
from hoplog.syntax import IOTA, canonical_print, substitute_clause
from hoplog.typecheck import elaborate_ground_atom

from helpers import enumerate_terms_closure, load

IO = parse_type("i -> o")
OO = parse_type("o -> o")
O = parse_type("o")


def keys(terms):
    return [canonical_print(t) for t in terms]


def atom_of(program, text):
    return ground_atom(elaborate_ground_atom(program, parse_atom(text)))


class TestHerbrandUniverse:
    def test_individuals_of_positive_program(self):
        program = load(POSITIVE_ID)
        assert keys(herbrand_universe(program, IOTA, 1)) == ["a", "b"]

    def test_unary_booleans_of_counterexample(self):
        program = load(NONEXTENSIONAL)
        assert keys(herbrand_universe(program, OO, 1)) == ["p", "q", "w"]

    def test_atoms_of_counterexample_at_two(self):
        program = load(NONEXTENSIONAL)
        assert keys(herbrand_universe(program, O, 2)) == ["s p", "s q", "s w"]

    @pytest.mark.parametrize("rho,k", [(O, 3), (OO, 3), (IO, 2), (IOTA, 2)])
    def test_matches_independent_closure_enumeration(self, rho, k):
        for src in (NONEXTENSIONAL, POSITIVE_ID):
            program = load(src)
            mine = set(keys(Universe(program.signature).terms(rho, k)))
            oracle = enumerate_terms_closure(program, rho, k)
            assert mine == oracle

    def test_function_symbols_enumerate_by_size(self):
        src = "type q : i -> o.\ntype f : i -> i.\nq X <- X = a."
        program = load(src)
        assert keys(herbrand_universe(program, IOTA, 3)) == ["a", "f a", "f (f a)"]
        oracle = enumerate_terms_closure(program, IOTA, 3)
        assert set(keys(herbrand_universe(program, IOTA, 3))) == oracle

    def test_empty_individual_universe_is_an_error(self):
        program = load(NONEXTENSIONAL)
        with pytest.raises(EmptyUniverse):
            herbrand_universe(program, IOTA, 3)

    def test_empty_predicate_universe_is_not_an_error(self):
        program = load("type q : i -> o.\nq X <- X = a.")
        assert herbrand_universe(program, OO, 3) == ()

    def test_prefix_monotone_in_k(self):
        program = load(POSITIVE_ID)
        for rho in (IOTA, IO, O):
            small = keys(herbrand_universe(program, rho, 2))
            big = keys(herbrand_universe(program, rho, 3))
            assert big[: len(small)] == small

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            herbrand_universe(load(POSITIVE_ID), IOTA, 0)


class TestGroundInstantiation:
    def test_contains_identity_application_instance(self):
        program = load(POSITIVE_ID)
        gp = ground_instantiation(program, 2)
        rendered = [str(c) for c in gp.clauses]
        assert "p (id q) <- id q a." in rendered

    def test_variable_free_program_verbatim(self):
        src = "type p : o.\ntype q : o.\np <- q.\nq."
        gp = ground_instantiation(load(src), 1)
        assert [str(c) for c in gp.clauses] == ["p <- q.", "q."]

    def test_equality_resolution(self):
        src = "type q : i -> o.\ntype b : i.\nq X <- X = a."
        gp = ground_instantiation(load(src), 1)
        rendered = sorted(str(c) for c in gp.clauses)
        assert rendered == ["q a <- true.", "q b <- false."]
        lits = {str(c): c.body[0] for c in gp.clauses}
        assert isinstance(lits["q a <- true."], ConstLit)
        assert lits["q a <- true."].value is True
        assert lits["q b <- false."].value is False

    def test_equality_literals_stay_out_of_atom_table(self):
        src = "type q : i -> o.\nq X <- X = a."
        gp = ground_instantiation(load(src), 1)
        assert set(gp.atoms) == {"q a"}

    def test_monotone_in_k(self):
        program = load(POSITIVE_ID)
        small = {str(c) for c in ground_instantiation(program, 1).clauses}
        big = {str(c) for c in ground_instantiation(program, 2).clauses}
        assert small <= big

    def test_provenance_replays(self):
        program = load(NONEXTENSIONAL)
        gp = ground_instantiation(program, 3)
        for gc in gp.clauses:
            clause = program.clauses[gc.source_index]
            head, body = substitute_clause(clause, dict(gc.theta))
            assert canonical_print(head) == gc.head.key

    def test_empty_universe_propagates(self):
        src = "type q : i -> o.\ntype foo : o.\nfoo <- q X."
        # X : i but the program has no individual constants at all.
        with pytest.raises(EmptyUniverse):
            ground_instantiation(load(src), 2)


class TestRelevantGrounding:
    def test_exact_closure_for_false_loop(self):
        program = load(NONEXTENSIONAL)
        for k in (1, 2, 3):
            gp = relevant_grounding(program, [atom_of(program, "s p")], k)
            assert sorted(str(c) for c in gp.clauses) == [
                "p (s p) <- s p.",
                "s p <- p (s p).",
            ]

    def test_empty_roots_empty_grounding(self):
        program = load(NONEXTENSIONAL)
        gp = relevant_grounding(program, [], 3)
        assert gp.clauses == () and gp.atoms == {}

    def test_closure_through_negation(self):
        program = load(NONEXTENSIONAL)
        gp = relevant_grounding(program, [atom_of(program, "s q")], 1)
        assert sorted(str(c) for c in gp.clauses) == [
            "q (s q) <- ~(w (s q)).",
            "s q <- q (s q).",
            "w (s q) <- ~(s q).",
        ]

    def test_rootless_atom_stays_in_table(self):
        program = load("type p : o.\ntype q : o.\np <- q.")
        gp = relevant_grounding(program, [atom_of(program, "q")], 1)
        assert set(gp.atoms) == {"q"}
        assert gp.clauses == ()

    def test_subset_of_full_grounding(self):
        program = load(NONEXTENSIONAL)
        full = {str(c) for c in ground_instantiation(program, 3).clauses}
        for root in ("s p", "s q"):
            part = {
                str(c)
                for c in relevant_grounding(program, [atom_of(program, root)], 3).clauses
            }
            assert part <= full

    def test_runaway_closure_hits_the_guard(self):
        src = "type a : i.\ntype p : i -> o.\ntype f : i -> i.\np X <- p (f X)."
        program = load(src)
        with pytest.raises(GroundingLimitExceeded):
            relevant_grounding(program, [atom_of(program, "p a")], 1, max_atoms=50)


class TestTruncationReport:
    def test_function_symbols_truncate_individuals(self):
        src = "type q : i -> o.\ntype f : i -> i.\nq X <- X = a."
        assert "i" in truncated_types(load(src), 3)

    def test_infinite_atom_universe_reported(self):
        # Unary predicates over o stack indefinitely: p (s p), p (p (s p)), ...
        program = load(NONEXTENSIONAL)
        assert truncated_types(program, 3) == ("o",)

    def test_finite_universe_not_truncated(self):
        program = load("type q : i -> o.\nq X <- X = a.")
        assert truncated_types(program, 5) == ()


class TestCompiledProgram:
    SOURCE = "type p : i -> o.\ntype r : i -> o.\ntype b : i.\np X <- X = a, ~(r X).\nr X <- p X."

    def test_dead_clauses_dropped_true_literals_stripped(self):
        gp = ground_instantiation(load(self.SOURCE), 1)
        cp = gp.compiled
        assert cp.keys == tuple(gp.atoms)
        ids = {key: i for i, key in enumerate(cp.keys)}
        # p a <- true, ~(r a) keeps only its negation; p b <- false, ... is gone.
        assert cp.rules[ids["p a"]] == (((), (ids["r a"],)),)
        assert cp.rules[ids["p b"]] == ()
        assert cp.dependents[ids["p a"]] == (ids["r a"],)
        assert cp.dependents[ids["r b"]] == ()

    def test_clauses_and_atom_table_untouched(self):
        gp = ground_instantiation(load(self.SOURCE), 1)
        before = ([str(gc) for gc in gp.clauses], list(gp.atoms))
        assert gp.compiled is gp.compiled  # built once per grounding
        assert ([str(gc) for gc in gp.clauses], list(gp.atoms)) == before
        assert "p b <- false, ~(r b)." in before[0]
