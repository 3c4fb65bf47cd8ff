"""Universe enumeration and the two grounding modes."""

import gc
import random
import re
import weakref

import pytest

from hoplog import grounder
from hoplog.errors import EmptyUniverse, GroundingLimitExceeded
from hoplog.extensionality import ExtChecker
from hoplog.grounder import (
    DEFAULT_MAX_ATOM_SIZE,
    DEFAULT_MAX_CLAUSES,
    DEFAULT_MAX_UNIVERSE_SYMBOLS,
    ConstLit,
    Universe,
    argument_types,
    ground_atom,
    ground_instantiation,
    relevant_grounding,
    truncated_types,
)
from hoplog.parser import parse_type
from hoplog.programs import CORPUS, NONEXTENSIONAL, POSITIVE_ID
from hoplog.syntax import IOTA, App, Arrow, Const, Neg, build_spine, instance_builder, spine
from hoplog.typecheck import elaborate_ground_atom
from hoplog.wfs import well_founded_model

from helpers import (
    bench_workloads,
    compiled_by_key,
    enumerate_terms_closure,
    load,
    random_program_source,
    random_stratified_source,
    reference_compile,
    reference_edges,
    reference_grounding,
    substitute_clause,
)

IO = parse_type("i -> o")
OO = parse_type("o -> o")
O = parse_type("o")


def keys(terms):
    return [t.text for t in terms]


def atom_of(program, text):
    return elaborate_ground_atom(program, text)


class TestHerbrandUniverse:
    def test_individuals_of_positive_program(self):
        program = load(POSITIVE_ID)
        assert keys(Universe(program.signature).terms(IOTA, 1)) == ["a", "b"]

    def test_unary_booleans_of_counterexample(self):
        program = load(NONEXTENSIONAL)
        assert keys(Universe(program.signature).terms(OO, 1)) == ["p", "q", "w"]

    def test_atoms_of_counterexample_at_two(self):
        program = load(NONEXTENSIONAL)
        assert keys(Universe(program.signature).terms(O, 2)) == ["s p", "s q", "s w"]

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
        assert keys(Universe(program.signature).terms(IOTA, 3)) == ["a", "f a", "f (f a)"]
        oracle = enumerate_terms_closure(program, IOTA, 3)
        assert set(keys(Universe(program.signature).terms(IOTA, 3))) == oracle

    def test_a_function_term_is_one_node_whoever_builds_it(self):
        """The checker, the universe and a clause's atom builder each make
        ``f (f a)`` as the one interned ``App`` spine."""
        program = load("type a : i.\ntype f : i -> i.\ntype p : i -> o.\ntype q : i -> o.\n"
                       "p X <- q (f X).\nq X <- X = a.")
        f, a = Const("f", Arrow(IOTA, IOTA)), Const("a", IOTA)
        f_f_a = App(f, App(f, a))
        checked = atom_of(program, "q (f (f a))").arg
        universe = {t.text: t for t in Universe(program.signature).terms(IOTA, 3)}
        literal = program.clauses[0].body[0]  # q (f X)
        built = instance_builder(literal, {"X": 0})([universe["f a"]]).arg
        grounded = ground_instantiation(program, 2).atoms["q (f (f a))"].arg
        assert checked is universe["f (f a)"] is built is grounded is f_f_a
        assert f_f_a.typ is IOTA and f_f_a.op.typ is Arrow(IOTA, IOTA)

    def test_empty_predicate_universe_is_not_an_error(self):
        program = load("type q : i -> o.\nq X <- X = a.")
        assert Universe(program.signature).terms(OO, 3) == ()

    def test_prefix_monotone_in_k(self):
        program = load(POSITIVE_ID)
        for rho in (IOTA, IO, O):
            small = keys(Universe(program.signature).terms(rho, 2))
            big = keys(Universe(program.signature).terms(rho, 3))
            assert big[: len(small)] == small


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
            assert head.text == gc.head.text

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

    def test_root_not_headed_by_a_predicate_constant_is_refused(self):
        program = load("type a : i.\ntype f : i -> i.\ntype p : i -> o.\np X <- X = a.")
        a, f = Const("a", IOTA), Const("f", Arrow(IOTA, IOTA))
        for root in (a, App(f, a), App(f, App(f, a))):
            with pytest.raises(ValueError, match=f"^not predicate-headed: {re.escape(root.text)}$"):
                relevant_grounding(program, [atom_of(program, "p a"), root], 1)
            with pytest.raises(ValueError, match="not predicate-headed"):
                ground_atom(root)
        assert ground_atom(atom_of(program, "p a")) is atom_of(program, "p a")

    def test_subset_of_full_grounding(self):
        program = load(NONEXTENSIONAL)
        full = {str(c) for c in ground_instantiation(program, 3).clauses}
        for root in ("s p", "s q"):
            part = {
                str(c)
                for c in relevant_grounding(program, [atom_of(program, root)], 3).clauses
            }
            assert part <= full

    def test_runaway_closure_hits_the_guard(self, monkeypatch):
        monkeypatch.setattr(grounder, "DEFAULT_MAX_ATOMS", 50)
        src = "type a : i.\ntype p : i -> o.\ntype f : i -> i.\np X <- p (f X)."
        program = load(src)
        with pytest.raises(GroundingLimitExceeded):
            relevant_grounding(program, [atom_of(program, "p a")], 1)

    def test_roots_count_toward_the_atom_cap(self, monkeypatch):
        monkeypatch.setattr(grounder, "DEFAULT_MAX_ATOMS", 2)
        program = load("type a : o.\ntype b : o.\ntype c : o.\na.\nb.\nc.")
        a, b, c = (atom_of(program, name) for name in "abc")
        assert list(relevant_grounding(program, [a, b], 1).atoms) == ["a", "b"]
        with pytest.raises(GroundingLimitExceeded, match="^dependency closure exceeded 2 atoms$"):
            relevant_grounding(program, [a, b, c], 1)

    def test_grounding_is_freed_when_it_returns(self, monkeypatch):
        """A demand grounding keeps no reference to its work: the lazy
        ``clauses`` hold only the calls, so the grounding goes with
        reference counting alone, before ``clauses`` is read."""
        made = []

        class Spy(grounder._DemandGrounding):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        monkeypatch.setattr(grounder, "_DemandGrounding", Spy)
        bench = bench_workloads()
        game = next(q for q in bench.game_pool(1) if "--roots" in q.args)
        cases = [(load(e.source), e.roots or [], e.depth) for e in CORPUS]
        cases.append((load(game.source), ["win n0"], 1))
        enabled = gc.isenabled()
        gc.disable()
        try:
            for program, roots, k in cases:
                made.clear()
                gp = relevant_grounding(program, [atom_of(program, r) for r in roots], k)
                assert len(made) == 1 and made[0]() is None
                assert all(c.head.text in gp.atoms for c in gp.clauses)
        finally:
            if enabled:
                gc.enable()
        assert len(gp.clauses) == 2016  # the 12-node game's instances, dead ones included

    def test_deep_closure_hits_the_atom_size_cap(self):
        # Under the default atom cap, f nests until printing or hashing the
        # atoms would overflow the stack, unless the size cap stops it first.
        src = "type a : i.\ntype p : i -> o.\ntype f : i -> i.\np X <- p (f X)."
        program = load(src)
        with pytest.raises(GroundingLimitExceeded, match=f" {DEFAULT_MAX_ATOM_SIZE + 1} symbols"):
            relevant_grounding(program, [atom_of(program, "p a")], 1)


# 8 variables over 10 individuals: 10^8 instances of one clause.
WIDE_CLAUSE = (
    "".join(f"type c{i} : i.\n" for i in range(10))
    + "type q : o.\ntype r : i -> o.\n"
    + "q <- " + ", ".join(f"r X{j}" for j in range(8)) + ".\n"
)


class TestClauseCap:
    def test_exhaustive_grounding_refused_before_enumeration(self):
        assert 10**8 > DEFAULT_MAX_CLAUSES
        with pytest.raises(GroundingLimitExceeded, match="clauses"):
            ground_instantiation(load(WIDE_CLAUSE), 1)

    def test_demand_grounding_refused_before_enumeration(self):
        program = load(WIDE_CLAUSE)
        with pytest.raises(GroundingLimitExceeded, match="clauses"):
            relevant_grounding(program, [atom_of(program, "q")], 1)

    def test_cap_counts_the_whole_grounding(self):
        # Clause 1 alone has exactly the cap's 10^6 instances; after the fact
        # before it, the grounding would pass the cap, so nothing of it is built.
        assert 10**6 == DEFAULT_MAX_CLAUSES
        src = (
            "".join(f"type c{i} : i.\n" for i in range(10))
            + "type q : o.\ntype r : i -> o.\nq.\n"
            + "q <- " + ", ".join(f"r X{j}" for j in range(6)) + ".\n"
        )
        with pytest.raises(GroundingLimitExceeded, match="clause 1 .* 1000001 clauses"):
            ground_instantiation(load(src), 1)

    @pytest.mark.parametrize("demand,free", [(False, 4), (True, 5)])
    def test_cap_names_the_first_clause_over_it_within_a_shape(self, demand, free):
        # Clauses 1-12 share one shape, ``q X <- X = cI, Y1 = Y1, ...``, with
        # 10^(free + 1) instances exhaustively and 10^free under a bound X.
        # Clause 0 adds 10 (1 on demand); clause 10, the shape's tenth row,
        # is the first to pass the cap.
        ys = ", ".join(f"Y{j} = Y{j}" for j in range(free))
        src = (
            "".join(f"type c{i} : i.\n" for i in range(10))
            + "type q : i -> o.\nq X <- X = c0.\n"
            + "".join(f"q X <- X = c{i % 10}, {ys}.\n" for i in range(1, 13))
        )
        program = load(src)
        total = 1 + 10 * 10**free if demand else 10 + 10 * 10 ** (free + 1)
        with pytest.raises(GroundingLimitExceeded, match=f"clause 10 .* {total} clauses"):
            if demand:
                relevant_grounding(program, [atom_of(program, "q c3")], 1)
            else:
                ground_instantiation(program, 1)

class TestUniverseCap:
    def test_deep_universe_refused_at_the_first_size_over_the_cap(self):
        # Sizes 1..1413 of f : i -> i hold 998,991 symbols; size 1414 passes
        # the cap, and the build stops there instead of running to 10,000.
        assert DEFAULT_MAX_UNIVERSE_SYMBOLS == 1_000_000
        universe = Universe(load("type a : i.\ntype f : i -> i.").signature)
        with pytest.raises(GroundingLimitExceeded, match="size 1414 .* 1000000 symbols"):
            universe.terms(IOTA, 10_000)
        assert universe.symbols == 1_000_405

    def test_wide_universe_refused_within_one_size(self):
        # One constant and a binary g: the 58,786 terms of size 23 would take
        # the universe to 1.83 million symbols; the count stops at the
        # first term over the cap, part of the way through that size.
        universe = Universe(load("type a : i.\ntype g : i -> i -> i.").signature)
        with pytest.raises(GroundingLimitExceeded, match="size 23 "):
            universe.terms(IOTA, 23)
        assert 0 < universe.symbols - DEFAULT_MAX_UNIVERSE_SYMBOLS <= 23


class TestUniverseBuildOrder:
    def test_truncation_probe_past_the_cap_needs_no_recursion(self):
        # Asking a fresh chain universe for sizes up to 3000 builds sizes 1,
        # 2, ... in order, each from the one below, and stops at the cap; it
        # never descends one call per size from the top.  The truncation
        # probe builds no term, so it meets no cap.
        program = load("type a : i.\ntype f : i -> i.")
        assert truncated_types(program, 3000) == ("i",)
        universe = Universe(program.signature)
        with pytest.raises(GroundingLimitExceeded, match="size 1414 "):
            universe.terms(IOTA, 3000)
        assert universe.symbols == 1_000_405


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

    @pytest.mark.parametrize("k", [1, 2])
    def test_sizes_that_skip_a_value_are_truncated(self, k):
        # No term of type i has size 2 and none of type o has size 3: f a a
        # has size 3 and p (f a a) size 4, so neither universe ends at k.
        program = load("type f : i -> i -> i.\ntype p : i -> o.\np X <- X = a.")
        assert truncated_types(program, k) == ("i", "o")

    def test_finite_universe_truncated_below_its_largest_term(self):
        # g a a, of size 3, is the largest term of type o, and no term of
        # type o has size 2; g a, of size 2, the largest of type i -> o.
        program = load("type a : i.\ntype g : i -> i -> o.")
        assert [truncated_types(program, k) for k in (1, 2, 3)] == [("i -> o", "o"), ("o",), ()]
        # g (k a a) (k a a), of size 7, is built from types declared after g.
        program = load("type g : (i -> o) -> (i -> o) -> o.\ntype k : i -> i -> i -> o.\n"
                       "type a : i.")
        assert max(t.size for t in Universe(program.signature).terms(O, 9)) == 7
        assert [truncated_types(program, k) for k in (3, 6, 7)] == [
            ("(i -> o) -> o", "o"), ("o",), ()]

    def test_probe_agrees_with_the_universe(self):
        # Over random programs, a type is truncated at k exactly when its
        # size-7 universe holds a term of more than k symbols; among the
        # truncated ones, some have no term of size k + 1.
        rng, gaps = random.Random(3), 0
        for _ in range(100):
            program = load(random_program_source(rng))
            universe = Universe(program.signature)
            for rho in argument_types(program):
                sizes = {t.size for t in universe.terms(rho, 7)}
                for k in (1, 2, 3):
                    truncated = str(rho) in truncated_types(program, k)
                    assert truncated == any(size > k for size in sizes), (program, rho, k)
                    gaps += truncated and k + 1 not in sizes
        assert gaps > 20  # not vacuous


class TestCompiledProgram:
    SOURCE = "type p : i -> o.\ntype r : i -> o.\ntype b : i.\np X <- X = a, ~(r X).\nr X <- p X."

    def test_dead_clauses_dropped_true_literals_stripped(self):
        gp = ground_instantiation(load(self.SOURCE), 1)
        assert len(gp.rules) == len(gp.atoms)
        ids = {key: i for i, key in enumerate(gp.atoms)}
        # p a <- true, ~(r a) keeps only its negation; p b <- false, ... is gone.
        assert gp.rules[ids["p a"]] == (((), (ids["r a"],)),)
        assert gp.rules[ids["p b"]] == ()

    def test_clauses_and_atom_table_untouched(self):
        gp = ground_instantiation(load(self.SOURCE), 1)
        before = ([str(gc) for gc in gp.clauses], list(gp.atoms))
        assert gp.rules is gp.rules  # one rules tuple per grounding
        assert ([str(gc) for gc in gp.clauses], list(gp.atoms)) == before
        assert "p b <- false, ~(r b)." in before[0]


class TestCompiledForm:
    """Every corpus program with equality gives the same clauses whether they
    are read before or after its compiled form is built."""

    @pytest.mark.parametrize(
        "entry", [e for e in CORPUS if " = " in e.source], ids=lambda e: e.name
    )
    def test_clauses_read_before_or_after_the_compiled_form(self, entry):
        program = load(entry.source)
        expected = reference_grounding(program, entry.depth)
        first = ground_instantiation(program, entry.depth)
        assert compiled_by_key(first.rules, first.atoms) == compiled_by_key(
            reference_compile(expected.clauses, expected.atoms), expected.atoms
        )
        assert first.clauses == expected.clauses
        second = ground_instantiation(program, entry.depth)
        assert second.clauses == expected.clauses
        assert second.rules == first.rules
        assert second.clauses is second.clauses


class TestTemplateGrounding:
    """The template grounder against the substitute-then-print reference."""

    @staticmethod
    def assert_same(program, k, roots=None):
        try:
            expected = reference_grounding(program, k, roots)
        except (EmptyUniverse, GroundingLimitExceeded) as refused:
            with pytest.raises(type(refused)):
                _ground(program, k, roots)
            return None
        gp = _ground(program, k, roots)
        assert [str(c) for c in gp.clauses] == [str(c) for c in expected.clauses]
        assert [(c.source_index, c.theta) for c in gp.clauses] == [
            (c.source_index, c.theta) for c in expected.clauses
        ]
        assert set(gp.atoms.items()) == set(expected.atoms.items())
        assert all(atom.text == key for key, atom in gp.atoms.items())
        for c in gp.clauses:
            assert c.head is gp.atoms[c.head.text]
            for lit in c.body:
                if isinstance(lit, Neg):
                    assert lit is Neg(gp.atoms[lit.atom.text])
                elif not isinstance(lit, ConstLit):
                    assert lit is gp.atoms[lit.text]
        assert gp.clauses == expected.clauses
        assert len(gp.rules) == len(gp.atoms)
        assert compiled_by_key(gp.rules, gp.atoms) == compiled_by_key(
            reference_compile(expected.clauses, expected.atoms), expected.atoms
        )
        assert set(gp.predicate_edges) == set(reference_edges(expected.clauses))
        return gp

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_corpus(self, entry):
        program = load(entry.source)
        for k in (1, 2, 3):
            gp = self.assert_same(program, k)
            if gp is not None:
                self.assert_same(program, k, _first_atoms(gp))
            if entry.roots:
                roots = [elaborate_ground_atom(program, r) for r in entry.roots]
                self.assert_same(program, k, roots)

    @pytest.mark.parametrize(
        "generate", [random_program_source, random_stratified_source]
    )
    def test_random_programs(self, generate):
        rng = random.Random(4)
        for _ in range(100):
            program = load(generate(rng))
            for k in (1, 2):
                gp = self.assert_same(program, k)
                if gp is not None:
                    self.assert_same(program, k, _first_atoms(gp))

    def test_game_wfs_demand_programs(self):
        """Groups that are mostly fact rows: 13 ``move`` facts beside one ``win`` rule."""
        for program in _demand_games():
            self.assert_same(program, 1, [atom_of(program, "win n0")])

    def test_extcheck_seeded_roots(self, monkeypatch):
        """The roots the extensionality checker registers up front, one
        seed-1 extcheck-ho program of each family."""
        for program, k, roots in _seeded_roots(monkeypatch):
            self.assert_same(program, k, roots)

    def test_partial_application_in_spine_head(self):
        program = load(
            "type n0 : i.\ntype n1 : i.\n"
            "type node : i -> o.\ntype reach : i -> i -> o.\ntype gap : (i -> o) -> o.\n"
            "node X <- X = n0.\nreach X Y <- X = n1, Y = n0.\n"
            "gap R <- node X, ~(R X).\n"
        )
        gp = self.assert_same(program, 2)
        assert "gap (reach n1) <- node n0, ~(reach n1 n0)." in [str(c) for c in gp.clauses]
        gp = self.assert_same(program, 2, [atom_of(program, "gap (reach n1)")])
        assert [str(c) for c in gp.clauses if c.source_index == 2] == [
            "gap (reach n1) <- node n0, ~(reach n1 n0).",
            "gap (reach n1) <- node n1, ~(reach n1 n1).",
        ]

    def test_nested_function_term_as_argument(self):
        program = load("type a : i.\ntype f : i -> i.\ntype p : i -> o.\np X <- p (f X).")
        gp = self.assert_same(program, 2)
        assert [str(c) for c in gp.clauses] == ["p a <- p (f a).", "p (f a) <- p (f (f a))."]
        assert list(gp.atoms) == ["p a", "p (f a)", "p (f (f a))"]

    def test_equality_between_function_terms(self):
        # The formals are out of name order, and theta is sorted by name.
        program = load("type f : i -> i.\ntype a : i.\ntype b : i.\ntype q : i -> i -> o.\nq Y X <- f Y = f X.")
        gp = self.assert_same(program, 2)
        rendered = [str(c) for c in gp.clauses]
        assert "q (f a) (f a) <- true." in rendered
        assert "q a (f a) <- false." in rendered
        assert sum(c.body[0].value for c in gp.clauses) == 4
        assert [name for name, _ in gp.clauses[0].theta] == ["X", "Y"]


class TestDemandGroups:
    """A demanded atom counts every clause of its (head, arity) group and
    grounds only the clauses whose guards on the formals it matches."""

    @staticmethod
    def spy(monkeypatch):
        """The groundings made from now on, and the calls each grounds."""
        made = []

        class Spy(grounder._DemandGrounding):
            def __init__(self, *args):
                super().__init__(*args)
                self.calls = []
                made.append(self)

            def ground(self, t, r, bound=(), head=None):
                self.calls.append(t.rows[r][0])
                super().ground(t, r, bound, head)

        monkeypatch.setattr(grounder, "_DemandGrounding", Spy)
        return made

    def test_clause_count_is_the_number_of_instances(self, monkeypatch):
        made = self.spy(monkeypatch)
        cases = [(program, [atom_of(program, "win n0")], 1) for program in _demand_games()]
        for entry in CORPUS:
            program = load(entry.source)
            for k in (1, 2, 3):
                if entry.roots:
                    cases.append((program, [atom_of(program, r) for r in entry.roots], k))
                try:
                    cases.append((program, _first_atoms(ground_instantiation(program, k)), k))
                except EmptyUniverse:
                    pass
        checked = 0
        for program, roots, k in cases:
            made.clear()
            try:
                gp = relevant_grounding(program, roots, k)
            except EmptyUniverse:
                continue
            assert made[0].clause_count == len(gp.clauses)
            checked += 1
        assert checked >= 90

    def test_cap_names_the_clause_a_later_unmatched_atom_passes_it_at(self):
        # Each q atom counts both clauses, 1 + 10^5 instances.  The tenth,
        # q c9, is not its group's first atom and matches neither fact row;
        # the group's second clause takes it over the cap.
        ys = ", ".join(f"Y{j} = Y{j}" for j in range(5))
        program = load("".join(f"type c{i} : i.\n" for i in range(10))
                       + f"type q : i -> o.\nq X <- X = c1.\nq X <- X = c0, {ys}.\n")
        roots = [atom_of(program, f"q c{i}") for i in range(10)]
        message = (f"^clause 1 would bring the grounding to 1000010 clauses, "
                   f"over the cap of {DEFAULT_MAX_CLAUSES}$")
        with pytest.raises(GroundingLimitExceeded, match=message):
            relevant_grounding(program, roots, 1)

    def test_dead_fact_rows_are_not_grounded(self, monkeypatch):
        """One call per win atom (12) and one per move row an atom matches
        (13): the move atoms that match no row, the group's first among
        them, ground nothing."""
        made = self.spy(monkeypatch)
        for program in _demand_games():
            made.clear()
            gp = relevant_grounding(program, [atom_of(program, "win n0")], 1)
            calls = made[0].calls
            assert len(gp.atoms) == 156 and len(calls) == 25
            heads = [program.clauses[i].head_pred.name for i in calls]
            assert heads.count("win") == 12 and heads.count("move") == 13
            assert len(set(calls)) == 14  # the win rule, and each move row once


def _demand_games():
    """The programs of the seed-1 game-wfs queries that ground on demand."""
    return [load(q.source) for q in bench_workloads().game_pool(1) if "--roots" in q.args]


def _seeded_roots(monkeypatch):
    """(program, depth, roots) for the first seed-1 extcheck-ho query of each
    family: the atoms ``ExtChecker._seed_applications`` registers."""
    found, seeded = {}, []
    original = ExtChecker._seed_applications

    def spy(self, rho):
        before = set(self.oracle._roots)
        original(self, rho)
        seeded.extend(a for key, a in self.oracle._roots.items() if key not in before)

    monkeypatch.setattr(ExtChecker, "_seed_applications", spy)
    for query in bench_workloads().ext_pool(1):
        family = query.label.split("-")[1]
        if family not in found:
            program, k = load(query.source), int(query.args[query.args.index("--depth") + 1])
            seeded.clear()
            ExtChecker(program, k).reflexivity_report()
            found[family] = (program, k, list(seeded))
    assert sorted(found) == ["lemma", "positive", "stratified"]
    return list(found.values())


class TestGuardsAndProjections:
    """The atom table comes from each atom literal's projection and the
    rules from joins in which guards bind; the grounding must not show it."""

    def test_dead_instance_still_demands_its_atoms(self):
        src = "type p : i -> o.\ntype q : i -> o.\ntype b : i.\np X <- X = a, q X."
        program = load(src)
        gp = TestTemplateGrounding.assert_same(program, 1, [atom_of(program, "p b")])
        assert list(gp.atoms) == ["p b", "q b"]
        assert gp.rules == ((), ())

    def test_swapped_variables_project_differently(self):
        src = (
            "type a : i.\ntype b : i.\ntype q : i -> i -> o.\n"
            "type r : i -> i -> o.\ntype s : i -> i -> o.\n"
            "r X Y <- q X Y.\ns X Y <- q Y X.\nr X Y <- q Y X.\n"
        )
        TestTemplateGrounding.assert_same(load(src), 1)
        # One formal bound, one variable free: q a Y and q Y a differ.
        src = (
            "type a : i.\ntype b : i.\ntype q : i -> i -> o.\n"
            "type r : i -> o.\ntype s : i -> o.\nr X <- q X Y.\ns X <- q Y X.\n"
        )
        program = load(src)
        roots = [atom_of(program, "r a"), atom_of(program, "s a")]
        gp = TestTemplateGrounding.assert_same(program, 1, roots)
        assert {"q a b", "q b a"} <= set(gp.atoms)

    def test_guards(self):
        src = (
            "type a : i.\ntype b : i.\ntype f : i -> i.\n"
            "type p : i -> o.\ntype e : i -> i -> o.\n"
            "p X <- a = X.\np X <- X = b.\n"
            "e X Y <- X = Y.\ne X Y <- f X = f Y, p X.\ne X Y <- Y = X, X = b, ~(p Y).\n"
        )
        program = load(src)
        gp = TestTemplateGrounding.assert_same(program, 2)
        rules = compiled_by_key(gp.rules, gp.atoms)
        assert rules["p a"] == [((), ())] and rules["p (f a)"] == []
        assert rules["e a a"] == sorted([((), ()), (("p a",), ())])
        assert rules["e b b"] == sorted([((), ()), (("p b",), ()), ((), ("p b",))])
        assert rules["e a b"] == []
        for root in ("e a a", "e b b", "e (f a) b", "p (f b)"):
            TestTemplateGrounding.assert_same(program, 2, [atom_of(program, root)])


class TestShapes:
    """Clauses that differ only in the ground sides of their guards share one
    template, a row each; every atom is built from field values."""

    SAME_SHAPE = {
        "guard outside the universe": (
            "type a : i.\ntype b : i.\ntype f : i -> i.\ntype p : i -> o.\n"
            "p X <- X = f (f a).\np X <- X = a.\np X <- X = f b.\n",
            ("p a", "p (f a)", "p (f (f a))"),
        ),
        "two guards on one variable": (
            "type a : i.\ntype b : i.\ntype p : i -> o.\ntype q : i -> o.\n"
            "p X <- X = a, X = b.\np X <- X = a, X = a.\np X <- X = b, X = a.\n"
            "q X <- X = a, X = b, p X.\nq X <- X = b, X = b, p X.\n",
            ("p a", "p b", "q a", "q b"),
        ),
        "guards written both ways": (
            "type a : i.\ntype b : i.\ntype p : i -> o.\n"
            "p X <- a = X.\np X <- X = b.\np X <- b = X.\np X <- X = a.\n",
            ("p a", "p b"),
        ),
        "a body atom beside the guard": (
            "type a : i.\ntype b : i.\ntype u0 : i -> o.\ntype e : i -> i -> o.\n"
            "u0 X <- X = a.\ne X Y <- u0 X, Y = a.\ne X Y <- u0 X, Y = b.\n",
            ("e a a", "e a b", "e b a"),
        ),
        "rows interleaved with other clauses": (
            "type a : i.\ntype b : i.\ntype c : i.\ntype e : i -> i -> o.\n"
            "type r : i -> i -> o.\n"
            "e X Y <- X = a, Y = b.\nr X Y <- e X Y.\ne X Y <- X = b, Y = c.\n"
            "r X Y <- e X Z, r Z Y.\ne X Y <- X = c, Y = a.\ne Y X <- X = a, Y = c.\n",
            ("r a a", "r c b", "e a c"),
        ),
    }

    BUILDERS = {
        "function term": (
            "type c0 : i.\ntype c1 : i.\ntype f0 : i -> i -> i.\ntype p0 : i -> o.\n"
            "type q0 : i -> o.\nq0 V10 <- V10 = f0 c1 c1.\nq0 V10 <- V10 = c0.\n"
            "p0 V10 <- ~(q0 (f0 V10 c0)), q0 (f0 c1 V10).\n",
            ("p0 c0", "p0 c1", "p0 (f0 c1 c0)"),
        ),
        "variable head": (NONEXTENSIONAL, ("s p", "s q", "s w")),
        "partial application in the head position": (
            "type a : i.\ntype b : i.\ntype r : i -> i -> o.\ntype h : (i -> o) -> o.\n"
            "r X Y <- X = a, Y = b.\nh R <- R a, ~(R b).\nh R <- R b.\n",
            ("h (r a)", "h (r b)"),
        ),
    }

    @pytest.mark.parametrize("case", sorted({**SAME_SHAPE, **BUILDERS}))
    def test_against_the_reference(self, case):
        source, roots = {**self.SAME_SHAPE, **self.BUILDERS}[case]
        program = load(source)
        for k in (1, 2):
            TestTemplateGrounding.assert_same(program, k)
            for root in roots:
                TestTemplateGrounding.assert_same(program, k, [atom_of(program, root)])
            TestTemplateGrounding.assert_same(program, k, [atom_of(program, r) for r in roots])

    def test_same_shape_clauses_share_a_template(self, monkeypatch):
        compiled = []
        original = grounder._Template.__init__

        def counting(self, g, index, shape):
            compiled.append(index)
            original(self, g, index, shape)

        monkeypatch.setattr(grounder._Template, "__init__", counting)
        source, _ = self.SAME_SHAPE["rows interleaved with other clauses"]
        gp = ground_instantiation(load(source), 1)
        assert compiled == [0, 1, 3, 5]  # e X Y, r X Y <- e X Y, r X Y <- e X Z, r Z Y, e Y X
        assert [c.source_index for c in gp.clauses[:9]] == [0] * 9
        assert gp.clauses[9].source_index == 1

    def test_guards_narrow_each_row_to_its_constants(self, monkeypatch):
        # The facts of a strat-perfect query, edge X Y <- X = nA, Y = nB and
        # node X <- X = nA: each row ranges over its guards' constants alone,
        # so it fires one instance, not one per node or pair of nodes.
        rows = []
        add = grounder._Template.add

        def recording(self, index, consts):
            rows.append((self, add(self, index, consts)))
            return rows[-1][1]

        monkeypatch.setattr(grounder._Template, "add", recording)
        query = next(q for q in bench_workloads().strat_pool(1) if q.label == "strat-n11-0")
        k = int(query.args[query.args.index("--depth") + 1])
        ground_instantiation(load(query.source), k)
        facts = [(t, r) for t, r in rows if t.head_pred in ("edge", "node")]
        assert {len(d) for t, _ in facts for d in t.rest_domains} == {11}  # the nodes
        lines = query.source.splitlines()
        assert len(facts) == sum(line.startswith(("edge X Y <-", "node X <-")) for line in lines)
        for t, r in facts:
            _, consts, domains = t.rows[r]
            assert len(t.rest) == len(consts) and not t.pos
            assert domains == [[c] for c in consts]

    def test_guard_on_a_function_term_narrows_to_that_term(self, monkeypatch):
        rows = []
        add = grounder._Template.add

        def recording(self, index, consts):
            rows.append((self, add(self, index, consts)))
            return rows[-1][1]

        monkeypatch.setattr(grounder._Template, "add", recording)
        ground_instantiation(load("type a : i.\ntype f : i -> i.\ntype p : i -> o.\np X <- X = f a."), 2)
        ((t, r),) = rows
        _, consts, domains = t.rows[r]
        f_a = App(Const("f", Arrow(IOTA, IOTA)), Const("a", IOTA))
        assert consts == (f_a,) and len(domains) == 1 and len(domains[0]) == 1
        assert domains[0][0] is f_a
        # two guards on one variable: a value must be each guard's side
        rows.clear()
        ground_instantiation(load(
            "type a : i.\ntype f : i -> i.\ntype p : i -> o.\n"
            "p X <- X = f a, X = a.\np X <- f a = X, X = f a.\n"
        ), 2)
        assert [t.rows[r][2] for t, r in rows] == [[[]], [[f_a]]]
        # a guard's side over k symbols is outside the universe: no value
        rows.clear()
        program = load(
            "type a : i.\ntype f : i -> i.\ntype p : i -> o.\ntype q : i -> o.\n"
            "p X <- X = f (f a).\nq X <- X = f (f a), X = f (f a).\nq X <- X = f (f a), X = a.\n"
        )
        f_f_a = App(f_a.op, f_a)
        for k, kept in ((2, []), (3, [f_f_a])):
            rows.clear()
            gp = TestTemplateGrounding.assert_same(program, k)
            assert [t.rows[r][2] for t, r in rows] == [[kept], [kept], [[]]]
            fires = [((), ())] if k == 3 else None  # p (f (f a)) is an atom at size 3 only
            assert compiled_by_key(gp.rules, gp.atoms).get("p (f (f a))") == fires

    def test_every_key_is_its_atoms_text(self):
        def check(program, k, roots=None):
            try:
                gp = _ground(program, k, roots)
            except (EmptyUniverse, GroundingLimitExceeded):
                return None
            for key, atom in gp.atoms.items():
                assert key == atom.text
                assert gp.atoms[key] is build_spine(*spine(atom))
            return gp

        programs = [load(entry.source) for entry in CORPUS]
        rng = random.Random(24)
        for generate in (random_program_source, random_stratified_source):
            programs += [load(generate(rng)) for _ in range(50)]
        for program in programs:
            for k in (1, 2):
                gp = check(program, k)
                if gp is not None:
                    check(program, k, _first_atoms(gp))
        for entry in CORPUS:
            if entry.roots:
                program = load(entry.source)
                check(program, 2, [elaborate_ground_atom(program, r) for r in entry.roots])


class TestProjections:
    """A literal's projection is computed once per pattern: literals that
    differ only in their variables' names, in any clause shape, share it."""

    @staticmethod
    def projections(monkeypatch):
        found = []
        result = grounder._Grounding.result

        def recording(self, *args):
            found.append(list(self._projections))
            return result(self, *args)

        monkeypatch.setattr(grounder._Grounding, "result", recording)
        return found

    def test_one_pattern_in_different_shapes_shares_a_projection(self, monkeypatch):
        found = self.projections(monkeypatch)
        # edge X Y as a head and in a body, edge X Z in another body; reach
        # X Y as a head, reach Z Y in a body: two patterns, two projections
        program = load(
            "type a : i.\ntype b : i.\ntype c : i.\n"
            "type edge : i -> i -> o.\ntype reach : i -> i -> o.\n"
            "edge X Y <- X = a, Y = b.\nreach X Y <- edge X Y.\nreach X Y <- edge X Z, reach Z Y.\n"
        )
        TestTemplateGrounding.assert_same(program, 1)
        edge, reach = (Const(name, parse_type("i -> i -> o")) for name in ("edge", "reach"))
        assert found == [[(((edge, (0, IOTA)), (1, IOTA)), ()), (((reach, (0, IOTA)), (1, IOTA)), ())]]

    def test_one_shape_over_other_types_projects_apart(self, monkeypatch):
        found = self.projections(monkeypatch)
        # R X and Q P: a variable applied to a variable, at two types
        program = load(
            "type a : i.\ntype p : i -> o.\ntype g : (i -> o) -> o.\n"
            "type t : i -> o.\ntype u : (i -> o) -> o.\nt X <- R X.\nu P <- Q P.\n"
        )
        for k in (1, 2):
            TestTemplateGrounding.assert_same(program, k)
        assert [len(keys) for keys in found] == [4, 4]

    def test_bound_fields_keep_their_numbers(self, monkeypatch):
        found = self.projections(monkeypatch)
        program = load(
            "type a : i.\ntype b : i.\ntype q : i -> i -> o.\n"
            "type r : i -> o.\ntype s : i -> o.\nr X <- q X Y.\ns X <- q Y X.\n"
        )
        roots = [atom_of(program, "r a"), atom_of(program, "s a")]
        TestTemplateGrounding.assert_same(program, 1, roots)
        q, a = Const("q", parse_type("i -> i -> o")), Const("a", IOTA)
        # r X <- q X Y and s X <- q Y X, with X bound to a: q a Y and q Y a
        assert found == [[(((q, (0, IOTA)), (1, IOTA)), (a,)), (((q, (1, IOTA)), (0, IOTA)), (a,))]]

    def test_a_literal_projects_once_per_value_of_the_bound_fields_it_reads(self, monkeypatch):
        # win X <- move X Y, ~(win Y) on a six-node chain, demanded from win n0:
        # ~(win Y) reads no bound field, so its projection is built once, not
        # once per value of X; move X Y reads X, so it keeps one per value.
        program = load(
            "".join(f"type n{i} : i.\n" for i in range(6))
            + "type move : i -> i -> o.\ntype win : i -> o.\n"
            + "".join(f"move X Y <- X = n{i}, Y = n{i + 1}.\n" for i in range(5))
            + "win X <- move X Y, ~(win Y).\n"
        )
        roots = [atom_of(program, "win n0")]
        TestTemplateGrounding.assert_same(program, 1, roots)
        built, new = [], App.__new__

        def counting(cls, op, arg):
            built[-1] += 1
            return new(cls, op, arg)

        def ground():
            built.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(App, "__new__", staticmethod(counting))
                return relevant_grounding(program, roots, 1)

        gp = ground()
        # the same grounding with every projection keyed by all the bound values
        literal = grounder._literal
        monkeypatch.setattr(grounder, "_literal", lambda *args: (*literal(*args)[:3], None))
        every = ground()
        assert list(gp.atoms) == list(every.atoms) and len(gp.atoms) == 42
        assert gp.rules == every.rules
        assert built == [81, 111]
    def test_strat_perfect_seed_1_computes_nine_projections_a_query(self, monkeypatch):
        found = self.projections(monkeypatch)
        pool = bench_workloads().strat_pool(1)
        for query in pool:
            ground_instantiation(load(query.source), int(query.args[query.args.index("--depth") + 1]))
        assert len(pool) == 24 and [len(keys) for keys in found] == [9] * 24


def _ground(program, k, roots):
    if roots is None:
        return ground_instantiation(program, k)
    return relevant_grounding(program, roots, k)


def _first_atoms(gp):
    return list(gp.atoms.values())[:2]


class TestCallsWithNoFreeVariable:
    """A call whose positive atoms are all bound, by a ground clause or by a
    demanded atom's arguments, goes through the semi-naive join like any
    other: its rule fires once, when its last positive atom is found."""

    BOUND = (
        "type p : o.\ntype q : o.\ntype r : o.\ntype s : o.\ntype t : o.\n"
        "p <- q, r.\np <- q, q.\ns <- q, t.\nt <- ~s, q.\nq.\nr <- q.\n"
    )
    DEMAND = "type p : o -> o.\ntype q : o.\np R <- R, R.\nq.\n"

    @staticmethod
    def solved(gp):
        model = well_founded_model(gp).model
        return (list(gp.atoms), gp.rules, sorted(model.true_atoms), sorted(model.false_atoms),
                sorted(model.universe - model.true_atoms - model.false_atoms))

    def test_exhaustive(self):
        assert self.solved(ground_instantiation(load(self.BOUND), 2)) == (
            ["p", "q", "r", "s", "t"],
            ((((1, 1), ()), ((1, 2), ())), (((), ()),), (((1,), ()),), (((1, 4), ()),),
             (((1,), (3,)),)),
            ["p", "q", "r"], [], ["s", "t"],
        )
        assert self.solved(ground_instantiation(load(self.DEMAND), 2)) == (
            ["p q", "p (p q)", "q"], ((((2, 2), ()),), (((0, 0), ()),), (((), ()),)),
            ["p (p q)", "p q", "q"], [], [],
        )

    def test_on_demand(self):
        program = load(self.BOUND)
        roots = [atom_of(program, "p"), atom_of(program, "s")]
        assert self.solved(relevant_grounding(program, roots, 2)) == (
            ["p", "s", "q", "r", "t"],
            ((((2, 2), ()), ((2, 3), ())), (((2, 4), ()),), (((), ()),), (((2,), ()),),
             (((2,), (1,)),)),
            ["p", "q", "r"], [], ["s", "t"],
        )
        # p R <- R, R demanded as p q: R is bound, both positive atoms are q
        program = load(self.DEMAND)
        assert self.solved(relevant_grounding(program, [atom_of(program, "p q")], 2)) == (
            ["p q", "q"], ((((1, 1), ()),), (((), ()),)), ["p q", "q"], [], [],
        )
