"""Stratification, local stratification, and the perfect model."""

import random

import pytest

from hoplog.errors import LocalStratificationViolation, NotIncreasing
from hoplog.grounder import ground_instantiation, relevant_grounding
from hoplog.interp import Ordering, TruthValue, interpretation
from hoplog.perfect import (
    Stratification,
    Unstratifiable,
    _dependency_edges,
    localize,
    perfect_model,
    stratify,
)
from hoplog.programs import NONEXTENSIONAL, POSITIVE_ID, STRATIFIED_BAD, STRATIFIED_OK
from hoplog.syntax import spine
from hoplog.typecheck import elaborate_ground_atom
from hoplog.wfs import well_founded_model

from corpus import CORPUS
from helpers import (
    bench_workloads,
    is_minimal_model,
    is_model,
    leq,
    load,
    naive_perfect_model,
    naive_psi_lfp,
    random_program_source,
    random_stratified_source,
    theta_lfp,
    theta_step,
)

# Reachability along a six-node path: the first stage's psi fixpoint
# takes seven steps, one per path length plus the confirming step.
PATH_REACH = "".join(f"type n{v} : i.\n" for v in range(6)) + (
    "type edge : i -> i -> o.\ntype reach : i -> i -> o.\n"
    "type unreach : i -> i -> o.\n"
    + "".join(f"edge X Y <- X = n{v}, Y = n{v + 1}.\n" for v in range(5))
    + "reach X Y <- edge X Y.\nreach X Y <- edge X Z, reach Z Y.\n"
    "unreach X Y <- ~(reach X Y).\n"
)

# Atoms r b and p b occur only in the dead clause p b <- false, ~(r b).
DEAD_ONLY = "type p : i -> o.\ntype r : i -> o.\ntype b : i.\np X <- X = a, ~(r X)."


def gp_of(src: str, k: int = 1):
    return ground_instantiation(load(src), k)


class TestStratify:
    def test_negation_under_applied_variable_is_stratified(self):
        strat = stratify(load(STRATIFIED_OK))
        assert isinstance(strat, Stratification)
        assert strat.strata == (("q",), ("p",))
        assert strat.index["q"] == 1 and strat.index["p"] == 2

    def test_type_cycle_through_negation_rejected(self):
        result = stratify(load(STRATIFIED_BAD))
        assert isinstance(result, Unstratifiable)
        # q's type i -> i -> o sits above Q's type i -> o, hence the strict
        # edge q -> p, and p feeds q through the body application p (q a).
        assert result.strict_edge == ("q", "p")
        assert set(result.cycle) == {"p", "q"}

    def test_negation_free_program_single_stratum(self):
        strat = stratify(load(POSITIVE_ID))
        assert isinstance(strat, Stratification)
        assert strat.count == 1
        assert strat.strata == (("id", "p", "q"),)

    def test_counterexample_program_unstratifiable(self):
        result = stratify(load(NONEXTENSIONAL))
        assert isinstance(result, Unstratifiable)

    def test_plain_negation_chain(self):
        src = "type p : o.\ntype q : o.\ntype r : o.\np <- ~q.\nq <- ~r.\nr."
        strat = stratify(load(src))
        assert isinstance(strat, Stratification)
        assert strat.strata == (("r",), ("q",), ("p",))

    def test_self_negation_unstratifiable(self):
        result = stratify(load("type p : o.\np <- ~p."))
        assert isinstance(result, Unstratifiable)
        assert result.cycle == ("p",)
        assert result.strict_edge == ("p", "p")


def _reaches(successors, start, goal) -> bool:
    seen, todo = {start}, [start]
    while todo:
        node = todo.pop()
        if node == goal:
            return True
        for succ in successors.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return False


def _check_least_levels(strat, preds, edges):
    index = strat.index
    assert set(index) == set(preds)
    for (src, dst), strict in edges.items():
        assert index[dst] >= index[src] + strict, (src, dst)
    r = strat.count
    assert sorted(set(index.values())) == list(range(1, r + 1))
    for level, members in enumerate(strat.strata, start=1):
        assert members and list(members) == sorted(n for n in preds if index[n] == level)
        if level == 1:
            continue
        # Each member is forced up to this level: a tight strict edge from
        # the level below reaches it along tight positive edges.
        forced = {dst for (src, dst), strict in edges.items()
                  if strict and index[dst] == level and index[src] == level - 1}
        grown = True
        while grown:
            grown = False
            for (src, dst), strict in edges.items():
                if src in forced and dst not in forced and index[dst] == level:
                    forced.add(dst)
                    grown = True
        assert forced == set(members), level


def _check_witness(result, edges):
    successors = {}
    for src, dst in edges:
        successors.setdefault(src, []).append(dst)
    cycle = result.cycle
    src, dst = result.strict_edge
    assert edges[(src, dst)] is True
    assert cycle[0] == dst and cycle[-1] == src
    assert len(set(cycle)) == len(cycle)
    for a, b in zip(cycle, cycle[1:]):
        assert (a, b) in edges
    for (s, d), strict in sorted(edges.items()):
        if (s, d) == result.strict_edge:
            break
        if strict:
            assert not _reaches(successors, d, s), (s, d)


class TestStratifyAgainstDefinition:
    def test_least_levels_and_first_witness_on_random_programs(self):
        kinds = {Stratification: 0, Unstratifiable: 0}
        for generate in (random_program_source, random_stratified_source):
            for seed in range(500):
                program = load(generate(random.Random(seed)))
                preds = list(program.signature.predicates)
                edges = _dependency_edges(program)
                result = stratify(program)
                kinds[type(result)] += 1
                if isinstance(result, Stratification):
                    _check_least_levels(result, preds, edges)
                else:
                    _check_witness(result, edges)
        assert kinds[Stratification] >= 100 and kinds[Unstratifiable] >= 100, kinds


class TestLocalize:
    def test_atom_stratum_is_leftmost_predicate(self):
        program = load(STRATIFIED_OK)
        strat = stratify(program)
        gp = ground_instantiation(program, 3)
        strata = localize(strat, gp)
        ids = {key: a for a, key in enumerate(gp.atoms)}
        assert ids["q a"] in strata[0]
        assert ids["p q"] in strata[1]

    def test_strata_partition_the_atoms_by_leftmost_predicate(self):
        """Over the stratified corpus, exhaustively and from its roots, and
        the strat-perfect bench pools of seeds 1-3: the strata partition the
        atom ids, and each id sits in the stratum of its atom's leftmost
        predicate constant."""
        workloads = bench_workloads()
        checked = 0
        for name, gp, strat in _localized_groundings(workloads):
            strata = localize(strat, gp)
            assert len(strata) == strat.count, name
            assert sorted(a for ids in strata for a in ids) == list(range(len(gp.atoms))), name
            atoms = list(gp.atoms.values())
            for n, ids in enumerate(strata, 1):
                for a in ids:
                    assert strat.index[spine(atoms[a])[0].name] == n, (name, atoms[a].text)
            checked += 1
        assert checked == 91, checked

    def test_order_within_a_stratum_does_not_matter(self):
        """The strata list their atom ids in atom-table order; the stages
        are the same in any order within each stratum."""
        rng = random.Random(5)
        checked = 0
        for name, gp, strat in stratified_groundings():
            strata = localize(strat, gp)
            shuffled = tuple(tuple(rng.sample(ids, len(ids))) for ids in strata)
            assert perfect_model(gp, shuffled).stages == perfect_model(gp, strata).stages, name
            checked += 1
        assert checked == 40

    def test_resolved_equalities_sit_below_everything(self):
        gp = gp_of("type q : i -> o.\ntype b : i.\nq X <- X = a.")
        strat = stratify(load("type q : i -> o.\ntype b : i.\nq X <- X = a."))
        strata = localize(strat, gp)  # bodies are only resolved constants
        assert len(strata) == 1

    def test_stratified_corpus_groundings_validate(self):
        for entry in CORPUS:
            program = load(entry.source)
            strat = stratify(program)
            if isinstance(strat, Unstratifiable):
                continue
            gp = ground_instantiation(program, entry.depth)
            assert len(localize(strat, gp)) == strat.count

    def test_violation_detected_for_wrong_stratification(self):
        src = "type p : o.\ntype q : o.\np <- ~q.\nq."
        program = load(src)
        gp = ground_instantiation(program, 1)
        wrong = Stratification((("p", "q"),), {"p": 1, "q": 1})
        with pytest.raises(LocalStratificationViolation):
            localize(wrong, gp)


    def test_violation_in_dead_instances_only_is_detected(self):
        # Every instance is dead (a = b), and the wrong stratification puts
        # h and the q that R takes on in one stratum.
        src = (
            "type a : i.\ntype b : i.\ntype q : i -> o.\ntype h : (i -> o) -> o.\n"
            "type g : o.\nq X <- X = a.\nh R <- ~(R a), a = b.\ng <- a = b, ~(q a).\n"
        )
        program = load(src)
        gp = ground_instantiation(program, 1)
        keys = list(gp.atoms)
        assert gp.rules[keys.index("h q")] == gp.rules[keys.index("g")] == ()
        assert perfect_model(gp, localize(stratify(program), gp)).model.is_total
        for wrong in (
            # ~(q a) in h q's instance, through the variable R
            Stratification((("h", "q"), ("g",)), {"g": 2, "q": 1, "h": 1}),
            # ~(q a) in g's instance, through the constant q
            Stratification((("g", "q"), ("h",)), {"g": 1, "q": 1, "h": 2}),
        ):
            with pytest.raises(LocalStratificationViolation):
                localize(wrong, gp)


def _localized_groundings(workloads):
    """(name, grounding, stratification) for each stratified corpus entry,
    exhaustively and, if it has roots, from them, and for each query of the
    strat-perfect bench pools of seeds 1-3."""
    for entry in CORPUS:
        program = load(entry.source)
        strat = stratify(program)
        if isinstance(strat, Unstratifiable):
            continue
        yield entry.name, ground_instantiation(program, entry.depth), strat
        if entry.roots:
            roots = [elaborate_ground_atom(program, r) for r in entry.roots]
            yield entry.name + " (roots)", relevant_grounding(program, roots, entry.depth), strat
    for seed in (1, 2, 3):
        for query in workloads.strat_pool(seed):
            program = load(query.source)
            k = int(query.args[query.args.index("--depth") + 1])
            yield query.label, ground_instantiation(program, k), stratify(program)


def _psi(J, I, gp) -> set[str]:
    """The two-valued stage operator: the atoms ``theta_step`` makes true,
    which reads I only through its true atoms."""
    return set(theta_step(J, interpretation(gp, I), gp).true_atoms)


class TestPsi:
    def test_facts_only(self):
        gp = gp_of("type p : o.\ntype q : o.\np.\nq <- p.")
        out = _psi(interpretation(gp), set(), gp)
        assert out == {"p"}

    def test_negative_support_from_j(self):
        gp = gp_of("type p : o.\ntype q : o.\np <- ~q.")
        J = interpretation(gp, false_atoms={"q"})
        assert _psi(J, set(), gp) == {"p"}

    def test_two_step_chain(self):
        gp = gp_of("type p : o.\ntype q : o.\np <- q.\nq.")
        J = interpretation(gp)
        one = _psi(J, set(), gp)
        two = _psi(J, one, gp)
        assert one == {"q"} and two == {"p", "q"}
        assert theta_lfp(J, gp)[0].true_atoms == naive_psi_lfp(J, gp) == {"p", "q"}


def stratified_groundings():
    for entry in CORPUS:
        program = load(entry.source)
        strat = stratify(program)
        if isinstance(strat, Stratification) and not entry.roots:
            yield entry.name, ground_instantiation(program, entry.depth), strat
    program = load(PATH_REACH)
    yield "path_reach", ground_instantiation(program, 1), stratify(program)
    rng = random.Random(23)
    for _ in range(20):
        src = random_stratified_source(rng)
        program = load(src)
        yield src, ground_instantiation(program, 2), stratify(program)


class TestPsiLfpMatchesNaive:
    """A perfect-model stage derives the true atoms of the well-founded
    engine's inner fixpoint under the stage before."""

    def test_same_fixpoint_under_every_stage(self):
        checked = 0
        for name, gp, strat in stratified_groundings():
            for J in perfect_model(gp, localize(strat, gp)).stages:
                assert theta_lfp(J, gp)[0].true_atoms == naive_psi_lfp(J, gp), name
                checked += 1
        assert checked >= 60


class TestDeadClauses:
    def test_dead_only_atoms_stay_in_the_model_as_false(self):
        program = load(DEAD_ONLY)
        gp = ground_instantiation(program, 1)
        assert "p b <- false, ~(r b)." in [str(gc) for gc in gp.clauses]
        perfect = perfect_model(gp, localize(stratify(program), gp)).model
        wfs = well_founded_model(gp).model
        for model in (perfect, wfs):
            assert model.universe == {"p a", "p b", "r a", "r b"}
            assert model.true_atoms == {"p a"}
            # p b has only the dead clause; r b occurs only in its body.
            assert model.value("p b") == TruthValue.FALSE
            assert model.value("r b") == TruthValue.FALSE


class TestPerfectModel:
    def test_two_stratum_hand_computation(self):
        src = "type q : i -> o.\ntype p : o.\ntype b : i.\nq X <- X = a.\np <- ~(q b)."
        program = load(src)
        gp = ground_instantiation(program, 1)
        strat = stratify(program)
        result = perfect_model(gp, localize(strat, gp))
        assert result.model.value("q a") == TruthValue.TRUE
        assert result.model.value("q b") == TruthValue.FALSE
        assert result.model.value("p") == TruthValue.TRUE
        assert result.model.is_total
        assert is_minimal_model(gp, result.model, Ordering.TRUTH)

    def test_negation_free_single_stage_is_classical_least_model(self):
        program = load(POSITIVE_ID)
        gp = ground_instantiation(program, 2)
        strat = stratify(program)
        result = perfect_model(gp, localize(strat, gp))
        assert len(result.stages) - 1 == 1
        assert result.model.is_total
        assert result.model == well_founded_model(gp).model

    def test_stratified_example_matches_wfs(self):
        program = load(STRATIFIED_OK)
        gp = ground_instantiation(program, 3)
        strat = stratify(program)
        result = perfect_model(gp, localize(strat, gp))
        wfs = well_founded_model(gp).model
        assert result.model == wfs
        assert result.model.is_total

    def test_stage_sequence_fitting_increasing(self):
        src = "type a : o.\ntype b : o.\ntype c : o.\na <- ~b.\nb <- ~c.\nc."
        program = load(src)
        gp = ground_instantiation(program, 1)
        result = perfect_model(gp, localize(stratify(program), gp))
        for earlier, later in zip(result.stages, result.stages[1:]):
            assert leq(earlier, later, Ordering.FITTING)
        assert result.model.value("a") == TruthValue.TRUE

    def test_any_valid_stratification_gives_same_model(self):
        src = "type p : o.\ntype q : o.\ntype r : o.\np <- ~q.\nq <- ~r.\nr."
        program = load(src)
        gp = ground_instantiation(program, 1)
        canonical = stratify(program)
        assert isinstance(canonical, Stratification)
        # A coarser but still valid stratification: push p one level higher.
        padded = Stratification(
            (("r",), ("q",), (), ("p",)), {"r": 1, "q": 2, "p": 4}
        )
        a = perfect_model(gp, localize(canonical, gp)).model
        b = perfect_model(gp, localize(padded, gp)).model
        assert a == b

    def test_deriving_a_sealed_atom_raises(self):
        # Not a stratification: p sits below the r it negates.  Stage 1
        # seals p false, stage 2 seals r, and stage 3 would derive p.
        gp = gp_of("type p : o.\ntype r : o.\np <- ~r.")
        ids = {key: a for a, key in enumerate(gp.atoms)}
        with pytest.raises(NotIncreasing):
            perfect_model(gp, ((ids["p"],), (ids["r"],), ()))

    def test_corpus_stratified_entries_match_wfs(self):
        for entry in CORPUS:
            program = load(entry.source)
            strat = stratify(program)
            if isinstance(strat, Unstratifiable):
                continue
            gp = ground_instantiation(program, entry.depth)
            result = perfect_model(gp, localize(strat, gp))
            wfs = well_founded_model(gp).model
            assert result.model == wfs, entry.name
            assert result.model.is_total, entry.name
            assert is_model(result.model, gp), entry.name
            if len(gp.atoms) <= 12:
                assert is_minimal_model(gp, result.model, Ordering.TRUTH), entry.name

    def test_random_stratified_programs(self):
        rng = random.Random(11)
        for _ in range(20):
            src = random_stratified_source(rng)
            program = load(src)
            strat = stratify(program)
            assert isinstance(strat, Stratification), src
            assert strat.count <= 3, src
            gp = ground_instantiation(program, 2)
            result = perfect_model(gp, localize(strat, gp))
            assert result.model == well_founded_model(gp).model, src
            assert result.model.is_total, src


class TestStagesMatchNaive:
    """Every perfect-model stage against the stage-by-stage reference,
    which iterates the two-valued stage operator afresh at each stratum."""

    @staticmethod
    def check(gp, strata, name):
        assert perfect_model(gp, strata).stages == naive_perfect_model(gp, strata), name

    def test_stratified_corpus(self):
        checked = 0
        for entry in CORPUS:
            program = load(entry.source)
            strat = stratify(program)
            if isinstance(strat, Stratification):
                gp = ground_instantiation(program, entry.depth)
                self.check(gp, localize(strat, gp), entry.name)
                checked += 1
        assert checked >= 10

    def test_bench_pools(self):
        workloads = bench_workloads()
        checked = 0
        for seed in (1, 2, 3):
            for query in workloads.strat_pool(seed):
                assert "--roots" not in query.args, query.label
                program = load(query.source)
                k = int(query.args[query.args.index("--depth") + 1])
                gp = ground_instantiation(program, k)
                self.check(gp, localize(stratify(program), gp), query.label)
                checked += 1
        assert checked == 72

    def test_random_stratified_programs(self):
        rng = random.Random(41)
        for _ in range(200):
            src = random_stratified_source(rng)
            program = load(src)
            gp = ground_instantiation(program, 2)
            self.check(gp, localize(stratify(program), gp), src)

    def test_padded_stratification(self):
        src = "type p : o.\ntype q : o.\ntype r : o.\np <- ~q.\nq <- ~r.\nr."
        gp = gp_of(src)
        padded = Stratification((("r",), ("q",), (), ("p",)), {"r": 1, "q": 2, "p": 4})
        strata = localize(padded, gp)
        self.check(gp, strata, src)
        assert len(perfect_model(gp, strata).stages) - 1 == 4
