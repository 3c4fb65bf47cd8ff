"""Three-valued valuation, model checking, orderings, brute-force oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hoplog.errors import TooLarge, UnknownAtom
from hoplog.grounder import GroundProgram, ground_instantiation, relevant_grounding
from hoplog.interp import (
    Ordering,
    PartialInterpretation,
    TruthValue,
    interpretation,
    minimal_models_bruteforce,
)
from hoplog.programs import NONEXTENSIONAL
from hoplog.typecheck import elaborate_ground_atom
from hoplog.wfs import well_founded_model

from helpers import (
    everything_false,
    fitting_smaller_stable,
    ground_program,
    is_fitting_minimal_stable,
    is_minimal_model,
    is_model,
    is_three_valued_stable,
    leq,
    load,
    random_ground_source,
    reduct_least_model,
    reference_compile,
    three_valued_stable_models,
)


def gp_of(src: str, k: int = 1, roots=None) -> GroundProgram:
    program = load(src)
    if roots:
        atoms = [elaborate_ground_atom(program, r) for r in roots]
        return relevant_grounding(program, atoms, k)
    return ground_instantiation(program, k)


def bare_atoms(*keys: str) -> GroundProgram:
    """A ground program with no clauses over the given atom table."""
    program_atoms = {}
    for k in keys:
        gp = gp_of(f"type {k} : o.\ntype zzz : o.\nzzz <- {k}.")
        program_atoms[k] = gp.atoms[k]
    return ground_program(program_atoms, reference_compile((), program_atoms), (), ())


NEG_PAIR = "type p : o.\ntype q : o.\np <- ~q."
FACT = "type p : o.\np."
EVEN_LOOP = "type p : o.\ntype q : o.\np <- ~q.\nq <- ~p."
ODD_LOOP = "type p : o.\np <- ~p."


def table(gp, values: dict[str, TruthValue]) -> PartialInterpretation:
    """The interpretation giving each named atom its value; the rest undefined."""
    return interpretation(
        gp,
        true_atoms={k for k, v in values.items() if v == TruthValue.TRUE},
        false_atoms={k for k, v in values.items() if v == TruthValue.FALSE},
    )


def flipped(v: TruthValue) -> TruthValue:
    return TruthValue(2 - v)


class TestValueOf:
    """Literal values as the model check reads them: a clause holds when its
    head's value is at least its body's in the truth order."""

    def test_negation_flips_over_true(self):
        gp = gp_of(NEG_PAIR)  # p <- ~q
        assert is_model(table(gp, {"q": TruthValue.TRUE, "p": TruthValue.FALSE}), gp)
        assert not is_model(table(gp, {"q": TruthValue.FALSE, "p": TruthValue.FALSE}), gp)

    def test_negation_table_exhaustive(self):
        gp = gp_of(NEG_PAIR)
        for p in TruthValue:
            for q in TruthValue:
                assert is_model(table(gp, {"p": p, "q": q}), gp) == (p >= flipped(q)), (p, q)

    def test_resolved_equality_constant(self):
        gp = gp_of("type q : i -> o.\nq X <- X = a.")
        (clause,) = gp.clauses
        head = clause.head.text
        assert not is_model(interpretation(gp), gp)
        assert is_model(table(gp, {head: TruthValue.TRUE}), gp)
        dead = gp_of("type q : i -> o.\ntype b : i.\nq X <- X = a, X = b.")
        assert is_model(everything_false(dead), dead)

    def test_empty_interpretation_gives_undefined(self):
        gp = gp_of("type p : o.\ntype q : o.\np <- q.")
        assert is_model(interpretation(gp), gp)
        assert not is_model(table(gp, {"p": TruthValue.FALSE}), gp)

    def test_unknown_atom_rejected(self):
        gp = gp_of(NEG_PAIR)
        other = gp_of("type zonly : o.\nzonly.")
        for outside in (
            interpretation(other, true_atoms={"zonly"}),
            interpretation(other, false_atoms={"zonly"}),
        ):
            with pytest.raises(UnknownAtom, match="zonly is outside the atom table"):
                is_model(outside, gp)
            for ordering in Ordering:
                with pytest.raises(UnknownAtom, match="zonly is outside the atom table"):
                    is_minimal_model(gp, outside, ordering)


class TestConjunction:
    def test_min_in_truth_order(self):
        gp = gp_of("type p : o.\ntype q : o.\ntype r : o.\nr <- p, q.")
        for p in TruthValue:
            for q in TruthValue:
                for r in TruthValue:
                    values = {"p": p, "q": q, "r": r}
                    assert is_model(table(gp, values), gp) == (r >= min(p, q)), values

    def test_empty_conjunction_is_true(self):
        gp = gp_of(FACT)
        assert not is_model(interpretation(gp), gp)
        assert is_model(table(gp, {"p": TruthValue.TRUE}), gp)

    def test_counterexample_body_undefined_under_wfs(self):
        gp = gp_of(NONEXTENSIONAL, k=3, roots=["s q"])
        model = well_founded_model(gp).model
        assert model == interpretation(gp) and is_model(model, gp)
        # The body ~(w (s q)) of the clause for q (s q) is undefined, so the
        # head may not be false.
        assert not is_model(table(gp, {"q (s q)": TruthValue.FALSE}), gp)


class TestIsModel:
    def test_fact_forces_head(self):
        gp = gp_of(FACT)
        assert not is_model(everything_false(gp), gp)
        assert is_model(table(gp, {"p": TruthValue.TRUE}), gp)

    def test_wfs_model_is_model_on_counterexample_closure(self):
        for root in ("s p", "s q"):
            gp = gp_of(NONEXTENSIONAL, k=3, roots=[root])
            assert is_model(well_founded_model(gp).model, gp)

    def test_total_false_is_model_without_facts(self):
        gp = gp_of(NEG_PAIR)
        assert not is_model(everything_false(gp), gp)  # p <- ~q forces p
        gp2 = gp_of("type p : o.\ntype q : o.\np <- q.")
        assert is_model(everything_false(gp2), gp2)


def small_interps(gp):
    keys = sorted(gp.atoms)
    values = st.lists(
        st.sampled_from([TruthValue.TRUE, TruthValue.FALSE, TruthValue.UNDEFINED]),
        min_size=len(keys),
        max_size=len(keys),
    )
    def build(vals):
        t = frozenset(k for k, v in zip(keys, vals) if v == TruthValue.TRUE)
        f = frozenset(k for k, v in zip(keys, vals) if v == TruthValue.FALSE)
        return PartialInterpretation(t, f, frozenset(gp.atoms))
    return values.map(build)


class TestOrderings:
    GP = None

    @classmethod
    def setup_class(cls):
        cls.GP = gp_of("type p : o.\ntype q : o.\ntype r : o.\np <- q, ~r.")

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_partial_order_laws(self, data):
        gp = self.GP
        a = data.draw(small_interps(gp))
        b = data.draw(small_interps(gp))
        c = data.draw(small_interps(gp))
        for ordering in Ordering:
            assert leq(a, a, ordering)
            if leq(a, b, ordering) and leq(b, a, ordering):
                assert a == b
            if leq(a, b, ordering) and leq(b, c, ordering):
                assert leq(a, c, ordering)

    def test_bottom_elements(self):
        gp = self.GP
        bottom_f = interpretation(gp)
        bottom_t = everything_false(gp)
        for other in (
            interpretation(gp, true_atoms={"p"}),
            interpretation(gp, false_atoms={"q"}),
            everything_false(gp),
        ):
            assert leq(bottom_f, other, Ordering.FITTING)
            assert leq(bottom_t, other, Ordering.TRUTH)

    def test_truth_example(self):
        gp = self.GP
        lower = interpretation(gp, false_atoms={"p"})
        higher = interpretation(gp, true_atoms={"p"})
        assert leq(lower, higher, Ordering.TRUTH)
        assert not leq(higher, lower, Ordering.TRUTH)
        assert not leq(lower, higher, Ordering.FITTING)


class TestBruteForceOracle:
    def test_negated_pair_minimal_sets(self):
        gp = gp_of(NEG_PAIR)
        wfs = well_founded_model(gp).model
        assert wfs.to_json_dict() == {
            "true": ["p"],
            "false": ["q"],
            "undefined": [],
        }
        fitting = minimal_models_bruteforce(gp, Ordering.FITTING)
        # The all-undefined interpretation is a model (0 >= 0 for the only
        # clause) and the global Fitting bottom, hence the unique
        # Fitting-minimal model; the well-founded model is not among them.
        assert [m.to_json_dict() for m in fitting] == [
            {"true": [], "false": [], "undefined": ["p", "q"]}
        ]
        truth = minimal_models_bruteforce(gp, Ordering.TRUTH)
        assert wfs in truth
        assert len(truth) == 3

    def test_clause_free_table(self):
        gp = bare_atoms("p")
        truth = minimal_models_bruteforce(gp, Ordering.TRUTH)
        assert [m.to_json_dict() for m in truth] == [
            {"true": [], "false": ["p"], "undefined": []}
        ]
        fitting = minimal_models_bruteforce(gp, Ordering.FITTING)
        assert [m.to_json_dict() for m in fitting] == [
            {"true": [], "false": [], "undefined": ["p"]}
        ]

    def test_counterexample_closure_minimality(self):
        gp = gp_of(NONEXTENSIONAL, k=3, roots=["s q"])
        wfs = well_founded_model(gp).model
        assert wfs == interpretation(gp)
        assert wfs in minimal_models_bruteforce(gp, Ordering.FITTING)

    def test_too_large(self):
        names = [f"x{i}" for i in range(13)]
        src = "\n".join(f"type {n} : o." for n in names) + "\n" + "\n".join(
            f"{n}." for n in names
        )
        gp = gp_of(src)
        with pytest.raises(TooLarge):
            minimal_models_bruteforce(gp, Ordering.FITTING)
        with pytest.raises(TooLarge):
            is_minimal_model(gp, interpretation(gp), Ordering.FITTING)

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_membership_check_agrees_with_full_set(self, ordering):
        rng = random.Random(7)
        for trial in range(25):
            gp = gp_of(random_ground_source(rng, n_atoms=4))
            full = minimal_models_bruteforce(gp, ordering)
            wfs = well_founded_model(gp).model
            assert is_minimal_model(gp, wfs, ordering) == (wfs in full)
            probe = interpretation(gp)
            assert is_minimal_model(gp, probe, ordering) == (probe in full)


def _json(models):
    return [m.to_json_dict() for m in models]


class TestThreeValuedStableOracle:
    def test_negated_pair_single_stable_model(self):
        gp = gp_of(NEG_PAIR)
        assert _json(three_valued_stable_models(gp)) == [
            {"true": ["p"], "false": ["q"], "undefined": []}
        ]
        # All-undefined is a model, but P/I is `p <- undefined` with no
        # clause for q, whose least model makes q false: not stable.
        bottom = interpretation(gp)
        assert is_model(bottom, gp)
        assert reduct_least_model(gp, bottom).to_json_dict() == {
            "true": [],
            "false": ["q"],
            "undefined": ["p"],
        }
        assert not is_three_valued_stable(gp, bottom)
        assert is_fitting_minimal_stable(gp, well_founded_model(gp).model)

    def test_even_loop_stable_models(self):
        gp = gp_of(EVEN_LOOP)
        assert _json(three_valued_stable_models(gp)) == [
            {"true": [], "false": [], "undefined": ["p", "q"]},
            {"true": ["p"], "false": ["q"], "undefined": []},
            {"true": ["q"], "false": ["p"], "undefined": []},
        ]

    def test_even_loop_rejects_over_defined_answer(self):
        gp = gp_of(EVEN_LOOP)
        over = interpretation(gp, true_atoms={"p"}, false_atoms={"q"})
        # Truth-minimality alone accepts the over-defined answer ...
        assert is_minimal_model(gp, over, Ordering.TRUTH)
        assert is_three_valued_stable(gp, over)
        # ... but the all-undefined stable model lies Fitting-below it.
        assert fitting_smaller_stable(gp, over) == interpretation(gp)
        assert not is_fitting_minimal_stable(gp, over)
        wfs = well_founded_model(gp).model
        assert wfs == interpretation(gp)
        assert is_fitting_minimal_stable(gp, wfs)

    def test_odd_loop_only_all_undefined(self):
        gp = gp_of(ODD_LOOP)
        assert _json(three_valued_stable_models(gp)) == [
            {"true": [], "false": [], "undefined": ["p"]}
        ]

    def test_well_founded_is_fitting_least_stable_on_random_programs(self):
        rng = random.Random(11)
        for trial in range(40):
            gp = gp_of(random_ground_source(rng, n_atoms=4))
            stable = three_valued_stable_models(gp)
            wfs = well_founded_model(gp).model
            assert wfs in stable
            assert all(leq(wfs, m, Ordering.FITTING) for m in stable)
            assert is_fitting_minimal_stable(gp, wfs)
