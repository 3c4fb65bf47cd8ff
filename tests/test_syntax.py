"""Core syntax: types, printing, substitution, free variables, interning."""

import gc
import inspect
import itertools
import pickle
import random
import struct
import types

import pytest
from hypothesis import given, strategies as st

from hoplog.errors import ParseError, UnboundSymbol
from hoplog.grounder import Universe, argument_types
from hoplog.parser import MAX_NESTING, parse_program
from hoplog.programs import DEMOS
from hoplog.syntax import (
    IOTA,
    OMICRON,
    App,
    Arrow,
    Eq,
    Const,
    Expr,
    Iota,
    Neg,
    Omicron,
    TypeExpr,
    Var,
    build_spine,
    instance_builder,
    Signature,
    is_argument_type,
    is_predicate_type,
    spine,
    vars_in_order,
)
from hoplog.typecheck import check_program

from corpus import CORPUS
from helpers import (
    TypeMismatch,
    apply_substitution,
    bench_workloads,
    load,
    parse_type,
    random_program_source,
    reference_atomic,
    reference_classify,
    reference_print,
    reference_size,
    reference_type_size,
    reference_type_text,
    to_source,
)

O_O = Arrow(OMICRON, OMICRON)
IO = Arrow(IOTA, OMICRON)
II = Arrow(IOTA, IOTA)
III = Arrow(IOTA, II)


class TestTypes:
    def test_base_classification(self):
        assert is_argument_type(IOTA) and not is_predicate_type(IOTA)
        assert is_predicate_type(OMICRON) and is_argument_type(OMICRON)
        sig = Signature((("a", IOTA), ("z", OMICRON)))
        assert sig.functions == {"a": 0} and sig.predicates == {"z": ()}
        assert sig.producers == {IOTA: [("a", ())], OMICRON: [("z", ())]}

    def test_composite_classification(self):
        binary_fun = Arrow(IOTA, Arrow(IOTA, IOTA))
        assert not is_predicate_type(binary_fun)
        ho = Arrow(O_O, OMICRON)
        assert is_predicate_type(ho) and is_argument_type(ho)
        # (i -> o) -> i is neither functional nor predicate
        bad = Arrow(IO, IOTA)
        assert not is_predicate_type(bad)
        sig = Signature((("bad", bad), ("f", binary_fun), ("s", ho)))
        assert sig.types == {"bad": bad, "f": binary_fun, "s": ho}
        assert sig.functions == {"f": 2} and sig.predicates == {"s": (O_O,)}
        # every partial application, a function symbol's too; nothing of bad's
        assert sig.producers == {
            binary_fun: [("f", ())], Arrow(IOTA, IOTA): [("f", (IOTA,))],
            IOTA: [("f", (IOTA, IOTA))], ho: [("s", ())], OMICRON: [("s", (O_O,))],
        }

    def test_producers_follow_suffix_order(self):
        # A predicate constant produces each type that peeling its arguments reaches.
        sig = Signature((("e", Arrow(IOTA, IO)), ("h", Arrow(IO, OMICRON)), ("r", IO)))
        assert sig.predicates == {"e": (IOTA, IOTA), "h": (IO,), "r": (IOTA,)}
        assert sig.producers[IO] == [("e", (IOTA,)), ("r", ())]
        assert sig.producers[OMICRON] == [("e", (IOTA, IOTA)), ("h", (IO,)), ("r", (IOTA,))]
        assert Arrow(IO, OMICRON) in sig.producers and Arrow(IOTA, IO) in sig.producers

    def test_arrow_prints_right_associatively(self):
        assert str(Arrow(IOTA, Arrow(IOTA, OMICRON))) == "i -> i -> o"
        assert str(Arrow(O_O, OMICRON)) == "(o -> o) -> o"

    def test_type_print_parse_round_trip(self):
        for t in (IOTA, OMICRON, O_O, Arrow(O_O, OMICRON), Arrow(IOTA, Arrow(IO, OMICRON))):
            assert parse_type(str(t)) == t

    def test_argument_types_sort_by_size_then_text(self):
        program = load("type s : (o -> o) -> o.\ntype r : i -> o.\ntype f : i -> i.")
        assert [t.text for t in argument_types(program)] == [
            "i", "o", "i -> o", "o -> o", "(o -> o) -> o"
        ]


SIG_SRC = """
type s : (o -> o) -> o.
type p : o -> o.
type q : o -> o.
type w : o -> o.
type id : (i -> o) -> i -> o.
type r : i -> o.
"""


def _sig():
    return load(SIG_SRC).signature


class TestPrinting:
    def test_application_chain_prints_flat(self):
        sig = _sig()
        id_c = Const("id", sig.lookup("id"))
        r = Const("r", sig.lookup("r"))
        a = Const("a", IOTA)
        assert App(App(id_c, r), a).text == "id r a"

    def test_negation_parenthesizes_applications(self):
        sig = _sig()
        w = Const("w", sig.lookup("w"))
        s = Const("s", sig.lookup("s"))
        q = Const("q", sig.lookup("q"))
        e = Neg(App(w, App(s, q)))
        assert e.text == "~(w (s q))"
        assert Neg(Var("R", OMICRON)).text == "~R"

    def test_equality_prints_infix(self):
        a = Const("a", IOTA)
        assert Eq(a, a).text == "a = a"

    def test_term_size_counts_symbol_occurrences(self):
        sig = _sig()
        s = Const("s", sig.lookup("s"))
        q = Const("q", sig.lookup("q"))
        assert App(s, q).size == 2
        assert Neg(App(s, q)).size == 2
        assert Var("Q", O_O).size == 0


class TestSubstitution:
    def test_predicate_variable_replacement(self):
        sig = _sig()
        r = Const("r", sig.lookup("r"))
        lit = App(Var("Q", IO), Const("a", IOTA))
        out = apply_substitution(lit, {"Q": r})
        assert out.text == "r a"

    def test_ground_expression_unchanged(self):
        sig = _sig()
        s = Const("s", sig.lookup("s"))
        p = Const("p", sig.lookup("p"))
        e = App(s, p)
        assert apply_substitution(e, {"Q": p}) == e

    def test_negative_literal_substitution(self):
        sig = _sig()
        w = Const("w", sig.lookup("w"))
        s = Const("s", sig.lookup("s"))
        q = Const("q", sig.lookup("q"))
        lit = Neg(App(w, Var("R", OMICRON)))
        out = apply_substitution(lit, {"R": App(s, q)})
        assert out.text == "~(w (s q))"

    def test_type_mismatch_rejected(self):
        sig = _sig()
        q = Const("q", sig.lookup("q"))
        lit = App(Var("R", IO), Const("a", IOTA))
        with pytest.raises(TypeMismatch):
            apply_substitution(lit, {"R": q})  # q : o -> o, R : i -> o

    def test_substitution_preserves_type(self):
        sig = _sig()
        s = Const("s", sig.lookup("s"))
        p = Const("p", sig.lookup("p"))
        e = App(Var("Q", O_O), App(s, Var("Q", O_O)))
        out = apply_substitution(e, {"Q": p})
        assert out.typ == e.typ == OMICRON

    def test_composition_on_disjoint_domains(self):
        sig = _sig()
        s = Const("s", sig.lookup("s"))
        p = Const("p", sig.lookup("p"))
        e = App(Var("F", Arrow(O_O, OMICRON)), Var("Q", O_O))
        t1 = {"F": s}
        t2 = {"Q": p}
        combined = {**t1, **t2}
        assert apply_substitution(apply_substitution(e, t1), t2) == apply_substitution(
            e, combined
        )


class TestFreeVars:
    def test_self_application_pattern(self):
        sig = _sig()
        s = Const("s", sig.lookup("s"))
        qv = Var("Q", O_O)
        e = App(qv, App(s, qv))
        assert {v.name for v in vars_in_order(e)} == {"Q"}

    def test_constant_has_none(self):
        assert vars_in_order(Const("a", IOTA)) == []

    def test_per_literal_sets(self):
        src = """
        type subset : (i -> o) -> (i -> o) -> o.
        type nonsubset : (i -> o) -> (i -> o) -> o.
        subset S1 S2 <- ~(nonsubset S1 S2).
        nonsubset S1 S2 <- S1 X, ~(S2 X).
        """
        program = load(src)
        (clause,) = [c for c in program.clauses if c.head_pred.name == "nonsubset"]
        first, second = clause.body
        assert {v.name for v in vars_in_order(first)} == {"S1", "X"}
        assert {v.name for v in vars_in_order(second)} == {"S2", "X"}


class TestTypeOf:
    def test_examples(self):
        sig = _sig()
        id_c = Const("id", sig.lookup("id"))
        r = Const("r", sig.lookup("r"))
        s = Const("s", sig.lookup("s"))
        p = Const("p", sig.lookup("p"))
        assert App(id_c, r).typ == IO
        assert Const("a", IOTA).typ == IOTA
        assert App(s, p).typ == OMICRON

    def test_type_of_matches_cached_type_after_substitution(self):
        sig = _sig()
        p = Const("p", sig.lookup("p"))
        e = App(Var("Q", O_O), App(Const("s", sig.lookup("s")), p))
        out = apply_substitution(e, {"Q": p})
        assert out.typ == e.typ == OMICRON


class TestRoundTrip:
    @given(st.integers(min_value=0, max_value=400))
    def test_program_print_parse_round_trip(self, seed):
        src = random_program_source(random.Random(seed))
        program = check_program(parse_program(src))
        again = check_program(parse_program(to_source(program)))
        assert again == program

    def test_round_trip_on_clause_text(self):
        program = load(SIG_SRC + "\ns Q <- Q (s Q).\nw R <- ~R.\nr X <- X = a.\n")
        again = load(to_source(program))
        assert again == program


NODE_CLASSES = (Const, Var, App, Neg, Eq)


def _subterms(e: Expr):
    """e and every node below it, each once per occurrence."""
    yield e
    if isinstance(e, App):
        yield from _subterms(e.op)
        yield from _subterms(e.arg)
    elif isinstance(e, Neg):
        yield from _subterms(e.atom)
    elif isinstance(e, Eq):
        yield from _subterms(e.lhs)
        yield from _subterms(e.rhs)


def _structure(e: Expr) -> tuple:
    """A plain nested tuple that two nodes share exactly when they are
    structurally equal."""
    if isinstance(e, (Const, Var)):
        return (type(e).__name__, e.name, e.typ)
    if isinstance(e, App):
        return ("App", _structure(e.op), _structure(e.arg))
    if isinstance(e, Neg):
        return ("Neg", _structure(e.atom))
    return ("Eq", _structure(e.lhs), _structure(e.rhs))


def _rebuild(s: tuple) -> Expr:
    """A fresh construction, bottom up, of the node with structure s."""
    kind, *fields = s
    if kind in ("App", "Neg", "Eq"):
        return {"App": App, "Neg": Neg, "Eq": Eq}[kind](*(_rebuild(f) for f in fields))
    return {c.__name__: c for c in NODE_CLASSES}[kind](*fields)


def _fields(e: Expr) -> tuple:
    return tuple(getattr(e, name) for name in type(e).__slots__)


def _table_size() -> int:
    gc.collect()
    return sum(len(cls._table) for cls in NODE_CLASSES)


def _corpus_universe_terms():
    for entry in CORPUS:
        program = load(entry.source)
        for k in (1, 2, 3):
            universe = Universe(program.signature, k)
            for rho in argument_types(program):
                yield from universe.terms(rho)


def _random_program_terms():
    rng = random.Random(5)
    for _ in range(100):
        program = load(random_program_source(rng))
        for clause in program.clauses:
            for e in (clause.head_atom(),) + clause.body:
                yield from _subterms(e)


class TestInterning:
    """Each node carries its printing and size, computed once (an ``App``'s
    ``atomic`` text on each read); these must agree with the recursive
    reference printer and sizer.  A node hashes by its identity, its class's
    table holds it under its own fields, and equal structures must be one
    node."""

    def assert_agree(self, terms) -> set:
        """The classes met."""
        terms = list(terms)
        assert terms
        by_structure: dict[tuple, Expr] = {}
        met = set()
        for e in terms:
            met.add(type(e))
            assert e.text == reference_print(e)
            assert e.atomic == reference_atomic(e) == e.atomic  # an App's, derived twice
            assert e.size == reference_size(e)
            assert hash(e) == object.__hash__(e)
            assert type(e)._table[_fields(e)]() is e
            s = _structure(e)
            assert by_structure.setdefault(s, e) is e
            again = _rebuild(s)
            assert again is e and again == e and hash(again) == hash(e)
        for s, e in by_structure.items():
            assert [x == e for x in by_structure.values()].count(True) == 1
        return met

    def test_corpus_universes(self):
        assert self.assert_agree(_corpus_universe_terms()) == {Const, App}

    def test_random_program_terms(self):
        terms = list(_random_program_terms())
        assert self.assert_agree(terms) == {Const, Var, App, Neg, Eq}
        assert any(isinstance(e, App) and e.typ is IOTA for e in terms)  # function terms

    def test_same_name_different_type_are_distinct(self):
        assert Const("p", IO) is not Const("p", O_O)
        assert Var("P", IO) is not Var("P", O_O)
        assert Const("p", IO) is not Var("p", IO)
        assert Const("p", IO) != Var("p", IO)
        assert Var("X", IOTA) is not Var("X", IO)
        assert Var("X", IOTA) != Var("X", IO)
        assert Const("a", IOTA) is not Var("a", IOTA)

    def test_independent_constructions_are_one_node(self):
        def f_f_a():
            return App(Const("f", II), App(Const("f", II), Const("a", IOTA)))

        def q_f_a():
            return App(Const("q", IO), App(Const("f", II), Const("a", IOTA)))

        assert f_f_a() is f_f_a()
        assert q_f_a() is q_f_a()
        assert Const("q", parse_type("i -> o")) is Const("q", IO)
        assert f_f_a().text == "f (f a)"
        assert f_f_a().atomic == "(f (f a))"
        assert q_f_a().text == "q (f a)"
        assert q_f_a().size == 3

    def test_table_does_not_grow_across_calls(self):
        def build():
            a = Const("interning_probe_a", IOTA)
            t, f = a, Const("interning_probe_f", II)
            for _ in range(50):
                t = App(f, t)
            q = Const("interning_probe_q", IO)
            return [App(q, t), Neg(App(q, t)), Eq(t, a), Var("Interning_probe_R", IO)]

        before = _table_size()
        terms = build()
        assert _table_size() == before + 57
        del terms
        assert _table_size() == before
        build()
        assert _table_size() == before

    def test_nodes_are_immutable(self):
        a = Const("a", IOTA)
        with pytest.raises(AttributeError):
            a.name = "b"
        with pytest.raises(AttributeError):
            del a.text
        assert a.name == "a" and a.text == "a"

    def test_pickle_returns_the_interned_node(self):
        e = Neg(App(Const("q", IO), App(Const("f", II), Const("a", IOTA))))
        assert pickle.loads(pickle.dumps(e)) is e

    def test_deep_term_needs_no_recursion(self):
        before = _table_size()
        t = Const("a", IOTA)
        for _ in range(5000):
            t = App(Const("f", II), t)
        again = Const("a", IOTA)
        for _ in range(5000):
            again = App(Const("f", II), again)
        assert again is t and again == t and hash(again) == hash(t)
        assert t.size == 5001
        assert t.text.count("(") == 4999
        assert {t: 1}[again] == 1 and App._table[(t.op, t.arg)]() is t
        atom = App(Const("q", IO), t)
        assert hash(atom) == object.__hash__(atom) and {atom: 1}[App(Const("q", IO), again)] == 1
        del t, again, atom  # the chain is freed one node after another, its keys with it
        assert _table_size() == before


class TestDerivedFields:
    """An ``App`` derives ``atomic`` each time it is read; the other
    compound classes store it.  Every node hashes by its identity and is
    interned under its own fields (``TestInterning`` checks the values on
    the corpus and random terms)."""

    def test_every_node_hashes_by_identity_under_its_fields(self):
        q = Const("derived_probe_q", Arrow(IOTA, Arrow(IOTA, OMICRON)))
        a, b = Const("derived_probe_a", IOTA), Const("derived_probe_b", IOTA)
        t = build_spine(Const("derived_probe_f", III), (a, b))
        atom = App(App(q, a), t)
        for node in (atom, atom.op, t, t.op, t.op.op, Eq(t, a), Neg(atom), a, q, q.typ, IOTA):
            assert type(node).__hash__ is object.__hash__ and not hasattr(node, "_hash")
            assert type(node)._table[_fields(node)]() is node
        assert atom.atomic == f"({atom.text})" and t.atomic == f"({t.text})"

    def test_application_pickles_back_to_itself(self):
        q = Const("pickle_probe_q", Arrow(IOTA, Arrow(IOTA, OMICRON)))
        atom = App(App(q, Const("pickle_probe_a", IOTA)), Const("pickle_probe_b", IOTA))
        again = pickle.loads(pickle.dumps(atom))
        assert again is atom and hash(again) == hash(atom) == object.__hash__(atom)
        assert App._table[(atom.op, atom.arg)]() is again
        assert pickle.loads(pickle.dumps(atom)) is atom

    def test_deepest_application_hashes_without_recursion(self):
        typ = parse_type("i -> " * MAX_NESTING + "o")
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_type("i -> " * (MAX_NESTING + 1) + "o")
        args = [Const(f"deep_probe_c{i}", IOTA) for i in range(MAX_NESTING)]
        atom = build_spine(Const("deep_probe_p", typ), args)
        assert atom.size == MAX_NESTING + 1
        assert hash(atom) == object.__hash__(atom) and App._table[(atom.op, atom.arg)]() is atom
        assert {atom: 1}[build_spine(Const("deep_probe_p", typ), args)] == 1

    def test_one_loop_builder_matches_build_spine(self):
        """Every atom literal of the corpus, built from field values by its
        ``instance_builder``, is the node ``build_spine`` rebuilds from its
        instantiated head and arguments."""
        checked = 0
        for entry in CORPUS:
            program = load(entry.source)
            universe = Universe(program.signature, 2)
            for clause in program.clauses:
                variables = clause.variables()
                fields = {v.name: i for i, v in enumerate(variables)}
                domains = [universe.terms(v.typ) for v in variables]
                atoms = [lit.atom if isinstance(lit, Neg) else lit
                         for lit in (clause.head_atom(), *clause.body) if not isinstance(lit, Eq)]
                for atom in atoms:
                    lead, args = spine(atom)
                    build = instance_builder(atom, fields)
                    for values in itertools.islice(itertools.product(*domains), 40):
                        theta = {v.name: x for v, x in zip(variables, values)}
                        expected = build_spine(apply_substitution(lead, theta),
                                               [apply_substitution(a, theta) for a in args])
                        assert build(values) is expected
                        checked += 1
        assert checked > 300  # not vacuous

    def test_only_an_application_has_no_atomic_slot(self):
        """No class in an ``App``'s MRO declares an ``atomic`` slot, so an
        ``App`` is one pointer smaller than an ``Eq``, the other node with two
        children, and reads ``atomic`` from a property; every other node
        class reads the value it stored."""
        assert not any("atomic" in vars(cls).get("__slots__", ()) for cls in App.__mro__)
        assert App.__basicsize__ == Eq.__basicsize__ - struct.calcsize("P")
        a, x = Const("slot_probe_a", IOTA), Var("slot_probe_X", IOTA)
        q, v = Const("slot_probe_q", IO), Var("slot_probe_Q", IO)
        f = App(Const("slot_probe_f", II), a)
        nodes = [IOTA, OMICRON, IO, a, x, q, v, f, f.op, App(q, f), Neg(App(q, a)), Eq(x, f)]
        leaves, todo = set(), [Expr, TypeExpr]
        while todo:  # every concrete node class
            cls = todo.pop()
            subclasses = cls.__subclasses__()
            todo.extend(subclasses)
            if not subclasses:
                leaves.add(cls)
        assert {type(node) for node in nodes} == leaves
        for node in nodes:
            slot = inspect.getattr_static(type(node), "atomic")
            if isinstance(node, App):
                assert isinstance(slot, property) and node.atomic == f"({node.text})"
            else:
                assert isinstance(slot, types.MemberDescriptorType)
                assert node.atomic is slot.__get__(node)
                if isinstance(node, Expr):  # TestTypeInterning checks a type's
                    assert node.atomic == reference_atomic(node)
                assert "atomic" not in type(node)._fields


def _same_children(node, fields: tuple) -> bool:
    """node's fields are these: each child node itself, a name or a tuple of
    arguments equal to the given one and holding the given nodes."""
    for held, given in zip(_fields(node), fields, strict=True):
        if isinstance(given, tuple):
            if len(held) != len(given) or any(h is not g for h, g in zip(held, given)):
                return False
        elif held is not given and not (isinstance(given, str) and held == given):
            return False
    return True


class TestAddressReuse:
    """A compound node is found under its fields tuple, which hashes its
    child nodes by their identity, that is by address.  Nodes of every
    compound class are built over freshly built children and dropped, again
    and again, so that the allocator hands their addresses to other nodes;
    the nodes of the last few rounds stay alive beside the new ones.  Each
    construction must return a node whose fields are the given children,
    and equal constructions one node."""

    def test_every_compound_class(self):
        rng = random.Random(19)
        before, seen, reused = _table_size(), set(), 0
        live: list[list] = []  # the cases of the last rounds
        for _ in range(3000):
            # A name built at run time is a fresh string, and so is each node over it.
            c = Const(f"reuse_c{rng.randrange(3)}", IOTA)
            d = Const(f"reuse_c{rng.randrange(3)}", IOTA)
            args = (c, d)[: rng.randrange(1, 3)]
            f = Const(f"reuse_f{rng.randrange(2)}", III if len(args) == 2 else II)
            t = build_spine(f, args)
            q = Const(f"reuse_q{rng.randrange(2)}", Arrow(IOTA, Arrow(IOTA, OMICRON)))
            atom = App(App(q, t), rng.choice((c, d, t)))
            base = rng.choice((IOTA, OMICRON))
            typ = Arrow(Arrow(base, rng.choice((IOTA, OMICRON))), base)
            cases = [
                (Const, (f.name, f.typ), f),
                (App, (t.op, t.arg), t),
                (App, (atom.op.op, atom.op.arg), atom.op),
                (App, (atom.op, atom.arg), atom),
                (Neg, (atom,), Neg(atom)),
                (Eq, (t, c), Eq(t, c)),
                (Eq, (c, t), Eq(c, t)),
                (Arrow, (typ.argument, typ.result), typ),
                (Arrow, (typ, typ.argument), Arrow(typ, typ.argument)),
            ]
            reused += sum(id(node) in seen for _, _, node in cases)
            seen.update(id(node) for _, _, node in cases)
            live = [cases, *live[:3]]
            for cls, fields, node in (case for round_ in live for case in round_):
                assert type(node) is cls and _same_children(node, fields)
                assert cls(*fields) is node
            assert q.typ is Arrow(IOTA, Arrow(IOTA, OMICRON))
            del c, d, args, f, t, q, atom, typ, cases, node
        del live
        assert reused > 1000  # the addresses did come round again
        assert _table_size() == before


def _type_parts(t: TypeExpr):
    """t and every type below it."""
    yield t
    if isinstance(t, Arrow):
        yield from _type_parts(t.argument)
        yield from _type_parts(t.result)


def _declared_types():
    """Every type declared in the corpus, the demos and the bench pools of
    seeds 1-3, with its parts."""
    workloads = bench_workloads()
    sources = [e.source for e in CORPUS] + list(DEMOS.values())
    for seed in (1, 2, 3):
        for pool in (workloads.game_pool, workloads.strat_pool, workloads.ext_pool):
            sources += [q.source for q in pool(seed)]
    for source in sources:
        for _, typ, _ in parse_program(source).declarations:
            yield from _type_parts(typ)


def _random_type_tree(rng: random.Random, depth: int):
    """A plain nested tuple: "i", "o" or ("->", argument, result)."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice("io")
    return ("->", _random_type_tree(rng, depth - 1), _random_type_tree(rng, depth - 1))


def _random_type_path(rng: random.Random, depth: int):
    """A tree of ``depth`` arrows, each with a leaf on one side."""
    tree = rng.choice("io")
    for _ in range(depth):
        leaf = rng.choice("io")
        tree = ("->", tree, leaf) if rng.random() < 0.5 else ("->", leaf, tree)
    return tree


def _build_type(tree) -> TypeExpr:
    """A fresh construction, bottom up, of the type with this tree."""
    if tree == "i":
        return Iota()
    if tree == "o":
        return Omicron()
    return Arrow(_build_type(tree[1]), _build_type(tree[2]))


class TestTypeInterning:
    """Types are hash-consed like terms: their text and size agree with the
    recursive reference printer and sizer, and equal types are one node."""

    def assert_agree(self, types):
        types = list(types)
        assert types
        for t in types:
            assert t.text == str(t) == reference_type_text(t)
            assert t.atomic == (f"({t.text})" if isinstance(t, Arrow) else t.text)
            assert t.size == reference_type_size(t)
            assert parse_type(t.text) is t
            fields = (t.argument, t.result) if isinstance(t, Arrow) else ()
            assert hash(t) == object.__hash__(t) and type(t)._table[fields]() is t

    def test_declared_types(self):
        self.assert_agree(_declared_types())

    def test_random_types(self):
        rng = random.Random(15)
        trees = [_random_type_tree(rng, rng.randint(1, 8)) for _ in range(6000)]
        assert len({repr(tree) for tree in trees if isinstance(tree, tuple)}) >= 2000
        # Deep and narrow: a left argument costs two levels, its parentheses
        # and its arrow, so 49 arrows stay within the parser's 100.
        trees += [_random_type_path(rng, rng.randint(10, 49)) for _ in range(500)]
        types = [_build_type(tree) for tree in trees]
        self.assert_agree(types)
        for tree, t in zip(trees, types):
            assert _build_type(tree) is t

    def test_independent_constructions_are_one_node(self):
        assert Iota() is IOTA and Omicron() is OMICRON and IOTA is not OMICRON
        assert Arrow(IOTA, OMICRON) is Arrow(IOTA, OMICRON) is IO
        assert Arrow(IO, O_O) is parse_type("(i -> o) -> o -> o")
        assert Arrow(IOTA, OMICRON) is not Arrow(OMICRON, IOTA)
        assert Arrow(IOTA, OMICRON) != Arrow(OMICRON, IOTA)

    def test_pickle_returns_the_interned_node(self):
        t = Arrow(Arrow(IOTA, OMICRON), OMICRON)
        assert pickle.loads(pickle.dumps(t)) is t
        assert pickle.loads(pickle.dumps(IOTA)) is IOTA

    def test_unreferenced_arrow_leaves_the_table(self):
        gc.collect()
        before = len(Arrow._table)
        probe = Arrow(OMICRON, IOTA)  # no program declares o -> i
        for _ in range(40):
            probe = Arrow(probe, OMICRON)
        gc.collect()
        assert len(Arrow._table) == before + 41
        del probe
        gc.collect()
        assert len(Arrow._table) == before

    def test_deep_type_needs_no_recursion(self):
        t = OMICRON
        for _ in range(5000):
            t = Arrow(IOTA, t)
        again = OMICRON
        for _ in range(5000):
            again = Arrow(IOTA, again)
        assert again is t and {t: 1}[again] == 1
        assert t.size == 10001 and t.text == "i -> " * 5000 + "o"


class TestSignature:
    def test_lookup_and_membership(self):
        sig = _sig()
        assert sig.lookup("p") == O_O
        assert "id" in sig.types and "nope" not in sig.types
        assert [n for n, _ in sig.entries] == sorted(n for n, _ in sig.entries)
        assert sig.types == dict(sig.entries)
        with pytest.raises(UnboundSymbol, match="^undeclared symbol: nope$"):
            sig.lookup("nope")

    def test_pickling_rebuilds_the_tables(self):
        sig = _sig()
        loaded = pickle.loads(pickle.dumps(sig))
        assert loaded == sig and loaded is not sig
        tables = ("types", "functions", "predicates", "producers")
        assert [getattr(loaded, t) for t in tables] == [getattr(sig, t) for t in tables]
        assert loaded.producers[IO] == [("id", (IO,)), ("r", ())]

    def test_tables_match_an_independent_classification(self):
        programs = [load(entry.source) for entry in CORPUS]
        rng = random.Random(27)
        programs += [load(random_program_source(rng)) for _ in range(500)]
        for program in programs:
            sig = program.signature
            assert (sig.functions, sig.predicates, sig.producers) == reference_classify(sig.entries)
            assert sig.types == dict(sig.entries)
