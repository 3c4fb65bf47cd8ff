"""The shared record base: every record class against the behaviour its
``@dataclass`` form had, field by field; and the raw syntax tuples that
replaced the parser's record classes, against what those records kept."""

import ast
import pickle
from pathlib import Path

import pytest

import hoplog
import hoplog.cli  # noqa: F401  (imports every module that defines a record)
from hoplog.extensionality import ExtReport, UnknownItem, Witness
from hoplog.grounder import ConstLit, GroundClause, GroundProgram, ground_instantiation
from hoplog.interp import PartialInterpretation
from hoplog.parser import SourceProgram, parse_atom, parse_program
from hoplog.perfect import PerfectResult, Stratification, Unstratifiable
from hoplog.records import FrozenRecord, Record
from hoplog.syntax import (
    IOTA,
    OMICRON,
    Arrow,
    Clause,
    Const,
    Expr,
    Interned,
    Iota,
    Neg,
    Omicron,
    Signature,
    TypeExpr,
    Var,
)
from hoplog.typecheck import Program
from hoplog.wfs import ThetaTrace, WfsResult

from corpus import CorpusEntry
from helpers import load

OO = Arrow(OMICRON, OMICRON)
OO_REPR = "Arrow(argument=Omicron(), result=Omicron())"


def _atom():
    return Const("p", OMICRON)


ATOM_REPR = "Const(name='p', typ=Omicron())"


def _interp():
    return PartialInterpretation(frozenset({"p"}), frozenset(), frozenset({"p"}))


INTERP_REPR = (
    "PartialInterpretation(true_atoms=frozenset({'p'}), false_atoms=frozenset(), "
    "universe=frozenset({'p'}))"
)

# One sample per record class: a factory that builds it afresh from equal
# fields, and the repr its dataclass form printed.
SAMPLES = {
    Iota: (Iota, "Iota()"),
    Omicron: (Omicron, "Omicron()"),
    Arrow: (lambda: Arrow(Omicron(), Omicron()), OO_REPR),
    Signature: (
        lambda: Signature((("a", IOTA), ("p", Arrow(OMICRON, OMICRON)))),
        f"Signature(entries=(('a', Iota()), ('p', {OO_REPR})))",
    ),
    Clause: (
        lambda: Clause(Const("p", OO), (Var("X", OMICRON),), (Var("X", OMICRON),)),
        f"Clause(head_pred=Const(name='p', typ={OO_REPR}), "
        "formals=(Var(name='X', typ=Omicron()),), "
        "body=(Var(name='X', typ=Omicron()),))",
    ),
    SourceProgram: (
        lambda: SourceProgram([], [], {}, ""),
        "SourceProgram(declarations=[], clauses=[], names={}, text='')",
    ),
    ConstLit: (lambda: ConstLit(True), "ConstLit(value=True)"),
    GroundClause: (
        lambda: GroundClause(_atom(), (_atom(), Neg(_atom()), ConstLit(False))),
        f"GroundClause(head={ATOM_REPR}, body=({ATOM_REPR}, Neg(atom={ATOM_REPR}), "
        "ConstLit(value=False)))",
    ),
    GroundProgram: (
        lambda: GroundProgram(("p",), ((_atom(), ()),), {"p": _atom()}, ((),),
                              (("p", "p", True),), ()),
        f"GroundProgram(texts=('p',), parts=(({ATOM_REPR}, ()),), atoms={{'p': {ATOM_REPR}}}, "
        "rules=((),), predicate_edges=(('p', 'p', True),), clauses=())",
    ),
    PartialInterpretation: (_interp, INTERP_REPR),
    Program: (
        lambda: Program(Signature((("a", IOTA),)), ()),
        "Program(signature=Signature(entries=(('a', Iota()),)), clauses=())",
    ),
    ThetaTrace: (
        lambda: ThetaTrace((_interp(),), (1,)),
        f"ThetaTrace(stages=({INTERP_REPR},), inner_lengths=(1,))",
    ),
    WfsResult: (
        lambda: WfsResult(_interp(), ThetaTrace((_interp(),), (1,))),
        f"WfsResult(model={INTERP_REPR}, "
        f"trace=ThetaTrace(stages=({INTERP_REPR},), inner_lengths=(1,)))",
    ),
    Stratification: (
        lambda: Stratification((("p",),), {"p": 1}),
        "Stratification(strata=(('p',),), index={'p': 1})",
    ),
    Unstratifiable: (
        lambda: Unstratifiable(("p",), ("p", "p")),
        "Unstratifiable(cycle=('p',), strict_edge=('p', 'p'))",
    ),
    PerfectResult: (
        lambda: PerfectResult(_interp(), (_interp(),)),
        f"PerfectResult(model={INTERP_REPR}, stages=({INTERP_REPR},))",
    ),
    Witness: (
        lambda: Witness("o -> o", "p", ("a", "b"), "p a", "p b", "true", "false"),
        "Witness(rho='o -> o', term='p', pair=('a', 'b'), lhs_atom='p a', "
        "rhs_atom='p b', lhs_value='true', rhs_value='false')",
    ),
    UnknownItem: (
        lambda: UnknownItem("o", "p", "too big"),
        "UnknownItem(rho='o', term='p', reason='too big')",
    ),
    ExtReport: (
        lambda: ExtReport(2, 8, [], [], [], 0),
        "ExtReport(depth=2, budget=8, witnesses=[], unknowns=[], checked_types=[], "
        "checked_terms=0)",
    ),
}

# The parser's raw syntax is plain tuples; each kind was a frozen record
# class once, whose name it keeps here.  Per kind: a factory that parses it
# afresh from the same text, and the tuple it gives.
RAW_SYNTAX = {
    "RawName": (lambda: parse_atom("p"), ("p", (), 0)),
    "RawApp": (lambda: parse_atom("p X"), ("p", (("X", (), 2),), 0)),
    "RawNeg": (lambda: parse_program("p <- ~p.").clauses[0][1][0], ("~", ("p", (), 6), 5)),
    "RawEq": (
        lambda: parse_program("p <- X = a.").clauses[0][1][0],
        ("=", ("X", (), 5), ("a", (), 9), 7),
    ),
    "RawClause": (
        lambda: parse_program("p <- p.").clauses[0],
        (("p", (), 0), (("p", (), 5),), 0),
    ),
    "Declaration": (lambda: parse_program("type p : o -> o.").declarations[0], ("p", OO, 5)),
}

MUTABLE = {ExtReport, Witness, UnknownItem, GroundProgram, SourceProgram}
# Frozen records that hold a dict, and so cannot be hashed, as before.
HOLDS_A_DICT = {Stratification}


def _record_classes():
    """Every concrete record class hoplog defines; hash-consed terms and
    the abstract bases are tested elsewhere.  Hash-consed types are
    included: records whose constructor returns the interned node."""
    found, todo = [], [Record]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("hoplog.") and not issubclass(sub, Expr):
                todo.append(sub)
                if sub not in (FrozenRecord, Interned, TypeExpr):
                    found.append(sub)
    return found


def test_every_record_class_has_a_sample():
    assert set(_record_classes()) == set(SAMPLES)
    assert len(SAMPLES) == 19


@pytest.fixture(params=list(SAMPLES), ids=lambda cls: cls.__name__)
def sample(request):
    make, text = SAMPLES[request.param]
    return request.param, make, text


def test_repr_is_the_dataclass_text(sample):
    cls, make, text = sample
    assert repr(make()) == text


def test_slotted_and_built_afresh(sample):
    cls, make, _ = sample
    a, b = make(), make()
    # a type is interned: equal fields build the one live node
    assert type(a) is cls and (a is b) == issubclass(cls, TypeExpr)
    assert not hasattr(a, "__dict__")


@pytest.fixture(
    params=list(SAMPLES) + list(RAW_SYNTAX), ids=lambda kind: getattr(kind, "__name__", kind)
)
def value(request):
    """A record sample, or a raw syntax kind with the tuple it parses to."""
    make, expected = (SAMPLES if request.param in SAMPLES else RAW_SYNTAX)[request.param]
    return request.param, make, expected


def test_equal_fields_compare_and_hash_equal(value):
    cls, make, expected = value
    a, b = make(), make()
    assert a == b and not a != b
    if cls in RAW_SYNTAX:
        assert type(a) is tuple and a == expected and a is not b
    if cls in MUTABLE or cls in HOLDS_A_DICT:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_frozen_records_refuse_assignment(value):
    cls, make, text = value
    a = make()
    if cls in RAW_SYNTAX:
        for i in range(len(a)):
            with pytest.raises(TypeError):
                a[i] = None
            with pytest.raises(TypeError):
                del a[i]
        with pytest.raises(AttributeError):
            a.pos = None
        assert a == text
        return
    if cls in MUTABLE:
        assert isinstance(a, Record) and not isinstance(a, FrozenRecord)
        first = cls._fields[0]
        setattr(a, first, "changed")
        assert getattr(a, first) == "changed" and a != make()
        return
    assert isinstance(a, FrozenRecord)
    for name in cls._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text


def test_pickle_round_trip(value):
    cls, make, text = value
    a = make()
    b = pickle.loads(pickle.dumps(a))
    if cls in RAW_SYNTAX:
        assert type(b) is tuple and b == a == text
        return
    assert type(b) is cls and b == a and repr(b) == text


def test_equality_needs_the_same_class():
    assert Iota() != Omicron()
    assert not Iota() == Omicron()
    assert len({Iota(), Omicron()}) == 2
    assert Unstratifiable(("p",), ("p", "q")) != Program(("p",), ("p", "q"))
    assert ConstLit(True) != (True,)


def test_defaults():
    entry = CorpusEntry("x", "")
    assert (entry.depth, entry.roots) == (2, None)


def test_interpretation_checks_run_on_construction_and_load():
    with pytest.raises(ValueError, match="disjoint"):
        PartialInterpretation(frozenset({"p"}), frozenset({"p"}), frozenset({"p"}))
    with pytest.raises(ValueError, match="inside"):
        PartialInterpretation(frozenset({"q"}), frozenset(), frozenset({"p"}))
    good = _interp()
    assert pickle.loads(pickle.dumps(good)) == good


def test_signature_table_is_neither_compared_nor_printed():
    sig = Signature((("a", IOTA),))
    loaded = pickle.loads(pickle.dumps(sig))
    assert loaded == sig and repr(sig) == "Signature(entries=(('a', Iota()),))"
    assert loaded.lookup("a") == IOTA and loaded.functions == {"a": 0}
    assert loaded.producers == {IOTA: [("a", ())]}
    assert sig == Signature((("a", IOTA),)) and hash(sig) == hash(loaded)


def test_ground_program_builds_its_clauses_once():
    built = []

    def build():
        built.append(True)
        return ()

    gp = GroundProgram(("p",), ((_atom(), ()),), {"p": _atom()}, ((),), (), build)
    assert built == []
    assert gp.clauses is gp.clauses and built == [True]
    loaded = pickle.loads(pickle.dumps(gp))
    assert loaded == gp and loaded.rules == gp.rules and loaded.clauses == ()
    assert built == [True]


def test_pickled_grounding_holds_the_same_interned_nodes():
    program = load("type p : i -> o.\ntype q : i -> o.\np X <- ~(q X), X = a.\nq X <- X = a.")
    gp = ground_instantiation(program, 1)
    loaded = pickle.loads(pickle.dumps(gp))
    assert all(loaded.atoms[key] is atom for key, atom in gp.atoms.items())
    assert [(c.head, c.body) for c in loaded.clauses] == [(c.head, c.body) for c in gp.clauses]
    assert [str(c) for c in loaded.clauses] == ["p a <- ~(q a), true.", "q a <- true."]
    assert loaded.clauses[0].body[0] is Neg(gp.atoms["q a"])


def test_types_hash_by_identity():
    deep = IOTA
    for _ in range(50):
        deep = Arrow(deep, OMICRON)
    twin = IOTA
    for _ in range(50):
        twin = Arrow(twin, OMICRON)
    assert deep is twin and deep == twin
    assert hash(deep) == hash(twin) == object.__hash__(deep)
    assert Arrow._table[(deep.argument, deep.result)]() is deep
    assert hash(IOTA) == object.__hash__(IOTA) != hash(OMICRON) == object.__hash__(OMICRON)
    assert Arrow(IOTA, OMICRON) != Arrow(OMICRON, IOTA)
    assert Arrow(IOTA, OMICRON) != IOTA and IOTA != OMICRON


# Records whose stages may be given as a function that builds them the first
# time they are read: per class, a factory taking that function, and the
# stages of its eager sample.
LAZY = {
    ThetaTrace: (lambda build: ThetaTrace(build, (1,)), (_interp(),)),
    PerfectResult: (lambda build: PerfectResult(_interp(), build), (_interp(),)),
}


@pytest.mark.parametrize("cls", list(LAZY), ids=lambda cls: cls.__name__)
def test_lazy_stages_match_the_eager_form(cls):
    make_lazy, stages = LAZY[cls]
    built = []

    def build():
        built.append(True)
        return stages

    eager, text = SAMPLES[cls][0](), SAMPLES[cls][1]
    lazy = make_lazy(build)
    if cls is ThetaTrace:  # counted from inner_lengths, without the stages
        assert lazy.fixpoint_stage == eager.fixpoint_stage
    assert built == []
    assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
    assert repr(lazy) == text and lazy.stages is lazy.stages and built == [True]
    loaded = pickle.loads(pickle.dumps(make_lazy(build)))
    assert type(loaded) is cls and loaded == eager and repr(loaded) == text
    assert len(built) == 2
    assert {lazy, eager, loaded} == {eager}
    with pytest.raises(AttributeError):
        lazy.stages = ()


def test_records_of_a_loaded_program_pickle():
    program = load("type q : i -> o.\ntype f : i -> i.\nq X <- X = a.")
    assert pickle.loads(pickle.dumps(program)) == program


# The record classes whose ``__init__`` is the shared one: each stores one
# positional argument per own slot, in ``__slots__`` order.
SHARED_INIT = [cls for cls in SAMPLES if cls.__init__ is Record.__init__]


def test_only_classes_that_check_or_default_write_an_init():
    own = {cls for cls in SAMPLES if cls not in SHARED_INIT and not issubclass(cls, Interned)}
    assert own == {PartialInterpretation, Signature}
    assert len(SHARED_INIT) == 14


@pytest.mark.parametrize("cls", SHARED_INIT, ids=lambda cls: cls.__name__)
def test_shared_init_refuses_a_wrong_call(cls):
    values = SAMPLES[cls][0]()._values()
    assert repr(cls(*values)) == SAMPLES[cls][1]
    last = cls._fields[-1]
    for args, keywords in [
        (values[:-1], {}),
        (values + (None,), {}),
        (values[:-1], {last: values[-1]}),
    ]:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes {len(values)} ") as err:
            cls(*args, **keywords)
        assert ", ".join(cls._fields) in str(err.value)


def test_interned_nodes_run_no_python_init():
    todo, seen = [Interned], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    assert len(seen) > 10
    assert all(cls.__init__ is object.__init__ for cls in seen)


def _stores_only_its_parameters(init: ast.FunctionDef) -> bool:
    """Whether ``init`` takes no defaults and its body, past a docstring,
    only stores its parameters on ``self``: the ``__init__`` that
    ``Record.__init__`` makes unnecessary."""
    args = init.args
    if args.defaults or args.kw_defaults or args.vararg or args.kwarg or args.kwonlyargs:
        return False
    params = {a.arg for a in args.args[1:]}
    body = init.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    for stmt in body:
        if isinstance(stmt, ast.Assign):  # self.name = param
            target, value = stmt.targets[0], stmt.value
            stored = isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):  # _set(self, "name", param)
            call = stmt.value
            value = call.args[-1] if len(call.args) == 3 else None
            stored = ast.unparse(call.func) in ("_set", "object.__setattr__")
        else:
            return False
        if not (stored and isinstance(value, ast.Name) and value.id in params):
            return False
    return bool(body)


def test_no_record_writes_an_init_that_only_stores_its_arguments():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(hoplog.__file__).parent.glob("*.py")]
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    records, grew = {"Record"}, True
    while grew:  # every class with a record among its bases, by name
        found = {c.name for c in classes if any(ast.unparse(b) in records for b in c.bases)}
        grew, records = not found <= records, records | found
    assert {"FrozenRecord", "Interned", "App", "Witness", "GroundProgram"} <= records
    boilerplate = [
        c.name for c in classes if c.name in records
        for f in c.body
        if isinstance(f, ast.FunctionDef) and f.name == "__init__" and _stores_only_its_parameters(f)
    ]
    assert boilerplate == []
    for text, expected in [
        ("def __init__(self, a, b):\n    _set(self, 'a', a)\n    self.b = b", True),
        ('def __init__(self, a):\n    "Doc."\n    object.__setattr__(self, "a", a)', True),
        ("def __init__(self, a, b=None):\n    self.a = a\n    self.b = b", False),
        ("def __init__(self, a):\n    self.a = list(a)", False),
    ]:
        assert _stores_only_its_parameters(ast.parse(text).body[0]) is expected
