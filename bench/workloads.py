"""Seeded query pools for the benchmark workloads, with expected answers.

Nothing here imports hoplog.  Every expected answer comes from a solver
written for the benchmark alone:

* game-wfs: retrograde win/lose/draw analysis of the move graph, which is
  the well-founded model of ``win X <- move X Y, ~(win Y)``;
* strat-perfect: BFS transitive closure plus the negation and higher-order
  layers evaluated directly on the graph;
* extcheck-ho: the verdict each family is known to have (lemma-1 variants
  are non-extensional with a witness on ``s``; stratified and negation-free
  programs are extensional), plus an independent count of the size-bounded
  universes the check walks.

A pool is a fixed list of queries.  Its size schedule is the same for every
seed; the seed only draws the random parts (graph edges, predicate names,
program shapes), so quantiles stay comparable from seed to seed.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field


@dataclass
class Query:
    """One CLI invocation and the answer it must produce.

    ``args`` is the hoplog argv with ``{input}`` standing for the program
    file.  ``expected`` holds the payload fields the output must match
    exactly; ``free_keys`` are the payload fields checked by a rule instead.
    ``witness_sides`` is set for non-extensional programs and names the plain
    identity and the one built from negations.
    """

    label: str
    source: str
    args: tuple[str, ...]
    expected_code: int
    expected: dict
    witness_sides: tuple[str, str] | None = None
    free_keys: frozenset = field(default_factory=frozenset)


# ---------------------------------------------------------------------------
# game-wfs
# ---------------------------------------------------------------------------

# (nodes, chain length, exhaustive queries, demand queries) per pass.  One
# query in three grounds on demand from the root ``win n0``; those sit in
# the middle class, where the median falls, and the 90th percentile falls
# among the largest exhaustive groundings.  No class mixes the two modes, so
# neither quantile sits on the edge between them.
GAME_SIZES = [(9, 6, 6, 0), (12, 8, 1, 8), (14, 10, 9, 0)]
# Random edges from side nodes into the chain, beside a fixed 2-cycle
# between the first two side nodes (a source of draws).
GAME_SIDE_EDGES = 4


def game_source(n: int, edges: list[tuple[int, int]]) -> str:
    lines = ["type move : i -> i -> o.", "type win : i -> o."]
    lines += [f"type n{v} : i." for v in range(n)]
    lines += [f"move X Y <- X = n{a}, Y = n{b}." for a, b in edges]
    lines.append("win X <- move X Y, ~(win Y).")
    return "\n".join(lines) + "\n"


def game_edges(rng: random.Random, n: int, chain: int) -> list[tuple[int, int]]:
    """A chain n0 -> ... -> n{chain-1}, a 2-cycle between the first two
    side nodes, and random edges from side nodes into the chain.  No path
    is longer than the chain, so the chain's length sets the stage count."""
    edges = {(v, v + 1) for v in range(chain - 1)}
    edges |= {(chain, chain + 1), (chain + 1, chain)}
    target = len(edges) + GAME_SIDE_EDGES
    while len(edges) < target:
        edges.add((rng.randrange(chain, n), rng.randrange(chain)))
    return sorted(edges)


def solve_game(n: int, edges: list[tuple[int, int]]) -> dict[int, str]:
    """Retrograde analysis: 'win', 'lose' or 'draw' for every node."""
    succ_count = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        succ_count[a] += 1
        preds[b].append(a)
    status: dict[int, str] = {}
    queue = deque()
    for v in range(n):
        if succ_count[v] == 0:
            status[v] = "lose"
            queue.append(v)
    while queue:
        v = queue.popleft()
        for u in preds[v]:
            if u in status:
                continue
            if status[v] == "lose":
                status[u] = "win"
                queue.append(u)
            else:
                succ_count[u] -= 1
                if succ_count[u] == 0:
                    status[u] = "lose"
                    queue.append(u)
    return {v: status.get(v, "draw") for v in range(n)}


def game_model(n: int, edges: list[tuple[int, int]]) -> dict:
    edge_set = set(edges)
    true, false, undefined = [], [], []
    for a in range(n):
        for b in range(n):
            (true if (a, b) in edge_set else false).append(f"move n{a} n{b}")
    for v, s in solve_game(n, edges).items():
        {"win": true, "lose": false, "draw": undefined}[s].append(f"win n{v}")
    return {"true": sorted(true), "false": sorted(false), "undefined": sorted(undefined)}


def game_pool(seed: int) -> list[Query]:
    rng = random.Random(seed)
    pool = []
    for n, chain, exhaustive, demand in GAME_SIZES:
        for i in range(exhaustive + demand):
            edges = game_edges(rng, n, chain)
            args = ("wfs", "{input}", "--depth", "1")
            mode = "exh"
            if i >= exhaustive:
                args += ("--roots", "win n0")
                mode = "demand"
            pool.append(
                Query(
                    f"game-n{n}-{mode}-{i}",
                    game_source(n, edges),
                    args,
                    0,
                    {"depth": 1, "model": game_model(n, edges)},
                    free_keys=frozenset({"stages"}),
                )
            )
    return pool


# ---------------------------------------------------------------------------
# strat-perfect
# ---------------------------------------------------------------------------

# (nodes, queries) per pass, placed like GAME_SIZES.
STRAT_SIZES = [(7, 6), (9, 9), (11, 9)]
STRAT_BACK_EDGE_FACTOR = 0.5
# edge, node, reach, out | unreach, sink | gap | covered: gap's variable
# literal ~(R X) reaches every predicate of type >= i -> o.
STRAT_STRATA = 4

STRAT_RULES = """\
reach X Y <- edge X Y.
reach X Y <- edge X Z, reach Z Y.
unreach X Y <- node X, node Y, ~(reach X Y).
out X <- edge X Y.
sink X <- node X, ~(out X).
gap R <- node X, ~(R X).
covered R <- ~(gap R).
"""

STRAT_TYPES = """\
type edge : i -> i -> o.
type node : i -> o.
type reach : i -> i -> o.
type unreach : i -> i -> o.
type out : i -> o.
type sink : i -> o.
type gap : (i -> o) -> o.
type covered : (i -> o) -> o.
"""


def strat_source(n: int, edges: list[tuple[int, int]]) -> str:
    lines = [f"node X <- X = n{v}." for v in range(n)]
    lines += [f"edge X Y <- X = n{a}, Y = n{b}." for a, b in edges]
    return STRAT_TYPES + "\n".join(lines) + "\n" + STRAT_RULES


def strat_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A chain n0 -> ... -> n{n-1} plus random back edges.  No edge skips
    forward along the chain, so the longest shortest path, and with it the
    number of psi steps, is the same for every seed."""
    edges = {(v, v + 1) for v in range(n - 1)}
    while len(edges) < n - 1 + round(STRAT_BACK_EDGE_FACTOR * n):
        a = rng.randrange(1, n)
        edges.add((a, rng.randrange(a)))
    return sorted(edges)


def strat_model(n: int, edges: list[tuple[int, int]]) -> dict:
    succ: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    reach = []
    for a in range(n):
        seen: set[int] = set()
        frontier = list(succ[a])
        while frontier:
            v = frontier.pop()
            if v not in seen:
                seen.add(v)
                frontier.extend(succ[v])
        reach.append(seen)
    edge_set = set(edges)
    unary = {
        "node": lambda x: True,
        "out": lambda x: bool(succ[x]),
        "sink": lambda x: not succ[x],
    }
    binary = {
        "edge": lambda x, y: (x, y) in edge_set,
        "reach": lambda x, y: y in reach[x],
        "unreach": lambda x, y: y not in reach[x],
    }
    values: dict[str, bool] = {}
    relations = {}  # every size-2 term of type i -> o, as its canonical text
    for name, fn in unary.items():
        relations[name] = fn
        for x in range(n):
            values[f"{name} n{x}"] = fn(x)
    for name, fn in binary.items():
        for x in range(n):
            relations[f"({name} n{x})"] = lambda y, fn=fn, x=x: fn(x, y)
            for y in range(n):
                values[f"{name} n{x} n{y}"] = fn(x, y)
    for text, rel in relations.items():
        gap = any(not rel(x) for x in range(n))
        values[f"gap {text}"] = gap
        values[f"covered {text}"] = not gap
    return {
        "true": sorted(k for k, v in values.items() if v),
        "false": sorted(k for k, v in values.items() if not v),
        "undefined": [],
    }


def strat_pool(seed: int) -> list[Query]:
    rng = random.Random(seed)
    pool = []
    for n, count in STRAT_SIZES:
        for i in range(count):
            edges = strat_edges(rng, n)
            pool.append(
                Query(
                    f"strat-n{n}-{i}",
                    strat_source(n, edges),
                    ("perfect", "{input}", "--depth", "2"),
                    0,
                    {"depth": 2, "model": strat_model(n, edges), "strata_used": STRAT_STRATA},
                )
            )
    return pool


# ---------------------------------------------------------------------------
# extcheck-ho
# ---------------------------------------------------------------------------

# Types are "i", "o" or ("->", argument, result).
I, O = "i", "o"


def arrow(*types):
    out = types[-1]
    for t in reversed(types[:-1]):
        out = ("->", t, out)
    return out


def type_text(t) -> str:
    if isinstance(t, str):
        return t
    left = type_text(t[1])
    if not isinstance(t[1], str):
        left = f"({left})"
    return f"{left} -> {type_text(t[2])}"


def type_size(t) -> int:
    return 1 if isinstance(t, str) else 1 + type_size(t[1]) + type_size(t[2])


def _is_predicate_type(t) -> bool:
    while not isinstance(t, str):
        if not _is_argument_type(t[1]):
            return False
        t = t[2]
    return t == O


def _is_argument_type(t) -> bool:
    return t == I or _is_predicate_type(t)


def checked_types(signature: dict) -> list:
    """Argument types occurring anywhere in the signature, smallest first."""
    found = set()

    def visit(t):
        if _is_argument_type(t):
            found.add(t)
        if not isinstance(t, str):
            visit(t[1])
            visit(t[2])

    for t in signature.values():
        visit(t)
    return sorted(found, key=lambda t: (type_size(t), type_text(t)))


def universe_counts(signature: dict, k: int) -> dict:
    """Number of ground terms of each type with at most k symbols.

    A term of size s is a constant (s = 1) or an application of a term of
    some type a -> t to a term of type a, sizes adding up to s.  Signatures
    here have no function symbols.
    """
    by_size: list[dict] = [{}, {}]
    for t in signature.values():
        by_size[1][t] = by_size[1].get(t, 0) + 1
    for s in range(2, k + 1):
        level: dict = {}
        for s1 in range(1, s):
            for op, n_op in by_size[s1].items():
                if isinstance(op, str):
                    continue
                n_arg = by_size[s - s1].get(op[1], 0)
                if n_arg:
                    level[op[2]] = level.get(op[2], 0) + n_op * n_arg
        by_size.append(level)
    totals: dict = {}
    for level in by_size:
        for t, c in level.items():
            totals[t] = totals.get(t, 0) + c
    return totals


def ext_expected(signature: dict, k: int, verdict: str) -> dict:
    types = checked_types(signature)
    counts = universe_counts(signature, k)
    return {
        "verdict": verdict,
        "depth": k,
        "budget": 4 * k,
        "checked_types": [type_text(t) for t in types],
        "checked_terms": sum(counts.get(t, 0) for t in types),
        "unknown": [],
    }


def _declare(signature: dict) -> list[str]:
    return [f"type {name} : {type_text(t)}." for name, t in signature.items()]


OO = arrow(O, O)
NAME_POOL = ["p", "q", "r", "t", "u", "v", "w", "x", "y", "z"]


def lemma_program(rng: random.Random, negated: bool):
    """The lemma-1 program: ``s Q <- Q (s Q)``, the plain identity
    ``p R <- R`` and ``q``, the identity through two negations
    (``q R <- ~(w R)``, ``w R <- ~R``; two positive steps when not negated).

    Returns the source, the signature, the plain identity and ``q``.
    """
    # The plain identity always sorts last: which pair the checker meets
    # first sets the cost of the query, and the cost must not depend on the
    # seed.
    q, plain = sorted(rng.sample(NAME_POOL, 2))
    helper = f"{q}1"
    signature = {"s": arrow(OO, O), plain: OO, q: OO, helper: OO}
    clauses = [
        "s Q <- Q (s Q).",
        f"{plain} R <- R.",
        f"{q} R <- ~({helper} R)." if negated else f"{q} R <- {helper} R.",
        f"{helper} R <- ~R." if negated else f"{helper} R <- R.",
    ]
    rng.shuffle(clauses)
    return "\n".join(_declare(signature) + clauses) + "\n", signature, plain, q


def stratified_program(rng: random.Random):
    """A stratified program: first-order facts and one negation layer under
    higher-order predicates that consume unary relations."""
    signature = {"a": I, "b": I}
    unary = [f"u{i}" for i in range(rng.randint(2, 3))]
    for name in unary:
        signature[name] = arrow(I, O)
    signature["e"] = arrow(I, I, O)
    signature["v"] = arrow(I, O)
    signature["z"] = O
    hos = [f"h{i}" for i in range(rng.randint(1, 2))]
    for name in hos:
        signature[name] = arrow(arrow(I, O), O)
    clauses = []
    for name in unary:
        for c in rng.sample(["a", "b"], rng.randint(1, 2)):
            clauses.append(f"{name} X <- X = {c}.")
    clauses.append(f"e X Y <- {rng.choice(unary)} X, Y = {rng.choice('ab')}.")
    clauses.append("e X Y <- e Y X.")
    clauses.append(f"v X <- e X Y, ~({rng.choice(unary)} Y).")
    clauses.append(f"z <- ~(v {rng.choice('ab')}).")
    for name in hos:
        body = [f"~(Q {rng.choice('ab')})" if rng.random() < 0.5 else f"Q {rng.choice('ab')}"]
        if rng.random() < 0.5:
            body.append(rng.choice(["~z", f"~({rng.choice(unary)} a)"]))
        clauses.append(f"{name} Q <- {', '.join(body)}.")
    rng.shuffle(clauses)
    return "\n".join(_declare(signature) + clauses) + "\n", signature


# (family, depth, queries) per pass, cheapest first.  The median falls
# among the nine lemma-1 queries at depth 3, the 90th percentile among the
# five at depth 4.  Left out: lemma-1 at depth 5 (2.5 s a query, more than
# half of a pass, which left p90 with too few samples to be steady), and
# variants with a second identity through four negations, which take close
# to a minute at depth 4.
EXT_SCHEDULE = [
    ("stratified", 3, 2),
    ("stratified", 4, 1),
    ("stratified", 5, 1),
    ("lemma", 3, 9),
    ("positive", 3, 2),
    ("lemma", 4, 5),
]


def ext_pool(seed: int) -> list[Query]:
    rng = random.Random(seed)
    pool = []
    for family, k, count in EXT_SCHEDULE:
        for i in range(count):
            args = ("extcheck", "{input}", "--depth", str(k))
            label = f"ext-{family}-k{k}-{i}"
            if family == "stratified":
                source, signature = stratified_program(rng)
            else:
                source, signature, plain, q = lemma_program(rng, family == "lemma")
            if family == "lemma":
                expected = ext_expected(signature, k, "non-extensional")
                pool.append(
                    Query(label, source, args, 2, expected, (plain, q), frozenset({"witnesses"}))
                )
            else:
                expected = ext_expected(signature, k, f"extensional-at-depth-{k}")
                expected["witnesses"] = []
                pool.append(Query(label, source, args, 0, expected))
    return pool


POOLS = {"game-wfs": game_pool, "strat-perfect": strat_pool, "extcheck-ho": ext_pool}


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def _check_witnesses(witnesses: list, sides: tuple[str, str]) -> str | None:
    """Lemma-1 variants fail on ``s`` only: the plain identity reads false
    and the one built from negations reads undefined."""
    plain, via_negation = sides
    if len(witnesses) != 1:
        return f"expected one witness, got {len(witnesses)}"
    w = witnesses[0]
    left, right = w.get("argument_pair", ["", ""])
    values = {left: w.get("lhs_value"), right: w.get("rhs_value")}
    if w.get("term") != "s" or w.get("type") != "(o -> o) -> o":
        return f"witness on {w.get('term')!r} : {w.get('type')!r}, expected s"
    if (w.get("lhs_atom"), w.get("rhs_atom")) != (f"s {left}", f"s {right}"):
        return "witness atoms do not apply s to the argument pair"
    if {left, right} != {plain, via_negation}:
        return f"witness pair {left}, {right} does not separate {plain} from {via_negation}"
    if values[plain] != "false" or values[via_negation] != "undefined":
        return f"witness values {values} are not false vs undefined"
    return None


def check(query: Query, code: int, stdout: str) -> str | None:
    """None when the CLI answered as expected, otherwise the reason."""
    if code != query.expected_code:
        return f"exit code {code}, expected {query.expected_code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    if stdout != json.dumps(payload, indent=2, sort_keys=True) + "\n":
        return "stdout is not indented JSON with sorted keys"
    if query.args[0] == "extcheck":
        payload = payload.get("report")
        if not isinstance(payload, dict):
            return "no report in the output"
    wanted = set(query.expected) | set(query.free_keys)
    if set(payload) != wanted:
        return f"output keys {sorted(payload)}, expected {sorted(wanted)}"
    for key, value in query.expected.items():
        if payload[key] != value:
            return f"{key} differs from the expected answer"
    if "stages" in query.free_keys:
        stages = payload["stages"]
        if not isinstance(stages, int) or isinstance(stages, bool) or stages < 1:
            return f"stages {stages!r} is not a positive count"
    if query.witness_sides is not None:
        return _check_witnesses(payload["witnesses"], query.witness_sides)
    return None
