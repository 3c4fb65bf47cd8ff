"""Bundled example programs.

``DEMOS`` carries the four programs below, which the three CLI demo
subcommands run: ``stratified`` checks ``stratified_bad`` beside its own.
"""

from __future__ import annotations

# A unary-identity layer over a binary-negation layer: the two predicates p
# and q agree as three-valued relations, yet feeding them to s separates
# them, so the well-founded model is not extensional.
NONEXTENSIONAL = """\
type s : (o -> o) -> o.
type p : o -> o.
type q : o -> o.
type w : o -> o.

s Q <- Q (s Q).
p R <- R.
q R <- ~(w R).
w R <- ~R.
"""

# Negation-free program with a higher-order identity predicate; its
# well-founded model is total and extensional.
POSITIVE_ID = """\
type q : i -> o.
type p : (i -> o) -> o.
type id : (i -> o) -> i -> o.

q X <- X = a.
q X <- X = b.
p Q <- Q a.
id R X <- R X.
"""

# Stratified: q is defined by equalities, p negates an applied variable.
STRATIFIED_OK = """\
type p : (i -> o) -> o.
type q : i -> o.

p Q <- ~(Q a).
q X <- X = a.
"""

# Not stratifiable: q's type is above Q's, so p's negative variable literal
# depends on q, while q's body applies p; the cycle crosses the negation.
STRATIFIED_BAD = """\
type p : (i -> o) -> o.
type q : i -> i -> o.

p Q <- ~(Q a).
q X Y <- X = a, Y = a, p (q a).
"""

DEMOS = {
    "lemma1": NONEXTENSIONAL,
    "bezem": POSITIVE_ID,
    "stratified": STRATIFIED_OK,
    "stratified_bad": STRATIFIED_BAD,
}
