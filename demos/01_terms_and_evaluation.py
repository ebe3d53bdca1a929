"""Signatures, finite algebras, and term evaluation.

An algebra here is a carrier {0..n-1} plus one row-major lookup table per
operation symbol.  Terms are trees of variables and applications, and
evaluation just threads an environment through the tables.
"""

from ualg import algebra, apply_op, enumerate_terms, evaluate, signature, substitute
from ualg.terms import Substitution
from ualg.fileio import parse_term

# The two-element xor algebra: one binary operation f with table
#   f(0,0)=0  f(0,1)=1  f(1,0)=1  f(1,1)=0
sig = signature(("f", 2))
xor = algebra(sig, 2, {"f": [0, 1, 1, 0]})
print("f(1,1) =", apply_op(xor, "f", [1, 1]))

# Terms parse from a compact surface syntax: variables carry a '?'.
t = parse_term("f(?x, f(?x, ?y))")
print("term:", t)
print("value at x=1, y=0:", evaluate(xor, t, {"x": 1, "y": 0}))

# Substitution replaces variables by terms, leaving other variables alone.
sigma = Substitution({"x": parse_term("f(?y,?y)")})
print("after substituting x:", substitute(sigma, t))

# enumerate_terms lists every term up to a depth bound, deterministically:
# depth 0 is variables then constants, deeper layers apply each symbol to
# already-listed children in lexicographic index order.
for depth in range(3):
    terms = enumerate_terms(sig, ["x", "y"], depth)
    print(f"depth <= {depth}: {len(terms)} terms")
print("the first six:", ", ".join(map(str, enumerate_terms(sig, ["x", "y"], 1))))
