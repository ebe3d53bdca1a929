"""The relatively free algebra of the variety generated by a finite class.

Elements are evaluation tuples indexed by every (algebra, environment)
pair; the construction closes the variable projections under pointwise
operations.  Two terms land on the same element exactly when the class
satisfies their identity, so the free algebra is the bounded theory made
into an algebra.
"""

from ualg import algebra, build_free, class_satisfies, nat_epi, signature, universal_map
from ualg.fileio import emit_algebra_file, emit_free_sidecar, parse_equation, parse_term

sig = signature(("m", 2))
sl = algebra(sig, 2, {"m": [0, 0, 0, 1]})

# On two generators the free semilattice has 3 elements: x, y, and m(x,y).
free = build_free([sl], ["x", "y"])
print("free semilattice on {x,y}:")
for i, (tup, rep) in enumerate(zip(free.tuples, free.reprs)):
    print(f"  elem {i}: tuple {tup}  repr {rep}")

# The natural map sends a term to its element; idempotence identifies
# m(x,x) with x because the semilattice satisfies that identity.
print("nat_epi(m(?x,?x)) == nat_epi(?x):",
      nat_epi(free, parse_term("m(?x,?x)")) == nat_epi(free, parse_term("?x")))
print("class satisfies m(?x,?x) = ?x:",
      class_satisfies([sl], parse_equation("m(?x,?x) = ?x")).holds)

# The universal property: any assignment of generators into a member of
# the variety extends to a surjective hom from the free algebra.
u = universal_map(free, sl, {"x": 0, "y": 1})
print("universal map image:", u.image)

# Sending generators into an algebra OUTSIDE the variety fails, and the
# failure pinpoints an identity the target breaks.
xor = algebra(signature(("m", 2)), 2, {"m": [0, 1, 1, 0]})
failure = universal_map(free, xor, {"x": 0, "y": 1})
print("onto the xor algebra instead:", failure)

# Free algebras emit as ordinary algebra files plus a sidecar of
# representatives; `ualg free` produces the same two artifacts.
print(emit_algebra_file(sig, [("F", free.alg)]))
print(emit_free_sidecar(free), end="")
