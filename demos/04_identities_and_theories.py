"""Identities: satisfaction, class satisfaction, and bounded theories.

An algebra satisfies p = q when both sides agree under every environment;
the check is brute force over all assignments, and counterexamples come
back in lexicographic order so runs are reproducible.
"""

from ualg import algebra, class_satisfies, mod_check, satisfies, signature, theory_upto
from ualg.fileio import parse_equation

sig = signature(("f", 2))
xor = algebra(sig, 2, {"f": [0, 1, 1, 0]})
z3 = algebra(sig, 3, {"f": [0, 1, 2, 1, 2, 0, 2, 0, 1]})

comm = parse_equation("f(?x,?y) = f(?y,?x)")
idem = parse_equation("f(?x,?x) = ?x")

print("xor commutative:", satisfies(xor, comm).holds)
res = satisfies(xor, idem)
print("xor idempotent:", res.holds, "| counterexample:", res.counterexample.assoc)

# A class satisfies an identity when every member does.
print("{xor, z3} commutative:", class_satisfies([xor, z3], comm).holds)

# Membership in Mod(E) for a finite axiom list.
print("xor models {comm}:", mod_check(xor, [comm]).holds)
print("xor models {idem}:", mod_check(xor, [idem]).holds)

# The depth-bounded theory: all identities between enumerated terms that
# the whole class satisfies (the diagonal is always there).
theory = theory_upto([xor, z3], ["x", "y"], 1)
nontrivial = [eq for eq in theory if eq.lhs != eq.rhs]
print(f"depth-1 theory of {{xor, z3}}: {len(theory)} identities, {len(nontrivial)} beyond reflexivity:")
for eq in nontrivial:
    print("   ", eq)
