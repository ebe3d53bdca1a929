"""Equational entailment: proof objects, checking, search, soundness.

Proofs are trees over six constructors (hypothesis, reflexivity, symmetry,
transitivity, congruence, substitution).  The checker synthesizes the
conclusion bottom-up; the searcher looks for small proofs by iterative
deepening and for small countermodels; the auditor replays conclusions
in every model of the axioms.
"""

from ualg import SearchLimits, check_proof, search_proof, signature, soundness_audit
from ualg.entail import Hyp, Sub, Sym
from ualg.terms import Substitution
from ualg.fileio import parse_equation, parse_term, proof_to_text
from ualg import algebra

sig = signature(("f", 2))
axioms = [parse_equation("f(?x,?y) = f(?y,?x)")]

# Hand-built proof: substitute y := f(x,x) into the flipped axiom.
proof = Sub(Sym(Hyp(0)), Substitution({"y": parse_term("f(?x,?x)")}))
print("proof:", proof_to_text(proof))
print("concludes:", check_proof(sig, axioms, proof))

# Search finds proofs of small consequences and re-checks them itself.
goal = parse_equation("f(f(?x,?x),?y) = f(?y,f(?x,?x))")
outcome = search_proof(sig, axioms, goal, SearchLimits(max_depth=3))
print("search:", outcome.status, "->", proof_to_text(outcome.proof))

# An unprovable goal with a two-element countermodel is refuted outright
# (the outcome carries the countermodel); any other goal left unproved
# within the limits is "exhausted", and a starved budget is "budget":
# neither is a refutation.
print("idempotence from commutativity:", search_proof(sig, axioms, parse_equation("f(?x,?x) = ?x")).status)

# Soundness: every derived identity holds in every model of the axioms.
pool = [
    algebra(sig, 2, {"f": [(code >> i) & 1 for i in (3, 2, 1, 0)]})
    for code in range(16)
]
report = soundness_audit(sig, axioms, [proof, outcome.proof], pool)
print(f"audited {len(report.entries)} (model, conclusion) pairs over "
      f"{len(report.model_indices)} models; clean: {report.clean}")
