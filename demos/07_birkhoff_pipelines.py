"""Both directions of the HSP theorem replayed on concrete instances.

Easy direction: the models of a finite equation list are closed under
products, subalgebras, and homomorphic images.  Hard direction: a
certificate places B in V(K), and then B is exhibited as a homomorphic
image of the free algebra on one variable per generator of B that the
certificate names.
"""

from ualg import (
    algebra,
    eqcl_to_var_check,
    signature,
    trivial_certificate,
    var_to_eqcl_check,
    verify_invariance,
)
from ualg.birkhoff import ProductWitness
from ualg.fileio import parse_equation

sig = signature(("m", 2))
sl = algebra(sig, 2, {"m": [0, 0, 0, 1]})
comm = parse_equation("m(?x,?y) = m(?y,?x)")
idem = parse_equation("m(?x,?x) = ?x")

# Satisfaction transfers along products of copies (one preservation lemma).
report = verify_invariance(sl, comm, ProductWitness((sl, sl)))
print("invariance under squaring:")
for line in report.lines():
    print("  ", line)

# Easy direction: find every model of {idem, comm} of size <= 2, one per
# isomorphism class, and replay all three closures over those.
report = eqcl_to_var_check([idem, comm], pool_size_bound=2)
print("easy direction (equational class is a variety):")
for line in report.lines():
    print("  ", line)

# Hard direction at desk scale: certify sl into V{sl}, build the free
# algebra on sl's least generating set {0, 1}, and map it onto sl.
report = var_to_eqcl_check([sl], sl, trivial_certificate(0, sl))
print("hard direction (certified member is an image of the free algebra):")
for line in report.lines():
    print("  ", line)
print("overall:", report.overall)

# Z2 under + is generated by {1} alone, so its free algebra is built on a
# single variable: 2 elements, not the 4 of the free algebra on |Z2| = 2.
z2 = algebra(sig, 2, {"m": [0, 1, 1, 0]})
cert = trivial_certificate(0, z2)
print("least generating set of Z2:", cert.gens)
report = var_to_eqcl_check([z2], z2, cert)
for line in report.lines():
    print("  ", line)
print("overall:", report.overall)
