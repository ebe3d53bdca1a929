"""The H, S, P constructions and HSP certificates.

Products run componentwise over mixed-radix codes, subalgebras grow from
generators by a worklist closure, and homomorphic images are quotients by
a hom's kernel (first isomorphism theorem).  A certificate chains the
three stages into a checkable witness that an algebra lies in V of a
class; its image stage checks a hom that covers the target.
"""

from ualg import (
    CarrierMap,
    algebra,
    apply_op,
    check_leq,
    hsp_certificate_check,
    product,
    quotient,
    signature,
    subalgebra_generate,
    trivial_certificate,
)
from ualg.closure import HspCertificate

sig = signature(("m", 2))
sl = algebra(sig, 2, {"m": [0, 0, 0, 1]})  # the two-element meet-semilattice

# P: the square, with a codec between flat indices and coordinate pairs.
square = product([sl, sl])
a, b = square.encode((0, 1)), square.encode((1, 0))
print("m((0,1),(1,0)) =", square.decode(apply_op(square.alg, "m", [a, b])))

# S: the subalgebra of the square generated by the two off-diagonal points
# also picks up their meet (0,0).
sub, inclusion = subalgebra_generate(square.alg, [a, b])
print("generated subalgebra size:", sub.size)
print("inclusion into the square:", inclusion.image)

# H: the image of the first projection is the semilattice itself, built as
# the quotient by its kernel, each element labelled by the least element
# with the same image.
first_proj = CarrierMap(sub, sl, tuple(square.decode(v)[0] for v in inclusion.image))
kernel = [first_proj.image.index(b) for b in first_proj.image]
image, onto = quotient(sub, kernel)
print("image of the first projection has size:", image.size)

# <=: an injective hom witnesses the subalgebra relation.
print("sl <= square:", check_leq(sl, square.alg) is not None)

# A certificate replays product -> subalgebra -> image and checks the
# result is isomorphic to the claimed member of V{sl}: a hom into it that
# covers it.
cert = HspCertificate(factors=((0, 2),), gens=(a, b), image=first_proj.image)
print("square-subalgebra-image certificate:", hsp_certificate_check([sl], sl, cert))
print("trivial certificate:", hsp_certificate_check([sl], sl, trivial_certificate(0, sl)))
