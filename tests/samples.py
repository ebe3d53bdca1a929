"""Standard small algebras and law sets shared across the test suite.

All carry a single binary symbol f unless noted, so that cross-algebra
operations (homs, products, class satisfaction) type-check.
"""

import itertools

from oracles import hom_image
from ualg import (
    App,
    Equation,
    FiniteAlgebra,
    Signature,
    Var,
    algebra,
    find_homs,
    product,
    signature,
    subalgebra_generate,
)
from ualg.closure import HspCertificate

SIG_F = signature(("f", 2))
SIG_M = signature(("m", 2))
SIG_FE = signature(("f", 2), ("e", 0))


def z2_xor() -> FiniteAlgebra:
    return algebra(SIG_F, 2, {"f": [0, 1, 1, 0]})


def semilattice2(sig: Signature = SIG_M) -> FiniteAlgebra:
    """The two-element meet-semilattice; pass SIG_F to rename the op."""
    name = sig.ops[0][0]
    return algebra(sig, 2, {name: [0, 0, 0, 1]})


def z3_add() -> FiniteAlgebra:
    return algebra(SIG_F, 3, {"f": [0, 1, 2, 1, 2, 0, 2, 0, 1]})


def z_add(n: int) -> FiniteAlgebra:
    return algebra(SIG_F, n, {"f": [(a + b) % n for a in range(n) for b in range(n)]})


def z4_add() -> FiniteAlgebra:
    return z_add(4)


def mul3_with_unit():
    return algebra(
        SIG_FE, 3, {"f": [(a * b) % 3 for a in range(3) for b in range(3)], "e": [1]}
    )


# Signatures beyond one binary symbol.
SIG_G = signature(("g", 1))
SIG_T = signature(("t", 3))
SIG_CONST = signature(("c", 0), ("d", 0))
SIG_MIXED = signature(("g", 1), ("e", 0), ("t", 3))


def z_successor(n):
    return algebra(SIG_G, n, {"g": [(a + 1) % n for a in range(n)]})


def z5_successor():
    return z_successor(5)


def z3_malcev():
    return algebra(SIG_T, 3, {"t": [(x - y + z) % 3 for x, y, z in itertools.product(range(3), repeat=3)]})


def chain_median(n):
    return algebra(SIG_T, n, {"t": [sorted(args)[1] for args in itertools.product(range(n), repeat=3)]})


def chain3_median():
    return chain_median(3)


def constants_only(size=3):
    return algebra(SIG_CONST, size, {"c": [size - 1], "d": [0]})


def mixed_arities(n=4):
    """The n-chain with its order-reversing involution, bottom and median."""
    return algebra(SIG_MIXED, n, {
        "g": [n - 1 - a for a in range(n)],
        "e": [0],
        "t": [sorted(args)[1] for args in itertools.product(range(n), repeat=3)],
    })


# The law sets of the easy-direction benchmark, over one binary symbol f.
_X, _Y, _Z = Var("x"), Var("y"), Var("z")
EASY_LAWS = {
    "assoc": (((_X, _Y), _Z), (_X, (_Y, _Z))),
    "comm": ((_X, _Y), (_Y, _X)),
    "idem": ((_X, _X), _X),
    "leftproj": ((_X, _Y), _X),
    "rightproj": ((_X, _Y), _Y),
    "lq": ((_X, (_X, _Y)), _Y),
    "rq": (((_X, _Y), _Y), _X),
    "rectband": (((_X, _Y), _Z), (_X, _Z)),
}
EASY_LAW_SETS = [
    ("assoc",),
    ("comm", "assoc"),
    ("leftproj",),
    ("lq",),
    ("rq",),
    ("idem", "rectband"),
    ("idem", "comm", "assoc"),
    ("rightproj",),
    ("comm", "idem"),
]
# For each law set, a law that does not follow from it: each fails in a
# model of the set of size 2.
EASY_NON_CONSEQUENCES = dict(zip(EASY_LAW_SETS, [
    "comm", "idem", "rightproj", "idem", "idem", "comm", "leftproj", "leftproj", "leftproj",
]))


def _f_term(shape):
    return App("f", tuple(map(_f_term, shape))) if isinstance(shape, tuple) else shape


def easy_laws(names) -> list[Equation]:
    return [Equation(*map(_f_term, EASY_LAWS[name])) for name in names]


def semilattice2_with_top() -> FiniteAlgebra:
    return algebra(SIG_FE, 2, {"f": [0, 0, 0, 1], "e": [1]})


def mod2_map_image() -> tuple[int, ...]:
    return (0, 1, 0, 1)


def all_binary_size2(sig: Signature = SIG_F) -> list[FiniteAlgebra]:
    """All 16 single-binary-op algebras on two elements."""
    name = sig.ops[0][0]
    out = []
    for code in range(16):
        table = [(code >> i) & 1 for i in (3, 2, 1, 0)]
        out.append(algebra(sig, 2, {name: table}))
    return out


def certified_square_images(base) -> list[tuple]:
    """All distinct (B, certificate) pairs realizable as hom images of
    generated subalgebras of base x base."""
    square = product([base, base]).alg
    out = []
    seen = set()
    for r in range(1, square.size + 1):
        for gens in itertools.combinations(range(square.size), r):
            sub, _ = subalgebra_generate(square, gens)
            for m in find_homs(sub, sub):
                image_alg, onto = hom_image(sub, m)
                key = (image_alg.size, image_alg.tables)
                if key in seen:
                    continue
                seen.add(key)
                cert = HspCertificate(
                    factors=((0, 2),), gens=gens, image=onto.image
                )
                out.append((image_alg, cert))
    return out
