"""The relatively free algebra in the variety generated by a finite class.

Elements are evaluation tuples: one coordinate per (algebra, environment)
pair, where the environments range over all assignments of the chosen
variables into each algebra's carrier.  The algebra is the subalgebra of
the big product generated by the variable-projection tuples; two terms
land on the same element exactly when the class satisfies their identity.

The closure is `closure.generate` with the projection tuples as seeds:
on byte lanes when the class fits the lane kernel, on int tuples
otherwise, with the elements stored as int tuples either way.  The
soundness re-check evaluates the representatives on the list kernel alone
(`terms._list_fingerprints`), which shares no code with either closure
kernel, so it catches a fault in them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .core import (
    DEFAULT_CAPS,
    Caps,
    FiniteAlgebra,
    Signature,
    UalgError,
    same_signature,
)
from .closure import generate
from .homs import CarrierMap, hom_violation
from .terms import (
    App,
    Term,
    Var,
    _checked_bindings,
    _list_fingerprints,
    all_environments,
    fingerprints,
    term_columns,
)


@dataclass(frozen=True)
class FreeAlgebra:
    """alg is the free algebra; index lists the (class index, environment
    values) coordinates; tuples/reprs give each element's evaluation tuple
    and canonical representative term; gens maps variables to elements."""

    alg: FiniteAlgebra
    k_algebras: tuple[FiniteAlgebra, ...]
    variables: tuple[str, ...]
    index: tuple[tuple[int, tuple[int, ...]], ...]
    tuples: tuple[tuple[int, ...], ...]
    reprs: tuple[Term, ...]
    gens: Mapping[str, int]

    @cached_property
    def _labels(self) -> dict[tuple[int, ...], int]:
        # built on the first lookup, so build_free never pays for it
        return {tup: e for e, tup in enumerate(self.tuples)}

    def lookup(self, tup: tuple[int, ...]) -> int:
        return self._labels[tup]


def build_free(
    K: Sequence[FiniteAlgebra],
    variables: Sequence[str],
    caps: Caps = DEFAULT_CAPS,
    sig: Signature | None = None,
) -> FreeAlgebra:
    """Close the variable-projection tuples of the indexed product under
    pointwise operations; discovery order fixes labels and representatives.

    The closure is closure.generate's, on byte lanes or int tuples;
    `_check_invariants` re-evaluates every representative on the list
    kernel, independently of both.
    """
    if K:
        sig = same_signature(*K)
    elif sig is None:
        raise ValueError("empty class: pass the signature explicitly")
    variables = list(variables)
    seen: set[str] = set()
    for name in variables:
        if name in seen:
            raise ValueError(f"variable {name!r} is repeated")
        seen.add(name)
    # one coordinate per member and environment; the generator tuples (one
    # per variable, one with none) are admitted as one block before any is
    # built, not as elements: over trivial members they all coincide
    width = sum([alg.size ** len(variables) for alg in K])
    caps.admit(sig, width * max(1, len(variables)), "free")(1)
    # The coordinate order is the kernel's (terms.all_environments per member,
    # members in class order); the generator tuples below come from it too.
    index = [
        (ki, tuple(env.values()))
        for ki, alg in enumerate(K)
        for env in all_environments(variables, alg.size)
    ]

    projections = fingerprints(K, [Var(name) for name in variables], variables)
    elements, origins, tables = generate(K, [ki for ki, _ in index], projections, sig, caps.admit(sig, width, "free"))
    gens = {name: elements.index(tup) for name, tup in zip(variables, projections)}
    reprs: list[Term] = []
    for e, origin in enumerate(origins):
        if origin is None:  # a seed: the first variable projecting onto it
            reprs.append(Var(variables[projections.index(elements[e])]))
        else:
            reprs.append(App(origin[0], tuple([reprs[a] for a in origin[1]])))
    free = FreeAlgebra(
        alg=FiniteAlgebra._trusted(sig, len(elements), tables),
        k_algebras=tuple(K),
        variables=tuple(variables),
        index=tuple(index),
        tuples=tuple(elements),
        reprs=tuple(reprs),
        gens=gens,
    )
    _check_invariants(free)
    return free


def _check_invariants(free: FreeAlgebra) -> None:
    """Soundness re-check of a built free algebra; raises UalgError."""
    if len(set(free.tuples)) != len(free.tuples):
        raise UalgError("free algebra: element tuples are not pairwise distinct")
    computed = _list_fingerprints(free.k_algebras, free.reprs, free.variables)
    for e, tup in enumerate(free.tuples):
        if computed[e] != tup:
            raise UalgError(
                f"free algebra: representative {free.reprs[e]} of element {e} "
                "does not evaluate to its tuple"
            )
    for pos, name in enumerate(free.variables):
        expected = tuple(env[pos] for _, env in free.index)
        if free.tuples[free.gens[name]] != expected:
            raise UalgError(f"free algebra: generator {name} is not its projection tuple")


def nat_epi(free: FreeAlgebra, t: Term) -> int:
    """Image of a term under the natural map onto the free algebra."""
    return free.lookup(fingerprints(free.k_algebras, [t], free.variables)[0])


@dataclass(frozen=True)
class UniversalMapFailure:
    """Why no homomorphism onto the target extends the assignment.

    kind "hom" carries the violating (symbol, args); that pair witnesses an
    identity holding in the free algebra but not in the target.  kind
    "surjectivity" carries the first unreached target element.  image is
    the rejected candidate map, so the failure replays through classify.
    """

    kind: str
    image: tuple[int, ...]
    symbol: str | None = None
    args: tuple[int, ...] | None = None
    unreached: int | None = None


def universal_map(
    free: FreeAlgebra, B: FiniteAlgebra, assign: Mapping[str, int]
) -> CarrierMap | UniversalMapFailure:
    """The hom free -> B extending assign on the generators, built by
    evaluating representatives; verified to be a surjective hom."""
    same_signature(free.alg, B)
    for name in free.variables:
        if name not in assign:
            raise ValueError(f"assignment misses variable {name}")
    _checked_bindings(assign, B.size)
    single = {name: [value] for name, value in assign.items()}
    image = tuple([col[0] for col in term_columns(B, free.reprs, single)])
    candidate = CarrierMap(free.alg, B, image)
    witness = hom_violation(candidate)
    if witness is not None:
        return UniversalMapFailure("hom", image, symbol=witness[0], args=witness[1])
    reached = set(image)
    for b in range(B.size):
        if b not in reached:
            return UniversalMapFailure("surjectivity", image, unreached=b)
    return candidate
