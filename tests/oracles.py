"""Brute-force reference paths kept as differential oracles.

Each is the pair-by-pair or point-by-point form that a faster path in
ualg replaced: every equation of a bounded theory decided by its own
class_satisfies call, every coordinate of an evaluation tuple by its own
evaluate call.
"""

import itertools

from ualg import CarrierMap, Equation, class_satisfies, enumerate_terms, evaluate, satisfies
from ualg.birkhoff import Stage, _env_string
from ualg.core import same_signature
from ualg.free import UniversalMapFailure
from ualg.homs import hom_violation


def theory_upto_pairwise(K, variables, max_depth, term_cap=1_000_000, env_cap=1_000_000):
    """Every ordered pair of enumerated terms that K satisfies, one
    class_satisfies call per pair, in (p index, q index) order."""
    if not K:
        raise ValueError("theory_upto needs a nonempty class to fix the signature")
    terms = enumerate_terms(same_signature(*K), variables, max_depth, cap=term_cap)
    return [
        Equation(p, q)
        for p, q in itertools.product(terms, repeat=2)
        if class_satisfies(K, Equation(p, q), cap=env_cap).holds
    ]


def models_theory_pairwise(K, B, depth):
    """The models-theory stage of var_to_eqcl_check as one satisfies call
    per equation of the theory of K."""
    theory = theory_upto_pairwise(K, ["x", "y"], depth)
    for eq in theory:
        res = satisfies(B, eq)
        if not res.holds:
            ce = _env_string(res.counterexample.assoc)
            return Stage("models-theory", False, f"{eq} fails at {ce}")
    return Stage("models-theory", True, f"{len(theory)} equations")


def evaluation_tuple(free, t):
    """t's value at each (class member, environment) coordinate of free."""
    return tuple(
        evaluate(free.k_algebras[ki], t, dict(zip(free.variables, env)))
        for ki, env in free.index
    )


def nat_epi_pointwise(free, t):
    return free.lookup(evaluation_tuple(free, t))


def universal_map_pointwise(free, B, assign):
    same_signature(free.alg, B)
    for name in free.variables:
        if name not in assign:
            raise ValueError(f"assignment misses variable {name}")
    image = tuple(evaluate(B, term, assign) for term in free.reprs)
    candidate = CarrierMap(free.alg, B, image)
    witness = hom_violation(candidate)
    if witness is not None:
        return UniversalMapFailure("hom", image, symbol=witness[0], args=witness[1])
    for b in range(B.size):
        if b not in set(image):
            return UniversalMapFailure("surjectivity", image, unreached=b)
    return candidate
