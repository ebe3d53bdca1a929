import itertools

import pytest

from ualg import (
    App,
    Caps,
    Var,
    algebra,
    apply_op,
    build_free,
    class_satisfies,
    classify,
    enumerate_terms,
    evaluate,
    nat_epi,
    satisfies,
    theory_upto,
    universal_map,
)
from ualg.core import CapExceededError
from ualg.closure import EmptyCarrierError
from ualg.free import UniversalMapFailure
from ualg.terms import Equation

from samples import SIG_F, SIG_FE, SIG_M, semilattice2, z2_xor, z3_add

X, Y = Var("x"), Var("y")


def test_free_semilattice_sizes_and_representatives():
    one = build_free([semilattice2()], ["x"])
    assert one.alg.size == 1
    assert one.reprs == (X,)

    two = build_free([semilattice2()], ["x", "y"])
    assert two.alg.size == 3
    assert two.reprs == (X, Y, App("m", (X, Y)))
    assert two.gens == {"x": 0, "y": 1}


def test_free_xor_sizes_and_representatives():
    two = build_free([z2_xor()], ["x", "y"])
    assert two.alg.size == 4
    assert two.reprs == (X, Y, App("f", (X, X)), App("f", (X, Y)))

    one = build_free([z2_xor()], ["x"])
    assert one.alg.size == 2


def test_free_index_layout():
    free = build_free([semilattice2()], ["x", "y"])
    # one coordinate per (algebra, environment) in lexicographic env order
    assert free.index == (
        (0, (0, 0)),
        (0, (0, 1)),
        (0, (1, 0)),
        (0, (1, 1)),
    )
    assert free.tuples[free.gens["x"]] == (0, 0, 1, 1)
    assert free.tuples[free.gens["y"]] == (0, 1, 0, 1)


def test_tuples_are_pairwise_distinct():
    for K, n in (([semilattice2()], 3), ([z2_xor()], 2)):
        free = build_free(K, [f"v{i}" for i in range(n)])
        assert len(set(free.tuples)) == len(free.tuples)


def test_nat_epi_examples():
    fsl = build_free([semilattice2()], ["x", "y"])
    assert nat_epi(fsl, X) == fsl.gens["x"]
    assert nat_epi(fsl, App("m", (X, X))) == fsl.gens["x"]

    fxor = build_free([z2_xor()], ["x", "y"])
    zero = nat_epi(fxor, App("f", (X, X)))
    assert zero != fxor.gens["x"]
    assert fxor.reprs[zero] == App("f", (X, X))


def test_nat_epi_is_a_surjective_homomorphism():
    free = build_free([semilattice2()], ["x", "y"])
    terms = enumerate_terms(SIG_M, ["x", "y"], 3)
    for t in terms:
        if type(t) is App and t.children:
            expected = apply_op(free.alg, t.symbol, [nat_epi(free, c) for c in t.children])
            assert nat_epi(free, t) == expected
    # every element is hit by its own representative
    for e, term in enumerate(free.reprs):
        assert nat_epi(free, term) == e


def test_nat_epi_agrees_with_evaluation_under_generators():
    for K, variables in (
        ([semilattice2()], ["x", "y"]),
        ([z2_xor()], ["x", "y"]),
    ):
        free = build_free(K, variables)
        sig = K[0].sig
        for t in enumerate_terms(sig, variables, 2):
            assert nat_epi(free, t) == evaluate(free.alg, t, free.gens)


def test_kernel_characterizes_the_theory():
    K = [semilattice2()]
    free = build_free(K, ["x", "y"])
    terms = enumerate_terms(SIG_M, ["x", "y"], 1)
    for p, q in itertools.product(terms, repeat=2):
        identified = nat_epi(free, p) == nat_epi(free, q)
        modeled = class_satisfies(K, Equation(p, q)).holds
        assert identified == modeled


def test_free_algebra_models_the_theory():
    for K in ([semilattice2()], [z2_xor()]):
        free = build_free(K, ["x", "y"])
        for eq in theory_upto(K, ["x", "y"], 2):
            assert satisfies(free.alg, eq).holds


def test_universal_map_onto_generators():
    fxor = build_free([z2_xor()], ["v0", "v1"])
    result = universal_map(fxor, z2_xor(), {"v0": 0, "v1": 1})
    cls = classify(result)
    assert cls.is_hom and cls.surjective

    fsl = build_free([semilattice2()], ["v0", "v1"])
    result = universal_map(fsl, semilattice2(), {"v0": 0, "v1": 1})
    assert classify(result).is_hom and classify(result).surjective


def test_universal_map_factors_nat_epi():
    free = build_free([z2_xor()], ["v0", "v1"])
    assign = {"v0": 0, "v1": 1}
    u = universal_map(free, z2_xor(), assign)
    for t in enumerate_terms(SIG_F, ["v0", "v1"], 2):
        assert u.image[nat_epi(free, t)] == evaluate(z2_xor(), t, assign)


def test_universal_map_failure_witness_replays():
    # xor breaks idempotence, which the semilattice-free algebra identifies
    from ualg import CarrierMap
    from ualg.homs import hom_violation

    fsl = build_free([semilattice2(SIG_F)], ["v0", "v1"])
    result = universal_map(fsl, z2_xor(), {"v0": 0, "v1": 1})
    assert isinstance(result, UniversalMapFailure)
    assert result.kind == "hom"
    assert result.symbol == "f"
    rejected = CarrierMap(fsl.alg, z2_xor(), result.image)
    assert hom_violation(rejected) == (result.symbol, result.args)


def test_universal_map_surjectivity_failure():
    free = build_free([semilattice2()], ["v0"])
    result = universal_map(free, semilattice2(), {"v0": 1})
    assert isinstance(result, UniversalMapFailure)
    assert result.kind == "surjectivity"
    assert result.unreached == 0


def test_build_free_caps():
    with pytest.raises(CapExceededError):
        build_free([z2_xor()], ["a", "b", "c"], caps=Caps(carrier=3))
    with pytest.raises(CapExceededError):
        build_free([z2_xor()], ["a", "b", "c"], caps=Caps(cells=10))


def test_build_free_checks_the_index_width_before_listing_it():
    # 2^64 environments: listing them first would never return
    variables = [f"v{i}" for i in range(64)]
    with pytest.raises(
        CapExceededError,
        match=f"^free tuple cells: {2**64 * 64} exceeds cap cells=1000000; "
        "raise it with UALG_CAPS=cells=N$",
    ):
        build_free([z2_xor()], variables)
    # the width sums over the class: 2^3 + 3^3 coordinates, 3 generator tuples
    with pytest.raises(
        CapExceededError,
        match="^free tuple cells: 105 exceeds cap cells=104; raise it with UALG_CAPS=cells=N$",
    ):
        build_free([z2_xor(), z3_add()], ["a", "b", "c"], caps=Caps(cells=104))
    # the generators pass; the fourth element's 4 x 35 tuple cells do not
    with pytest.raises(
        CapExceededError,
        match="^free tuple cells: 140 exceeds cap cells=105; raise it with UALG_CAPS=cells=N$",
    ):
        build_free([z2_xor(), z3_add()], ["a", "b", "c"], caps=Caps(cells=105))


def test_build_free_rejects_repeated_variables():
    # checked before any work: the tiny cells cap would trip otherwise; the
    # first name to repeat one before it is named
    for variables, name in [("xyx", "x"), ("xyzyx", "y"), ("xyxy", "x")]:
        with pytest.raises(ValueError, match=f"^variable '{name}' is repeated$"):
            build_free([semilattice2(SIG_F)], list(variables), caps=Caps(cells=1))


def test_caps_name_an_amount_past_the_int_text_limit_by_its_power_of_two():
    # 2^15000 * 15000 tuple cells and 2^15000 environments have over 4,300
    # digits, past what str may print; the cap text still names the cap
    names = [f"v{i}" for i in range(15_000)]
    tail = " exceeds cap cells=1000000; raise it with UALG_CAPS=cells=N$"
    with pytest.raises(CapExceededError, match=r"^free tuple cells: 2\^15013 or more" + tail):
        build_free([z2_xor()], names)
    with pytest.raises(CapExceededError, match=r"^environment space 2\^15000: 2\^15000 or more" + tail):
        theory_upto([z2_xor()], names, 1)


def test_build_free_empty_class():
    free = build_free([], ["x", "y"], sig=SIG_F)
    assert free.alg.size == 1
    with pytest.raises(ValueError):
        build_free([], ["x"])
    with pytest.raises(EmptyCarrierError):
        build_free([z2_xor()], [])


def test_build_free_with_constants_and_no_variables():
    mul3 = algebra(
        SIG_FE,
        3,
        {"f": [(a * b) % 3 for a in range(3) for b in range(3)], "e": [1]},
    )
    free = build_free([mul3], [])
    # the constant generates: e=1, f(e,e)=1 -> a single element
    assert free.alg.size == 1
    assert free.reprs == (App("e"),)
