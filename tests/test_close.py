"""The one closure routine, close, and the constructions built on it, each
against the pass loop plus table pass it replaced (see oracles.py)."""

import gc
import itertools

import pytest

from ualg import (
    Caps,
    algebra,
    apply_op,
    build_free,
    find_homs,
    hom_image,
    product,
    subalgebra_generate,
)
from ualg.closure import EmptyCarrierError, close
from ualg.core import CapExceededError

from oracles import (
    build_free_passes,
    closure_list,
    hom_image_passes,
    subalgebra_generate_passes,
)
from samples import SIG_F, SIG_FE, semilattice2, z2_xor, z3_add, z4_add

SAMPLES = [z2_xor(), semilattice2(SIG_F), z3_add(), z4_add()]


def left_zero(size):
    return algebra(SIG_F, size, {"f": [a for a in range(size) for _ in range(size)]})


def mul3_with_unit():
    return algebra(
        SIG_FE, 3, {"f": [(a * b) % 3 for a in range(3) for b in range(3)], "e": [1]}
    )


def assert_same_free(got, want):
    assert got.alg == want.alg
    assert got.index == want.index
    assert got.tuples == want.tuples
    assert got.reprs == want.reprs
    assert got.gens == want.gens
    assert list(got.gens) == list(want.gens)


FREE_CASES = [
    *[(f"SL-{k}", [semilattice2(SIG_F)], "abcde"[:k]) for k in range(1, 6)],
    *[(f"Z2-{k}", [z2_xor()], "xyz"[:k]) for k in range(1, 4)],
    *[(f"Z3-{k}", [z3_add()], "xy"[:k]) for k in range(1, 3)],
    ("left-zero-3", [left_zero(3)], "xyz"),
    ("mixed", [semilattice2(SIG_F), z2_xor(), z3_add()], "xy"),
    ("constants-no-variables", [mul3_with_unit()], ""),
    ("constants-and-variables", [mul3_with_unit()], "x"),
    ("one-element", [algebra(SIG_F, 1, {"f": [0]})], "xyz"),
]


@pytest.mark.parametrize("K, variables", [c[1:] for c in FREE_CASES], ids=[c[0] for c in FREE_CASES])
def test_build_free_matches_the_pass_oracle(K, variables):
    assert_same_free(build_free(K, list(variables)), build_free_passes(K, list(variables)))


def test_build_free_empty_class_matches_the_pass_oracle():
    assert_same_free(
        build_free([], ["x", "y"], sig=SIG_F), build_free_passes([], ["x", "y"], sig=SIG_F)
    )


def _error(fn):
    try:
        fn()
    except CapExceededError as e:
        return str(e)
    return None


@pytest.mark.parametrize("K, variables", [
    ([semilattice2(SIG_F)], "abc"),
    ([z2_xor(), semilattice2(SIG_F)], "xy"),
    ([algebra(SIG_F, 1, {"f": [0]})], "xyz"),
])
def test_build_free_caps_trip_where_the_oracle_trips(K, variables):
    free = build_free(K, list(variables))
    width = len(free.index)

    def both(caps):
        got = _error(lambda: build_free(K, list(variables), caps=caps))
        assert got == _error(lambda: build_free_passes(K, list(variables), caps=caps))
        return got

    for c in range(1, free.alg.size + 2):
        assert (both(Caps(carrier=c)) is not None) == (c < free.alg.size)
    for c in range(width * len(variables) - 1, width * (free.alg.size + 1) + 1):
        assert (both(Caps(cells=c)) is not None) == (c < width * max(free.alg.size, len(variables)))


def sl_cube():
    return product([semilattice2(SIG_F)] * 3).alg


def z2_times_z3():
    return product([z2_xor(), z3_add()]).alg


def with_constant():
    return product([mul3_with_unit(), mul3_with_unit()]).alg


@pytest.mark.parametrize("alg", [sl_cube(), z2_times_z3(), with_constant()], ids=["SL^3", "Z2xZ3", "M3^2"])
def test_subalgebra_generate_matches_the_pass_oracle_on_every_subset(alg):
    for r in range(alg.size + 1):
        for gens in itertools.combinations(range(alg.size), r):
            if not gens and not alg.sig.constants():
                with pytest.raises(EmptyCarrierError):
                    subalgebra_generate(alg, gens)
                continue
            sub, inc = subalgebra_generate(alg, gens)
            want_sub, want_inc = subalgebra_generate_passes(alg, gens)
            assert sub == want_sub
            assert inc.image == want_inc.image


def test_hom_image_matches_the_pass_oracle_on_every_hom():
    for src, dst in itertools.product(SAMPLES, repeat=2):
        for m in find_homs(src, dst):
            img, onto = hom_image(src, m)
            want_img, want_onto = hom_image_passes(src, m)
            assert img == want_img
            assert onto.image == want_onto.image


def test_close_keeps_discovery_order_origins_and_tables():
    alg = with_constant()
    sig = alg.sig
    for gens in [(), (4,), (2, 7), (8, 0, 8)]:
        elements, origins, tables = close(sig, gens, lambda name, args: apply_op(alg, name, args))
        assert elements == closure_list(alg, gens)
        for e, origin in enumerate(origins):
            if e < len(dict.fromkeys(gens)):
                assert origin is None
                continue
            symbol, args = origin
            assert all(a < e for a in args)
            assert apply_op(alg, symbol, [elements[a] for a in args]) == elements[e]
        for (name, arity), table in zip(sig.ops, tables):
            assert table == tuple(
                elements.index(apply_op(alg, name, [elements[a] for a in args]))
                for args in itertools.product(range(len(elements)), repeat=arity)
            )


def test_close_admit_sees_every_count_and_can_stop():
    alg = z2_times_z3()
    seen = []
    close(alg.sig, [1], lambda name, args: apply_op(alg, name, args), seen.append)
    assert seen == list(range(1, len(seen) + 1))

    def stop(count):
        if count > 2:
            raise CapExceededError("stop")

    with pytest.raises(CapExceededError, match="stop"):
        close(alg.sig, [1], lambda name, args: apply_op(alg, name, args), stop)


def _cyclic_garbage(fn):
    fn()  # warm up module-level caches
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


GC_CASES = {
    "find_homs": lambda: find_homs(z2_xor(), z2_xor()),
    "find_homs-surjective": lambda: find_homs(z4_add(), z2_xor(), surjective=True),
    "build_free": lambda: build_free([semilattice2(SIG_F), z2_xor()], ["x", "y"]),
    "subalgebra_generate": lambda: subalgebra_generate(z2_times_z3(), [1]),
    "hom_image": lambda: hom_image(z4_add(), find_homs(z4_add(), z2_xor())[1]),
}


@pytest.mark.parametrize("name", GC_CASES)
def test_leaves_no_cyclic_garbage(name):
    assert _cyclic_garbage(GC_CASES[name]) == 0
