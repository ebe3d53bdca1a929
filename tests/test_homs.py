import itertools
import random
import re
import sys

import pytest

from ualg import (
    CarrierMap,
    algebra,
    apply_op,
    classify,
    compose,
    find_homs,
    find_isomorphism,
    hom_factor,
    identity_map,
    is_isomorphic,
    kernel_pairs,
    product,
    signature,
)
from ualg import homs
from ualg.core import Caps, SignatureMismatchError, UalgError, lane_plan
from ualg.homs import (
    KernelInclusionError,
    NotSurjectiveError,
    SearchCapError,
    hom_violation,
    iter_homs,
)
from ualg.closure import check_leq

from oracles import hom_factor_pairwise, iter_homs_elementwise, iter_homs_pervalue, recheck_single
from samples import (
    SIG_CONST,
    SIG_F,
    SIG_G,
    SIG_MIXED,
    SIG_T,
    chain3_median,
    constants_only,
    mixed_arities,
    mul3_with_unit,
    semilattice2,
    semilattice2_with_top,
    z2_xor,
    z3_add,
    z3_malcev,
    z4_add,
    z5_successor,
    z_add,
)


def brute_force_homs(src, dst, surjective=None, injective=None, fixed=None):
    """Oracle: filter every map by a from-scratch compatibility check."""
    fixed = fixed or {}
    out = []
    for image in itertools.product(range(dst.size), repeat=src.size):
        if any(image[a] != b for a, b in fixed.items()):
            continue
        ok = True
        for name, arity in src.sig.ops:
            for args in itertools.product(range(src.size), repeat=arity):
                lhs = image[apply_op(src, name, args)]
                rhs = apply_op(dst, name, [image[a] for a in args])
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if surjective is not None and (len(set(image)) == dst.size) != surjective:
            continue
        if injective is not None and (len(set(image)) == src.size) != injective:
            continue
        out.append(image)
    return out


def mod2() -> CarrierMap:
    return CarrierMap(z4_add(), z2_xor(), (0, 1, 0, 1))


@pytest.mark.parametrize(
    "image, message",
    [
        ((0, 1, 2, 3), "image[2] = 2 outside target carrier"),
        ((1, 0, -1, 5), "image[2] = -1 outside target carrier"),
        ((0, 1, 0), "image length 3 != source size 4"),
    ],
)
def test_carrier_map_names_its_first_bad_entry(image, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CarrierMap(z4_add(), z2_xor(), image)


def test_classify_mod2():
    cls = classify(mod2())
    assert cls.is_hom and cls.surjective and not cls.injective


def test_classify_identity():
    cls = classify(identity_map(z3_add()))
    assert cls.is_hom and cls.injective and cls.surjective


def test_classify_constant_one_not_hom():
    cls = classify(CarrierMap(z2_xor(), z2_xor(), (1, 1)))
    assert not cls.is_hom
    assert cls.witness == ("f", (0, 0))


def test_classify_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        classify(CarrierMap(z2_xor(), semilattice2(), (0, 1)))


def test_compose_identity_law():
    for h in find_homs(z2_xor(), z2_xor()):
        assert compose(identity_map(z2_xor()), h).image == h.image
        assert compose(h, identity_map(z2_xor())).image == h.image


def test_compose_double_then_mod2_is_constant_zero():
    double = CarrierMap(z2_xor(), z4_add(), (0, 2))
    assert classify(double).is_hom
    comp = compose(double, mod2())
    assert comp.image == (0, 0)
    assert classify(comp).is_hom


def test_compose_mismatch():
    with pytest.raises(UalgError):
        compose(mod2(), mod2())


def test_compose_preserves_hom_and_injectivity():
    pool = [z2_xor(), semilattice2(SIG_F), z3_add()]
    for a, b, c in itertools.product(pool, repeat=3):
        for g in find_homs(a, b):
            for h in find_homs(b, c):
                cls = classify(compose(g, h))
                assert cls.is_hom
                if classify(g).injective and classify(h).injective:
                    assert cls.injective


def test_kernel_pairs():
    same_parity = {(x, y) for x in range(4) for y in range(4) if x % 2 == y % 2}
    assert kernel_pairs(mod2()) == same_parity
    assert kernel_pairs(identity_map(z3_add())) == {(c, c) for c in range(3)}
    const = CarrierMap(z2_xor(), z2_xor(), (0, 0))
    assert kernel_pairs(const) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_hom_factor_examples():
    h = mod2()
    assert hom_factor(h, h).image == (0, 1)
    const = CarrierMap(z4_add(), z2_xor(), (0, 0, 0, 0))
    assert hom_factor(const, h).image == (0, 0)


def test_hom_factor_errors():
    not_surj = CarrierMap(z4_add(), z2_xor(), (0, 0, 0, 0))
    with pytest.raises(NotSurjectiveError) as exc:
        hom_factor(mod2(), not_surj)
    assert exc.value.missing == 1
    with pytest.raises(KernelInclusionError) as exc:
        hom_factor(identity_map(z4_add()), mod2())
    x, y = exc.value.pair
    assert x % 2 == y % 2 and x != y


def test_hom_factor_randomized_reconstruction():
    rng = random.Random(2024)
    pool = [z2_xor(), semilattice2(SIG_F), z3_add()]
    done = 0
    while done < 50:
        c_alg = rng.choice(pool)
        # build a surjective hom onto c_alg by choosing random fibers
        src_size = c_alg.size + rng.randrange(2)
        h_image = list(range(c_alg.size))
        h_image += [rng.randrange(c_alg.size) for _ in range(src_size - c_alg.size)]
        rng.shuffle(h_image)
        table = []
        for a, b in itertools.product(range(src_size), repeat=2):
            value = apply_op(c_alg, "f", [h_image[a], h_image[b]])
            table.append(rng.choice([i for i, v in enumerate(h_image) if v == value]))
        src = algebra(SIG_F, src_size, {"f": table})
        h = CarrierMap(src, c_alg, tuple(h_image))
        assert classify(h).is_hom and classify(h).surjective
        endos = find_homs(c_alg, c_alg)
        phi0 = rng.choice(endos)
        g = compose(h, phi0)
        phi = hom_factor(g, h)
        assert classify(phi).is_hom
        assert compose(h, phi).image == g.image
        done += 1


def test_hom_factor_choice_of_preimage_does_not_matter():
    # kernel inclusion forces g to be constant on every h-fiber, so phi is
    # the same no matter which preimage is picked
    h = mod2()
    for phi0 in find_homs(z2_xor(), z2_xor()):
        g = compose(h, phi0)
        phi = hom_factor(g, h)
        for c in range(h.dst.size):
            fiber_values = {g.image[a] for a in range(4) if h.image[a] == c}
            assert fiber_values == {phi.image[c]}


def _unary_identity(size):
    """An algebra on which every map is a hom: one unary identity operation."""
    return algebra(signature(("u", 1)), size, {"u": list(range(size))})


def _factor_outcome(factor, g, h):
    try:
        return "map", factor(g, h).image
    except NotSurjectiveError as e:
        return "not-surjective", e.missing
    except KernelInclusionError as e:
        return "kernel-pair", e.pair


def test_hom_factor_matches_the_pairwise_oracle():
    # random maps between identity algebras, where every map is a hom: the
    # class scan reports the witness, or the factor map, of the sorted scan
    rng = random.Random(19)
    outcomes = set()
    for _ in range(400):
        n, k = rng.randrange(1, 9), rng.randrange(1, 5)
        src, hdst, gdst = _unary_identity(n), _unary_identity(k), _unary_identity(3)
        h = CarrierMap(src, hdst, tuple(rng.randrange(k) for _ in range(n)))
        image = [rng.randrange(3) for _ in range(k)]
        g_image = [image[c] for c in h.image]  # factors through h ...
        for _ in range(rng.randrange(3)):  # ... until some values are moved
            g_image[rng.randrange(n)] = rng.randrange(3)
        g = CarrierMap(src, gdst, tuple(g_image))
        outcome = _factor_outcome(hom_factor, g, h)
        assert outcome == _factor_outcome(hom_factor_pairwise, g, h)
        outcomes.add(outcome[0])
    assert outcomes == {"map", "not-surjective", "kernel-pair"}


def test_hom_factor_scans_the_classes_not_the_kernel_pairs(monkeypatch):
    # ker h holds n^2 pairs: 3000 elements took 40 s and 1.2 GB through them
    def refuse(m):
        raise AssertionError("kernel_pairs called")

    monkeypatch.setattr(homs, "kernel_pairs", refuse)
    src = _unary_identity(3000)
    const = CarrierMap(src, _unary_identity(1), (0,) * 3000)
    assert hom_factor(const, const).image == (0,)
    moved = CarrierMap(src, _unary_identity(2), (0,) * 2999 + (1,))
    with pytest.raises(KernelInclusionError) as info:
        hom_factor(moved, const)
    assert info.value.pair == (0, 2999)


def test_find_homs_matches_brute_force_oracle():
    # search spaces up to 4^4 = 256 candidate maps
    pool = [z2_xor(), semilattice2(SIG_F), z3_add(), z4_add()]
    flag_combos = [(None, None), (True, None), (None, True), (True, True)]
    for src, dst in itertools.product(pool, repeat=2):
        for surjective, injective in flag_combos:
            got = [m.image for m in find_homs(src, dst, surjective, injective)]
            assert got == brute_force_homs(src, dst, surjective, injective)


def _on_recheck(monkeypatch, record):
    """Call record on each batch of images the hom search's leaf re-check
    is called on, as the searches run."""
    real = homs._recheck

    def recording(src, dst):
        check = real(src, dst)
        return lambda images: record(images) or check(images)

    monkeypatch.setattr(homs, "_recheck", recording)


def record_batches(monkeypatch):
    """The length of each batch the leaf re-check is called on."""
    batches = []
    _on_recheck(monkeypatch, lambda images: batches.append(len(images)))
    return batches


def count_leaves(monkeypatch):
    """The images the hom search's leaf re-check is called on, each image of
    a batch in order, recorded as the searches run."""
    calls = []
    _on_recheck(monkeypatch, lambda images: calls.extend(map(tuple, images)))
    return calls


@pytest.mark.parametrize("factor, found, leaves", [
    (semilattice2(SIG_F), 9, 9),
    (z2_xor(), 8, 8),
])
def test_find_homs_prunes_on_the_element_just_assigned(monkeypatch, factor, found, leaves):
    # Every complete image reaches the leaf re-check; pruning on the source
    # element just assigned leaves only the homs themselves for these cubes.
    calls = count_leaves(monkeypatch)
    assert len(find_homs(product([factor] * 3).alg, factor)) == found
    assert 0 < len(calls) <= leaves


def test_find_homs_fixed_assignment():
    src = dst = z2_xor()
    got = [m.image for m in find_homs(src, dst, fixed={1: 1})]
    assert got == brute_force_homs(src, dst, fixed={1: 1}) == [(0, 1)]


def test_find_homs_on_z2_xor_examples():
    maps = [m.image for m in find_homs(z2_xor(), z2_xor())]
    assert maps == [(0, 0), (0, 1)]
    isos = find_homs(z2_xor(), z2_xor(), surjective=True, injective=True)
    assert [m.image for m in isos] == [(0, 1)]


def test_homs_from_singleton_hit_idempotents():
    one = algebra(SIG_F, 1, {"f": [0]})
    for dst in (z2_xor(), semilattice2(SIG_F), z3_add()):
        idempotents = [
            e for e in range(dst.size) if apply_op(dst, "f", [e, e]) == e
        ]
        maps = find_homs(one, dst)
        assert [m.image[0] for m in maps] == idempotents


def test_find_homs_deterministic_and_ordered():
    first = [m.image for m in find_homs(z3_add(), z3_add())]
    second = [m.image for m in find_homs(z3_add(), z3_add())]
    assert first == second == sorted(first)


def test_search_cap():
    # the cap counts target values tried at branch points: four at 0, where
    # only 0 -> 0 survives propagation, then four at 1
    with pytest.raises(
        SearchCapError,
        match=r"^hom search values tried at branch points: 8 exceeds cap search=7; "
        r"raise it with UALG_CAPS=search=N$",
    ):
        find_homs(z4_add(), z4_add(), caps=Caps(search=7))
    assert len(find_homs(z4_add(), z4_add(), caps=Caps(search=8))) == 4


def test_search_cap_counts_branch_points_past_fixed_elements_and_constants():
    # {1} generates Z4, so pinning 1 leaves nothing to branch on; {0} is a
    # subalgebra, so pinning 0 leaves one branch point with four values
    assert [m.image for m in find_homs(z4_add(), z4_add(), fixed={1: 3}, caps=Caps(search=0))] == [
        (0, 3, 2, 1)
    ]
    assert len(find_homs(z4_add(), z4_add(), fixed={0: 0}, caps=Caps(search=4))) == 4
    with pytest.raises(
        SearchCapError,
        match=r"^hom search values tried at branch points: 4 exceeds cap search=3; "
        r"raise it with UALG_CAPS=search=N$",
    ):
        find_homs(z4_add(), z4_add(), fixed={0: 0}, caps=Caps(search=3))
    # the unit 1 of mul3 is a constant; 0 takes three values, two of them
    # idempotent, and then 2 takes three values under each
    assert len(find_homs(mul3_with_unit(), mul3_with_unit(), caps=Caps(search=9))) == 3
    with pytest.raises(
        SearchCapError,
        match=r"^hom search values tried at branch points: 9 exceeds cap search=8; "
        r"raise it with UALG_CAPS=search=N$",
    ):
        find_homs(mul3_with_unit(), mul3_with_unit(), caps=Caps(search=8))
    # constants_only names 2 and 0, so 1 is its one branch point
    assert len(find_homs(constants_only(), constants_only(), caps=Caps(search=3))) == 3
    with pytest.raises(
        SearchCapError,
        match=r"^hom search values tried at branch points: 3 exceeds cap search=2; "
        r"raise it with UALG_CAPS=search=N$",
    ):
        find_homs(constants_only(), constants_only(), caps=Caps(search=2))


def relabel(alg, perm):
    """alg with each element a renamed perm[a]."""
    tables = {}
    for (name, arity), table in zip(alg.sig.ops, alg.tables):
        renamed = [0] * len(table)
        cells = {args: at for at, args in enumerate(itertools.product(range(alg.size), repeat=arity))}
        for args, at in cells.items():
            renamed[cells[tuple(perm[a] for a in args)]] = perm[table[at]]
        tables[name] = renamed
    return algebra(alg.sig, alg.size, tables)


def relabelled_product(factors, seed=0):
    alg = product(factors).alg
    perm = list(range(alg.size))
    random.Random(seed).shuffle(perm)
    return relabel(alg, perm)


MAJORITY_TABLE = [sorted(args)[1] for args in itertools.product(range(2), repeat=3)]
SWAP = algebra(SIG_G, 2, {"g": [1, 0]})
MAJORITY = algebra(SIG_T, 2, {"t": MAJORITY_TABLE})
MIXED2 = algebra(SIG_MIXED, 2, {"g": [1, 0], "e": [0], "t": MAJORITY_TABLE})
MALCEV7 = algebra(SIG_T, 7, {"t": [(x - y + z) % 7 for x, y, z in itertools.product(range(7), repeat=3)]})
DIFFERENTIAL_POOLS = {
    "binary": [
        z2_xor(), semilattice2(SIG_F), z3_add(), z4_add(),
        relabelled_product([z2_xor(), z2_xor()]),
        relabelled_product([z2_xor(), z3_add()]),
        relabelled_product([semilattice2(SIG_F), semilattice2(SIG_F)]),
    ],
    "unary": [
        z5_successor(), SWAP, algebra(SIG_G, 3, {"g": [1, 2, 2]}),
        relabelled_product([SWAP, algebra(SIG_G, 3, {"g": [1, 2, 0]})]),
    ],
    "ternary": [z3_malcev(), chain3_median(), MAJORITY, relabelled_product([MAJORITY, MAJORITY])],
    "constant": [
        mul3_with_unit(), semilattice2_with_top(),
        relabelled_product([semilattice2_with_top(), semilattice2_with_top()]),
        relabelled_product([mul3_with_unit(), semilattice2_with_top()]),
    ],
    "constants-only": [
        constants_only(), algebra(SIG_CONST, 2, {"c": [1], "d": [1]}),
        algebra(SIG_CONST, 2, {"c": [0], "d": [1]}),
    ],
    "mixed": [mixed_arities(), MIXED2, relabelled_product([MIXED2, MIXED2])],
    # targets past lane_plan's fit rule (7^3 cells > 256): the leaf re-check
    # falls back to hom_violation
    "ternary-past-the-fit": [MALCEV7, z3_malcev(), MAJORITY],
    "mixed-past-the-fit": [mixed_arities(7), MIXED2],
}


def _pins(src, dst):
    """Maps pinning one element, and maps pinning the first and last."""
    pins = [{a: b} for a in range(src.size) for b in range(dst.size)]
    return pins + [{0: b, src.size - 1: dst.size - 1 - b} for b in range(dst.size)]


@pytest.mark.parametrize("pool", DIFFERENTIAL_POOLS.values(), ids=DIFFERENTIAL_POOLS.keys())
def test_iter_homs_matches_the_elementwise_oracle(pool):
    # same images in the same order, for every flag combination and for
    # maps pinning one or two elements
    found = 0
    for src, dst in itertools.product(pool, repeat=2):
        for surjective, injective in itertools.product((None, True, False), repeat=2):
            got = [m.image for m in iter_homs(src, dst, surjective, injective)]
            assert got == [m.image for m in iter_homs_elementwise(src, dst, surjective, injective)]
            found += len(got)
        for fixed in _pins(src, dst):
            for flags in ((None, None), (True, True)):
                got = [m.image for m in iter_homs(src, dst, *flags, fixed=fixed)]
                assert got == [m.image for m in iter_homs_elementwise(src, dst, *flags, fixed=fixed)]
    assert found > 0


@pytest.mark.parametrize("pool", DIFFERENTIAL_POOLS.values(), ids=DIFFERENTIAL_POOLS.keys())
def test_iter_homs_matches_the_per_value_oracle(pool):
    # the values passing a branch point's one scan, each propagated from
    # its forcing entries, reach the same images in the same order as
    # propagating every value: for every flag combination, unpinned or
    # pinning one or two elements, with complete images re-checked in
    # batches where the oracle re-checks each alone; each map, yielded
    # without validation, equals a validated rebuild and keeps the
    # shared-key instance dict
    for src, dst in itertools.product(pool, repeat=2):
        for fixed in [None, *_pins(src, dst)]:
            for flags in itertools.product((None, True, False), repeat=2):
                maps = list(iter_homs(src, dst, *flags, fixed=fixed))
                assert [m.image for m in maps] == [m.image for m in iter_homs_pervalue(src, dst, *flags, fixed=fixed)]
                rebuilt = [CarrierMap(src, dst, m.image) for m in maps]
                assert maps == rebuilt
                assert [sys.getsizeof(vars(m)) for m in maps] == [sys.getsizeof(vars(m)) for m in rebuilt]


BUFFER_PAIRS = {
    "C5->C5": ("C", 5, 5, (None, None)),
    "C6->C6": ("C", 6, 6, (None, None)),
    "L4->L4": ("L", 4, 4, (None, None)),
    "L5->L5": ("L", 5, 5, (None, None)),
    "injective L5->L5": ("L", 5, 5, (None, True)),
    "injective L6->L6": ("L", 6, 6, (None, True)),
    "surjective L5->L3": ("L", 5, 3, (True, None)),
    # False flags are decided by the filter alone, on each image of each buffer
    "non-surjective L5->L3": ("L", 5, 3, (False, None)),
    "non-injective L4->L4": ("L", 4, 4, (None, False)),
}


@pytest.mark.parametrize("kind, n, m, flags", BUFFER_PAIRS.values(), ids=BUFFER_PAIRS.keys())
def test_iter_homs_buffer_matches_the_per_value_oracle(monkeypatch, kind, n, m, flags):
    # complete images from many last branch points share one buffer, re-checked
    # 256 // n at a time: the same images in the same order as re-checking
    # each alone, on relabelled chains and left-zero bands
    op = min if kind == "C" else lambda a, b: a
    src, dst = (relabelled_product([_binary(k, op)], seed) for k, seed in ((n, n), (m, m + 1)))
    calls = count_leaves(monkeypatch)
    got = [m.image for m in iter_homs(src, dst, *flags)]
    assert got == [m.image for m in iter_homs_pervalue(src, dst, *flags)]
    assert len(got) > 256 // n and sorted(calls) == sorted(set(calls))


def test_z3_squared_endomorphisms_need_one_leaf_each(monkeypatch):
    # Z3^2 is generated by two elements: 9^2 candidate maps, not 9^9
    calls = count_leaves(monkeypatch)
    z3_squared = product([z3_add(), z3_add()]).alg
    assert len(find_homs(z3_squared, z3_squared)) == 81
    assert len(calls) == 81


BAND3 = algebra(SIG_F, 3, {"f": [0, 0, 0, 1, 1, 1, 2, 2, 2]})
BAND3_BROKEN = algebra(SIG_F, 3, {"f": [0, 0, 1, 1, 1, 1, 2, 2, 2]})  # left-zero but for f(0, 2) = 1
BAND4_BROKEN = algebra(SIG_F, 4, {"f": [a if (a, b) != (2, 3) else 0 for a in range(4) for b in range(4)]})


def test_a_complete_image_that_is_not_a_hom_raises(monkeypatch):
    # with propagation switched off every map is a leaf, the first image is
    # re-checked alone and the later ones share a buffer: a lazy consumer
    # gets each hom before the first image that is not one, which must
    # raise rather than be dropped.  Z3 -> Z3: (0, 0, 0)
    # is a hom and (0, 0, 1) is not; L3 into a band broken at f(0, 2):
    # (0, 0, 0) and (0, 0, 1) are homs, (0, 0, 2) is not; L3 into L4 broken
    # at f(2, 3): the first image sending one element to 2 and one to 3 is
    # (0, 2, 3), in the buffer after the images (0, 1, *) of the branch
    # point before it.
    real = homs._Search.__init__

    def no_propagation(self, *args):
        real(self, *args)
        self.ops = []

    monkeypatch.setattr(homs._Search, "__init__", no_propagation)
    for src, dst, first, text in [
        (z3_add(), z3_add(), [(0, 0, 0)], r"\(0, 0, 1\), not a hom at f\(1, 1\)"),
        (BAND3, BAND3_BROKEN, [(0, 0, 0), (0, 0, 1)], r"\(0, 0, 2\), not a hom at f\(0, 2\)"),
        (BAND3, BAND4_BROKEN, [(0, a, b) for a in range(3) for b in range(4)][:-1], r"\(0, 2, 3\), not a hom at f\(1, 2\)"),
    ]:
        gen = iter_homs(src, dst)
        assert [next(gen).image for _ in first] == first
        with pytest.raises(UalgError, match=rf"^hom search reached {text}$"):
            next(gen)


def _random_hom(rng, sig, n, m):
    """Random algebras src and dst of sizes n and m with a hom src -> dst:
    dst keeps the image closed, and src's entries are preimages."""
    h = [rng.randrange(m) for _ in range(n)]
    inside = sorted(set(h))
    fibers = {b: [a for a in range(n) if h[a] == b] for b in inside}
    src_tables, dst_tables = {}, {}
    for name, arity in sig.ops:
        dst_tables[name] = [
            rng.choice(inside) if all(x in fibers for x in args) else rng.randrange(m)
            for args in itertools.product(range(m), repeat=arity)
        ]
    dst = algebra(sig, m, dst_tables)
    for name, arity in sig.ops:
        src_tables[name] = [
            rng.choice(fibers[apply_op(dst, name, [h[a] for a in args])])
            for args in itertools.product(range(n), repeat=arity)
        ]
    return algebra(sig, n, src_tables), dst, tuple(h)


def _first_failure(check, batch):
    """The first (index, witness) of a single-image check over batch, or None."""
    return next(((i, w) for i, image in enumerate(batch) if (w := check(image)) is not None), None)


@pytest.mark.parametrize("sig, sizes", [
    (signature(("g", 1), ("c", 0), ("f", 2), ("t", 3)), [(1, 1), (3, 2), (5, 4), (4, 6), (3, 7), (6, 8)]),
    (signature(("g", 1), ("c", 0)), [(9, 200), (12, 257), (257, 3), (300, 1)]),
], ids=["all-arities", "unary-and-constant"])
def test_leaf_recheck_matches_hom_violation(monkeypatch, sig, sizes):
    # a batch of images, the hom repeated with one image a value away from
    # it at a random place and random ones after: the re-check returns the
    # first image that is not a hom and hom_violation's witness for it, or
    # None, as the single-image oracle does, on both sides of lane_plan's
    # fit rule and of |src| = 256, for batches short and longer than
    # 256 // |src| (split into chunks of that many, each padded to a power
    # of two); within both, on a batch of homs, it never calls hom_violation
    rng = random.Random(22)
    outcomes = set()
    for n, m in sizes:
        for _ in range(30):
            src, dst, h = _random_hom(rng, sig, n, m)
            lanes = lane_plan([dst], sig) is not None and n <= 256
            nudges = [h[:a] + (rng.randrange(m),) + h[a + 1 :] for a in rng.choices(range(n), k=4)]
            length = rng.randrange(1, 4) + (256 // n if rng.random() < 0.5 else 0)
            # in a batch past one chunk, the first nudge sits at the end of the first chunk or after it
            where = rng.randrange(max(256 // n - 1, 0) if length > 256 // n else 0, length + 1)
            batch = ([h] * where + [nudges[0]] + [rng.choice([h, *nudges]) for _ in range(length)])[:length]
            want = _first_failure(lambda image: hom_violation(CarrierMap(src, dst, image)), batch)
            assert want == _first_failure(recheck_single(src, dst), batch)
            with monkeypatch.context() as patch:
                if lanes and want is None:
                    patch.setattr(homs, "hom_violation", lambda m: pytest.fail("hom_violation called"))
                assert homs._recheck(src, dst)(batch) == want
            chunk = 256 // n if lanes else length
            outcomes.add((lanes, "hom" if want is None else "first" if not want[0] else
                          "later" if want[0] < chunk else "later chunk"))
    assert outcomes == {(True, "later chunk")} | {
        (lanes, kind) for lanes in (True, False) for kind in ("hom", "first", "later")
    }


def test_recheck_raises_where_the_lanes_fail_what_hom_violation_passes(monkeypatch):
    # the lanes only decide whether a chunk passes: a lane kernel corrupted
    # to fail every chunk sends each to hom_violation, which passes these
    # homs, so the disagreement raises, from _recheck and from the search
    real = homs.lane_pointwise
    monkeypatch.setattr(homs, "lane_pointwise", lambda plan, members: (
        lambda name, args, apply=real(plan, members): apply(name, args) + b"\0"))
    message = "^hom re-check: the lanes fail a chunk that hom_violation passes$"
    for images in ([(0, 1, 2)], [(0, 1, 2), (0, 0, 0), (0, 2, 1)]):
        with pytest.raises(UalgError, match=message):
            homs._recheck(z3_add(), z3_add())(images)
    with pytest.raises(UalgError, match=message):
        find_homs(z3_add(), z3_add())
    # past the fit rule there are no lanes to corrupt
    assert len(find_homs(MALCEV7, MALCEV7, injective=True)) == 42


@pytest.mark.parametrize("first", [
    lambda: check_leq(relabelled_product([BAND4], 1), relabelled_product([BAND5], 2)),
    lambda: find_isomorphism(relabelled_product([_binary(6, min)], 5), relabelled_product([_binary(6, min)], 6)),
], ids=["check_leq L4 <= L5", "find_isomorphism C6"])
def test_first_map_callers_recheck_one_image(monkeypatch, first):
    # the first complete image is handed over alone: a caller that takes
    # only the first map re-checks that map and no more
    batches = record_batches(monkeypatch)
    assert first() is not None
    assert batches == [1]


def test_the_buffer_goes_at_one_lane_pass_after_the_first_image(monkeypatch):
    # then at 256 // |src| images and at the end of the search, whether the
    # images come from last branch points (L5) or from propagation (Z7)
    batches = record_batches(monkeypatch)
    assert len(find_homs(BAND5, BAND5)) == 5**5
    assert batches == [1] + [256 // 5] * 61 + [5**5 - 1 - 51 * 61]
    batches.clear()
    assert len(find_homs(z_add(7), z_add(7))) == 7
    assert batches == [1, 6]


def test_relabelled_z2_cube_isomorphism_under_default_caps():
    cube = product([z2_xor()] * 3).alg
    twisted = relabelled_product([z2_xor()] * 3, seed=5)
    f, g = find_isomorphism(cube, twisted)
    assert classify(f).is_hom and classify(f).injective and classify(g).is_hom
    assert compose(f, g).image == identity_map(cube).image


@pytest.mark.parametrize(
    "factor, k",
    [(semilattice2(SIG_F), 4), (z2_xor(), 4), (semilattice2(SIG_F), 5), (z2_xor(), 5)],
    ids=["C2^4", "Z2^4", "C2^5", "Z2^5"],
)
def test_relabelled_powers_are_isomorphic_under_default_caps(factor, k):
    # their static spaces (16^16, 16^5, 32^32, 32^6) are far over the cap;
    # the values the search tries are not
    power = product([factor] * k).alg
    twisted = relabelled_product([factor] * k)
    f, g = find_isomorphism(power, twisted)
    assert hom_violation(f) is None and hom_violation(g) is None
    assert compose(f, g).image == identity_map(power).image
    assert compose(g, f).image == identity_map(twisted).image


def test_search_cap_bounds_the_values_tried_not_the_space():
    # C2^4 against a relabelled copy: 4584 values tried find the first
    # isomorphism, one fewer does not
    power = product([semilattice2(SIG_F)] * 4).alg
    twisted = relabelled_product([semilattice2(SIG_F)] * 4)
    assert find_isomorphism(power, twisted, Caps(search=4584)) is not None
    with pytest.raises(
        SearchCapError,
        match=r"^hom search values tried at branch points: 4584 exceeds cap search=4583; "
        r"raise it with UALG_CAPS=search=N$",
    ):
        find_isomorphism(power, twisted, Caps(search=4583))


def _binary(n, op):
    return algebra(SIG_F, n, {"f": [op(a, b) for a, b in itertools.product(range(n), repeat=2)]})


def _per_value_trail(src, dst, flags, first):
    """The per-value oracle run once under a stand-in for Caps whose search
    cap is -1, so that it reports every value it tries: for each, in order,
    the count of images yielded before it; and the images (only the first
    when first)."""
    images, before = [], []

    class EveryValue:
        search = -1

        def check(self, key, amount, what):
            assert (key, amount, what) == ("search", len(before) + 1, "hom search values tried at branch points")
            before.append(len(images))

    for m in iter_homs_pervalue(src, dst, *flags, caps=EveryValue()):
        images.append(m.image)
        if first:
            break
    return images, before


CHAIN5, BAND4, BAND5 = _binary(5, min), _binary(4, lambda a, b: a), _binary(5, lambda a, b: a)
CAP_DIFFERENTIAL = {
    "C5->C5": (relabelled_product([CHAIN5], 1), relabelled_product([CHAIN5], 2), (None, None), False),
    "L4->L4": (relabelled_product([BAND4], 3), relabelled_product([BAND4], 4), (None, None), False),
    "surjective Z6->Z3": (relabelled_product([z_add(6)], 5), z3_add(), (True, None), False),
    "C2^4 isomorphism": (
        product([semilattice2(SIG_F)] * 4).alg, relabelled_product([semilattice2(SIG_F)] * 4), (True, True), True,
    ),
    # one image per last branch point: the cap trips with the images of
    # several branch points in the buffer
    "injective L5->L5": (relabelled_product([BAND5], 6), relabelled_product([BAND5], 7), (None, True), False),
    # the filter drops the surjections, so some buffers yield fewer images than they hold
    "non-surjective L4->L3": (relabelled_product([BAND4], 8), relabelled_product([BAND3], 9), (False, None), False),
}


@pytest.mark.parametrize("src, dst, flags, first", CAP_DIFFERENTIAL.values(), ids=CAP_DIFFERENTIAL.keys())
def test_search_cap_trips_where_the_per_value_oracle_does(src, dst, flags, first):
    # values pruned by a branch point's mask still count: at every cap up to
    # the oracle's total values tried, the same images are yielded before
    # the same SearchCapError, and at the total none is raised
    images, before = _per_value_trail(src, dst, flags, first)
    assert images
    for cap in range(len(before) + 1):
        got, error = [], None
        try:
            for m in iter_homs(src, dst, *flags, caps=Caps(search=cap)):
                got.append(m.image)
                if first:
                    break
        except SearchCapError as e:
            error = str(e)
        if cap < len(before):
            want = f"hom search values tried at branch points: {cap + 1} exceeds cap search={cap}; "
            assert (got, error) == (images[: before[cap]], want + "raise it with UALG_CAPS=search=N")
        else:
            assert (got, error) == (images, None)


def test_isomorphism_is_an_equivalence():
    # a pool including relabeled copies
    twisted = algebra(SIG_F, 2, {"f": [1, 0, 0, 1]})  # xor with 0/1 swapped
    pool = [z2_xor(), twisted, semilattice2(SIG_F), z3_add()]
    for a in pool:
        assert is_isomorphic(a, a)
    for a, b in itertools.product(pool, repeat=2):
        assert is_isomorphic(a, b) == is_isomorphic(b, a)
    for a, b, c in itertools.product(pool, repeat=3):
        if is_isomorphic(a, b) and is_isomorphic(b, c):
            assert is_isomorphic(a, c)
    pair = find_isomorphism(z2_xor(), twisted)
    assert pair is not None
    f, g = pair
    assert compose(f, g).image == identity_map(z2_xor()).image


def test_injective_search_prunes_the_used_values(monkeypatch):
    # every map of a left-zero band is a hom, so only the used-value prune
    # keeps the non-injective maps from the leaf re-check
    calls = count_leaves(monkeypatch)
    assert len(find_homs(BAND4, BAND4, injective=True)) == 24
    assert len(calls) == 24


def test_surjective_search_prunes_in_the_last_batch(monkeypatch):
    # every map L4 -> L3 is a hom; at the last element only the values that
    # leave no target value unused reach the re-check: the 3^4 - 3 * 2^4 + 3
    # surjections, not the 72 maps whose first three values use two or more
    calls = count_leaves(monkeypatch)
    assert len(find_homs(BAND4, BAND3, surjective=True)) == 36
    assert len(calls) == 36


@pytest.mark.parametrize("size", [2, 3], ids=["equal-sizes", "different-sizes"])
def test_find_isomorphism_checks_signatures_before_sizes(size):
    # a mismatch is an error, never None ("not isomorphic"), whatever the sizes
    other = algebra(SIG_G, size, {"g": [0] * size})
    for a, b in [(z2_xor(), other), (other, z2_xor())]:
        with pytest.raises(SignatureMismatchError):
            find_isomorphism(a, b)
        with pytest.raises(SignatureMismatchError):
            is_isomorphic(a, b)


def test_find_isomorphism_rechecks_the_inverse(monkeypatch):
    # a bijective hom has a hom inverse; a search yielding a bijection that
    # is not a hom is caught by the re-check, also under python -O
    swap = CarrierMap(z2_xor(), z2_xor(), (1, 0))
    assert not classify(swap).is_hom
    monkeypatch.setattr(homs, "iter_homs", lambda *args, **kwargs: iter([swap]))
    with pytest.raises(UalgError, match=r"inverse of \(1, 0\) is not a hom at f\(0, 0\)$"):
        find_isomorphism(z2_xor(), z2_xor())


def test_iter_homs_is_lazy():
    gen = iter_homs(z2_xor(), z2_xor())
    assert next(gen).image == (0, 0)
