import itertools
import random
import sys
import time

import pytest

from ualg import (
    CarrierMap,
    build_free,
    Var,
    algebra,
    apply_op,
    check_leq,
    classify,
    congruences,
    enumerate_terms,
    evaluate,
    find_isomorphism,
    find_models,
    hsp_certificate_check,
    signature,
    product,
    quotient,
    subalgebra_generate,
    trivial_certificate,
    var_to_eqcl_check,
)
from ualg import closure
from ualg.closure import CertCheckResult, EmptyCarrierError, HspCertificate, subuniverses
from ualg.core import CapExceededError, Caps, FiniteAlgebra, SignatureMismatchError, UalgError
from ualg.homs import NotAHomError
from ualg.terms import all_environments

from oracles import (
    _set_partitions,
    congruences_bruteforce,
    hom_image,
    quotient_apply_op,
    trivial_certificate_every_subset,
)
from samples import (
    SIG_F,
    SIG_FE,
    all_binary_size2,
    certified_square_images,
    chain3_median,
    constants_only,
    easy_laws,
    mixed_arities,
    mul3_with_unit,
    semilattice2,
    z2_xor,
    z3_add,
    z3_malcev,
    z4_add,
    z5_successor,
    z_add,
    z_successor,
)

X, Y = Var("x"), Var("y")


def test_product_componentwise_example():
    square = product([z2_xor(), z2_xor()])
    a = square.encode((0, 1))
    b = square.encode((1, 1))
    result = apply_op(square.alg, "f", [a, b])
    assert square.decode(result) == (1, 0)


def test_product_size_and_codec():
    p = product([z2_xor(), z3_add()])
    assert p.alg.size == 6
    for i in range(6):
        assert p.encode(p.decode(i)) == i
    assert p.decode(0) == (0, 0)
    assert p.decode(5) == (1, 2)  # factor 0 most significant


def test_unary_product_is_the_factor():
    p = product([z3_add()])
    assert p.alg == z3_add()
    for i in range(3):
        assert p.decode(i) == (i,)


def test_product_caps_and_mismatch():
    with pytest.raises(CapExceededError):
        product([z4_add(), z4_add()], Caps(carrier=10))
    with pytest.raises(SignatureMismatchError):
        product([z2_xor(), semilattice2()])


def test_interpretation_in_a_product_is_componentwise():
    factors = [z2_xor(), semilattice2(SIG_F)]
    p = product(factors)
    terms = enumerate_terms(SIG_F, ["x", "y"], 3)
    for rho in all_environments(["x", "y"], p.alg.size):
        parts = [
            {v: p.decode(c)[i] for v, c in rho.items()}
            for i in range(len(factors))
        ]
        for t in terms:
            combined = evaluate(p.alg, t, rho)
            assert p.decode(combined) == tuple(
                evaluate(f, t, parts[i]) for i, f in enumerate(factors)
            )


def test_componentwise_embedding_of_subalgebra_products():
    # P(S K) <= S(P K): embed a product of subalgebras into the product
    sub1, inc1 = subalgebra_generate(z4_add(), [2])
    sub2, inc2 = subalgebra_generate(semilattice2(SIG_F), [1])
    big = product([z4_add(), semilattice2(SIG_F)])
    small = product([sub1, sub2])
    image = tuple(
        big.encode((inc1.image[a], inc2.image[b]))
        for a, b in (small.decode(i) for i in range(small.alg.size))
    )
    embedding = CarrierMap(small.alg, big.alg, image)
    cls = classify(embedding)
    assert cls.is_hom and cls.injective


def test_subalgebra_generate_examples():
    sub, inc = subalgebra_generate(z4_add(), [2])
    assert sub.size == 2
    assert inc.image == (2, 0)  # discovery order: generator first, then 2+2
    cls = classify(inc)
    assert cls.is_hom and cls.injective

    full, inc_full = subalgebra_generate(z4_add(), range(4))
    assert full == z4_add()
    assert inc_full.image == (0, 1, 2, 3)

    everything, _ = subalgebra_generate(z4_add(), [1])
    assert everything.size == 4


def test_subalgebra_generate_is_a_fixpoint():
    sub, _ = subalgebra_generate(z4_add(), [2])
    again, inc = subalgebra_generate(sub, range(sub.size))
    assert again == sub
    assert inc.image == tuple(range(sub.size))


def test_subalgebra_generate_empty_gens():
    with pytest.raises(EmptyCarrierError):
        subalgebra_generate(z2_xor(), [])
    with_const = algebra(SIG_FE, 3, {"f": [(a + b) % 3 for a in range(3) for b in range(3)], "e": [1]})
    sub, inc = subalgebra_generate(with_const, [])
    # e = 1 generates 1, 1+1=2, 2+1=0: everything
    assert sub.size == 3
    assert inc.image == (1, 2, 0)


def test_subalgebra_generate_rejects_foreign_generators():
    with pytest.raises(ValueError):
        subalgebra_generate(z2_xor(), [5])


def test_hom_image_examples():
    img, onto = hom_image(z4_add(), CarrierMap(z4_add(), z2_xor(), (0, 1, 0, 1)))
    assert img == z2_xor()
    assert onto.image == (0, 1, 0, 1)

    same, onto_id = hom_image(z3_add(), CarrierMap(z3_add(), z3_add(), (0, 1, 2)))
    assert same == z3_add()

    point, _ = hom_image(z2_xor(), CarrierMap(z2_xor(), z2_xor(), (0, 0)))
    assert point.size == 1


def test_hom_image_rejects_non_homs():
    with pytest.raises(NotAHomError) as exc:
        hom_image(z2_xor(), CarrierMap(z2_xor(), z2_xor(), (1, 1)))
    assert exc.value.witness == ("f", (0, 0))


CON_SAMPLES = [*all_binary_size2(), z5_successor(), z3_malcev(), chain3_median(),
               constants_only(), mixed_arities(), mul3_with_unit()]


@pytest.mark.parametrize("alg", CON_SAMPLES)
def test_congruences_match_the_set_partition_oracle(alg):
    assert congruences(alg) == congruences_bruteforce(alg)


@pytest.mark.parametrize("laws", [("assoc",), ("comm", "idem")])
def test_congruences_of_the_model_representatives_match_the_oracle(laws):
    for size in range(1, 5):
        for alg in find_models(SIG_F, easy_laws(laws), size)[0]:
            assert congruences(alg) == congruences_bruteforce(alg)


def test_congruences_examples():
    assert congruences(z3_add()) == [(0, 0, 0), (0, 1, 2)]  # simple
    assert congruences(z4_add()) == [(0, 0, 0, 0), (0, 1, 0, 1), (0, 1, 2, 3)]
    # no translations: every partition of the 3 constants' carrier
    assert len(congruences(constants_only())) == 5


def test_congruences_are_capped():
    with pytest.raises(
        CapExceededError,
        match=r"^congruences found in a size-3 algebra: 5 exceeds cap cells=4; "
        r"raise it with UALG_CAPS=cells=N$",
    ):
        congruences(constants_only(), Caps(cells=4))
    assert len(congruences(constants_only(), Caps(cells=5))) == 5


def test_quotient_by_a_congruence():
    quo, nat = quotient(z4_add(), (0, 1, 0, 1))
    assert quo == z2_xor()
    assert nat.image == (0, 1, 0, 1)
    cls = classify(nat)
    assert cls.is_hom and cls.surjective
    # blocks are labelled in ascending order of their least elements
    quo, nat = quotient(chain3_median(), (0, 0, 2))
    assert nat.image == (0, 0, 1) and quo.size == 2
    assert quotient(z3_add(), (0, 1, 2))[0] == z3_add()
    assert quotient(z3_add(), (0, 0, 0))[0].size == 1


def test_quotient_rejects_partitions_that_are_not_congruences():
    with pytest.raises(UalgError) as exc:
        quotient(z3_add(), (0, 1, 0))
    assert str(exc.value) == (
        "{0,2}|{1} is not a congruence: f(1, 2) = 0 and f(1, 0) = 1 lie in different blocks"
    )
    for bad in [(1, 1, 2), (0, 1), (0, 0, 1), (0, 1, 3)]:
        with pytest.raises(UalgError, match="least of its block"):
            quotient(z3_add(), bad)


QUOTIENT_SAMPLES = [*all_binary_size2(), z4_add(), z_successor(4), z3_malcev(),
                    chain3_median(), constants_only(), mixed_arities(), mul3_with_unit()]


@pytest.mark.parametrize("alg", QUOTIENT_SAMPLES)
def test_quotient_matches_the_apply_op_oracle_on_every_partition(alg):
    compatible = []
    for theta in _set_partitions(alg.size):
        try:
            expected = quotient_apply_op(alg, theta)
        except UalgError as failure:
            with pytest.raises(UalgError) as exc:
                quotient(alg, theta)
            assert str(exc.value) == str(failure)
        else:
            assert quotient(alg, theta) == expected
            compatible.append(theta)
    assert sorted(compatible) == congruences(alg)


def _relabelled(alg, seed):
    """alg with its elements renamed by a random permutation."""
    perm = list(range(alg.size))
    random.Random(seed).shuffle(perm)
    tables = {}
    for (name, arity), table in zip(alg.sig.ops, alg.tables):
        renamed = [0] * len(table)
        for at, args in enumerate(itertools.product(range(alg.size), repeat=arity)):
            renamed[sum(perm[a] * alg.size ** (arity - 1 - i) for i, a in enumerate(args))] = perm[table[at]]
        tables[name] = renamed
    return algebra(alg.sig, alg.size, tables)


@pytest.mark.parametrize("alg", QUOTIENT_SAMPLES)
def test_trusted_kernel_outputs_equal_validated_rebuilds(alg, monkeypatch):
    """subalgebra_generate (the subalgebra and the inclusion), quotient (the
    quotient and the natural map) and find_isomorphism's inverse build
    their outputs with no validation; each equals the object validating
    its fields builds, down to the operation index and the size of the
    instance dict."""
    twisted = _relabelled(alg, alg.size)
    validated = []
    for cls in (FiniteAlgebra, CarrierMap):
        monkeypatch.setattr(cls, "__post_init__", lambda self, real=cls.__post_init__: validated.append(self) or real(self))
    outputs = []
    for r in range(1, alg.size + 1):
        for gens in itertools.combinations(range(alg.size), r):
            outputs += subalgebra_generate(alg, gens)
    for theta in congruences(alg):
        outputs += quotient(alg, theta)
    outputs.append(find_isomorphism(alg, twisted)[1])
    assert validated == []
    for got in outputs:
        if isinstance(got, FiniteAlgebra):
            want = FiniteAlgebra(got.sig, got.size, got.tables)
            assert got._ops == want._ops
        else:
            want = CarrierMap(got.src, got.dst, got.image)
        assert got == want
        assert sys.getsizeof(vars(got)) == sys.getsizeof(vars(want))
    assert len(validated) == len(outputs)


def _models(monkeypatch):
    laws = [easy_laws(names) for names in (["assoc"], ["comm", "idem"], ["idem", "rectband"])]
    return lambda: [rep for E in laws for size in (1, 2, 3) for rep in find_models(SIG_F, E, size)[0]]


def _free_algebras(monkeypatch):
    # one class past the byte lanes (Z17), one with constants and no variables
    jobs = [(K, names) for K in ([z2_xor()], [semilattice2(SIG_F)], [z3_add(), semilattice2(SIG_F)])
            for names in (["x"], ["x", "y"], ["x", "y", "z"])]
    jobs += [([z_add(17)], ["x"]), ([constants_only()], [])]
    return lambda: [build_free(K, names).alg for K, names in jobs]


def _certificate_subalgebras(monkeypatch):
    """The generated subalgebra of each certificate check: the source of its
    one hom_violation call."""
    checks = [([base], B, cert) for base in (z2_xor(), semilattice2(SIG_F)) for B, cert in certified_square_images(base)]
    checks += [([alg], alg, trivial_certificate(0, alg)) for alg in QUOTIENT_SAMPLES]
    subs = []
    monkeypatch.setattr(closure, "hom_violation", lambda m, real=closure.hom_violation: subs.append(m.src) or real(m))

    def run():
        assert all(hsp_certificate_check(*check).ok for check in checks)
        return subs

    return run


@pytest.mark.parametrize("case", [_models, _free_algebras, _certificate_subalgebras],
                         ids=["find_models", "build_free", "hsp_certificate_check"])
def test_models_free_algebras_and_certificate_subalgebras_equal_validated_rebuilds(case, monkeypatch):
    """find_models' models, build_free's algebra and the subalgebra that
    hsp_certificate_check generates are built with no validation; each
    equals the algebra validating its fields builds, down to the operation
    index and the size of the instance dict."""
    run, validated = case(monkeypatch), []
    monkeypatch.setattr(FiniteAlgebra, "__post_init__", lambda self, real=FiniteAlgebra.__post_init__: validated.append(self) or real(self))
    got = run()
    assert got and validated == []
    for alg in got:
        want = FiniteAlgebra(alg.sig, alg.size, alg.tables)
        assert alg == want and alg._ops == want._ops
        assert sys.getsizeof(vars(alg)) == sys.getsizeof(vars(want))
    assert len(validated) == len(got)


def test_check_leq():
    assert check_leq(z3_add(), z3_add()).image == (0, 1, 2)
    square = product([z2_xor(), z2_xor()]).alg
    embedding = check_leq(z2_xor(), square)
    cls = classify(embedding)
    assert cls.is_hom and cls.injective
    diagonal = CarrierMap(z2_xor(), square, (0, 3))
    diag_cls = classify(diagonal)
    assert diag_cls.is_hom and diag_cls.injective

    assert check_leq(semilattice2(SIG_F), z2_xor()) is None


def test_leq_is_reflexive_and_transitive():
    sub2, _ = subalgebra_generate(z4_add(), [2])
    pool = [z2_xor(), semilattice2(SIG_F), z3_add(), sub2]
    for a in pool:
        assert check_leq(a, a) is not None
    for a, b, c in itertools.product(pool, repeat=3):
        if check_leq(a, b) is not None and check_leq(b, c) is not None:
            assert check_leq(a, c) is not None


def test_trivial_certificate_certifies_membership():
    for alg in (z2_xor(), semilattice2(), z3_add()):
        cert = trivial_certificate(0, alg)
        assert hsp_certificate_check([alg], alg, cert).ok


def left_zero(n):
    return algebra(SIG_F, n, {"f": [a for a in range(n) for _ in range(n)]})


def test_trivial_certificate_refuses_what_build_free_would():
    # every subset of a left-zero band is a subalgebra: the least generating
    # set is the carrier, and 16^5 * 5 tuple cells exceed the default cap
    with pytest.raises(
        CapExceededError,
        match="^free tuple cells: 5242880 exceeds cap cells=1000000; "
        "raise it with UALG_CAPS=cells=N$",
    ):
        trivial_certificate(0, left_zero(16))
    # L3 needs 3 generators, 3^3 coordinates of 3 cells: refused at 80 cells,
    # exactly where the hard direction's free algebra is refused too
    band = left_zero(3)
    message = "^free tuple cells: 81 exceeds cap cells=80; raise it with UALG_CAPS=cells=N$"
    with pytest.raises(CapExceededError, match=message):
        trivial_certificate(0, band, Caps(cells=80))
    cert = trivial_certificate(0, band, Caps(cells=81))
    assert cert.gens == (0, 1, 2)
    with pytest.raises(CapExceededError, match=message):
        var_to_eqcl_check([band], band, cert, caps=Caps(cells=80))


def test_free_width_is_the_one_bound_of_both_cell_checks():
    # L3's least generating set has 3 elements; on r variables its free
    # algebra has r elements over 3^r coordinates, and both admit its r
    # generator tuples by Caps.admit's one rule
    band = left_zero(3)
    for r in range(1, 4):
        cells = 3**r * r
        variables = ["x", "y", "z"][:r]
        # cells == cap: neither check refuses r
        assert build_free([band], variables, Caps(cells=cells)).alg.size == r
        if r < 3:
            with pytest.raises(
                CapExceededError,
                match=f"^free tuple cells: {3 ** (r + 1) * (r + 1)} exceeds cap "
                f"cells={cells}; raise it with UALG_CAPS=cells=N$",
            ):
                trivial_certificate(0, band, Caps(cells=cells))
        else:
            assert trivial_certificate(0, band, Caps(cells=cells)).gens == (0, 1, 2)
        # cells == cap + 1: both refuse r, with one message
        message = (
            f"^free tuple cells: {cells} exceeds cap cells={cells - 1}; "
            "raise it with UALG_CAPS=cells=N$"
        )
        with pytest.raises(CapExceededError, match=message):
            build_free([band], variables, Caps(cells=cells - 1))
        with pytest.raises(CapExceededError, match=message):
            trivial_certificate(0, band, Caps(cells=cells - 1))


WALK_SIGNATURES = {
    "f2": signature(("f", 2)),
    "f2-e0": signature(("f", 2), ("e", 0)),
    "u1-g2": signature(("u", 1), ("g", 2)),
    "t3": signature(("t", 3)),
    "c0-d0-u1": signature(("c", 0), ("d", 0), ("u", 1)),
}


def random_algebras(sig, count, seed):
    rng = random.Random(seed)
    for size in range(1, 6):
        for _ in range(count):
            yield algebra(sig, size, {name: [rng.randrange(size) for _ in range(size**arity)] for name, arity in sig.ops})


def _certificate_or_cap_text(find, alg, caps):
    try:
        return find(3, alg, caps)
    except CapExceededError as e:
        return str(e)


@pytest.mark.parametrize("name", WALK_SIGNATURES)
def test_trivial_certificate_matches_the_every_subset_oracle(name):
    # the same certificate, or the same cap text, under caps that refuse
    # no size, or some size up to the least generating one
    for alg in random_algebras(WALK_SIGNATURES[name], 24, name):
        n = alg.size
        for caps in (Caps(), Caps(cells=2 * n**2), Caps(cells=3 * n**3 - 1), Caps(cells=8)):
            got = _certificate_or_cap_text(trivial_certificate, alg, caps)
            assert got == _certificate_or_cap_text(trivial_certificate_every_subset, alg, caps), (alg, caps)


@pytest.mark.parametrize("name", WALK_SIGNATURES)
def test_subuniverses_yields_each_subuniverse_once_by_its_first_subset(name):
    sig = WALK_SIGNATURES[name]
    for alg in random_algebras(sig, 6, name):
        for start in (0, 1) if sig.constants() else (1,):
            first = {}  # subuniverse -> the first subset reaching it, in size-then-combinations order
            for r in range(start, alg.size + 1):
                for gens in itertools.combinations(range(alg.size), r):
                    first.setdefault(frozenset(subalgebra_generate(alg, gens)[1].image), gens)
            walked = list(subuniverses(alg, start))
            assert [(frozenset(inclusion.image), gens) for gens, _, inclusion in walked] == list(first.items())
            for gens, sub, inclusion in walked:
                assert (sub, inclusion) == subalgebra_generate(alg, gens)


@pytest.mark.parametrize("sig", [SIG_F, SIG_FE, mixed_arities().sig, constants_only().sig])
@pytest.mark.parametrize("width", [0, 1, 3])
def test_cap_admit_is_the_first_bound_exceeded(sig, width):
    # admit(n) passes exactly when n <= carrier, n * width <= cells and
    # sum n^arity <= cells; otherwise the first of those to fail trips
    for carrier, cells in [(5, 30), (40, 30), (40, 200), (1, 1), (4096, 1_000_000)]:
        caps = Caps(carrier=carrier, cells=cells)
        admit = caps.admit(sig, width, "test")
        for n in range(1, 1100):
            table = sum(n**arity for _, arity in sig.ops)
            bounds = [("carrier", n, carrier, "carrier"), ("cells", n * width, cells, "tuple cells"),
                      ("cells", table, cells, "table cells")]
            tripped = [(key, amount, cap, what) for key, amount, cap, what in bounds if amount > cap]
            if not tripped:
                admit(n)
                continue
            key, amount, cap, what = tripped[0]
            message = f"test {what}: {amount} exceeds cap {key}={cap}; raise it with UALG_CAPS={key}=N"
            with pytest.raises(CapExceededError) as info:
                admit(n)
            assert str(info.value) == message


def test_cap_admit_takes_caps_past_the_largest_range():
    # a cap may be any int: admission compares each size with it directly
    caps = Caps(carrier=10**30, cells=10**40)
    caps.admit(SIG_F, 3, "test")(10**12)
    assert product([semilattice2(), semilattice2()], caps).alg.size == 4
    with pytest.raises(
        CapExceededError,
        match=f"^test carrier: {10**30 + 1} exceeds cap carrier={10**30}; raise it with UALG_CAPS=carrier=N$",
    ):
        caps.admit(SIG_F, 0, "test")(10**30 + 1)


def test_the_table_cell_bound_refuses_nand_to_the_twelfth_at_once():
    # NAND^12 has 4096 elements, within the carrier cap, and these generators
    # generate all of it; its table needs 4096^2 cells.  The product is
    # refused outright, and the certificate's closure stops at its 1001st
    # element (1001^2 cells), long before closing 4096^2 applications.
    nand = algebra(SIG_F, 2, {"f": [1, 1, 1, 0]})
    with pytest.raises(
        CapExceededError,
        match="^product table cells: 16777216 exceeds cap cells=1000000; raise it with UALG_CAPS=cells=N$",
    ):
        product([nand] * 12)
    cert = HspCertificate(((0, 12),), (15, 240, 819, 1365), (0, 1))
    start = time.perf_counter()
    with pytest.raises(
        CapExceededError,
        match="^subalgebra table cells: 1002001 exceeds cap cells=1000000; raise it with UALG_CAPS=cells=N$",
    ):
        hsp_certificate_check([nand], nand, cert)
    assert time.perf_counter() - start < 1.0


def test_certificate_admits_the_generator_block_before_expanding_the_factors(monkeypatch):
    def no_decode(*args):
        raise AssertionError("decoded a generator past the cap")

    monkeypatch.setattr(closure, "_decode_mixed", no_decode)
    cert = HspCertificate(((0, 1001),), (0,), (0,))
    with pytest.raises(
        CapExceededError,
        match="^subalgebra tuple cells: 1001 exceeds cap cells=1000; raise it with UALG_CAPS=cells=N$",
    ):
        hsp_certificate_check([z2_xor()], z2_xor(), cert, Caps(cells=1000))


def test_certificate_admits_every_distinct_generator_before_decoding_any(monkeypatch):
    # 20,000 generators of Z2^1000 need 2 * 10^7 tuple cells: the block is
    # refused whole, not at the 1,001st generator after decoding them all
    def no_decode(*args):
        raise AssertionError("decoded a generator past the cap")

    monkeypatch.setattr(closure, "_decode_mixed", no_decode)
    cert = HspCertificate(((0, 1000),), tuple(range(20_000)), (0,))
    start = time.perf_counter()
    with pytest.raises(
        CapExceededError,
        match="^subalgebra tuple cells: 20000000 exceeds cap cells=1000000; raise it with UALG_CAPS=cells=N$",
    ):
        hsp_certificate_check([z2_xor()], z2_xor(), cert)
    assert time.perf_counter() - start < 0.5


def test_semilattice_square_certificate():
    m = semilattice2()
    cert = HspCertificate(factors=((0, 2),), gens=(1, 2), image=(0, 1, 0))
    result = hsp_certificate_check([m], m, cert)
    assert result.ok


def test_certificate_stage_failures():
    m = semilattice2()
    bad_index = HspCertificate(factors=((3, 1),), gens=(0,), image=(0,))
    assert hsp_certificate_check([m], m, bad_index).stage == "product"

    bad_gen = HspCertificate(factors=((0, 1),), gens=(9,), image=(0, 1))
    assert hsp_certificate_check([m], m, bad_gen).stage == "subalgebra"

    # constant-1 on the xor algebra is not a hom: f(1,1)=0 but the map says 1
    xor = z2_xor()
    not_hom = HspCertificate(factors=((0, 1),), gens=(0, 1), image=(1, 1))
    result = hsp_certificate_check([xor], xor, not_hom)
    assert result.stage == "image" and "not a hom" in result.detail

    wrong_size = HspCertificate(factors=((0, 1),), gens=(0,), image=(0,))
    result = hsp_certificate_check([m], m, wrong_size)
    assert result.stage == "isomorphism"


@pytest.mark.parametrize("cert, result", [
    (HspCertificate(((0, 0),), (), ()), CertCheckResult(False, "product", "factor power 0 < 1")),
    (HspCertificate((), (), ()), CertCheckResult(False, "product", "no factors")),
    (HspCertificate(((0, 1),), (), ()), CertCheckResult(
        False, "subalgebra", "empty generating set and no constants: empty carrier not representable")),
], ids=["power-0", "no-factors", "empty-subalgebra"])
def test_certificate_stage_texts(cert, result):
    m = semilattice2()
    assert hsp_certificate_check([m], m, cert) == result


def test_certificate_check_scans_the_image_map_once(monkeypatch):
    calls = []
    real = closure.hom_violation
    monkeypatch.setattr(closure, "hom_violation", lambda m: calls.append(m) or real(m))
    m, xor = semilattice2(), z2_xor()
    square = HspCertificate(factors=((0, 2),), gens=(1, 2), image=(0, 1, 0))
    assert hsp_certificate_check([m], m, square).ok
    assert len(calls) == 1
    # constant-1 on the xor algebra: f(0,0)=0 is sent to 1, but f(1,1)=0
    not_hom = HspCertificate(factors=((0, 1),), gens=(0, 1), image=(1, 1))
    result = hsp_certificate_check([xor], xor, not_hom)
    assert result == CertCheckResult(False, "image", "not a hom at f(0, 0)")
    assert len(calls) == 2
