import collections
import dataclasses
import itertools
import re

import pytest

import ualg.birkhoff
import ualg.closure
import ualg.eqlogic

from ualg import (
    App,
    CapExceededError,
    Caps,
    CarrierMap,
    Equation,
    UalgError,
    Var,
    algebra,
    build_free,
    eqcl_to_var_check,
    find_isomorphism,
    product,
    subalgebra_generate,
    trivial_certificate,
    universal_map,
    var_to_eqcl_check,
    verify_invariance,
)
from ualg.birkhoff import (
    HomImageWitness,
    IsoWitness,
    MalformedWitnessError,
    ProductWitness,
    SubalgebraWitness,
)
from ualg.closure import CertCheckResult, HspCertificate, generate, hsp_certificate_check
from ualg.free import UniversalMapFailure

from oracles import eqcl_to_var_check_peralgebra, hom_image, hsp_certificate_check_isosearch, var_to_eqcl_check_allvars
from samples import EASY_LAW_SETS, SIG_F, SIG_FE, certified_square_images, easy_laws, semilattice2, z2_xor, z3_add

X, Y = Var("x"), Var("y")
COMM = Equation(App("f", (X, Y)), App("f", (Y, X)))
IDEM_F = Equation(App("f", (X, X)), X)


def test_invariance_product_witness():
    report = verify_invariance(z2_xor(), COMM, ProductWitness((z2_xor(), z2_xor())))
    assert report.overall
    names = [s.name for s in report.stages]
    assert names == ["witness-wellformed", "base-satisfies", "derived-satisfies"]


def test_invariance_vacuous_when_base_fails():
    report = verify_invariance(z2_xor(), IDEM_F, ProductWitness((z2_xor(),)))
    assert report.overall
    assert any("vacuous" in s.witness for s in report.stages)


def test_invariance_subalgebra_witness():
    sub, inclusion = subalgebra_generate(z3_add(), [0])
    report = verify_invariance(z3_add(), COMM, SubalgebraWitness(inclusion))
    assert report.overall


def test_invariance_hom_image_witness():
    m = CarrierMap(z2_xor(), z2_xor(), (0, 0))
    report = verify_invariance(z2_xor(), COMM, HomImageWitness(m))
    assert report.overall


def test_invariance_iso_witness():
    twisted = algebra(SIG_F, 2, {"f": [1, 0, 0, 1]})
    pair = find_isomorphism(z2_xor(), twisted)
    report = verify_invariance(z2_xor(), COMM, IsoWitness(*pair))
    assert report.overall


def test_invariance_rejects_malformed_witnesses():
    not_hom = CarrierMap(z2_xor(), z2_xor(), (1, 1))
    with pytest.raises(MalformedWitnessError):
        verify_invariance(z2_xor(), COMM, HomImageWitness(not_hom))
    with pytest.raises(MalformedWitnessError):
        verify_invariance(z2_xor(), COMM, ProductWitness((z2_xor(), z3_add())))
    with pytest.raises(MalformedWitnessError):
        verify_invariance(z2_xor(), COMM, ProductWitness(()))
    not_injective = CarrierMap(z2_xor(), z2_xor(), (0, 0))
    with pytest.raises(MalformedWitnessError):
        verify_invariance(z2_xor(), COMM, SubalgebraWitness(not_injective))


TWISTED = algebra(SIG_F, 2, {"f": [1, 0, 0, 1]})


def _identity(src, dst):
    return CarrierMap(src, dst, tuple(range(src.size)))


@pytest.mark.parametrize("witness, message", [
    (IsoWitness(_identity(TWISTED, TWISTED), _identity(TWISTED, TWISTED)),
     "iso pair does not connect A to the target"),
    (IsoWitness(_identity(z2_xor(), TWISTED), _identity(TWISTED, z2_xor())),
     r"iso component is not a hom at f\(0, 0\)"),
    (IsoWitness(_identity(z2_xor(), z2_xor()), CarrierMap(z2_xor(), z2_xor(), (0, 0))),
     "maps are not mutually inverse"),
    (HomImageWitness(_identity(z3_add(), z3_add())), "hom-image map does not start at A"),
    (SubalgebraWitness(CarrierMap(z2_xor(), z3_add(), (0, 1))), "embedding does not land in A"),
    (SubalgebraWitness(CarrierMap(z2_xor(), z2_xor(), (1, 1))), r"embedding is not a hom at f\(0, 0\)"),
    ("nonsense", "unrecognized witness 'nonsense'"),
], ids=["iso-disconnected", "iso-not-hom", "iso-not-inverse", "image-wrong-source",
        "embedding-wrong-target", "embedding-not-hom", "unrecognized"])
def test_invariance_names_each_malformed_witness(witness, message):
    with pytest.raises(MalformedWitnessError, match=f"^{message}$"):
        verify_invariance(z2_xor(), COMM, witness)


def _columns_all_differ(alg, terms, columns, plan=None):
    """A term_columns, or joined_columns, that reports every term's column
    as different."""
    return [(i,) for i in range(len(terms))]


def test_eqcl_to_var_refuses_a_failure_satisfies_cannot_replay(monkeypatch):
    # the value columns say f is not commutative; satisfies finds no
    # counterexample, so the stage has no witness and the check raises
    monkeypatch.setattr(ualg.eqlogic, "joined_columns", _columns_all_differ)
    with pytest.raises(
        UalgError, match=r"^value columns fail f\(\?x,\?y\) = f\(\?y,\?x\), but satisfies finds no counterexample$"
    ):
        eqcl_to_var_check([COMM], 2)


def test_var_to_eqcl_refuses_a_theory_failure_satisfies_cannot_replay(monkeypatch):
    m = semilattice2(SIG_F)
    monkeypatch.setattr(ualg.eqlogic, "term_columns", _columns_all_differ)
    with pytest.raises(
        UalgError, match=r"^value columns fail \?x = f\(\?x,\?x\), but satisfies finds no counterexample$"
    ):
        var_to_eqcl_check([m], m, trivial_certificate(0, m))


def test_eqcl_to_var_products_never_skip_past_the_cap():
    # the 2 x 2 products exceed carrier 3: an error, not a PASS over the rest
    with pytest.raises(
        CapExceededError,
        match="^product carrier: 4 exceeds cap carrier=3; raise it with UALG_CAPS=carrier=N$",
    ):
        eqcl_to_var_check([COMM], 2, caps=Caps(carrier=3))


def _corrupted_products(monkeypatch):
    """birkhoff.product with f(0, 1) changed in every product of two or more
    elements, which then fails commutativity and associativity alike."""
    real = ualg.birkhoff.product

    def corrupted(factors, *caps):
        prod = real(factors, *caps)
        if prod.alg.size < 2:
            return prod
        table = list(prod.alg.tables[0])
        table[1] = (table[1] + 1) % prod.alg.size
        return dataclasses.replace(prod, alg=dataclasses.replace(prod.alg, tables=(tuple(table),)))

    monkeypatch.setattr(ualg.birkhoff, "product", corrupted)


@pytest.mark.parametrize("laws, caps, error", [
    # the first 2 x 2 product passes carrier 3
    (["comm"], Caps(carrier=3), "product carrier: 4 exceeds cap carrier=3"),
    # the 2 x 2 products fit cells 40, but [assoc]'s 4^3 environments do not
    (["assoc"], Caps(cells=40), "environment space 4^3: 64 exceeds cap cells=40"),
], ids=["product-carrier", "environment-space"])
def test_eqcl_to_var_reports_an_earlier_failure_before_a_later_cap(laws, caps, error, monkeypatch):
    """A 1 x 2 product fails E and a later 2 x 2 product in the same batch
    trips a cap: the failure is reported, as one algebra at a time would.
    With no failure, the cap error surfaces with its text."""
    E = easy_laws(laws)
    with pytest.raises(CapExceededError, match=f"^{re.escape(error)}; raise it with UALG_CAPS="):
        eqcl_to_var_check(E, 2, caps=caps)
    _corrupted_products(monkeypatch)
    lines = eqcl_to_var_check(E, 2, caps=caps).lines()
    assert lines == eqcl_to_var_check_peralgebra(E, 2, caps).lines()
    assert lines[-1].startswith("STAGE closure FAIL product breaks equation 0 at ")


def test_eqcl_to_var_easy_direction():
    report = eqcl_to_var_check([IDEM_F, COMM], pool_size_bound=2)
    assert report.overall
    names = [s.name for s in report.stages]
    assert names == [
        "enumerate-models",
        "products-closed",
        "subalgebras-closed",
        "hom-images-closed",
    ]
    # exactly the trivial algebra plus min and max on two elements
    assert report.stages[0].witness == "3 models of 2 equations"


def test_eqcl_to_var_is_exhaustive_at_pool_3():
    # every model counts, not one per class: 1 + 4 + 64 left quasigroups
    # (by brute force over all 3^9 tables), and the one left-projection
    # algebra of each size, which a sample of the size-3 tables missed
    report = eqcl_to_var_check(easy_laws(["lq"]), pool_size_bound=3)
    assert report.overall
    assert report.stages[0].witness == "69 models of 1 equations"
    report = eqcl_to_var_check(easy_laws(["leftproj"]), pool_size_bound=3)
    assert report.lines()[0] == "STAGE enumerate-models PASS 3 models of 1 equations"


def test_eqcl_to_var_checks_each_subuniverse_once(monkeypatch):
    """Over the nine easy-direction law sets at pool 3, the subalgebra
    stage closes 480 of the models' 643 nonempty generator subsets (a subset
    is skipped when dropping one generator leaves a subset whose subuniverse
    holds it) and checks 439 subalgebras: per model, one per distinct
    subuniverse."""
    real_generate, real_failures = ualg.closure.subalgebra_generate, ualg.birkhoff.mod_failures
    closed = []  # the model of each closure, in order

    def generate(alg, gens):
        closed.append(alg)
        return real_generate(alg, gens)

    def failures(derived, *args):
        def counted():  # read as the check reads each derived algebra, right after its closure
            for alg, how in derived:
                if how.startswith("subalgebra from "):
                    checks[id(closed[-1])] += 1
                yield alg, how

        return real_failures(counted(), *args)

    monkeypatch.setattr(ualg.closure, "subalgebra_generate", generate)
    monkeypatch.setattr(ualg.birkhoff, "mod_failures", failures)
    subsets = closures = checked = 0
    for laws in EASY_LAW_SETS:
        closed, checks = [], collections.Counter()
        assert eqcl_to_var_check(easy_laws(laws), 3).overall
        models = list({id(alg): alg for alg in closed}.values())
        subsets += sum(2**alg.size - 1 for alg in models)
        closures += len(closed)
        checked += sum(checks.values())
        for alg in models:
            universes = {
                frozenset(real_generate(alg, gens)[1].image)
                for r in range(1, alg.size + 1)
                for gens in itertools.combinations(range(alg.size), r)
            }
            assert checks[id(alg)] == len(universes), (laws, alg)
    assert (subsets, closures, checked) == (643, 480, 439)


def test_eqcl_to_var_model_search_is_capped():
    with pytest.raises(
        CapExceededError,
        match=r"^model search work at size 3 \(cells assigned plus relabellings tried\): "
        r"101 exceeds cap cells=100; raise it with UALG_CAPS=cells=N$",
    ):
        eqcl_to_var_check(easy_laws(["assoc"]), 3, caps=Caps(cells=100))
    assert eqcl_to_var_check(easy_laws(["assoc"]), 3, caps=Caps(cells=5000)).overall


def test_eqcl_to_var_quotient_failure_names_the_blocks(monkeypatch):
    """A quotient with one corrupted cell fails the H stage; the witness
    names the congruence's blocks and replays the equation through satisfies."""
    real = ualg.birkhoff.quotient

    def corrupted(alg, theta):
        quo, nat = real(alg, theta)
        table = list(quo.tables[0])
        table[1] = (table[1] + 1) % quo.size
        return dataclasses.replace(quo, tables=(tuple(table),)), nat

    monkeypatch.setattr(ualg.birkhoff, "quotient", corrupted)
    lines = eqcl_to_var_check(easy_laws(["comm", "idem"]), 3).lines()
    assert lines[-2:] == [
        "STAGE subalgebras-closed PASS",
        "STAGE closure FAIL quotient by {0,1}|{2} breaks equation 0 at x=0 y=1",
    ]


def test_eqcl_to_var_empty_axioms():
    report = eqcl_to_var_check([], pool_size_bound=2)
    assert report.overall


def test_eqcl_to_var_collapsing_axiom():
    report = eqcl_to_var_check([Equation(X, Y)], pool_size_bound=2)
    assert report.overall
    assert "1 models" in report.stages[0].witness


def test_var_to_eqcl_trivial_certificates():
    for alg in (z2_xor(), semilattice2()):
        report = var_to_eqcl_check([alg], alg, trivial_certificate(0, alg))
        assert report.overall, report.lines()
        names = [s.name for s in report.stages]
        assert names == ["certificate", "free-build", "universal-map", "models-theory"]


def test_var_to_eqcl_square_image_certificate():
    m = semilattice2()
    cert = HspCertificate(factors=((0, 2),), gens=(1, 2), image=(0, 1, 0))
    report = var_to_eqcl_check([m], m, cert)
    assert report.overall, report.lines()


def test_var_to_eqcl_rejects_bad_certificate():
    m = semilattice2()
    bad = HspCertificate(factors=((5, 1),), gens=(0,), image=(0, 1))
    report = var_to_eqcl_check([m], m, bad)
    assert not report.overall
    assert report.stages[0].name == "certificate" and not report.stages[0].passed


@pytest.mark.parametrize(
    "failure, witness",
    [
        (UniversalMapFailure("hom", (0, 0), symbol="f", args=(0, 1)), "hom check failed at f(0, 1)"),
        (UniversalMapFailure("surjectivity", (0, 0), unreached=1), "surjectivity failed: 1 unreached"),
    ],
    ids=["hom", "surjectivity"],
)
def test_universal_map_failure_is_the_last_stage(failure, witness, monkeypatch):
    # the certificate check has shown B is an image of the free algebra, so
    # universal_map cannot fail on a checked certificate; a failing one must
    # still end the report with a FAIL stage, before the theory stage
    z2 = z2_xor()
    monkeypatch.setattr(ualg.birkhoff, "universal_map", lambda free, B, assign: failure)
    report = var_to_eqcl_check([z2], z2, trivial_certificate(0, z2))
    assert not report.overall
    assert report.lines() == [
        "STAGE certificate PASS",
        "STAGE free-build PASS 2 elements over 2 coordinates",
        f"STAGE universal-map FAIL {witness}",
    ]


def test_certificate_caps_raise_and_are_no_verdict():
    # a tripped cap is a resource limit, not a FAIL stage; the certificate
    # check bounds the generated subalgebra, not the product, and runs no
    # hom search, so the search cap cannot trip in it
    z2 = z2_xor()
    cert = trivial_certificate(0, z2)
    with pytest.raises(
        CapExceededError,
        match="^subalgebra carrier: 2 exceeds cap carrier=1; raise it with UALG_CAPS=carrier=N$",
    ):
        var_to_eqcl_check([z2], z2, cert, caps=Caps(carrier=1))
    assert var_to_eqcl_check([z2], z2, cert, caps=Caps(search=1)) == var_to_eqcl_check(
        [z2], z2, cert
    )


def test_certificate_signature_mismatch_fails_product():
    z2 = z2_xor()
    result = hsp_certificate_check([z2], semilattice2(), trivial_certificate(0, z2))
    assert (result.ok, result.stage) == (False, "product")
    assert "signatures differ" in result.detail


def test_pipeline_report_lines_format():
    m = semilattice2()
    report = var_to_eqcl_check([m], m, trivial_certificate(0, m))
    for line in report.lines():
        assert line.startswith("STAGE ")
        assert " PASS" in line or " FAIL" in line


def chain3():
    return algebra(SIG_F, 3, {"f": [min(a, b) for a in range(3) for b in range(3)]})


def left_zero3():
    return algebra(SIG_F, 3, {"f": [a for a in range(3) for _ in range(3)]})


def rotated(alg):
    """The copy of a one-binary-symbol algebra whose element a is a + 1 mod size."""
    n, (table,) = alg.size, alg.tables
    out = [0] * (n * n)
    for a, b in itertools.product(range(n), repeat=2):
        out[(a + 1) % n * n + (b + 1) % n] = (table[a * n + b] + 1) % n
    return algebra(alg.sig, n, {"f": out})


def projection_members():
    """(K, B, certificate) with B the image of a subalgebra of a product of
    C3, Z3, L3 or a pair of them, generated by one or two elements, under a
    coordinate projection, canonically labelled or rotated (the benchmark's
    certified members).  One per B and distinct generator images."""
    kinds = [chain3(), z3_add(), left_zero3()]
    classes = [([a], ((0, 2),)) for a in kinds]
    classes += [(list(pair), ((0, 1), (1, 1))) for pair in itertools.combinations(kinds, 2)]
    out = []
    for K, factors in classes:
        expanded = [K[k] for k, power in factors for _ in range(power)]
        prod = product(expanded)
        seen = set()
        for r in (1, 2):
            for gens in itertools.combinations(range(prod.alg.size), r):
                sub, inclusion = subalgebra_generate(prod.alg, gens)
                for coord, factor in enumerate(expanded):
                    values = tuple(prod.decode(e)[coord] for e in inclusion.image)
                    B, onto = hom_image(sub, CarrierMap(sub, factor, values))
                    for relabel in (False, True):
                        image = onto.image
                        if relabel:
                            B, image = rotated(B), tuple((b + 1) % B.size for b in image)
                        key = (B.tables, tuple(dict.fromkeys(image[:r])))
                        if key not in seen:
                            seen.add(key)
                            out.append((K, B, HspCertificate(factors, gens, image)))
    return out


def square_members():
    """Criterion 8's certified members of V(SL) and V(Z2)."""
    return [
        ([base], B, cert)
        for base in (semilattice2(), z2_xor())
        for B, cert in certified_square_images(base)
    ]


def assert_same_verdict(K, B, cert):
    """The generator-minimal pipeline against the |B|-variable one: same
    verdict, stage names, certificate and models-theory witnesses, and a
    free algebra no larger."""
    new, old = var_to_eqcl_check(K, B, cert), var_to_eqcl_check_allvars(K, B, cert)
    assert new.overall == old.overall
    assert [s.name for s in new.stages] == [s.name for s in old.stages]
    assert [s.passed for s in new.stages] == [s.passed for s in old.stages]
    assert new.stages[0] == old.stages[0]
    assert new.stages[-1].witness == old.stages[-1].witness
    if len(new.stages) > 1:
        assert int(new.stages[1].witness.split()[0]) <= int(old.stages[1].witness.split()[0])
    return new


def test_var_to_eqcl_matches_allvars_oracle():
    members = square_members() + projection_members()
    assert len(members) > 60
    for K, B, cert in members:
        assert assert_same_verdict(K, B, cert).overall


def test_var_to_eqcl_generator_images():
    # Z2 is generated by {1}: a free algebra on one variable, v0 -> 1
    report = var_to_eqcl_check([z2_xor()], z2_xor(), trivial_certificate(0, z2_xor()))
    assert report.stages[1].witness == "2 elements over 2 coordinates"
    assert report.stages[2].witness == "image (1, 0)"
    # repeated gens: one seed each
    m = semilattice2()
    repeated = HspCertificate(factors=((0, 2),), gens=(2, 1, 2, 1), image=(0, 1, 0))
    report = assert_same_verdict([m], m, repeated)
    assert report.overall and report.stages[1].witness == "3 elements over 4 coordinates"
    # two generators with one image: (0,1) and (1,0) of Z2^2 both go to 1 under xor
    xor = z2_xor()
    square = product([xor, xor])
    sub, inclusion = subalgebra_generate(square.alg, (1, 2))
    image = tuple(a ^ b for a, b in map(square.decode, inclusion.image))
    assert image[:2] == (1, 1)
    report = assert_same_verdict([xor], xor, HspCertificate(((0, 2),), (1, 2), image))
    assert report.overall and report.stages[1].witness == "2 elements over 2 coordinates"


def test_var_to_eqcl_no_generators_over_a_constant():
    # Z3 with the constant 1 is generated by the empty set: F has no variables
    z3e = algebra(SIG_FE, 3, {"f": z3_add().tables[0], "e": [1]})
    cert = trivial_certificate(0, z3e)
    assert cert.gens == ()
    report = assert_same_verdict([z3e], z3e, cert)
    assert report.overall
    assert report.stages[1].witness == "3 elements over 1 coordinates"


FAILING_CERTIFICATES = {
    "product": HspCertificate(factors=((5, 1),), gens=(0,), image=(0, 1)),
    "subalgebra": HspCertificate(factors=((0, 1),), gens=(9,), image=(0, 1)),
    "image": HspCertificate(factors=((0, 1),), gens=(0, 1), image=(1, 1)),
    "isomorphism": HspCertificate(factors=((0, 1),), gens=(0,), image=(0,)),
    "length": HspCertificate(factors=((0, 2),), gens=(1, 2), image=(0, 1)),
}


@pytest.mark.parametrize("cert", FAILING_CERTIFICATES.values(), ids=FAILING_CERTIFICATES)
def test_var_to_eqcl_failing_certificate_matches_oracle(cert):
    for alg in (semilattice2(SIG_F), z2_xor()):
        new = var_to_eqcl_check([alg], alg, cert)
        assert not new.overall
        assert new == var_to_eqcl_check_allvars([alg], alg, cert)


def test_certificate_check_matches_the_isomorphism_search_oracle():
    # the coverage test against hom_image plus find_isomorphism: on the
    # failing certificates, and on every square image certificate against
    # every square image of the same base, its own target included
    cases = [
        ([alg], alg, cert)
        for cert in FAILING_CERTIFICATES.values()
        for alg in (semilattice2(SIG_F), z2_xor())
    ]
    for base in (semilattice2(), z2_xor()):
        members = certified_square_images(base)
        cases += [([base], B, cert) for B, _ in members for _, cert in members]
    stages = set()
    for K, B, cert in cases:
        got = hsp_certificate_check(K, B, cert)
        assert got == hsp_certificate_check_isosearch(K, B, cert)
        stages.add(got.stage)
    assert stages == {None, "product", "subalgebra", "image", "isomorphism"}


@pytest.mark.parametrize("k", [4, 5])
def test_var_to_eqcl_passes_the_basis_certificate_of_a_power(k):
    # Z2^k generated by its unit vectors: the coverage test runs no hom
    # search, and the oracle's isomorphism search stays under the default cap
    z2 = z2_xor()
    power = product([z2] * k)
    gens = tuple(1 << i for i in range(k))
    _, inclusion = subalgebra_generate(power.alg, gens)
    cert = HspCertificate(((0, k),), gens, inclusion.image)
    report = var_to_eqcl_check([z2], power.alg, cert)
    assert report.overall, report.lines()
    assert hsp_certificate_check_isosearch([z2], power.alg, cert) == CertCheckResult(True)


def test_free_algebra_certificate_of_z3_squared_passes_under_default_caps():
    # Z3^2 in V(Z3): the product Z3^9 has 19,683 elements, past the carrier
    # cap, but only the 9-element subalgebra its projection tuples generate
    # is closed, and it is the free algebra on two variables
    z3 = z3_add()
    square = product([z3, z3]).alg
    free = build_free([z3], ["v0", "v1"])
    gens = tuple(int("".join(map(str, free.tuples[free.gens[v]])), 3) for v in free.variables)
    image = universal_map(free, square, {"v0": 3, "v1": 1}).image
    cert = HspCertificate(((0, 9),), gens, image)
    assert hsp_certificate_check([z3], square, cert) == CertCheckResult(True)
    seeds = sorted(free.tuples[free.gens[v]] for v in free.variables)
    _, _, tables = generate([z3], [0] * 9, seeds, z3.sig)
    assert tables == free.alg.tables
    with pytest.raises(
        CapExceededError,
        match="^product carrier: 19683 exceeds cap carrier=4096; raise it with UALG_CAPS=carrier=N$",
    ):
        hsp_certificate_check_isosearch([z3], square, cert)


def test_trivial_certificate_takes_the_first_least_generating_set():
    cases = [
        (z2_xor(), (1,), (1, 0)),
        (semilattice2(), (0, 1), (0, 1)),
        (z3_add(), (1,), (1, 2, 0)),
        (chain3(), (0, 1, 2), (0, 1, 2)),
        (left_zero3(), (0, 1, 2), (0, 1, 2)),
    ]
    for alg, gens, image in cases:
        assert trivial_certificate(2, alg) == HspCertificate(((2, 1),), gens, image)
