import pytest

from ualg import (
    App,
    CarrierMap,
    Equation,
    Var,
    algebra,
    eqcl_to_var_check,
    find_isomorphism,
    subalgebra_generate,
    trivial_certificate,
    var_to_eqcl_check,
    verify_invariance,
)
from ualg.birkhoff import (
    HomImageWitness,
    IsoWitness,
    MalformedWitnessError,
    ProductWitness,
    SubalgebraWitness,
    enumerate_algebras,
)
from ualg.closure import HspCertificate

from samples import SIG_F, semilattice2, z2_xor, z3_add

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


def test_enumerate_algebras_exhaustive_and_sampled():
    exhaustive = enumerate_algebras(SIG_F, 2)
    assert len(exhaustive) == 16
    assert len({a.tables for a in exhaustive}) == 16
    sampled = enumerate_algebras(SIG_F, 3, sample_cap=50)
    assert len(sampled) == 50
    assert sampled == enumerate_algebras(SIG_F, 3, sample_cap=50)


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
    # exactly the trivial algebra plus min and max on two elements; pool 2
    # is exhaustive, so the witness has no sampling note
    assert report.stages[0].witness == "3 models of 2 equations"


def test_eqcl_to_var_says_when_it_sampled():
    left_quasigroup = Equation(App("f", (X, App("f", (X, Y)))), Y)
    report = eqcl_to_var_check([left_quasigroup], pool_size_bound=3)
    assert report.overall
    assert report.stages[0].witness == "24 models of 1 equations (size 3: sampled 4096 of 19683)"


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


def test_pipeline_report_lines_format():
    m = semilattice2()
    report = var_to_eqcl_check([m], m, trivial_certificate(0, m))
    for line in report.lines():
        assert line.startswith("STAGE ")
        assert " PASS" in line or " FAIL" in line
