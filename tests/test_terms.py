import itertools
import re

import pytest

import ualg.terms
from ualg import (
    App,
    Environment,
    Substitution,
    Var,
    algebra,
    apply_op,
    build_free,
    enumerate_terms,
    evaluate,
    free_lift,
    signature,
    substitute,
    universal_map,
)
from ualg.core import ArityMismatchError, CapExceededError, Caps, OutOfRangeError, UnknownSymbolError
from ualg.terms import (
    UnboundVariableError,
    all_environments,
    check_term,
    depth,
    infer_signature,
    term_columns,
    term_size,
    term_vars,
)

from oracles import enumerate_terms_depths
from samples import SIG_CONST, SIG_F, SIG_FE, SIG_G, SIG_MIXED, SIG_T, semilattice2, z2_xor, z3_add, z_add

X, Y = Var("x"), Var("y")


def f(*children):
    return App("f", tuple(children))


def test_depth_convention():
    assert depth(X) == 0
    assert depth(App("e")) == 0
    assert depth(f(X, Y)) == 1
    assert depth(f(X, f(X, Y))) == 2


def test_substitute_examples():
    sigma = Substitution({"x": f(Y, Y)})
    assert substitute(sigma, f(X, X)) == f(f(Y, Y), f(Y, Y))
    assert substitute(Substitution({}), f(X, f(Y, X))) == f(X, f(Y, X))
    assert substitute(Substitution({"x": Y}), X) == Y


def test_evaluate_examples():
    assert evaluate(z2_xor(), f(X, f(X, Y)), {"x": 1, "y": 0}) == 0
    for c in range(3):
        assert evaluate(z3_add(), X, {"x": c}) == c
    m = semilattice2()
    assert evaluate(m, App("m", (X, X)), {"x": 1}) == 1


def test_evaluate_errors():
    with pytest.raises(UnboundVariableError):
        evaluate(z2_xor(), f(X, Y), {"x": 0})
    with pytest.raises(ArityMismatchError):
        evaluate(z2_xor(), App("f", (X,)), {"x": 0})


@pytest.mark.parametrize("node, error, text", [
    (App("g", (X,)), UnknownSymbolError, "unknown operation symbol 'g'"),
    (App("f", (X,)), ArityMismatchError, "op f expects 2 arguments, got 1"),
    (App("f", (X, X, X)), ArityMismatchError, "op f expects 2 arguments, got 3"),
], ids=["unknown-symbol", "too-few", "too-many"])
def test_a_bad_application_raises_one_text_on_every_path(node, error, text):
    # Z2 takes term_columns' byte lanes and Z17 (17^2 > 256 cells) its lists;
    # the bad node sits under a good one for the term walks
    term = f(X, node)
    for alg in (z2_xor(), z_add(17)):
        for call in (
            lambda: apply_op(alg, node.symbol, [0] * len(node.children)),
            lambda: check_term(alg.sig, term),
            lambda: evaluate(alg, term, {"x": 0}),
            lambda: term_columns(alg, [X, term], {"x": [0, 1]}),
        ):
            with pytest.raises(error, match=f"^{re.escape(text)}$"):
                call()


def test_evaluate_accepts_environment_objects():
    env = Environment(z2_xor(), {"x": 1, "y": 1})
    assert evaluate(z2_xor(), f(X, Y), env) == 0


def test_environment_rejects_out_of_range():
    with pytest.raises(ValueError):
        Environment(z2_xor(), {"x": 2})


@pytest.mark.parametrize("bad", [-1, 2])
def test_evaluate_and_free_lift_refuse_out_of_range_bindings(bad):
    # on Z2 a binding of -1 would wrap round to the last row and one of 2
    # would index past the table: every path refuses either, as Environment
    # does, with one text; universal_map refuses the assignment alike
    free = build_free([z2_xor()], ["x", "y"])
    for rho, name in (({"x": bad, "y": 0}, "x"), ({"x": 0, "y": bad}, "y")):
        text = re.escape(f"binding {name}={bad} outside carrier 0..1")
        for call in (
            lambda: evaluate(z2_xor(), f(X, Y), rho),
            lambda: free_lift(z2_xor(), rho, f(X, Y)),
            # a bare variable is read, not applied: both paths still refuse it
            lambda: evaluate(z2_xor(), X, rho),
            lambda: free_lift(z2_xor(), rho, X),
            lambda: universal_map(free, z2_xor(), rho),
        ):
            with pytest.raises(OutOfRangeError, match=f"^{text}$"):
                call()


def test_an_environment_prints_its_bindings_in_order():
    assert str(Environment(z3_add(), {"y": 2, "x": 0})) == "y=2 x=0"
    assert str(Environment(z3_add(), {})) == ""


def test_free_lift_examples():
    assert free_lift(z2_xor(), {"x": 1}, X) == 1
    assert free_lift(z2_xor(), {"x": 1, "y": 0}, f(X, Y)) == 1
    m = semilattice2()
    assert free_lift(m, {"x": 0, "y": 1}, App("m", (X, Y))) == 0


def test_enumerate_terms_examples():
    terms0 = enumerate_terms(SIG_FE, ["x"], 0)
    assert terms0 == [X, App("e")]
    terms1 = enumerate_terms(SIG_FE, ["x"], 1)
    assert len(terms1) == 6
    assert terms1[:2] == terms0
    assert terms1[2:] == [
        f(X, X),
        f(X, App("e")),
        f(App("e"), X),
        f(App("e"), App("e")),
    ]
    assert enumerate_terms(SIG_F, [], 3) == []


def test_enumerate_terms_no_duplicates_and_downward_closed():
    terms = enumerate_terms(SIG_FE, ["x", "y"], 2)
    assert len(set(terms)) == len(terms)
    depths = [depth(t) for t in terms]
    assert depths == sorted(depths)
    shallower = set(enumerate_terms(SIG_FE, ["x", "y"], 1))
    assert shallower <= set(terms)


def test_enumerate_terms_cap():
    with pytest.raises(CapExceededError):
        enumerate_terms(SIG_F, ["x", "y"], 4, Caps(cells=100))


@pytest.mark.parametrize("sig", [SIG_CONST, SIG_G, SIG_F, SIG_T, SIG_FE, SIG_MIXED, signature(("f", 2), ("g", 1))],
                         ids=["constants", "unary", "binary", "ternary", "binary-constant", "mixed", "binary-unary"])
def test_enumerate_terms_matches_the_depth_list_oracle(sig):
    # the same terms in the same order, and the same cap error, at every depth
    for variables, max_depth in itertools.product([[], ["x"], ["x", "y"]], range(4)):
        for caps in (Caps(), Caps(cells=40)):
            try:
                want = enumerate_terms_depths(sig, variables, max_depth, caps)
            except CapExceededError as e:
                with pytest.raises(CapExceededError, match=f"^{re.escape(str(e))}$"):
                    enumerate_terms(sig, variables, max_depth, caps)
            else:
                assert enumerate_terms(sig, variables, max_depth, caps) == want


@pytest.mark.parametrize("caps, built, total", [(Caps(), 1000, 1006012010), (Caps(cells=40), 8, 1002)])
def test_a_refused_term_layer_builds_no_term(caps, built, total, monkeypatch):
    # over x and y, the ternary layers 1, 2 and 3 hold 8, 992 and
    # 1002^3 - 10^3 terms; a layer past the cap is counted, not built
    calls = []

    def app(*args):
        calls.append(args)
        return App(*args)

    monkeypatch.setattr(ualg.terms, "App", app)
    message = f"^terms enumerated: {total} exceeds cap cells={caps.cells}; raise it with UALG_CAPS=cells=N$"
    with pytest.raises(CapExceededError, match=message):
        enumerate_terms(SIG_T, ["x", "y"], 3, caps)
    assert len(calls) == built


def test_substitution_lemma_exhaustive_small():
    # depth <= 2 targets, substitutions into depth <= 1, sizes <= 3
    algebras = [z2_xor(), semilattice2(SIG_F), z3_add()]
    terms = enumerate_terms(SIG_F, ["x", "y"], 2)
    shallow = enumerate_terms(SIG_F, ["x", "y"], 1)
    subs = [
        Substitution({"x": tx, "y": ty})
        for tx, ty in itertools.product(shallow, repeat=2)
    ]
    for alg in algebras:
        for sigma in subs:
            for rho in all_environments(["x", "y"], alg.size):
                composed = {
                    v: evaluate(alg, sigma.lookup(v), rho) for v in ("x", "y")
                }
                for t in terms:
                    assert evaluate(alg, substitute(sigma, t), rho) == evaluate(
                        alg, t, composed
                    )


def test_free_lift_is_a_homomorphism_on_applications():
    terms = enumerate_terms(SIG_F, ["x", "y"], 3)
    for alg in (z2_xor(), semilattice2(SIG_F)):
        for rho in all_environments(["x", "y"], alg.size):
            for t in terms:
                if type(t) is App and t.children:
                    parts = [free_lift(alg, rho, c) for c in t.children]
                    assert free_lift(alg, rho, t) == apply_op(alg, t.symbol, parts)


def test_free_lift_agrees_with_evaluate():
    terms = enumerate_terms(SIG_FE, ["x", "y"], 2)
    alg = algebra(SIG_FE, 3, {"f": [(a * b) % 3 for a in range(3) for b in range(3)], "e": [1]})
    for rho in all_environments(["x", "y"], alg.size):
        for t in terms:
            assert evaluate(alg, t, rho) == free_lift(alg, rho, t)


def test_term_vars_and_size():
    t = f(Y, f(X, Y))
    assert term_vars(t) == ["y", "x"]
    assert term_size(t) == 5


def test_check_term_well_formedness():
    check_term(SIG_FE, f(X, App("e")))
    with pytest.raises(ArityMismatchError):
        check_term(SIG_FE, App("f", (X,)))
    with pytest.raises(ArityMismatchError):
        check_term(SIG_FE, f(X, App("e", (X,))))


def test_infer_signature():
    from ualg import Equation

    sig = infer_signature([Equation(f(X, Y), App("e"))])
    assert sig.ops == (("e", 0), ("f", 2))
