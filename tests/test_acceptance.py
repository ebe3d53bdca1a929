"""Acceptance suite: one test per criterion, each against an independent
oracle or frozen hand-derived values, printing one PASS/FAIL line apiece.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager

from ualg import (
    App,
    CarrierMap,
    Equation,
    SearchLimits,
    Substitution,
    Var,
    algebra,
    apply_op,
    build_free,
    check_proof,
    class_satisfies,
    classify,
    compose,
    enumerate_terms,
    eqcl_to_var_check,
    evaluate,
    find_homs,
    free_lift,
    hom_factor,
    mod_check,
    nat_epi,
    product,
    satisfies,
    search_proof,
    soundness_audit,
    subalgebra_generate,
    substitute,
    theory_upto,
    var_to_eqcl_check,
)
from ualg.fileio import emit_algebra_file, parse_algebra_file
from ualg.terms import all_environments

from oracles import hom_image
from samples import (
    SIG_F,
    SIG_FE,
    SIG_M,
    all_binary_size2,
    certified_square_images,
    semilattice2,
    z2_xor,
    z3_add,
    z4_add,
)

X, Y = Var("x"), Var("y")


@contextmanager
def criterion(number: int, name: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert budget_seconds is None or elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")


def projection_tuples(n_vars: int, size: int) -> list[tuple[int, ...]]:
    envs = list(itertools.product(range(size), repeat=n_vars))
    return [tuple(env[i] for env in envs) for i in range(n_vars)]


def pointwise_closure(gens, op) -> set:
    """Oracle closure: repeatedly combine all pairs until stable."""
    closed = set(gens)
    while True:
        fresh = {
            tuple(op(a, b) for a, b in zip(t1, t2))
            for t1 in closed
            for t2 in closed
        } - closed
        if not fresh:
            return closed
        closed |= fresh


def test_criterion_1_free_semilattice_sizes():
    with criterion(1, "free semilattice sizes 2^n - 1", budget_seconds=1.0):
        for n in (1, 2, 3):
            oracle = pointwise_closure(projection_tuples(n, 2), min)
            assert len(oracle) == 2**n - 1
            free = build_free([semilattice2()], [f"v{i}" for i in range(n)])
            assert free.alg.size == len(oracle)
            assert set(free.tuples) == oracle


def test_criterion_2_free_xor_sizes():
    with criterion(2, "free xor-magma sizes", budget_seconds=1.0):
        xor = lambda a, b: a ^ b
        oracle2 = pointwise_closure(projection_tuples(2, 2), xor)
        assert len(oracle2) == 4
        free2 = build_free([z2_xor()], ["v0", "v1"])
        assert free2.alg.size == 4
        assert set(free2.tuples) == oracle2

        oracle1 = pointwise_closure(projection_tuples(1, 2), xor)
        assert len(oracle1) == 2
        assert build_free([z2_xor()], ["v0"]).alg.size == 2


def test_criterion_3_free_lift_interp_and_substitution_lemma():
    with criterion(3, "free-lift-interp + substitution lemma", budget_seconds=5.0):
        algebras = [z2_xor(), semilattice2(SIG_F)]
        terms = enumerate_terms(SIG_F, ["x", "y"], 3)
        shallow = enumerate_terms(SIG_F, ["x", "y"], 1)
        substitutions = [
            Substitution({"x": tx, "y": ty})
            for tx, ty in itertools.product(shallow, repeat=2)
        ]
        for alg in algebras:
            envs = [dict(rho) for rho in all_environments(["x", "y"], alg.size)]
            # free-lift-interp: two code paths, one value
            for t in terms:
                for rho in envs:
                    assert evaluate(alg, t, rho) == free_lift(alg, rho, t)
            # substitution lemma
            env_index = {(e["x"], e["y"]): i for i, e in enumerate(envs)}
            eval_rows = [
                tuple(evaluate(alg, t, rho) for rho in envs) for t in terms
            ]
            for sigma in substitutions:
                sigma_rows = {
                    v: tuple(evaluate(alg, sigma.lookup(v), rho) for rho in envs)
                    for v in ("x", "y")
                }
                composed = [
                    env_index[(sigma_rows["x"][i], sigma_rows["y"][i])]
                    for i in range(len(envs))
                ]
                for ti, t in enumerate(terms):
                    st = substitute(sigma, t)
                    for i, rho in enumerate(envs):
                        assert (
                            evaluate(alg, st, rho)
                            == eval_rows[ti][composed[i]]
                        )


def test_criterion_4_terms_commute_with_homomorphisms():
    with criterion(4, "terms commute with the mod-2 hom", budget_seconds=5.0):
        src, dst = z4_add(), z2_xor()
        h = CarrierMap(src, dst, (0, 1, 0, 1))
        assert classify(h).is_hom
        terms = enumerate_terms(SIG_F, ["x", "y"], 3)
        count = 0
        for rho in all_environments(["x", "y"], src.size):
            mapped = {v: h.image[c] for v, c in rho.items()}
            for t in terms:
                assert h.image[evaluate(src, t, rho)] == evaluate(dst, t, mapped)
                count += 1
        assert count == len(terms) * 16


def test_criterion_5_hom_factor_randomized():
    with criterion(5, "HomFactor on 200 randomized instances", budget_seconds=10.0):
        rng = random.Random(20240915)
        pool = [z2_xor(), semilattice2(SIG_F), z3_add()]
        successes = 0
        for _ in range(200):
            target = rng.choice(pool)
            src_size = min(3, target.size + rng.randrange(2))
            h_image = list(range(target.size))
            h_image += [
                rng.randrange(target.size) for _ in range(src_size - target.size)
            ]
            rng.shuffle(h_image)
            table = []
            for a, b in itertools.product(range(src_size), repeat=2):
                value = apply_op(target, "f", [h_image[a], h_image[b]])
                fibers = [i for i, v in enumerate(h_image) if v == value]
                table.append(rng.choice(fibers))
            src = algebra(SIG_F, src_size, {"f": table})
            h = CarrierMap(src, target, tuple(h_image))
            h_cls = classify(h)
            assert h_cls.is_hom and h_cls.surjective

            other = rng.choice(pool)
            candidates = find_homs(target, other)
            if not candidates:
                other = target
                candidates = find_homs(target, target)
            phi0 = rng.choice(candidates)
            g = compose(h, phi0)

            phi = hom_factor(g, h)
            assert classify(phi).is_hom
            assert compose(h, phi).image == g.image
            successes += 1
        assert successes == 200


def test_criterion_6_soundness_of_derived_equations():
    with criterion(6, "soundness of entailment search", budget_seconds=30.0):
        axioms = [Equation(App("f", (X, Y)), App("f", (Y, X)))]
        pool = all_binary_size2()
        models = [a for a in pool if mod_check(a, axioms).holds]
        assert len(models) == 8

        shallow = enumerate_terms(SIG_F, ["x", "y"], 1)
        candidates = []
        for tx, ty in itertools.product(shallow, repeat=2):
            sigma = Substitution({"x": tx, "y": ty})
            candidates.append(
                Equation(substitute(sigma, axioms[0].lhs), substitute(sigma, axioms[0].rhs))
            )
        derived = {}
        for goal in candidates:
            if goal.lhs == goal.rhs or goal in derived:
                continue
            outcome = search_proof(SIG_F, axioms, goal, SearchLimits(max_depth=4))
            if outcome.status == "found":
                assert check_proof(SIG_F, axioms, outcome.proof) == goal
                derived[goal] = outcome.proof
        assert len(derived) >= 5

        report = soundness_audit(SIG_F, axioms, list(derived.values()), pool)
        assert len(report.model_indices) == 8
        assert report.clean

        # 50 randomized axiom sets and searched derivations
        rng = random.Random(404)
        terms2 = enumerate_terms(SIG_F, ["x", "y"], 2)
        for _ in range(50):
            random_axioms = [
                Equation(rng.choice(terms2), rng.choice(terms2))
                for _ in range(rng.randrange(1, 3))
            ]
            proofs = []
            for _ in range(6):
                goal = Equation(rng.choice(terms2), rng.choice(terms2))
                outcome = search_proof(
                    SIG_F, random_axioms, goal, SearchLimits(max_depth=3, node_budget=4000)
                )
                if outcome.status == "found":
                    proofs.append(outcome.proof)
            assert soundness_audit(SIG_F, random_axioms, proofs, pool).clean


def test_criterion_7_hsp_preservation():
    with criterion(7, "H/S/P preserve satisfied equations", budget_seconds=30.0):
        cases = [z2_xor(), semilattice2(SIG_M), z3_add()]
        for alg in cases:
            theory = theory_upto([alg], ["x", "y"], 2)
            assert theory, "bounded theory should never be empty"

            square = product([alg, alg]).alg
            subalgebras = []
            for r in range(1, alg.size + 1):
                for gens in itertools.combinations(range(alg.size), r):
                    sub, _ = subalgebra_generate(alg, gens)
                    subalgebras.append(sub)
            images = []
            for m in find_homs(alg, alg):
                img, _ = hom_image(alg, m)
                images.append(img)

            for eq in theory:
                assert satisfies(square, eq).holds
                for sub in subalgebras:
                    assert satisfies(sub, eq).holds
                for img in images:
                    assert satisfies(img, eq).holds


def test_criterion_8_birkhoff_hard_direction():
    with criterion(8, "hard direction via certified members", budget_seconds=10.0):
        for base in (semilattice2(), z2_xor()):
            candidates = certified_square_images(base)
            assert len(candidates) >= 5
            passed = 0
            for image_alg, cert in candidates:
                report = var_to_eqcl_check([base], image_alg, cert)
                assert report.overall, report.lines()
                passed += 1
            assert passed >= 5


def test_criterion_9_birkhoff_easy_direction():
    with criterion(9, "easy direction: Mod(E) closed under H,S,P", budget_seconds=30.0):
        idem = Equation(App("m", (X, X)), X)
        comm = Equation(App("m", (X, Y)), App("m", (Y, X)))
        report = eqcl_to_var_check([idem, comm], pool_size_bound=2)
        assert report.overall, report.lines()


def test_criterion_10_kernel_characterizes_theory():
    with criterion(10, "free-algebra kernel = bounded theory", budget_seconds=10.0):
        K = [semilattice2()]
        free = build_free(K, ["x", "y"])
        terms = enumerate_terms(SIG_M, ["x", "y"], 2)
        labels = [nat_epi(free, t) for t in terms]
        checked = 0
        for (p, lp), (q, lq) in itertools.product(zip(terms, labels), repeat=2):
            assert (lp == lq) == class_satisfies(K, Equation(p, q)).holds
            checked += 1
        assert checked == len(terms) ** 2


def test_criterion_11_free_embedding_injective():
    with criterion(11, "free-algebra tuple embedding injective", budget_seconds=10.0):
        builds = [
            ([semilattice2()], 1),
            ([semilattice2()], 2),
            ([semilattice2()], 3),
            ([z2_xor()], 1),
            ([z2_xor()], 2),
            ([z2_xor(), semilattice2(SIG_F)], 2),
        ]
        for K, n in builds:
            free = build_free(K, [f"v{i}" for i in range(n)])
            assert len(set(free.tuples)) == len(free.tuples)
            assert len(free.tuples) == free.alg.size


def test_criterion_12_file_round_trips():
    with criterion(12, "parse after emit is the identity", budget_seconds=10.0):
        corpus = []
        corpus.append((SIG_F, [("Z2", z2_xor())]))
        corpus.append((SIG_F, [("Z3", z3_add())]))
        corpus.append((SIG_F, [("Z4", z4_add())]))
        corpus.append((SIG_M, [("SL", semilattice2())]))
        corpus.append(
            (SIG_F, [("Z2", z2_xor()), ("Z3", z3_add()), ("Z4", z4_add())])
        )
        with_const = algebra(
            SIG_FE,
            3,
            {"f": [(a * b) % 3 for a in range(3) for b in range(3)], "e": [1]},
        )
        corpus.append((SIG_FE, [("M3", with_const)]))
        square = product([z2_xor(), z2_xor()]).alg
        corpus.append((SIG_F, [("SQ", square)]))
        sub, _ = subalgebra_generate(z4_add(), [2])
        corpus.append((SIG_F, [("SUB", sub)]))

        free_builds = [
            ([semilattice2()], 1),
            ([semilattice2()], 2),
            ([semilattice2()], 3),
            ([z2_xor()], 1),
            ([z2_xor()], 2),
            ([z2_xor(), semilattice2(SIG_F)], 1),
            ([z2_xor(), semilattice2(SIG_F)], 2),
            ([z3_add()], 1),
            ([z3_add()], 2),
            ([z4_add()], 1),
            ([z4_add()], 2),
            ([with_const], 1),
        ]
        for K, n in free_builds:
            free = build_free(K, [f"v{i}" for i in range(n)])
            corpus.append((free.alg.sig, [("F", free.alg)]))

        assert len(corpus) == 20
        for sig, named in corpus:
            text = emit_algebra_file(sig, named)
            sig2, named2 = parse_algebra_file(text)
            assert sig2 == sig
            assert named2 == list(named)
            assert emit_algebra_file(sig2, named2) == text
