"""Executable desk-scale renditions of both directions of the HSP theorem.

Each pipeline replays a concrete construction stage by stage and reports
pass/fail with a replayable witness; the mathematics says every stage must
pass, so a failure is a bug in the artifact, never in the theorem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Union

from .core import DEFAULT_CAPS, Caps, FiniteAlgebra, UalgError
from .closure import (
    CertCheckResult,
    HspCertificate,
    _blocks_text,
    congruences,
    hsp_certificate_check,
    product,
    quotient,
    subuniverses,
)
from .eqlogic import find_models, mod_failures, satisfies, theory_partition
from .free import UniversalMapFailure, build_free, universal_map
from .homs import CarrierMap, hom_violation
from .terms import Environment, Equation, infer_signature

# the depth of K's two-variable theory that var_to_eqcl_check's last stage checks in B
THEORY_DEPTH = 2


class MalformedWitnessError(UalgError):
    pass


@dataclass(frozen=True)
class Stage:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class PipelineReport:
    stages: tuple[Stage, ...]

    @property
    def overall(self) -> bool:
        return all(s.passed for s in self.stages)

    def lines(self) -> list[str]:
        out = []
        for s in self.stages:
            status = "PASS" if s.passed else "FAIL"
            suffix = f" {s.witness}" if s.witness else ""
            out.append(f"STAGE {s.name} {status}{suffix}")
        return out


@dataclass(frozen=True)
class IsoWitness:
    forward: CarrierMap
    backward: CarrierMap


@dataclass(frozen=True)
class HomImageWitness:
    map: CarrierMap


@dataclass(frozen=True)
class SubalgebraWitness:
    embedding: CarrierMap


@dataclass(frozen=True)
class ProductWitness:
    factors: tuple[FiniteAlgebra, ...]


InvarianceWitness = Union[IsoWitness, HomImageWitness, SubalgebraWitness, ProductWitness]


def _derived_algebra(A: FiniteAlgebra, witness: InvarianceWitness, caps: Caps) -> FiniteAlgebra:
    """Validate the witness and build the algebra it derives from A."""
    if isinstance(witness, IsoWitness):
        f, g = witness.forward, witness.backward
        if f.src != A or g.dst != A or f.dst != g.src:
            raise MalformedWitnessError("iso pair does not connect A to the target")
        for m in (f, g):
            _require_hom(m, "iso component")
        if any(g.image[b] != a for a, b in enumerate(f.image)) or any(
            f.image[a] != b for b, a in enumerate(g.image)
        ):
            raise MalformedWitnessError("maps are not mutually inverse")
        return f.dst
    if isinstance(witness, HomImageWitness):
        if witness.map.src != A:
            raise MalformedWitnessError("hom-image map does not start at A")
        _require_hom(witness.map, "image map")
        # A/ker, each element labelled by the least with its image, is
        # isomorphic to the image (first isomorphism theorem)
        image = witness.map.image
        return quotient(A, [image.index(b) for b in image])[0]
    if isinstance(witness, SubalgebraWitness):
        m = witness.embedding
        if m.dst != A:
            raise MalformedWitnessError("embedding does not land in A")
        _require_hom(m, "embedding")
        if len(set(m.image)) != m.src.size:
            raise MalformedWitnessError("embedding is not injective")
        return m.src
    if isinstance(witness, ProductWitness):
        if not witness.factors:
            raise MalformedWitnessError("product witness needs at least one factor")
        if any(f != A for f in witness.factors):
            raise MalformedWitnessError(
                "product witness must list copies of A so each factor satisfies the equation"
            )
        return product(witness.factors, caps).alg
    raise MalformedWitnessError(f"unrecognized witness {witness!r}")


def _require_hom(m: CarrierMap, what: str) -> None:
    v = hom_violation(m)
    if v is not None:
        raise MalformedWitnessError(f"{what} is not a hom at {v[0]}{v[1]}")


def verify_invariance(
    A: FiniteAlgebra, eq: Equation, witness: InvarianceWitness, caps: Caps = DEFAULT_CAPS
) -> PipelineReport:
    """Confirm that satisfaction of eq transfers from A along the witness."""
    derived = _derived_algebra(A, witness, caps)
    kind = type(witness).__name__.removesuffix("Witness").lower()
    stages = [Stage("witness-wellformed", True, kind)]
    base = satisfies(A, eq, caps)
    if not base.holds:
        stages.append(Stage("base-satisfies", True, f"vacuous: A fails at {base.counterexample}"))
        return PipelineReport(tuple(stages))
    stages.append(Stage("base-satisfies", True))
    res = satisfies(derived, eq, caps)
    if res.holds:
        stages.append(Stage("derived-satisfies", True))
    else:
        stages.append(Stage("derived-satisfies", False, f"counterexample {res.counterexample}"))
    return PipelineReport(tuple(stages))


def eqcl_to_var_check(
    E: Sequence[Equation],
    pool_size_bound: int,
    caps: Caps = DEFAULT_CAPS,
) -> PipelineReport:
    """The easy direction: the model class of E is closed under H, S, P.

    find_models gives every model of E up to the size bound, one
    representative per isomorphism class; the witness counts all models.
    The stages replay products of unordered pairs of representatives,
    generated subalgebras of each, and quotients A/theta of each by every
    congruence but 0_A and 1_A, requiring each derived algebra to model E.
    The subalgebras are those closure.subuniverses yields, one per distinct
    subuniverse from the first nonempty generator subset reaching it; the
    later ones generate it too, so the first failure is the same.
    This covers every model: satisfaction is preserved by isomorphism,
    A x B is isomorphic to B x A and to A' x B' for A' ~ A and B' ~ B, and
    the subalgebras and quotients of isomorphic algebras correspond.  It
    covers every hom image too: an image in a model B is a subuniverse of
    B, so the subalgebra stage checks it; every hom image of A is
    isomorphic to A/ker; and A/0_A is A, A/1_A the trivial model, both
    already checked.  A model search, product or congruence lattice past
    caps raises CapExceededError; nothing is skipped.

    Each stage checks its derived algebras in batches (eqlogic.mod_failures):
    consecutive ones share one lane plan while their sizes' n^top sum to at
    most 256, top the largest arity (64 of size 2, 16 of size 4 or 3 of
    size 9 for binary symbols), and each equation's sides are computed once
    per batch.  The failing algebra is still the first in generator order
    that fails E, with its first failing equation replayed through
    satisfies for the witness; a cap error raised by a later derived
    algebra, or by an environment space, comes only after the algebras
    before it are checked, as it did one algebra at a time.
    """
    sig = infer_signature(E)
    models: list[FiniteAlgebra] = []
    count = 0
    for size in range(1, pool_size_bound + 1):
        reps, n = find_models(sig, E, size, caps)
        models.extend(reps)
        count += n
    stages = [Stage("enumerate-models", True, f"{count} models of {len(E)} equations")]
    closures = [
        ("products-closed", ((product([a, b], caps).alg, "product")
                             for a, b in itertools.combinations_with_replacement(models, 2))),
        ("subalgebras-closed", ((sub, f"subalgebra from {gens}")
                                for alg in models for gens, sub, _ in subuniverses(alg))),
        ("hom-images-closed", ((quotient(alg, theta)[0], f"quotient by {_blocks_text(theta)}")
                               for alg in models
                               for theta in congruences(alg, caps)
                               if 1 < len(set(theta)) < alg.size)),
    ]
    for name, derived in closures:
        for alg, how, i in mod_failures(derived, E, caps):
            bad = Stage("closure", False, f"{how} breaks equation {i} at {_replay(alg, E[i], caps)}")
            return PipelineReport((*stages, bad))
        stages.append(Stage(name, True))
    return PipelineReport(tuple(stages))


def _replay(alg: FiniteAlgebra, eq: Equation, caps: Caps) -> Environment:
    """satisfies' counterexample to an equation alg's value columns fail;
    UalgError when there is none, for then the two evaluations disagree."""
    res = satisfies(alg, eq, caps)
    if res.holds:
        raise UalgError(f"value columns fail {eq}, but satisfies finds no counterexample")
    return res.counterexample


def var_to_eqcl_check(
    K: Sequence[FiniteAlgebra],
    B: FiniteAlgebra,
    cert: HspCertificate,
    caps: Caps = DEFAULT_CAPS,
) -> PipelineReport:
    """The hard direction at desk scale: a certified member of V(K) is a
    homomorphic image of the free algebra on one variable per distinct
    image of the certificate's generators.  Those images generate B: the
    checked image is a subalgebra of B that covers B.  caps bounds every
    stage; no stage runs a hom search."""
    stages = []
    cert_res: CertCheckResult = hsp_certificate_check(K, B, cert, caps)
    if not cert_res.ok:
        stages.append(
            Stage("certificate", False, f"{cert_res.stage}: {cert_res.detail}")
        )
        return PipelineReport(tuple(stages))
    stages.append(Stage("certificate", True))

    # close labels the subalgebra's seeds, sorted(set(cert.gens)), 0..k-1
    images = list(dict.fromkeys(cert.image[: len(set(cert.gens))]))
    variables = [f"v{i}" for i in range(len(images))]
    free = build_free(K, variables, caps)
    stages.append(
        Stage("free-build", True, f"{free.alg.size} elements over {len(free.index)} coordinates")
    )

    result = universal_map(free, B, dict(zip(variables, images)))
    if isinstance(result, UniversalMapFailure):
        if result.kind == "hom":
            detail = f"hom check failed at {result.symbol}{result.args}"
        else:
            detail = f"surjectivity failed: {result.unreached} unreached"
        stages.append(Stage("universal-map", False, detail))
        return PipelineReport(tuple(stages))
    stages.append(Stage("universal-map", True, f"image {result.image}"))

    stages.append(_models_theory(K, B, THEORY_DEPTH, caps))
    return PipelineReport(tuple(stages))


def _models_theory(K: Sequence[FiniteAlgebra], B: FiniteAlgebra, depth: int, caps: Caps) -> Stage:
    """B satisfies the two-variable theory of K up to depth: each class of
    the partition is constant on B's value columns.  A failure replays the
    first failing equation of the theory through satisfies, for its witness."""
    theory = theory_partition(K, ["x", "y"], depth, caps)
    eq = theory.first_failure(B, caps)
    if eq is None:
        return Stage("models-theory", True, f"{theory.pair_count} equations")
    return Stage("models-theory", False, f"{eq} fails at {_replay(B, eq, caps)}")
