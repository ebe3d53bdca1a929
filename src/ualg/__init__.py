"""A finite universal-algebra workbench.

Term evaluation, homomorphism algebra, the H/S/P closure constructions, an
equational-entailment proof checker, and relatively free algebras of
varieties generated by finite algebras, all verified at desk scale against
brute-force oracles.
"""

from .core import (
    CapExceededError,
    Caps,
    FiniteAlgebra,
    Signature,
    UalgError,
    Violation,
    algebra,
    apply_op,
    signature,
)
from .terms import (
    App,
    Environment,
    Equation,
    Substitution,
    Term,
    Var,
    enumerate_terms,
    evaluate,
    free_lift,
    infer_signature,
    substitute,
)
from .homs import (
    CarrierMap,
    HomClassification,
    classify,
    compose,
    find_homs,
    find_isomorphism,
    hom_factor,
    identity_map,
    is_isomorphic,
    kernel_pairs,
)
from .closure import (
    HspCertificate,
    ProductAlgebra,
    check_leq,
    congruences,
    hsp_certificate_check,
    product,
    quotient,
    subalgebra_generate,
    trivial_certificate,
)
from .eqlogic import (
    SatResult,
    class_satisfies,
    find_models,
    mod_check,
    satisfies,
    theory_upto,
)
from .entail import (
    SearchLimits,
    SearchOutcome,
    check_proof,
    search_proof,
    soundness_audit,
)
from .free import FreeAlgebra, build_free, nat_epi, universal_map
from .birkhoff import (
    PipelineReport,
    eqcl_to_var_check,
    var_to_eqcl_check,
    verify_invariance,
)

__version__ = "0.1.0"
