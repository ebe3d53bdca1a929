"""The `ualg` command-line front end.

Exit codes: 0 when the queried property holds (or the command succeeded),
1 when the property fails (witnesses on stdout as `WITNESS ...` lines),
2 for unusable input, usage errors or terms nested past the recursion
limit (message on stderr).
"""

from __future__ import annotations

import argparse
import functools
import signal
import sys
from typing import Sequence, TextIO

from .core import Caps, FiniteAlgebra, Signature, UalgError, decimal
from .birkhoff import (
    ProductWitness,
    eqcl_to_var_check,
    var_to_eqcl_check,
    verify_invariance,
)
from .closure import trivial_certificate
from .eqlogic import class_satisfies, satisfies, theory_partition
from .entail import (
    ProofCheckError,
    SearchLimits,
    check_proof,
    collect_proof_arities,
    search_proof,
)
from .fileio import (
    AlgebraValidationError,
    emit_algebra_file,
    emit_free_sidecar,
    parse_algebra_file,
    parse_equation,
    parse_equation_file,
    parse_proof,
    proof_to_text,
    theory_text_rows,
)
from .free import build_free
from .homs import (
    CarrierMap,
    KernelInclusionError,
    NotSurjectiveError,
    classify,
    find_homs,
    hom_factor,
)
from .terms import infer_signature


class UsageError(UalgError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built once: argparse parsers are reference cycles, so a fresh parser
    # per call would leave a quarter megabyte of garbage for the collector.
    parser = _Parser(prog="ualg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an algebra file's tables")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("file")

    p = sub.add_parser("sat", help="does one algebra satisfy an equation?")
    p.set_defaults(run=_cmd_sat)
    p.add_argument("--algebra", required=True, metavar="FILE[:NAME]")
    p.add_argument("--equation", required=True, metavar='"p = q"')

    p = sub.add_parser("class-sat", help="does every listed algebra satisfy it?")
    p.set_defaults(run=_cmd_class_sat)
    p.add_argument("--equation", required=True, metavar='"p = q"')
    p.add_argument("files", nargs="+", metavar="FILE[:NAME]")

    p = sub.add_parser("theory", help="bounded equational theory of a class")
    p.set_defaults(run=_cmd_theory)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--vars", type=int, required=True, metavar="K")
    p.add_argument("files", nargs="+", metavar="FILE[:NAME]")

    p = sub.add_parser("hom", help="classify a carrier map")
    p.set_defaults(run=_cmd_hom)
    p.add_argument("--src", required=True, metavar="FILE[:NAME]")
    p.add_argument("--dst", required=True, metavar="FILE[:NAME]")
    p.add_argument("--map", required=True, metavar='"i0 i1 ..."')

    p = sub.add_parser("hom-find", help="enumerate homomorphisms")
    p.set_defaults(run=_cmd_hom_find)
    p.add_argument("--src", required=True, metavar="FILE[:NAME]")
    p.add_argument("--dst", required=True, metavar="FILE[:NAME]")
    p.add_argument("--surjective", action="store_true")
    p.add_argument("--injective", action="store_true")

    p = sub.add_parser("factor", help="factor g through a surjective h")
    p.set_defaults(run=_cmd_factor)
    p.add_argument("--src", required=True, metavar="FILE[:NAME]")
    p.add_argument("--gdst", required=True, metavar="FILE[:NAME]")
    p.add_argument("--hdst", required=True, metavar="FILE[:NAME]")
    p.add_argument("--g", required=True, metavar='"i0 i1 ..."')
    p.add_argument("--h", required=True, metavar='"i0 i1 ..."')

    p = sub.add_parser("free", help="build the relatively free algebra")
    p.set_defaults(run=_cmd_free)
    p.add_argument("--vars", type=int, required=True, metavar="K")
    p.add_argument("--out", metavar="BASE", help="write BASE.alg and BASE.elems")
    p.add_argument("files", nargs="+", metavar="FILE[:NAME]")

    p = sub.add_parser("entail-check", help="check a proof object against a goal")
    p.set_defaults(run=_cmd_entail_check)
    p.add_argument("--axioms", required=True, metavar="FILE")
    p.add_argument("--goal", required=True, metavar='"p = q"')
    p.add_argument("--proof", required=True, metavar="FILE")

    p = sub.add_parser("entail-search", help="search for a proof of a goal")
    p.set_defaults(run=_cmd_entail_search)
    p.add_argument("--axioms", required=True, metavar="FILE")
    p.add_argument("--goal", required=True, metavar='"p = q"')
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=SearchLimits.node_budget)
    p.add_argument("--max-term-size", type=int, default=SearchLimits.max_term_size)

    p = sub.add_parser("birkhoff-demo", help="run the HSP demonstration pipelines")
    p.set_defaults(run=_cmd_birkhoff_demo)
    p.add_argument("--vars", type=int, required=True, metavar="K")
    p.add_argument("files", nargs="+", metavar="FILE[:NAME]")

    return parser


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_algebras(spec: str) -> list[tuple[str, FiniteAlgebra]]:
    """FILE loads all algebras in the file, FILE:NAME just that one."""
    path, _, name = spec.partition(":")
    _, algebras = parse_algebra_file(_read(path), file=path)
    if not name:
        if not algebras:
            raise UsageError(f"{path} contains no algebras")
        return algebras
    for entry in algebras:
        if entry[0] == name:
            return [entry]
    raise UsageError(f"{path} has no algebra named {name!r}")


def _load_one(spec: str) -> tuple[str, FiniteAlgebra]:
    return _load_algebras(spec)[0]


def _load_class(specs: Sequence[str]) -> list[tuple[str, FiniteAlgebra]]:
    out = []
    for spec in specs:
        out.extend(_load_algebras(spec))
    return out


def _parse_map(text: str, src: FiniteAlgebra, dst: FiniteAlgebra, flag: str) -> CarrierMap:
    values = tuple(map(decimal, text.split()))
    if None in values:
        raise UsageError(f"{flag} expects space-separated carrier values")
    try:
        return CarrierMap(src, dst, values)
    except ValueError as e:
        raise UsageError(f"{flag}: {e}") from None


def _gen_vars(count: int, least: int = 0) -> list[str]:
    if count < least:
        raise UsageError(f"--vars must be at least {least}, got {count}")
    return [f"v{i}" for i in range(count)]


def run_cli(argv: Sequence[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        caps = Caps.from_env()
        try:
            args = parser.parse_args(list(argv))
        except SystemExit as e:  # --help and friends
            return 0 if not e.code else 2
        return args.run(args, caps, out, err)
    except UsageError as e:
        print(f"usage error: {e}", file=err)
        return 2
    except (UalgError, OSError, ValueError) as e:
        print(f"error: {e}", file=err)
        return 2
    except RecursionError as e:  # a term nested past the interpreter's recursion limit
        print(f"error: term nested too deeply: {e}", file=err)
        return 2


def main() -> None:
    # a closed pipe ends the process quietly, as it does other Unix tools
    sigpipe = getattr(signal, "SIGPIPE", None)
    if sigpipe is not None:
        signal.signal(sigpipe, signal.SIG_DFL)
    sys.exit(run_cli(sys.argv[1:]))


def _cmd_validate(args, caps: Caps, out: TextIO, err: TextIO) -> int:
    try:
        _, algebras = parse_algebra_file(_read(args.file), file=args.file)
    except AlgebraValidationError as e:
        for name, violation in e.failures:
            index = violation.index if violation.index is not None else "-"
            print(
                f"WITNESS algebra={name} op={violation.symbol} index={index} "
                f"{violation.message}",
                file=out,
            )
        return 1
    print(f"OK {len(algebras)} algebra(s)", file=out)
    return 0


def _cmd_sat(args, caps: Caps, out: TextIO, err: TextIO) -> int:
    name, alg = _load_one(args.algebra)
    eq = parse_equation(args.equation)
    result = satisfies(alg, eq, caps)
    if result.holds:
        print(f"RESULT holds {eq}", file=out)
        return 0
    print(f"WITNESS {result.counterexample}", file=out)
    return 1


def _cmd_class_sat(args, caps: Caps, out: TextIO, err: TextIO) -> int:
    named = _load_class(args.files)
    eq = parse_equation(args.equation)
    result = class_satisfies([alg for _, alg in named], eq, caps)
    if result.holds:
        print(f"RESULT holds in {len(named)} algebra(s)", file=out)
        return 0
    failing = named[result.failing_index][0]
    print(f"WITNESS algebra={failing} {result.counterexample}", file=out)
    return 1


def _cmd_theory(args, caps: Caps, out: TextIO, err: TextIO) -> int:
    variables = _gen_vars(args.vars)
    named = _load_class(args.files)
    theory = theory_partition([alg for _, alg in named], variables, args.depth, caps)
    for row in theory_text_rows(theory):
        out.write(row)
    return 0


def _cmd_hom(args, caps: Caps, out: TextIO, err: TextIO) -> int:
    _, src = _load_one(args.src)
    _, dst = _load_one(args.dst)
    m = _parse_map(args.map, src, dst, "--map")
    cls = classify(m)
    if cls.is_hom:
        inj = "yes" if cls.injective else "no"
        sur = "yes" if cls.surjective else "no"
        print(f"RESULT hom injective={inj} surjective={sur}", file=out)
        return 0
    symbol, hom_args = cls.witness
    print(
        f"WITNESS op={symbol} args={','.join(map(str, hom_args))}",
        file=out,
    )
    return 1


def _cmd_hom_find(args, caps: Caps, out: TextIO, err: TextIO) -> int:
    _, src = _load_one(args.src)
    _, dst = _load_one(args.dst)
    homs = find_homs(
        src,
        dst,
        surjective=True if args.surjective else None,
        injective=True if args.injective else None,
        caps=caps,
    )
    for m in homs:
        print("MAP " + " ".join(map(str, m.image)), file=out)
    if homs:
        print(f"RESULT {len(homs)} map(s)", file=out)
        return 0
    print("RESULT none", file=out)
    return 1


def _cmd_factor(args, caps: Caps, out: TextIO, err: TextIO) -> int:
    _, src = _load_one(args.src)
    _, gdst = _load_one(args.gdst)
    _, hdst = _load_one(args.hdst)
    g = _parse_map(args.g, src, gdst, "--g")
    h = _parse_map(args.h, src, hdst, "--h")
    try:
        phi = hom_factor(g, h)
    except NotSurjectiveError as e:
        print(f"WITNESS not-surjective missing={e.missing}", file=out)
        return 1
    except KernelInclusionError as e:
        print(f"WITNESS kernel-pair {e.pair[0]} {e.pair[1]}", file=out)
        return 1
    print("MAP " + " ".join(map(str, phi.image)), file=out)
    return 0


def _cmd_free(args, caps: Caps, out: TextIO, err: TextIO) -> int:
    variables = _gen_vars(args.vars)
    named = _load_class(args.files)
    free = build_free([alg for _, alg in named], variables, caps)
    text = emit_algebra_file(free.alg.sig, [("F", free.alg)])
    sidecar = emit_free_sidecar(free)
    if args.out:
        with open(f"{args.out}.alg", "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(f"{args.out}.elems", "w", encoding="utf-8") as fh:
            fh.write(sidecar)
        print(
            f"RESULT {free.alg.size} elements -> {args.out}.alg {args.out}.elems",
            file=out,
        )
    else:
        out.write(text)
        out.write(sidecar)
    return 0


def _infer_proof_signature(axioms, goal, proofs=()) -> Signature:
    arities = dict(infer_signature([*axioms, goal]).ops)
    for p in proofs:
        collect_proof_arities(p, arities)
    return Signature(tuple(sorted(arities.items())))


def _cmd_entail_check(args, caps: Caps, out: TextIO, err: TextIO) -> int:
    axioms = parse_equation_file(_read(args.axioms), file=args.axioms)
    goal = parse_equation(args.goal)
    proof = parse_proof(_read(args.proof), file=args.proof)
    sig = _infer_proof_signature(axioms, goal, [proof])
    try:
        conclusion = check_proof(sig, axioms, proof)
    except ProofCheckError as e:
        print(f"WITNESS proof-error {e}", file=out)
        return 1
    if conclusion == goal:
        print(f"RESULT proved {conclusion}", file=out)
        return 0
    print(f"WITNESS concluded {conclusion}", file=out)
    return 1


def _cmd_entail_search(args, caps: Caps, out: TextIO, err: TextIO) -> int:
    axioms = parse_equation_file(_read(args.axioms), file=args.axioms)
    goal = parse_equation(args.goal)
    sig = _infer_proof_signature(axioms, goal)
    limits = SearchLimits(
        max_depth=args.depth,
        max_term_size=args.max_term_size,
        node_budget=args.budget,
    )
    outcome = search_proof(sig, axioms, goal, limits, caps)
    if outcome.status == "found":
        print(f"PROOF {proof_to_text(outcome.proof)}", file=out)
        return 0
    if outcome.model_step == "capped":
        cells = min(caps.cells, limits.node_budget)
        print(f"note: caps stopped the size-2 countermodel search at cells={cells}, the least of "
              "UALG_CAPS=cells= and --budget; raising both may yet refute the goal", file=err)
    print(f"RESULT {'budget-exhausted' if outcome.status == 'budget' else outcome.status}", file=out)
    return 1


def _cmd_birkhoff_demo(args, caps: Caps, out: TextIO, err: TextIO) -> int:
    variables = _gen_vars(args.vars, 1)
    named = _load_class(args.files)
    K = [alg for _, alg in named]
    all_ok = True

    def emit(report, prefix: str) -> None:
        nonlocal all_ok
        for line in report.lines():
            print(line.replace("STAGE ", f"STAGE {prefix}."), file=out)
        all_ok = all_ok and report.overall

    theory = theory_partition(K, variables, 1, caps)
    nontrivial = [eq for eq in theory.equations() if eq.lhs != eq.rhs]
    print(f"# theory of the class up to depth 1: {theory.pair_count} equations", file=out)

    # every member gets an equation; the theory always holds x = x
    equations = nontrivial or list(theory.equations())
    for i, (name, alg) in enumerate(named):
        eq = equations[i % len(equations)]
        emit(verify_invariance(alg, eq, ProductWitness((alg, alg)), caps), f"invariance.{name}")

    if nontrivial:
        sample = nontrivial[: min(4, len(nontrivial))]
        emit(eqcl_to_var_check(sample, 2, caps), "easy-direction")

    for i, (name, alg) in enumerate(named):
        cert = trivial_certificate(i, alg, caps)
        emit(var_to_eqcl_check(K, alg, cert, caps=caps), f"hard-direction.{name}")

    print(f"RESULT {'pass' if all_ok else 'fail'}", file=out)
    return 0 if all_ok else 1


if __name__ == "__main__":
    main()
