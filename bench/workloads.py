"""The four seeded workloads: verification jobs with independently known answers.

A builder takes a seeded `random.Random`, the freshly imported `ualg`
package and an `Inputs` that writes each generated file and parses it
through `ualg.fileio`.  It returns the jobs of one pass; the runner calls it
again for every pass, with a generator seeded from the run's seed and the
pass index, so no pass sees the inputs of another.  The seed only relabels
carriers, picks generators, and renames and reorders laws, so the work per
pass is comparable across seeds and passes while search and discovery orders
change.
"""

from __future__ import annotations

import io
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Sequence

from tame import (
    Alg,
    alg_text,
    all_algebras,
    certified_member,
    free_size,
    holds,
    is_hom,
    is_iso_pair,
    product,
    relabel,
    rename,
    seeded,
    shuffled,
    tame,
    term_text,
    term_vars,
    theory_size,
)


@dataclass
class Job:
    """One call whose answer is known.  run() is timed; read() turns its
    result into a verdict and expect() computes the known answer, both
    untimed.  Frontier jobs are known defects: they count only towards
    decided_share."""

    label: str
    run: Callable[[], Any]
    read: Callable[[Any], Any]
    expect: Callable[[], Any]
    frontier: bool = False


class Inputs:
    """Writes generated inputs under workdir and parses them with ualg.fileio.
    parse_s adds up the time spent in the parser, and only there: the
    benchmark's own generation is not part of set-up time."""

    def __init__(self, U, workdir: Path):
        self.U = U
        self.workdir = workdir
        self.parse_s = 0.0

    def _parse(self, parse, text: str, **kwargs):
        start = perf_counter()
        try:
            return parse(text, **kwargs)
        finally:
            self.parse_s += perf_counter() - start

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def _write(self, name: str, text: str) -> str:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return text

    def algebras(self, name: str, named: Sequence[tuple[str, Alg]]) -> list:
        text = self._write(name, alg_text(named))
        _, parsed = self._parse(self.U.fileio.parse_algebra_file, text, file=name)
        return [alg for _, alg in parsed]

    def equations(self, name: str, eqs) -> list:
        text = self._write(name, "".join(f"{term_text(l)} = {term_text(r)}\n" for l, r in eqs))
        return self._parse(self.U.fileio.parse_equation_file, text, file=name)

    def certificate(self, factors, gens, image):
        factor_text = " ".join(f"({k} {p})" for k, p in factors)
        text = (
            f"(cert (factors {factor_text}) (gens {' '.join(map(str, gens))}) "
            f"(image {' '.join(map(str, image))}))"
        )
        return self._parse(self.U.fileio.parse_certificate, text)

    def proof(self, text: str):
        return self._parse(self.U.fileio.parse_proof, text)

    def equation(self, eq):
        return self._parse(self.U.fileio.parse_equation, f"{term_text(eq[0])} = {term_text(eq[1])}")


class Undecided(Exception):
    """ualg gave up without a verdict: the CLI exited 2 (e.g. at a resource
    cap), or a proof search ran out of its node budget."""


def _cli(U, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    rc = U.cli.run_cli(argv, stdout=out, stderr=err)
    if rc == 2:
        raise Undecided(err.getvalue().strip())
    return rc, out.getvalue()


def _last_line(result: tuple[int, str]) -> tuple[int, str]:
    rc, text = result
    lines = text.splitlines()
    return rc, lines[-1] if lines else ""


def _const(value):
    return lambda: value


# ------------------------------------------------------------ hard-direction

# (class members, certificate factors, member size); members have <= 3
# elements so that the free algebra on |B| generators stays desk-sized.
HARD_MEMBERS = [
    (("C3",), ((0, 2),), 3),
    (("C3",), ((0, 1),), 2),
    (("Z3",), ((0, 2),), 3),
    (("Z3",), ((0, 1),), 3),
    (("L3",), ((0, 2),), 3),
    (("L3",), ((0, 1),), 2),
    (("Z2",), ((0, 2),), 2),
    (("Z2", "C2"), ((0, 1), (1, 1)), 2),
    (("C2", "L2"), ((0, 1), (1, 1)), 2),
    (("Z2", "L2"), ((0, 2), (1, 1)), 2),
    (("C3", "L2"), ((0, 1), (1, 1)), 3),
    (("L2", "C3"), ((0, 1), (1, 1)), 2),
    (("Z2",), ((0, 1),), 2),
    (("C2",), ((0, 3),), 2),
    (("L2", "Z2"), ((0, 1), (1, 2)), 2),
]
HARD_CLASSES = [("Z2", "C2"), ("C3",), ("Z3",), ("L3",), ("Z2", "L2")]
# ROADMAP: `birkhoff-demo --vars 2 demos/data/pool.alg` ran for over 6 minutes.
POOL_CLASS = ("Z2", "Z3", "Z4", "C2")


def _product_name(kinds, factors) -> str:
    return "x".join(kinds[k] + (f"^{p}" if p > 1 else "") for k, p in factors)


def _member(rng, inputs: Inputs, index: str, kinds, factors, size):
    """Parse a seeded certified member of V(K); returns (K, B, certificate)."""
    K = [seeded(rng, kind) for kind in kinds]
    gens, image, B = certified_member(rng, K, factors, size)
    named = [(f"K{i}", alg) for i, alg in enumerate(K)] + [("B", B)]
    parsed = inputs.algebras(f"member{index}.alg", named)
    return parsed[:-1], parsed[-1], inputs.certificate(factors, gens, image)


def _class_file(rng, inputs: Inputs, name: str, kinds) -> tuple[str, list[Alg]]:
    K = [seeded(rng, kind) for kind in kinds]
    inputs.algebras(name, [(f"{kind}_{i}", alg) for i, (kind, alg) in enumerate(zip(kinds, K))])
    return inputs.path(name), K


def hard_direction(rng: random.Random, U, inputs: Inputs) -> list[Job]:
    jobs = []
    for copy in range(2):
        for i, (kinds, factors, size) in enumerate(HARD_MEMBERS):
            K, B, cert = _member(rng, inputs, f"{copy}_{i}", kinds, factors, size)
            jobs.append(
                Job(
                    f"var_to_eqcl_check {_product_name(kinds, factors)} -> B{size} #{copy}",
                    lambda K=K, B=B, cert=cert: U.var_to_eqcl_check(K, B, cert),
                    lambda report: report.overall,
                    _const(True),  # Birkhoff: every certified member passes
                )
            )
    for i, kinds in enumerate(HARD_CLASSES):
        path, K = _class_file(rng, inputs, f"class{i}.alg", kinds)
        tag = "+".join(kinds)
        jobs.append(
            Job(
                f"cli birkhoff-demo {tag}",
                lambda path=path: _cli(U, ["birkhoff-demo", "--vars", "2", path]),
                _last_line,
                _const((0, "RESULT pass")),
            )
        )
        jobs.append(
            Job(
                f"cli theory {tag}",
                lambda path=path: _cli(U, ["theory", "--depth", "2", "--vars", "2", path]),
                lambda result: (result[0], result[1].count("\n")),
                lambda K=K: (0, theory_size(K, 2, 2)),
            )
        )
    path, _ = _class_file(rng, inputs, "pool.alg", POOL_CLASS)
    jobs.append(
        Job(
            "cli birkhoff-demo " + "+".join(POOL_CLASS),
            lambda: _cli(U, ["birkhoff-demo", "--vars", "2", path]),
            _last_line,
            _const((0, "RESULT pass")),
            frontier=True,
        )
    )
    return jobs


# ------------------------------------------------------------ easy-direction

_X, _Y, _Z = "x", "y", "z"
LAWS = {
    "assoc": (((_X, _Y), _Z), (_X, (_Y, _Z))),
    "comm": ((_X, _Y), (_Y, _X)),
    "idem": ((_X, _X), _X),
    "leftproj": ((_X, _Y), _X),
    "rightproj": ((_X, _Y), _Y),
    "lq": ((_X, (_X, _Y)), _Y),
    "rq": (((_X, _Y), _Y), _X),
    "rectband": (((_X, _Y), _Z), (_X, _Z)),
}
# (laws, a law that does not follow from them: each fails in an algebra of
# size 2).  [comm] alone and 4-variable laws are left out: at pool size 3
# they take 20 s to minutes per check, too long for a pass.
LAW_SETS = [
    (("assoc",), "comm"),
    (("comm", "assoc"), "idem"),
    (("leftproj",), "rightproj"),
    (("lq",), "idem"),
    (("rq",), "idem"),
    (("idem", "rectband"), "comm"),
    (("idem", "comm", "assoc"), "leftproj"),
    (("rightproj",), "leftproj"),
    (("comm", "idem"), "leftproj"),
]
NAMES = ["a", "b", "c", "u", "v", "w", "x", "y", "z"]
# Proof searches per law set, each with its own names: the time of a search
# depends on them, and the percentiles of a pass should not hang on a few.
SEARCH_COPIES = 4
SEARCH_LIMITS = dict(max_depth=3, max_term_size=24, node_budget=20_000)


def _present(law, names):
    """A law with its variables renamed.  Sides are never swapped: that
    would change how long a proof search takes from seed to seed."""
    return tuple(rename(side, names) for side in LAWS[law])


def _pair(rng, names: list[str]):
    return rng.choice(names), rng.choice(names)


def _sub_text(sigma) -> str:
    return " ".join(f"({v} {term_text(t)})" for v, t in sigma.items())


def easy_direction(rng: random.Random, U, inputs: Inputs) -> list[Job]:
    pool = [alg for size in (1, 2) for alg in all_algebras(size)]
    parsed_pool = inputs.algebras("models.alg", [(f"A{i}", alg) for i, alg in enumerate(pool)])
    limits = U.SearchLimits(**SEARCH_LIMITS)
    jobs = []
    for i, (laws, refuted) in enumerate(LAW_SETS):
        picked = rng.sample(NAMES, 3)
        names = dict(zip((_X, _Y, _Z), picked))
        order = list(laws)
        rng.shuffle(order)
        axioms = [_present(law, names) for law in order]
        E = inputs.equations(f"laws{i}.eqs", axioms)
        tag = "+".join(laws)  # the same in every pass, whatever the order
        jobs.append(
            Job(
                f"eqcl_to_var_check {tag}",
                lambda E=E: U.eqcl_to_var_check(E, 3),
                lambda report: report.overall,
                _const(True),  # Birkhoff: a model class is closed under H, S, P
            )
        )
        sig = U.infer_signature(E)
        for copy in range(SEARCH_COPIES):
            tagged = f"{tag} #{copy}"
            proofs = []
            # derivable goals, each with the proof it is built from: the first
            # law instantiated with pairs (k = 0), and the last law renamed,
            # flipped and put in a context (k = 1).  Laws and shapes are fixed
            # so that a seed changes names, not the amount of search.
            for k in range(2):
                index = order.index(laws[-k])
                lhs, rhs = axioms[index]
                fresh = rng.sample(NAMES, 3)
                sigma = {
                    v: _pair(rng, fresh) if k == 0 else rng.choice(fresh)
                    for v in term_vars(rhs, term_vars(lhs))
                }
                goal = (rename(lhs, sigma), rename(rhs, sigma))
                proof = f"(sub (hyp {index}) ({_sub_text(sigma)}))"
                if k == 1:
                    context = _pair(rng, fresh)
                    goal = ((goal[1], context), (goal[0], context))
                    proof = f"(app f (sub (sym (hyp {index})) ({_sub_text(sigma)})) (refl {term_text(context)}))"
                proofs.append(inputs.proof(proof))
                jobs.append(_search_job(U, inputs, f"search_proof {tagged} goal{k}", sig, E, goal, limits, None))
            # a goal that does not follow: a renamed law with a countermodel of size 2
            goal = _present(refuted, dict(zip((_X, _Y, _Z), rng.sample(NAMES, 3))))
            refute = (axioms, pool)
            jobs.append(_search_job(U, inputs, f"search_proof {tagged} non-consequence", sig, E, goal, limits, refute))
            jobs.append(
                Job(
                    f"soundness_audit {tagged}",
                    lambda sig=sig, E=E, proofs=proofs: U.soundness_audit(sig, E, proofs, parsed_pool),
                    lambda audit: (audit.clean, len(audit.model_indices), len(audit.entries)),
                    lambda axioms=axioms, n=len(proofs): _audit_answer(axioms, pool, n),
                )
            )
    return jobs


def _audit_answer(axioms, pool, proofs: int):
    models = sum(all(holds(alg, eq) for eq in axioms) for alg in pool)
    return True, models, models * proofs  # soundness: every conclusion holds in every model


def _search_status(outcome) -> str:
    if outcome.status == "budget":
        raise Undecided("search_proof ran out of its node budget")
    return outcome.status


def _search_job(U, inputs: Inputs, label, sig, E, goal, limits, refute) -> Job:
    parsed = inputs.equation(goal)
    if refute is None:
        expect = _const("found")  # the goal is built from a proof of depth <= 2
    else:
        axioms, pool = refute

        def expect():
            for alg in pool:
                if all(holds(alg, eq) for eq in axioms) and not holds(alg, goal):
                    return "refuted"
            return "no countermodel"  # cannot happen: would flag a generator bug

    return Job(label, lambda: U.search_proof(sig, E, parsed, limits), _search_status, expect)


# ------------------------------------------------------------ free-closure

# (class, variables, via the API or `ualg free --out`).  Left out for the
# length of a pass: SL on 7 variables (3.5 s) and Z3 on 4 (1 s).
FREE_JOBS = [
    (("C2",), 3, "api"),
    (("C2",), 4, "cli"),
    (("C2",), 5, "api"),
    (("C2",), 6, "api"),
    (("C3",), 5, "cli"),
    (("C4",), 4, "api"),
    (("C3",), 3, "cli"),
    (("C3",), 4, "api"),
    (("Z2",), 2, "api"),
    (("Z2",), 3, "cli"),
    (("Z2",), 4, "api"),
    (("Z2",), 5, "api"),
    (("Z2",), 6, "cli"),
    (("Z3",), 2, "api"),
    (("Z3",), 3, "cli"),
    (("Z3",), 3, "api"),
    (("L3", "Z2"), 2, "api"),
    (("L3",), 4, "api"),
    (("L4",), 4, "cli"),
    (("C2", "L2"), 3, "api"),
    (("C2", "L2"), 4, "api"),
    (("L3", "C2"), 3, "api"),
    (("Z2", "C2"), 3, "cli"),
    (("Z3", "C2"), 2, "api"),
    (("Z2", "Z3", "Z4", "C2"), 2, "api"),
    (("C2",), 2, "api"),
    (("C3",), 2, "cli"),
    (("C4",), 2, "api"),
    (("C4",), 3, "api"),
    (("C5",), 2, "cli"),
    (("C5",), 3, "api"),
    (("L2",), 3, "api"),
    (("L4",), 3, "cli"),
    (("L5",), 3, "api"),
    (("Z4",), 2, "api"),
    (("Z2", "L2"), 2, "cli"),
    (("Z2", "L2"), 3, "api"),
    (("C3", "L2"), 2, "api"),
    (("Z3", "L2"), 2, "cli"),
    (("Z4", "C2"), 2, "api"),
]


def _free_answer(kinds, nvars: int) -> int:
    """Closed forms where known (free semilattice 2^n - 1, free Z2- and
    Z3-modules p^n, free left-zero band n), else a brute-force closure."""
    if len(kinds) == 1 and kinds[0] != "Z4":
        kind, size = kinds[0][0], int(kinds[0][1:])
        return {"C": 2**nvars - 1, "Z": size**nvars, "L": nvars}[kind]
    return free_size([tame(kind) for kind in kinds], nvars)


def _free_count(result: tuple[int, str]):
    rc, text = result
    words = text.split()
    return (rc, int(words[1])) if rc == 0 and words[:1] == ["RESULT"] else (rc, text[:80])


def free_closure(rng: random.Random, U, inputs: Inputs) -> list[Job]:
    jobs = []
    for i, (kinds, nvars, via) in enumerate(FREE_JOBS):
        tag = f"{'+'.join(kinds)} on {nvars}"
        expect = lambda kinds=kinds, nvars=nvars: _free_answer(kinds, nvars)
        if via == "api":
            K = inputs.algebras(f"free{i}.alg", [(k, seeded(rng, k)) for k in kinds])
            variables = [f"v{j}" for j in range(nvars)]
            jobs.append(
                Job(
                    f"build_free {tag}",
                    lambda K=K, variables=variables: U.build_free(K, variables),
                    lambda free: free.alg.size,
                    expect,
                )
            )
        else:
            path, _ = _class_file(rng, inputs, f"free{i}.alg", kinds)
            argv = ["free", "--vars", str(nvars), "--out", inputs.path(f"out{i}"), path]
            jobs.append(
                Job(
                    f"cli free {tag}",
                    lambda argv=argv: _cli(U, argv),
                    _free_count,
                    lambda expect=expect: (0, expect()),
                )
            )
    return jobs


# ------------------------------------------------------------ hom-search


def _hom_count(src: str, dst: str, injective: bool, surjective: bool) -> int:
    """Closed forms for the hom-sets searched below."""
    kind, n, m = src[0], int(src[1:]), int(dst[1:])
    if kind == "C":  # order-preserving maps of chains
        return math.comb(n - 1, m - 1) if surjective else 1 if injective else math.comb(n + m - 1, n)
    if kind == "L":  # every map is a hom
        if injective:
            return math.perm(m, n)
        if surjective:
            return sum((-1) ** j * math.comb(m, j) * (m - j) ** n for j in range(m + 1))
        return m**n
    # Z_n -> Z_m: 1 goes to any k with n*k = 0 (mod m)
    maps = [k for k in range(m) if n * k % m == 0]
    if injective or surjective:
        maps = [k for k in maps if math.gcd(k, m) == 1]
    return len(maps)


# (source, target, injective, surjective, copies); endomorphism monoids
# have source == target and no filter.  Each copy is relabelled afresh: a
# search's time depends on the labels, so a pass holds many small searches
# rather than a few large ones.  For the same reason the endomorphisms of C7
# (0.9-1.7 s over twelve labellings, alone half a pass) are left out.
HOM_SETS = [
    ("C5", "C5", False, False, 6),
    ("C6", "C6", False, False, 2),
    ("C6", "C5", False, False, 4),
    ("Z5", "Z5", False, False, 3),
    ("Z6", "Z6", False, False, 4),
    ("Z7", "Z7", False, False, 2),
    ("L4", "L4", False, False, 3),
    ("L5", "L5", False, False, 2),
    ("L5", "L5", True, False, 3),
    ("L6", "L6", True, False, 3),
    ("Z6", "Z6", True, False, 2),
    ("Z7", "Z7", True, False, 3),
    ("C7", "C4", False, True, 4),
    ("C6", "C3", False, True, 3),
    ("L5", "L3", False, True, 3),
    ("Z6", "Z3", False, True, 2),
    ("C5", "C4", False, False, 4),
    ("L4", "L3", False, False, 4),
    ("Z6", "Z4", False, False, 2),
    ("Z4", "Z6", False, False, 2),
]
ISOMORPHIC = ["C7", "C6", "Z7", "L6", "Z2xZ3", "C3xL2"]
NON_ISOMORPHIC = [("C6", "Z6"), ("L5", "C5")]
LEQ = [("C4", "C7"), ("Z3", "Z6"), ("Z4", "Z6"), ("L3", "L5"), ("C3", "Z6")]
FIND_COPIES = 3


def _build(name: str) -> Alg:
    """A catalogue algebra, or a product written `Z2xZ3`."""
    parts = name.split("x")
    return tame(name) if len(parts) == 1 else product([tame(p) for p in parts])


def _maps_answer(src: Alg, dst: Alg, maps):
    """Count of distinct homs found, with each checked by brute force."""
    images = {tuple(m.image) for m in maps}
    if len(images) != len(maps) or not all(is_hom(src, dst, im) for im in images):
        return "invalid maps"
    return len(images)


def _iso_read(a: Alg, b: Alg):
    def read(pair):
        if pair is None:
            return False
        return is_iso_pair(a, b, pair[0].image, pair[1].image) or "invalid pair"

    return read


def _brute_embeds(a: Alg, b: Alg, bijective: bool = False) -> bool:
    if bijective and a[0] != b[0]:
        return False
    return any(is_hom(a, b, image) for image in itertools.permutations(range(b[0]), a[0]))


def hom_search(rng: random.Random, U, inputs: Inputs) -> list[Job]:
    jobs = []

    def pair(name_a: str, name_b: str, file: str):
        a, b = seeded_alg(name_a), seeded_alg(name_b)
        A, B = inputs.algebras(file, [("A", a), ("B", b)])
        return a, b, A, B

    def seeded_alg(name: str) -> Alg:
        alg = _build(name)
        return relabel(alg, shuffled(rng, alg[0]))

    for i, (s, d, inj, sur, copies) in enumerate(HOM_SETS):
        flags = "".join(f for f, on in (("injective ", inj), ("surjective ", sur)) if on)
        for c in range(copies):
            a, b, A, B = pair(s, d, f"homs{i}_{c}.alg")
            jobs.append(
                Job(
                    f"find_homs {flags}{s} -> {d} #{c}",
                    lambda A=A, B=B, inj=inj, sur=sur: U.find_homs(
                        A, B, injective=inj or None, surjective=sur or None
                    ),
                    lambda maps, a=a, b=b: _maps_answer(a, b, maps),
                    lambda s=s, d=d, inj=inj, sur=sur: _hom_count(s, d, inj, sur),
                )
            )
    finds = [(name, name) for name in ISOMORPHIC] + NON_ISOMORPHIC
    for i, (s, d) in enumerate(finds):
        for c in range(FIND_COPIES):
            a, b, A, B = pair(s, d, f"iso{i}_{c}.alg")
            jobs.append(
                Job(
                    f"find_isomorphism {s} ~ {d} #{c}",
                    lambda A=A, B=B: U.find_isomorphism(A, B),
                    _iso_read(a, b),
                    # a relabelled copy is isomorphic; other pairs by brute force
                    _const(True) if s == d else lambda a=a, b=b: _brute_embeds(a, b, bijective=True),
                )
            )
    for i, (s, d) in enumerate(LEQ):
        for c in range(FIND_COPIES):
            a, b, A, B = pair(s, d, f"leq{i}_{c}.alg")
            jobs.append(
                Job(
                    f"check_leq {s} <= {d} #{c}",
                    lambda A=A, B=B: U.check_leq(A, B),
                    lambda m, a=a, b=b: m is not None and (is_hom(a, b, m.image) or "invalid map"),
                    lambda a=a, b=b: _brute_embeds(a, b),
                )
            )
    for i, (kinds, factors, size) in enumerate(HARD_MEMBERS):
        K, B, cert = _member(rng, inputs, str(i), kinds, factors, size)
        jobs.append(
            Job(
                f"hsp_certificate_check {_product_name(kinds, factors)} -> B{size}",
                lambda K=K, B=B, cert=cert: U.hsp_certificate_check(K, B, cert),
                lambda result: result.ok,
                _const(True),  # the certificate was checked when it was built
            )
        )
    # ROADMAP: any 8-element target trips the static search cap today.
    a, b, A, B = pair("Z2xZ2xZ2", "Z2xZ2xZ2", "frontier_iso.alg")
    jobs.append(
        Job(
            "find_isomorphism Z2xZ2xZ2 ~ relabelled",
            lambda A=A, B=B: U.find_isomorphism(A, B),
            _iso_read(a, b),
            _const(True),
            frontier=True,
        )
    )
    a, b, A, B = pair("Z3xZ3", "Z3xZ3", "frontier_endo.alg")
    jobs.append(
        Job(
            "find_homs Z3xZ3 -> Z3xZ3",
            lambda A=A, B=B: U.find_homs(A, B),
            lambda maps, a=a, b=b: _maps_answer(a, b, maps),
            _const(81),  # the 2x2 matrices over Z3
            frontier=True,
        )
    )
    return jobs


WORKLOADS = {
    "hard-direction": hard_direction,
    "easy-direction": easy_direction,
    "free-closure": free_closure,
    "hom-search": hom_search,
}
