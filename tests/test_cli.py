import hashlib
import io
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from ualg import SearchLimits, algebra, signature
from ualg.cli import _build_parser, run_cli
from ualg.eqlogic import class_satisfies, satisfies, theory_partition
from ualg.fileio import emit_algebra_file, parse_algebra_file, parse_equation, parse_proof

from oracles import theory_text_oracle
from samples import SIG_F, semilattice2, z2_xor, z3_add, z4_add

ROOT = Path(__file__).resolve().parent.parent
DEMO_DATA = ROOT / "demos" / "data"
DEMO_ALGEBRAS = sorted(DEMO_DATA.glob("*.alg"))


def run(*argv, env=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def z2_file(tmp_path):
    path = tmp_path / "z2.alg"
    path.write_text(emit_algebra_file(SIG_F, [("Z2", z2_xor())]))
    return str(path)


@pytest.fixture
def pool_file(tmp_path):
    path = tmp_path / "pool.alg"
    path.write_text(
        emit_algebra_file(
            SIG_F,
            [("Z2", z2_xor()), ("Z3", z3_add()), ("Z4", z4_add()), ("SL", semilattice2(SIG_F))],
        )
    )
    return str(path)


def test_validate_ok(z2_file):
    code, out, err = run("validate", z2_file)
    assert code == 0
    assert out.startswith("OK")


def test_validate_bad_table(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("signature\nop f 2\nend\nalgebra A\nsize 2\nop f 0 1 2 0\nend\n")
    code, out, err = run("validate", str(path))
    assert code == 1
    assert out.splitlines() == ["WITNESS algebra=A op=f index=2 entry 2 ≥ size 2"]


def test_validate_negative_entry(tmp_path):
    path = tmp_path / "negative.alg"
    path.write_text("signature\nop f 1\nend\nalgebra A\nsize 2\nop f 0 -1\nend\n")
    code, out, err = run("validate", str(path))
    assert code == 1
    assert out.splitlines() == ["WITNESS algebra=A op=f index=1 entry -1 < 0"]


def test_validate_missing_file():
    code, out, err = run("validate", "missing.alg")
    assert code == 2
    assert "missing.alg" in err


def test_validate_syntax_error(tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text("signature\nop f 2\n")
    code, out, err = run("validate", str(path))
    assert code == 2
    assert "end" in err


def test_sat_holds(z2_file):
    code, out, err = run("sat", "--algebra", z2_file, "--equation", "f(?x,?y) = f(?y,?x)")
    assert code == 0
    assert out.startswith("RESULT holds")


def test_sat_fails_with_witness(z2_file):
    code, out, err = run("sat", "--algebra", z2_file, "--equation", "f(?x,?x) = ?x")
    assert code == 1
    assert out == "WITNESS x=1\n"


def test_sat_by_name(pool_file):
    code, out, _ = run("sat", "--algebra", f"{pool_file}:SL", "--equation", "f(?x,?x) = ?x")
    assert code == 0
    code, out, err = run("sat", "--algebra", f"{pool_file}:nope", "--equation", "?x = ?x")
    assert code == 2
    assert "nope" in err


def test_class_sat(pool_file, z2_file):
    code, out, _ = run("class-sat", "--equation", "f(?x,?y) = f(?y,?x)", pool_file)
    assert code == 0
    code, out, _ = run("class-sat", "--equation", "f(?x,?x) = ?x", pool_file)
    assert code == 1
    assert out == "WITNESS algebra=Z2 x=1\n"


def test_witnesses_print_the_refuting_environment(pool_file):
    eq = "f(?x,?y) = ?x"
    env = satisfies(z3_add(), parse_equation(eq)).counterexample
    assert str(env) == "x=0 y=1"
    assert run("sat", "--algebra", f"{pool_file}:Z3", "--equation", eq) == (1, f"WITNESS {env}\n", "")
    named = parse_algebra_file(Path(pool_file).read_text())[1]
    env = class_satisfies([alg for _, alg in named], parse_equation(eq)).counterexample
    assert run("class-sat", "--equation", eq, pool_file) == (1, f"WITNESS algebra=Z2 {env}\n", "")


def test_theory_lists_equations(z2_file):
    code, out, _ = run("theory", "--depth", "1", "--vars", "2", z2_file)
    assert code == 0
    lines = out.splitlines()
    assert "f(?v0,?v1) = f(?v1,?v0)" in lines
    assert all(" = " in line for line in lines)


class _Md5Stream:
    """A text stream that keeps only the md5 of what is written to it."""

    def __init__(self):
        self.md5 = hashlib.md5()

    def write(self, text):
        self.md5.update(text.encode())
        return len(text)


# The str oracle takes about 9 s on z2_xor at depth 3 (522,730 lines) and
# 30 s on semilattice2 (1,944,588 lines), so those two cases are held to
# the md5 of the text the oracle gave.
THEORY_MD5 = {
    ("semilattice2.alg", 3): "f3fb39e306f71b4d450a06e7c19e14d5",
    ("z2_xor.alg", 3): "b654319c8bebde89d0c22d87c9d81456",
}


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("path", DEMO_ALGEBRAS, ids=lambda path: path.name)
def test_theory_stdout_is_str_of_each_equation(path, depth):
    argv = ["theory", "--depth", str(depth), "--vars", "2", str(path)]
    if (path.name, depth) in THEORY_MD5:
        out = _Md5Stream()
        assert run_cli(argv, stdout=out) == 0
        assert out.md5.hexdigest() == THEORY_MD5[path.name, depth]
        return
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    _, named = parse_algebra_file(path.read_text(), file=str(path))
    theory = theory_partition([alg for _, alg in named], ["v0", "v1"], depth)
    assert out == theory_text_oracle(theory)


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_theory_writes_one_row_per_term():
    out = _CountingStream()
    assert run_cli(["theory", "--depth", "2", "--vars", "2", str(DEMO_DATA / "pool.alg")], stdout=out) == 0
    assert out.writes == len({line.split(" = ")[0] for line in out.getvalue().splitlines()}) == 38


@pytest.mark.skipif(getattr(signal, "SIGPIPE", None) is None, reason="no SIGPIPE on this platform")
def test_a_closed_pipe_ends_the_command_quietly():
    # the depth-3 theory is megabytes, far past a pipe's buffer, so ualg is
    # still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "ualg.cli", "theory", "--depth", "3", "--vars", "2", str(DEMO_DATA / "pool.alg")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (first, err, proc.wait(timeout=60)) == (b"?v0 = ?v0\n", b"", -signal.SIGPIPE)


def test_hom_classification(pool_file):
    code, out, _ = run(
        "hom", "--src", f"{pool_file}:Z4", "--dst", f"{pool_file}:Z2", "--map", "0 1 0 1"
    )
    assert code == 0
    assert out == "RESULT hom injective=no surjective=yes\n"
    code, out, _ = run(
        "hom", "--src", f"{pool_file}:Z2", "--dst", f"{pool_file}:Z2", "--map", "1 1"
    )
    assert code == 1
    assert out == "WITNESS op=f args=0,0\n"


def test_hom_usage_error(pool_file):
    code, out, err = run(
        "hom", "--src", f"{pool_file}:Z2", "--dst", f"{pool_file}:Z2", "--map", "0 1 2"
    )
    assert code == 2


def test_hom_find(pool_file):
    code, out, _ = run("hom-find", "--src", f"{pool_file}:Z2", "--dst", f"{pool_file}:Z2")
    assert code == 0
    assert out.splitlines() == ["MAP 0 0", "MAP 0 1", "RESULT 2 map(s)"]
    code, out, _ = run(
        "hom-find", "--src", f"{pool_file}:SL", "--dst", f"{pool_file}:Z2", "--injective"
    )
    assert code == 1
    assert out == "RESULT none\n"


def test_factor(pool_file):
    code, out, _ = run(
        "factor",
        "--src", f"{pool_file}:Z4", "--gdst", f"{pool_file}:Z2", "--hdst", f"{pool_file}:Z2",
        "--g", "0 1 0 1", "--h", "0 1 0 1",
    )
    assert code == 0
    assert out == "MAP 0 1\n"
    code, out, _ = run(
        "factor",
        "--src", f"{pool_file}:Z4", "--gdst", f"{pool_file}:Z4", "--hdst", f"{pool_file}:Z2",
        "--g", "0 1 2 3", "--h", "0 1 0 1",
    )
    assert code == 1
    assert out.startswith("WITNESS kernel-pair ")


def test_factor_witnesses_and_errors(pool_file):
    maps = ["--src", f"{pool_file}:Z4", "--gdst", f"{pool_file}:Z4", "--hdst", f"{pool_file}:Z4"]
    # h sends everything to 0: no preimage of 1
    assert run("factor", *maps, "--g", "0 1 2 3", "--h", "0 0 0 0") == (
        1, "WITNESS not-surjective missing=1\n", ""
    )
    # g(1 + 1) = g(2) = 0, but g(1) + g(1) = 2
    assert run("factor", *maps, "--g", "0 1 0 0", "--h", "0 1 2 3") == (
        2, "", "error: map is not a homomorphism at f(1, 1)\n"
    )
    # a map takes ASCII digits only: str.isdigit accepts ², which int rejects
    assert run("factor", *maps, "--g", "0 1 ² 3", "--h", "0 1 2 3") == (
        2, "", "usage error: --g expects space-separated carrier values\n"
    )


def test_free_stdout_and_files(tmp_path, z2_file):
    code, out, _ = run("free", "--vars", "2", z2_file)
    assert code == 0
    assert "algebra F" in out
    assert "elem 0 repr ?v0 gen v0" in out

    base = str(tmp_path / "f2")
    code, out, _ = run("free", "--vars", "2", z2_file, "--out", base)
    assert code == 0
    sig, algebras = parse_algebra_file((tmp_path / "f2.alg").read_text())
    assert algebras[0][1].size == 4
    sidecar = (tmp_path / "f2.elems").read_text()
    assert sidecar.startswith("elem 0 repr ?v0 gen v0\n")


def test_entail_check(tmp_path):
    axioms = tmp_path / "ax.eqs"
    axioms.write_text("f(?x,?y) = f(?y,?x)\n")
    proof = tmp_path / "p.proof"
    proof.write_text("(sym (hyp 0))\n")
    code, out, _ = run(
        "entail-check", "--axioms", str(axioms),
        "--goal", "f(?y,?x) = f(?x,?y)", "--proof", str(proof),
    )
    assert code == 0
    assert out == "RESULT proved f(?y,?x) = f(?x,?y)\n"

    code, out, _ = run(
        "entail-check", "--axioms", str(axioms),
        "--goal", "f(?x,?y) = f(?x,?y)", "--proof", str(proof),
    )
    assert code == 1
    assert out.startswith("WITNESS concluded")

    bad = tmp_path / "bad.proof"
    bad.write_text("(hyp 4)\n")
    code, out, _ = run(
        "entail-check", "--axioms", str(axioms),
        "--goal", "?x = ?x", "--proof", str(bad),
    )
    assert code == 1
    assert out.startswith("WITNESS proof-error")


def test_entail_search(tmp_path):
    axioms = tmp_path / "ax.eqs"
    axioms.write_text("f(?x,?y) = f(?y,?x)\n")
    code, out, _ = run(
        "entail-search", "--axioms", str(axioms),
        "--goal", "f(f(?x,?x),?y) = f(?y,f(?x,?x))", "--depth", "2",
    )
    assert code == 0
    assert out.startswith("PROOF ")
    parse_proof(out[len("PROOF "):])

    code, out, _ = run(
        "entail-search", "--axioms", str(axioms),
        "--goal", "f(?x,?x) = ?x", "--depth", "3",
    )
    assert code == 1
    assert out == "RESULT refuted\n"


def test_entail_search_refutes_by_a_countermodel_under_the_caps(tmp_path, monkeypatch):
    axioms = tmp_path / "semilattice.eqs"
    axioms.write_text("f(?x,?x) = ?x\nf(?x,?y) = f(?y,?x)\nf(f(?x,?y),?z) = f(?x,f(?y,?z))\n")
    argv = ["entail-search", "--axioms", str(axioms), "--goal", "f(?x,?y) = ?x", "--depth", "7", "--budget", "2000"]
    # the proof search alone runs out of its budget; a size-2 model fails the goal
    assert run(*argv) == (1, "RESULT refuted\n", "")
    monkeypatch.setenv("UALG_CAPS", "cells=3")  # too few for f's 4 table cells
    note = ("note: caps stopped the size-2 countermodel search at cells=3, the least of "
            "UALG_CAPS=cells= and --budget; raising both may yet refute the goal\n")
    assert run(*argv) == (1, "RESULT budget-exhausted\n", note)
    assert run(*argv[:-4], "--depth", "3") == (1, "RESULT exhausted\n", note)


def test_entail_search_reads_exhausted_without_a_certificate(tmp_path):
    axioms = tmp_path / "comm_assoc.eqs"
    axioms.write_text("f(?x,?y) = f(?y,?x)\nf(f(?x,?y),?z) = f(?x,f(?y,?z))\n")
    # the medial law follows from these laws, but by no proof of depth 4, and
    # no model fails it: "refuted" is kept for goals a countermodel refutes
    argv = ["entail-search", "--axioms", str(axioms), "--goal", "f(f(?a,?b),f(?c,?d)) = f(f(?a,?c),f(?b,?d))"]
    # the model search ran to the end, so no note: raising the caps refutes nothing
    assert run(*argv, "--depth", "4") == (1, "RESULT exhausted\n", "")


def test_birkhoff_demo(tmp_path):
    path = tmp_path / "sl.alg"
    path.write_text(emit_algebra_file(semilattice2().sig, [("SL", semilattice2())]))
    code, out, _ = run("birkhoff-demo", "--vars", "2", str(path))
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("STAGE hard-direction.SL.certificate PASS") for line in lines)
    assert lines[-1] == "RESULT pass"
    assert not any(" FAIL" in line for line in lines)


# The hard direction builds each member's free algebra on a least
# generating set: one variable for Z2, Z3 and Z4, two for SL.
POOL_DEMO_STDOUT = (
    "# theory of the class up to depth 1: 8 equations\n"
    "STAGE invariance.Z2.witness-wellformed PASS product\n"
    "STAGE invariance.Z2.base-satisfies PASS\n"
    "STAGE invariance.Z2.derived-satisfies PASS\n"
    "STAGE invariance.Z3.witness-wellformed PASS product\n"
    "STAGE invariance.Z3.base-satisfies PASS\n"
    "STAGE invariance.Z3.derived-satisfies PASS\n"
    "STAGE invariance.Z4.witness-wellformed PASS product\n"
    "STAGE invariance.Z4.base-satisfies PASS\n"
    "STAGE invariance.Z4.derived-satisfies PASS\n"
    "STAGE invariance.SL.witness-wellformed PASS product\n"
    "STAGE invariance.SL.base-satisfies PASS\n"
    "STAGE invariance.SL.derived-satisfies PASS\n"
    "STAGE easy-direction.enumerate-models PASS 9 models of 2 equations\n"
    "STAGE easy-direction.products-closed PASS\n"
    "STAGE easy-direction.subalgebras-closed PASS\n"
    "STAGE easy-direction.hom-images-closed PASS\n"
    "STAGE hard-direction.Z2.certificate PASS\n"
    "STAGE hard-direction.Z2.free-build PASS 12 elements over 11 coordinates\n"
    "STAGE hard-direction.Z2.universal-map PASS image (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0)\n"
    "STAGE hard-direction.Z2.models-theory PASS 158 equations\n"
    "STAGE hard-direction.Z3.certificate PASS\n"
    "STAGE hard-direction.Z3.free-build PASS 12 elements over 11 coordinates\n"
    "STAGE hard-direction.Z3.universal-map PASS image (1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0)\n"
    "STAGE hard-direction.Z3.models-theory PASS 158 equations\n"
    "STAGE hard-direction.Z4.certificate PASS\n"
    "STAGE hard-direction.Z4.free-build PASS 12 elements over 11 coordinates\n"
    "STAGE hard-direction.Z4.universal-map PASS image (1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0)\n"
    "STAGE hard-direction.Z4.models-theory PASS 158 equations\n"
    "STAGE hard-direction.SL.certificate PASS\n"
    "STAGE hard-direction.SL.free-build PASS 168 elements over 33 coordinates\n"
    "STAGE hard-direction.SL.universal-map PASS image (0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, "
    "0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, "
    "0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, "
    "0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, "
    "0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
    "0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
    "0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)\n"
    "STAGE hard-direction.SL.models-theory PASS 158 equations\n"
    "RESULT pass\n"
)


def test_birkhoff_demo_pool_stdout():
    code, out, err = run("birkhoff-demo", "--vars", "2", str(DEMO_DATA / "pool.alg"))
    assert (code, out, err) == (0, POOL_DEMO_STDOUT, "")


BIRKHOFF_DEMO_SHA256 = {
    "pool.alg": "3138e976ef2a6ab4c57abf3260ab3524aea64551ccb8f19fe4edffde1011eb1a",
    "semilattice2.alg": "9b9be3a83ef2195db3da16c5065a16f56daf19f3afd2a8539641b9ff0fcfae68",
    "z2_xor.alg": "98aad3bf39444620920f779c0a20baef99f14baa0e134ce35aeeca40a705dff4",
}


@pytest.mark.parametrize("path", DEMO_ALGEBRAS, ids=lambda path: path.name)
def test_birkhoff_demo_stdout_is_pinned_on_every_demo_file(path):
    code, out, err = run("birkhoff-demo", "--vars", "2", str(path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BIRKHOFF_DEMO_SHA256[path.name]


@pytest.mark.parametrize(
    "vars_, counts", [(1, (2, 4, 2)), (3, (18, 24, 24))], ids=["K=1", "K=3"]
)
def test_birkhoff_demo_theory_uses_k_variables(vars_, counts):
    # --vars K names v0 .. v(K-1) in the depth-1 theory
    paths = [DEMO_DATA / f"{name}.alg" for name in ("pool", "semilattice2", "z2_xor")]
    for path, count in zip(paths, counts):
        code, out, err = run("birkhoff-demo", "--vars", str(vars_), str(path))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == f"# theory of the class up to depth 1: {count} equations"
        assert lines[-1] == "RESULT pass"


def test_birkhoff_demo_refuses_zero_vars():
    code, out, err = run("birkhoff-demo", "--vars", "0", str(DEMO_DATA / "z2_xor.alg"))
    assert (code, out, err) == (2, "", "usage error: --vars must be at least 1, got 0\n")


@pytest.mark.parametrize("command", [["theory", "--depth", "2"], ["free"]])
@pytest.mark.parametrize("count", [-1, -2])
def test_negative_vars_is_a_usage_error(command, count, z2_file):
    code, out, err = run(*command, "--vars", str(count), z2_file)
    assert (code, out, err) == (2, "", f"usage error: --vars must be at least 0, got {count}\n")


@pytest.mark.parametrize("command", [["theory", "--depth", "1"], ["free"]])
def test_a_cap_past_the_int_text_limit_exits_2_naming_the_cap(command):
    # 2^20000 environments or tuple cells: no digits, but the cap and its setting
    code, out, err = run(*command, "--vars", "20000", str(DEMO_DATA / "z2_xor.alg"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(" exceeds cap cells=1000000; raise it with UALG_CAPS=cells=N\n")


def test_birkhoff_demo_honours_caps(monkeypatch):
    monkeypatch.setenv("UALG_CAPS", "carrier=2")
    code, out, err = run("birkhoff-demo", "--vars", "2", str(DEMO_DATA / "semilattice2.alg"))
    assert code == 2
    # the invariance stage's product A x A is the first to reach the cap
    assert err == "error: product carrier: 4 exceeds cap carrier=2; raise it with UALG_CAPS=carrier=N\n"
    assert "hard-direction" not in out
    code, out, err = run("free", "--vars", "2", str(DEMO_DATA / "semilattice2.alg"))
    assert (code, out, err) == (
        2, "", "error: free carrier: 3 exceeds cap carrier=2; raise it with UALG_CAPS=carrier=N\n"
    )


@pytest.mark.parametrize(
    "caps, message",
    [
        ("carrier=3", "product carrier: 4 exceeds cap carrier=3; raise it with UALG_CAPS=carrier=N"),
        ("cells=10", "product table cells: 16 exceeds cap cells=10; raise it with UALG_CAPS=cells=N"),
    ],
)
def test_birkhoff_demo_caps_reach_every_stage(caps, message, monkeypatch):
    # carrier and cells trip on the invariance stage's product Z2 x Z2.  No
    # stage reports PASS past a cap.
    monkeypatch.setenv("UALG_CAPS", caps)
    code, out, err = run("birkhoff-demo", "--vars", "2", str(DEMO_DATA / "z2_xor.alg"))
    assert (code, err) == (2, f"error: {message}\n")
    assert "RESULT" not in out
    assert not [line for line in out.splitlines() if line.startswith("STAGE easy-direction.")]


def test_birkhoff_demo_search_cap_leaves_stdout_unchanged(monkeypatch):
    # neither Birkhoff direction runs a hom search, so the least search cap
    # changes nothing on any demo file
    for path in sorted(DEMO_DATA.glob("*.alg")):
        default = run("birkhoff-demo", "--vars", "2", str(path))
        monkeypatch.setenv("UALG_CAPS", "search=1")
        assert run("birkhoff-demo", "--vars", "2", str(path)) == default
        assert default[0] == 0 and default[2] == ""
        monkeypatch.delenv("UALG_CAPS")


def test_birkhoff_demo_refuses_a_large_least_generating_set(tmp_path):
    # a 16-element left-zero band is generated only by its whole carrier:
    # the certificate's search stops at size 5, whose free algebra is over
    # the cells cap, before trying 2^16 subsets
    n = 16
    band = algebra(SIG_F, n, {"f": [a for a in range(n) for _ in range(n)]})
    path = tmp_path / "l16.alg"
    path.write_text(emit_algebra_file(SIG_F, [("L16", band)]))
    code, out, err = run("birkhoff-demo", "--vars", "2", str(path))
    assert code == 2
    assert err == (
        "error: free tuple cells: 5242880 exceeds cap cells=1000000; "
        "raise it with UALG_CAPS=cells=N\n"
    )
    assert out.endswith("STAGE easy-direction.hom-images-closed PASS\n")


def test_usage_errors():
    code, out, err = run("sat", "--algebra")
    assert code == 2
    code, out, err = run("no-such-command")
    assert code == 2
    code, out, err = run()
    assert code == 2


def test_bad_numeric_arguments_exit_two(z2_file, tmp_path):
    code, out, err = run("theory", "--depth", "-1", "--vars", "2", z2_file)
    assert code == 2 and "max_depth" in err
    axioms = tmp_path / "ax.eqs"
    axioms.write_text("f(?x,?y) = f(?y,?x)\n")
    code, out, err = run(
        "entail-search", "--axioms", str(axioms), "--goal", "?x = ?x", "--depth", "0"
    )
    assert code == 2


def test_numerals_past_the_int_limit_exit_two_with_a_span(tmp_path):
    big = "1" + "0" * 5000  # past int's default string-conversion limit of 4,300 digits
    alg = tmp_path / "big.alg"
    alg.write_text(f"signature\nop f 2\nend\nalgebra A\nsize {big}\nend\n")
    code, out, err = run("validate", str(alg))
    assert code == 2 and err == f"error: {alg}:5:1-1: 5001-digit integer, past the limit of 4300\n"
    axioms, proof = tmp_path / "ax.eqs", tmp_path / "big.proof"
    axioms.write_text("f(?x,?y) = f(?y,?x)\n")
    proof.write_text(f"(hyp {big})\n")
    code, out, err = run("entail-check", "--axioms", str(axioms), "--goal", "?x = ?x", "--proof", str(proof))
    assert code == 2 and err.startswith(f"error: {proof}:1:6-5006: 5001-digit integer")


def test_built_terms_print_past_the_recursion_limit_and_read_ones_exit_two(tmp_path, z2_file):
    # free's 300-element cycle has representatives 299 deep and theory renders
    # terms 270 deep: both are printed without recursion and answer in full
    s = signature(("u", 1))
    cycle = tmp_path / "u300.alg"
    cycle.write_text(emit_algebra_file(s, [("U", algebra(s, 300, {"u": [(a + 1) % 300 for a in range(300)]}))]))
    code, out, err = run("free", "--vars", "1", str(cycle))
    elems = [line for line in out.splitlines() if line.startswith("elem ")]
    assert (code, err, len(elems)) == (0, "", 300)
    assert elems[-1] == "elem 299 repr " + "u(" * 299 + "?v0" + ")" * 299
    chain = tmp_path / "cu.alg"
    chain.write_text("signature\nop c 0\nop u 1\nend\nalgebra A\nsize 1\nop c 0\nop u 0\nend\n")
    code, out, err = run("theory", "--depth", "270", "--vars", "0", str(chain))
    lines = out.splitlines()
    assert (code, err, len(lines), lines[:2]) == (0, "", 271**2, ["c = c", "c = u(c)"])
    # a term read from the command line is still parsed by recursion
    deep = "f(" * 1200 + "?x" + ",?x)" * 1200 + " = ?x"
    code, _, err = run("sat", "--algebra", z2_file, "--equation", deep)
    assert code == 2
    assert err.startswith("error: term nested too deeply: ") and err.count("\n") == 1, err


def test_a_repeated_algebra_name_is_refused_at_its_line(tmp_path):
    path = tmp_path / "dup.alg"
    # emit_algebra_file refuses a repeated name, so the third block is renamed after emission
    text = emit_algebra_file(SIG_F, [("A", z2_xor()), ("B", z3_add()), ("C", z4_add())])
    text = text.replace("algebra C\n", "algebra A\n")
    path.write_text(text)
    lineno = [i for i, line in enumerate(text.splitlines(), 1) if line == "algebra A"][1]
    want = f"error: {path}:{lineno}:1-1: duplicate algebra name 'A'\n"
    for argv in (["validate", str(path)], ["sat", "--algebra", f"{path}:A", "--equation", "?x = ?x"],
                 ["birkhoff-demo", "--vars", "1", str(path)]):
        assert run(*argv) == (2, "", want)


def test_entail_search_defaults_are_the_search_limits():
    args = _build_parser().parse_args(["entail-search", "--axioms", "a", "--goal", "?x = ?x", "--depth", "1"])
    limits = SearchLimits()
    assert (args.budget, args.max_term_size) == (limits.node_budget, limits.max_term_size)


def test_help_exits_zero():
    code, out, err = run("--help")
    assert code == 0


def test_output_is_deterministic(pool_file):
    runs = [
        run("theory", "--depth", "1", "--vars", "2", pool_file),
        run("theory", "--depth", "1", "--vars", "2", pool_file),
    ]
    assert runs[0] == runs[1]
    finds = [
        run("hom-find", "--src", f"{pool_file}:Z4", "--dst", f"{pool_file}:Z2"),
        run("hom-find", "--src", f"{pool_file}:Z4", "--dst", f"{pool_file}:Z2"),
    ]
    assert finds[0] == finds[1]


def test_caps_env_override(z2_file, monkeypatch):
    monkeypatch.setenv("UALG_CAPS", "cells=2")
    code, out, err = run("sat", "--algebra", z2_file, "--equation", "f(?x,?y) = f(?y,?x)")
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("UALG_CAPS", "bogus")
    code, out, err = run("validate", z2_file)
    assert code == 2
