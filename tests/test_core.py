import itertools
import random
import re

import pytest

from ualg import Signature, FiniteAlgebra, algebra, apply_op, signature
from ualg.core import (
    ArityMismatchError,
    CapExceededError,
    Caps,
    InvalidTablesError,
    OutOfRangeError,
    UalgError,
    UnknownSymbolError,
    _decode_mixed,
    _violations,
    mapped_cells,
)

from samples import SIG_F, SIG_M, semilattice2, z2_xor


def test_validate_accepts_z2_xor():
    alg = z2_xor()
    assert _violations(alg.sig, alg.size, alg.tables) == []
    assert FiniteAlgebra(alg.sig, alg.size, alg.tables) == alg


def test_validate_flags_out_of_range_entry():
    with pytest.raises(OutOfRangeError) as info:
        FiniteAlgebra(SIG_F, 2, ((0, 1, 2, 0),))
    violations = info.value.violations
    assert len(violations) == 1
    v = violations[0]
    assert (v.symbol, v.index) == ("f", 2)
    assert "2" in v.message and "size" in v.message


def test_validate_flags_wrong_table_length():
    with pytest.raises(OutOfRangeError) as info:
        FiniteAlgebra(SIG_F, 2, ((0, 1, 1),))
    violations = info.value.violations
    assert len(violations) == 1
    assert violations[0].symbol == "f"
    assert "expected 4 entries" in violations[0].message


def test_construction_raises_exactly_on_violations():
    # differential: the constructor's fast min/max/length test against the
    # entry-by-entry violation list, over tables with entries in -1..size
    # and lengths off by one
    rng = random.Random(11)
    sig = signature(("c", 0), ("u", 1), ("b", 2))
    raised = 0
    for _ in range(2000):
        size = rng.randrange(1, 4)
        tables = []
        for _, arity in sig.ops:
            length = size**arity + rng.choice([0] * 8 + [-1, 1])
            tables.append(tuple(
                rng.randrange(size) if rng.random() < 0.9 else rng.choice([-1, size])
                for _ in range(length)
            ))
        expected = _violations(sig, size, tables)
        try:
            FiniteAlgebra(sig, size, tuple(tables))
        except InvalidTablesError as e:
            raised += 1
            assert e.violations == expected
        else:
            assert expected == []
    assert 0 < raised < 2000


def test_apply_op_examples():
    assert apply_op(z2_xor(), "f", [1, 1]) == 0
    assert apply_op(semilattice2(), "m", [1, 1]) == 1


def test_apply_op_errors_are_distinct():
    alg = z2_xor()
    with pytest.raises(UnknownSymbolError):
        apply_op(alg, "g", [0, 0])
    with pytest.raises(ArityMismatchError):
        apply_op(alg, "f", [0])
    with pytest.raises(OutOfRangeError):
        apply_op(alg, "f", [2, 0])


def test_apply_op_matches_direct_indexing_exhaustively():
    # random small algebras with a mix of arities, sizes up to 4
    rng = random.Random(7)
    for size in range(1, 5):
        sig = signature(("c", 0), ("u", 1), ("b", 2))
        tables = {
            name: [rng.randrange(size) for _ in range(size**arity)]
            for name, arity in sig.ops
        }
        alg = algebra(sig, size, tables)
        for name, arity in sig.ops:
            for at, args in enumerate(itertools.product(range(size), repeat=arity)):
                assert apply_op(alg, name, args) == tables[name][at]


def test_mapped_cells_and_decode_match_positions_in_product_order():
    # brute force: a tuple's row-major index is its position in itertools.product order
    for size in range(1, 5):
        for arity in range(0, 4):
            dst_cells = list(itertools.product(range(size), repeat=arity))
            images = [
                tuple(range(size)),  # identity
                (size - 1,) * size,  # constant
                tuple(a // 2 for a in range(size)),  # not injective
                (size - 1, 0),  # shorter or longer than size
                tuple(a % size for a in range(size + 1)),  # longer than size
            ]
            for image in images:
                src_cells = itertools.product(range(len(image)), repeat=arity)
                assert mapped_cells(image, size, arity) == [
                    dst_cells.index(tuple(image[a] for a in args)) for args in src_cells
                ]
            for index, args in enumerate(dst_cells):
                assert _decode_mixed((size,) * arity, index) == args
    for sizes in [(2, 3), (3, 1, 2), (4, 2, 3, 2), (5,)]:
        for index, args in enumerate(itertools.product(*map(range, sizes))):
            assert _decode_mixed(sizes, index) == args


def test_signature_invariants():
    with pytest.raises(ValueError):
        Signature((("f", 2), ("f", 1)))
    with pytest.raises(ValueError):
        Signature((("f", -1),))
    assert SIG_M.arity("m") == 2
    with pytest.raises(UnknownSymbolError):
        SIG_M.arity("f")


@pytest.mark.parametrize("amount, shown", [(2**256 - 1, str(2**256 - 1)), (2**256, "2^256 or more"), (3**10_000, "2^15849 or more")],
                         ids=["256-bits", "257-bits", "3^10000"])
def test_cap_text_names_an_amount_past_256_bits_by_its_leading_power_of_two(amount, shown):
    with pytest.raises(CapExceededError, match=rf"^work: {re.escape(shown)} exceeds cap cells=1000000; raise it with UALG_CAPS=cells=N$"):
        Caps().check("cells", amount, "work")


def test_algebra_builder_checks_symbols():
    with pytest.raises(ValueError):
        algebra(SIG_F, 2, {})
    with pytest.raises(UnknownSymbolError):
        algebra(SIG_F, 2, {"f": [0, 0, 0, 0], "g": [0]})


def test_caps_from_env():
    caps = Caps.from_env({"UALG_CAPS": "carrier=10,cells=20,search=30"})
    assert (caps.carrier, caps.cells, caps.search) == (10, 20, 30)
    assert Caps.from_env({}) == Caps()
    with pytest.raises(UalgError):
        Caps.from_env({"UALG_CAPS": "bogus=1"})
    with pytest.raises(UalgError):
        Caps.from_env({"UALG_CAPS": "carrier=x"})


@pytest.mark.parametrize("entry", ["cells=²", "carrier=٣", "search=-1", "cells=", "cells=1e6"])
def test_caps_from_env_takes_only_ascii_digits(entry):
    with pytest.raises(UalgError, match=f"^{re.escape(f'bad UALG_CAPS entry: {entry!r}')}$"):
        Caps.from_env({"UALG_CAPS": entry})


def test_caps_from_env_names_an_entry_past_the_int_limit():
    entry = "cells=" + "9" * 5000  # past int's default string-conversion limit of 4,300 digits
    with pytest.raises(UalgError, match=f"^{re.escape(f'bad UALG_CAPS entry: {entry!r}')}$"):
        Caps.from_env({"UALG_CAPS": f"carrier=10,{entry}"})
