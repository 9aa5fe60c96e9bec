import random
from dataclasses import replace

import numpy as np
import pytest

from finalg.algebra import FiniteAlgebra, FiniteFunction, Operation
from finalg.catalog import load_example
from finalg.congruence import (
    CentralSeries,
    central_series,
    maximal_congruence_chain,
    one_congruence,
    principal_congruence,
    zero_congruence,
)
from finalg.expansion import (
    ExpandedAlgebra,
    associated_abelian_group,
    expand_pipeline,
    expand_with_group,
    verify_expansion,
)
from finalg.malcev import find_malcev_term, plus_minus_o

from oracles import alignment_witness_by_full_relation


def trivial_algebra() -> FiniteAlgebra:
    return FiniteAlgebra("point", 1, [Operation("f", 1, (0,))])


def test_associated_group_z4():
    z4 = load_example("z4")
    witness = find_malcev_term(z4)
    series = central_series(z4, maximal_congruence_chain(z4))
    group = associated_abelian_group(z4, series, 0, witness)
    assert [f.order for f in group.factors] == [2, 2]
    assert group.order == 4
    assert group.exponent == 2
    assert group.is_elementary_abelian
    assert group.order_profile() == {1: 1, 2: 3}


def test_associated_group_trivial():
    one = trivial_algebra()
    series = CentralSeries((zero_congruence(1),))
    witness = find_malcev_term(one)
    group = associated_abelian_group(one, series, 0, witness)
    assert group.factors == ()
    assert group.order == 1
    assert group.is_elementary_abelian


def test_associated_group_z2z2():
    a = load_example("z2z2")
    witness = find_malcev_term(a)
    series = central_series(a, maximal_congruence_chain(a))
    group = associated_abelian_group(a, series, 0, witness)
    assert [f.order for f in group.factors] == [2, 2]
    assert group.order_profile() == {1: 1, 2: 3}


@pytest.mark.parametrize("name", ["z4", "z8", "z2z2", "d4", "q8", "m"])
def test_block_orders_multiply_to_size(name):
    algebra = load_example(name)
    result = expand_pipeline(algebra)
    assert result.group.order == algebra.size
    assert result.group.is_elementary_abelian


@pytest.mark.parametrize("name", ["z4", "z8", "z2z2", "d4", "q8", "m"])
def test_pipeline_verifies(name):
    algebra = load_example(name)
    result = expand_pipeline(algebra)
    assert result.report.all_ok, [
        (c.name, c.detail) for c in result.report.checks if not c.passed
    ]
    assert result.nilpotency <= result.series.length


def test_expand_z4_gives_klein_group():
    z4 = load_example("z4")
    result = expand_pipeline(z4)
    plus = result.expanded.plus_grid()
    neg = result.expanded.neg_array()
    # exponent two: every element is self inverse
    assert np.array_equal(neg, np.arange(4))
    for a in range(4):
        assert plus[a, a] == 0
    # original cyclic addition is still there, so the two differ
    assert not np.array_equal(plus, np.array(z4.operation("+").table).reshape(4, 4))


def test_expanded_algebra_export_naming():
    z4 = load_example("z4")
    result = expand_pipeline(z4)
    exported = result.expanded.as_algebra()
    names = [op.name for op in exported.operations]
    # fresh + and neg tables clash with the fixture's names and get
    # suffixed; the zero constant is already present verbatim
    assert names == ["+", "neg", "zero", "+2", "neg2"]
    assert exported.operation("+2").table != exported.operation("+").table
    assert exported.operation("neg2").table == tuple(range(4))


def test_expansion_keeps_original_operations():
    d4 = load_example("d4")
    result = expand_pipeline(d4)
    exported = result.expanded.as_algebra()
    for op in d4.operations:
        assert exported.operation(op.name).table == op.table


def test_expand_at_nonleast_zero():
    z4 = load_example("z4")
    witness = find_malcev_term(z4)
    series = central_series(z4, maximal_congruence_chain(z4))
    expanded = expand_with_group(z4, series, 1, witness)
    report = verify_expansion(expanded, series, witness)
    assert report.all_ok, [c for c in report.checks if not c.passed]
    plus = expanded.plus_grid()
    assert all(plus[a, 1] == a for a in range(4))


def test_expand_trivial_algebra():
    one = trivial_algebra()
    witness = find_malcev_term(one)
    series = CentralSeries((zero_congruence(1),))
    expanded = expand_with_group(one, series, 0, witness)
    assert expanded.plus.as_array().tolist() == [0]
    assert expanded.minus.as_array().tolist() == [0]
    report = verify_expansion(expanded, series, witness)
    assert report.all_ok


def test_local_addition_agreement():
    # adding an element of the first-level zero block agrees with the
    # derived local addition on either side
    for name in ("z4", "m", "d4"):
        algebra = load_example(name)
        result = expand_pipeline(algebra)
        plus = result.expanded.plus_grid()
        o = result.expanded.zero
        local_plus, _, _ = plus_minus_o(algebra, result.witness, o)
        lp = local_plus.as_grid()
        alpha1 = result.series.congruences[1]
        block = [q for q in range(algebra.size) if alpha1.related(q, o)]
        for q in block:
            for a in range(algebra.size):
                assert plus[q, a] == lp[q, a] == lp[a, q], (name, q, a)


def test_local_difference_translation():
    # d(q + a, a, b) = q + b whenever q is in the first-level zero block
    for name in ("z4", "m", "d4"):
        algebra = load_example(name)
        result = expand_pipeline(algebra)
        o = result.expanded.zero
        grid = result.witness.grid()
        local_plus, _, _ = plus_minus_o(algebra, result.witness, o)
        lp = local_plus.as_grid()
        alpha1 = result.series.congruences[1]
        block = [q for q in range(algebra.size) if alpha1.related(q, o)]
        for q in block:
            for a in range(algebra.size):
                for b in range(algebra.size):
                    assert grid[lp[q, a], a, b] == lp[q, b], (name, q, a, b)


def test_first_level_difference_is_group_difference():
    # within the first series level, the derived difference agrees with
    # the constructed group subtraction, and d acts by translation
    for name in ("z4", "m", "d4"):
        algebra = load_example(name)
        result = expand_pipeline(algebra)
        plus = result.expanded.plus_grid()
        neg = result.expanded.neg_array()
        o = result.expanded.zero
        grid = result.witness.grid()
        _, local_minus, _ = plus_minus_o(algebra, result.witness, o)
        lm = local_minus.as_grid()
        alpha1 = result.series.congruences[1]
        for a in range(algebra.size):
            for b in range(algebra.size):
                if not alpha1.related(a, b):
                    continue
                assert lm[a, b] == plus[a, neg[b]], (name, a, b)
                for c in range(algebra.size):
                    assert grid[a, b, c] == plus[plus[a, neg[b]], c]


def test_corrupted_plus_is_flagged():
    z4 = load_example("z4")
    result = expand_pipeline(z4)
    series = result.series
    witness = result.witness
    good = result.expanded.plus.as_array()
    alignment_witnessed = False
    for cell in range(16):
        tampered = bytearray(good.tobytes())
        tampered[cell] = (tampered[cell] + 1) % 4
        broken = ExpandedAlgebra(
            base=z4,
            plus=FiniteFunction(2, 4, bytes(tampered)),
            minus=result.expanded.minus,
            zero=0,
        )
        report = verify_expansion(broken, series, witness)
        assert not report.all_ok, cell
        assert not report.check("group-structure").passed
        align = report.check("alignment-relations-preserved")
        if not align.passed:
            assert align.witness is not None
            assert len(align.witness) == 2
            assert all(len(row) == 4 for row in align.witness)
            alignment_witnessed = True
    assert alignment_witnessed


def test_refusals():
    with pytest.raises(ValueError, match="Mal'cev"):
        expand_pipeline(load_example("semilattice2"))
    with pytest.raises(ValueError, match="Mal'cev"):
        expand_pipeline(load_example("lattice2"))
    boolean_ring = FiniteAlgebra(
        "gf2-ring",
        2,
        [
            Operation("+", 2, (0, 1, 1, 0)),
            Operation("mul", 2, (0, 0, 0, 1)),
        ],
    )
    with pytest.raises(ValueError, match="nilpotent"):
        expand_pipeline(boolean_ring)


def test_expand_rejects_unverified_witness():
    z4 = load_example("z4")
    witness = find_malcev_term(z4)
    series = central_series(z4, maximal_congruence_chain(z4))
    with pytest.raises(ValueError, match="verified"):
        expand_with_group(z4, series, 0, replace(witness, verified=False))
    with pytest.raises(ValueError, match="zero"):
        expand_with_group(z4, series, 9, witness)


def test_short_series_gives_mixed_group():
    # a coarser central series on Z8 is legal; the associated group is
    # then not elementary abelian and the expansion must match it
    z8 = load_example("z8")
    witness = find_malcev_term(z8)
    mid = principal_congruence(z8, 0, 4)
    series = central_series(z8, [zero_congruence(8), mid, one_congruence(8)])
    expanded = expand_with_group(z8, series, 0, witness)
    report = verify_expansion(expanded, series, witness)
    assert report.all_ok
    group = associated_abelian_group(z8, series, 0, witness)
    assert [f.order for f in group.factors] == [2, 4]
    assert not group.is_elementary_abelian
    assert group.order_profile() == {1: 1, 2: 3, 4: 4}


def test_m_expansion_reproduces_its_own_addition():
    m = load_example("m")
    result = expand_pipeline(m)
    assert tuple(result.expanded.plus.as_array()) == m.operation("+").table
    assert tuple(result.expanded.minus.as_array()) == m.operation("neg").table
    exported = result.expanded.as_algebra()
    assert [op.name for op in exported.operations] == ["+", "mul", "neg", "zero"]


@pytest.mark.parametrize("name", ["z4", "z8", "z2z2", "d4", "q8", "m"])
def test_alignment_check_matches_the_full_relation(name):
    result = expand_pipeline(load_example(name))
    expanded, series, witness = result.expanded, result.series, result.witness
    size = expanded.base.size
    plus = expanded.plus_grid().astype(np.int64)
    neg = expanded.neg_array().astype(np.int64)
    rng = random.Random(name)
    cases = []
    for _ in range(6):
        # x + y + c(x, y) and -x + c(x) keep every series congruence when
        # c takes values in the level-j block of zero and depends only on
        # the level-(j-1) classes of its arguments; at j = 1 that is any c
        # valued in the level-1 block
        j = rng.randrange(1, len(series.congruences))
        outer = np.array(series.congruences[j].block_of)
        block = np.flatnonzero(outer == outer[expanded.zero])
        inner = np.array(series.congruences[j - 1].block_of)
        pick = {}
        shift = np.array([
            [pick.setdefault((inner[x], inner[y]), rng.choice(block)) for y in range(size)]
            for x in range(size)
        ])
        cases.append((plus[plus, shift], neg))
        cases.append((plus, plus[neg, shift[:, expanded.zero]]))
    level1 = np.array(series.congruences[1].block_of)
    flat = plus.reshape(-1)
    cells = [
        (a, b) for a in range(size * size) for b in range(a) if level1[flat[a]] != level1[flat[b]]
    ]
    for a, b in rng.sample(cells, 6):
        # swapping values from two level-1 classes breaks that congruence
        # (a cell that differs from a in one coordinate, within its level-1
        # block, and is not b keeps a value on a's old side); the alignment
        # check must still give the full relation's answer
        swapped = flat.copy()
        swapped[[a, b]] = swapped[[b, a]]
        cases.append((swapped.reshape(size, size), neg))
    preserved_failures = broken = 0
    for new_plus, new_neg in cases:
        mutated = replace(
            expanded,
            plus=FiniteFunction(2, size, new_plus.astype(np.uint8).tobytes()),
            minus=FiniteFunction(1, size, new_neg.astype(np.uint8).tobytes()),
        )
        report = verify_expansion(mutated, series, witness)
        assert [c.name for c in report.checks] == [
            "series-congruences-preserved",
            "group-structure",
            "alignment-relations-preserved",
            "nilpotency-bound",
        ]
        got = report.check("alignment-relations-preserved")
        want = alignment_witness_by_full_relation(mutated, series, witness)
        assert (got.passed, got.detail, got.witness) == want
        if got.witness is not None:
            assert all(type(v) is int for row in got.witness for v in row)
        if report.check("series-congruences-preserved").passed:
            preserved_failures += not got.passed
        else:
            broken += 1
    assert preserved_failures > 0
    assert broken == 6
