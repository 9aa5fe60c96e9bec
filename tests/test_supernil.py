"""Bounds, absorbing surveys, term-condition falsification, spectra."""
import itertools

import pytest

from finalg.algebra import (
    App,
    CapExceeded,
    FiniteAlgebra,
    FiniteFunction,
    Operation,
    Var,
    eval_term,
    term_table,
    unflatten_index,
)
from finalg.catalog import load_example
from finalg.expansion import expand_pipeline
from finalg.fields import finite_field
from finalg.supernil import (
    absorbing_arity_check,
    absorbing_survey,
    check_supernilpotent,
    commutator_term_check,
    commutator_term_survey,
    is_absorbing,
    log_height_bound,
    spectrum_degree_probe,
    supernilpotency_bound,
    term_condition_falsify,
)

from oracles import naive_closure

Z4 = load_example("z4")
M = load_example("m")
KLEIN = load_example("z2z2")
D4 = load_example("d4")
Q8 = load_example("q8")


def op_function(algebra, name):
    op = next(o for o in algebra.operations if o.name == name)
    return FiniteFunction(op.arity, algebra.size, bytes(op.table))


def translated_commutator_word(mult, inv):
    """w = (x1-z)^-1 (x2-z)^-1 (x1-z) (x2-z) z, written multiplicatively."""
    a = App(mult, (Var(0), App(inv, (Var(2),))))
    b = App(mult, (Var(1), App(inv, (Var(2),))))
    w = App(inv, (a,))
    w = App(mult, (w, App(inv, (b,))))
    w = App(mult, (w, a))
    w = App(mult, (w, b))
    return App(mult, (w, Var(2)))


# -- arity bound formulas -----------------------------------------------------


def test_bound_frozen_values():
    assert supernilpotency_bound(4, 2, 2) == 6
    assert supernilpotency_bound(8, 2, 3) == 196
    assert supernilpotency_bound(5, 3, 1) == 1
    assert supernilpotency_bound(2, 1, 1) == 1


def test_bound_edge_cases():
    assert supernilpotency_bound(1, 1, 0) == 1
    with pytest.raises(ValueError):
        supernilpotency_bound(4, 2, 0)
    with pytest.raises(ValueError):
        supernilpotency_bound(0, 2, 1)
    with pytest.raises(ValueError):
        supernilpotency_bound(4, 0, 1)
    with pytest.raises(ValueError):
        supernilpotency_bound(4, 2, -1)


def test_bound_monotone_in_each_argument():
    for q, m, h in itertools.product(range(2, 7), range(1, 5), range(1, 5)):
        here = supernilpotency_bound(q, m, h)
        assert supernilpotency_bound(q + 1, m, h) >= here
        assert supernilpotency_bound(q, m + 1, h) >= here
        assert supernilpotency_bound(q, m, h + 1) >= here


def test_log_height_bound_frozen_values():
    assert log_height_bound(4, 2) == (6.0, 6)
    assert log_height_bound(2, 5) == (1.0, 1)
    assert log_height_bound(8, 2) == (196.0, 196)


def test_log_height_bound_rejects_trivial_orders():
    with pytest.raises(ValueError):
        log_height_bound(1, 2)
    with pytest.raises(ValueError):
        log_height_bound(4, 0)


# -- absorbing functions ------------------------------------------------------


def test_is_absorbing_basics():
    assert is_absorbing(op_function(M, "mul"), 0)
    assert not is_absorbing(op_function(M, "+"), 0)
    assert is_absorbing(FiniteFunction(2, 4, bytes(16)), 0)
    assert is_absorbing(FiniteFunction(0, 4, bytes([3])), 0)
    # absorbing is relative to the chosen zero
    assert not is_absorbing(op_function(M, "mul"), 1)


def test_absorbing_survey_z4_binary_has_only_zero():
    survey = absorbing_survey(Z4, 0, 2)
    assert not survey.partial
    assert survey.nonzero() == []
    assert all(e.essential_arity == 0 for e in survey.entries)


def test_absorbing_survey_m_binary_finds_the_product():
    survey = absorbing_survey(M, 0, 2)
    assert not survey.partial
    hits = survey.nonzero()
    assert len(hits) == 1
    assert hits[0].function.values == op_function(M, "mul").values
    assert hits[0].essential_arity == 2
    assert survey.max_essential_arity == 2
    # the reported term really induces the reported table
    again = term_table(M, hits[0].term, 2)
    assert again.values == hits[0].function.values


def test_absorbing_survey_m_ternary_has_only_zero():
    survey = absorbing_survey(M, 0, 3)
    assert not survey.partial
    assert survey.nonzero() == []


def test_absorbing_survey_matches_naive_closure_oracle():
    tables = naive_closure(M, 2, with_constants=True)
    absorbing = set()
    for tab in tables:
        if all(
            tab[idx] == 0
            for idx in range(16)
            if 0 in unflatten_index(idx, 4, 2)
        ):
            absorbing.add(tab)
    survey = absorbing_survey(M, 0, 2)
    got = {tuple(e.function.values) for e in survey.entries}
    assert got == absorbing


@pytest.mark.parametrize("algebra", [Z4, M, KLEIN], ids=lambda a: a.name)
def test_absorbing_essential_arity_dichotomy(algebra):
    for arity in range(1, 4):
        for entry in absorbing_survey(algebra, 0, arity).entries:
            assert entry.essential_arity in (0, arity)


# -- degree verification ------------------------------------------------------


def test_check_m_degree_two_verified_to_arity_four():
    report = check_supernilpotent(M, 2, arity_cap=4)
    assert report.verified_degree == 2
    assert not report.refuted
    assert not report.partial
    assert report.nilpotency_class == 2
    assert report.height == 2
    assert report.bound == 6


def test_check_m_degree_one_refuted_by_the_product():
    report = check_supernilpotent(M, 1, arity_cap=3)
    assert report.refuted
    assert report.verified_degree is None
    assert report.counterexample_arity == 2
    entry = report.counterexample
    assert entry.function.values == op_function(M, "mul").values
    assert term_table(M, entry.term, 2).values == entry.function.values


def test_check_z4_degree_one_verified():
    report = check_supernilpotent(Z4, 1, arity_cap=3)
    assert report.verified_degree == 1
    assert not report.refuted


def test_check_rejects_cap_below_degree():
    with pytest.raises(ValueError):
        check_supernilpotent(M, 2, arity_cap=2)
    with pytest.raises(ValueError):
        check_supernilpotent(M, -1)


def test_check_partial_when_closure_capped():
    report = check_supernilpotent(D4, 3, arity_cap=4, cap=50, with_context=False)
    assert report.partial
    assert report.verified_degree is None
    assert not report.refuted


# -- term condition falsifier -------------------------------------------------


def assert_witness_violates(algebra, k, witness):
    """Re-check a falsifier witness against the defining condition directly."""
    blocks_left = witness.left_tuples
    blocks_right = witness.right_tuples
    for select in itertools.product((0, 1), repeat=k):
        args = []
        for i, pick in enumerate(select):
            args.extend(blocks_right[i] if pick else blocks_left[i])
        lhs = eval_term(algebra, witness.term, tuple(args) + blocks_left[-1])
        rhs = eval_term(algebra, witness.term, tuple(args) + blocks_right[-1])
        if all(pick == 1 for pick in select):
            assert lhs == witness.lhs and rhs == witness.rhs
            assert lhs != rhs
        else:
            assert lhs == rhs


def test_falsifier_finds_binary_violation_in_m():
    witness = term_condition_falsify(M, 1)
    assert witness is not None
    assert witness.composition == (1, 1)
    assert_witness_violates(M, 1, witness)


def test_falsifier_clean_on_z4():
    assert term_condition_falsify(Z4, 1, tuple_bound=2, term_depth_bound=3) is None


def test_falsifier_clean_on_klein():
    assert term_condition_falsify(KLEIN, 1) is None


def test_falsifier_rejects_bad_arguments():
    with pytest.raises(ValueError):
        term_condition_falsify(M, 0)
    with pytest.raises(ValueError):
        term_condition_falsify(M, 1, tuple_bound=0)


# -- commutator terms ---------------------------------------------------------


def test_commutator_survey_z4_rank2_only_the_projection():
    survey = commutator_term_survey(Z4, 2)
    assert not survey.partial
    assert len(survey.entries) == 1
    assert survey.entries[0].trivial
    assert survey.nontrivial() == []


def test_commutator_survey_m_rank3_exhaustive_and_trivial():
    survey = commutator_term_survey(M, 3)
    assert not survey.partial
    assert survey.searched == 16384
    assert survey.nontrivial() == []


def test_translated_commutator_word_on_groups():
    word = translated_commutator_word("*", "inv")
    for group in (D4, Q8):
        entry = commutator_term_check(group, word, 2)
        assert entry.satisfies
        assert not entry.trivial
    abelian_word = translated_commutator_word("+", "neg")
    entry = commutator_term_check(Z4, abelian_word, 2)
    assert entry.satisfies
    assert entry.trivial


def test_last_projection_is_a_trivial_commutator_term():
    for rank in (1, 2, 3):
        entry = commutator_term_check(M, Var(rank), rank)
        assert entry.satisfies
        assert entry.trivial


def test_commutator_survey_rejects_rank_zero():
    with pytest.raises(ValueError):
        commutator_term_survey(M, 0)


def test_verified_degree_caps_nontrivial_commutator_ranks():
    # degree 2 verified on M, so no nontrivial terms of higher rank
    assert check_supernilpotent(M, 2, arity_cap=4).verified_degree == 2
    assert commutator_term_survey(M, 3).nontrivial() == []


# -- spectrum probe -----------------------------------------------------------


def test_spectrum_probe_z4_is_linear():
    probe = spectrum_degree_probe(Z4, 3)
    assert probe.log2_counts == (2.0, 4.0, 6.0)
    assert probe.degree_estimate == 1


def test_spectrum_probe_m_is_quadratic():
    probe = spectrum_degree_probe(M, 3)
    assert probe.log2_counts == (2.0, 5.0, 9.0)
    assert probe.degree_estimate == 2
    assert all(d > 0 for d in probe.differences[1])


def test_spectrum_probe_one_element_algebra():
    point = FiniteAlgebra("point", 1, (Operation("f", 1, (0,)),))
    probe = spectrum_degree_probe(point, 3)
    assert probe.log2_counts == (0.0, 0.0, 0.0)
    assert probe.degree_estimate == 0


def test_spectrum_probe_aborts_on_capped_counts():
    with pytest.raises(CapExceeded):
        spectrum_degree_probe(D4, 3, cap=10)


# -- absorbing arity bound report ---------------------------------------------


def test_arity_check_on_expanded_m():
    expanded = expand_pipeline(M).expanded.as_algebra()
    report = absorbing_arity_check(expanded, arity_cap=4)
    assert report.plus_op == "+"
    assert report.extra_ops == ("mul",)
    assert report.max_extra_arity == 2
    assert report.nilpotency_class == 2
    assert report.bound == 6
    assert report.observed_max_essential == 2
    assert report.within_bound
    assert not report.partial
    assert report.ok
    levels = {c.level for c in report.ideal_checks}
    assert levels == {1, 2}
    for check in report.ideal_checks:
        assert check.contained
        if check.level == 2:
            assert check.target == (0,)
            assert check.image == (0,)


def test_arity_check_on_plain_klein_group():
    expanded = expand_pipeline(KLEIN).expanded.as_algebra()
    report = absorbing_arity_check(expanded, arity_cap=3)
    assert report.bound == 1
    assert report.observed_max_essential == 1
    assert report.ok
    assert report.extra_ops == ()
    assert any("vacuous" in note for note in report.notes)


def test_arity_check_on_abelian_module_with_unary_scalar():
    fld = finite_field(4)
    klein = load_example("z2z2")
    scalar = tuple(int(v) for v in fld.mul_table[2])
    ops = tuple(klein.operations) + (Operation("scale", 1, scalar),)
    module = FiniteAlgebra("module", 4, ops)
    report = absorbing_arity_check(module, arity_cap=3)
    assert report.nilpotency_class == 1
    assert report.extra_ops == ("scale",)
    assert report.max_extra_arity == 1
    assert report.bound == 1
    assert report.observed_max_essential <= 1
    assert report.ok
    assert any("multi-variable" in note for note in report.notes)


def test_arity_check_rejects_unsuitable_addition():
    with pytest.raises(ValueError):
        absorbing_arity_check(Z4)  # exponent 4 addition
    with pytest.raises(ValueError):
        absorbing_arity_check(load_example("semilattice2"))
    with pytest.raises(ValueError):
        absorbing_arity_check(M, plus_op="mul")


def test_expanding_z4_introduces_a_binary_carry():
    # the constructed group is elementary abelian, not the original Z4
    # addition, and the richer signature has a genuine absorbing carry
    expanded = expand_pipeline(Z4).expanded.as_algebra()
    names = [op.name for op in expanded.operations]
    assert "+2" in names
    refutation = check_supernilpotent(expanded, 1, arity_cap=2)
    assert refutation.refuted
    assert refutation.counterexample.essential_arity == 2
    report = absorbing_arity_check(expanded, arity_cap=2)
    assert report.plus_op == "+2"
    assert report.extra_ops == ("+", "neg")
    assert report.nilpotency_class == 2
    assert report.bound == 6
    assert report.ok


def test_arity_check_explicit_plus_name():
    report = absorbing_arity_check(M, plus_op="+", arity_cap=3)
    assert report.plus_op == "+"
    assert report.ok


# -- cross-module invariants --------------------------------------------------


def test_consistency_triangle_on_prime_power_fixtures():
    cases = ((Z4, 1), (M, 2), (KLEIN, 1), (load_example("z8"), 1))
    for algebra, degree in cases:
        result = expand_pipeline(algebra)
        height = result.series.length
        m_orig = max(op.arity for op in algebra.operations)
        bound = supernilpotency_bound(algebra.size, max(m_orig, 2), height)
        probe = spectrum_degree_probe(algebra, 3)
        report = check_supernilpotent(algebra, degree, arity_cap=degree + 1)
        assert report.verified_degree == degree
        assert probe.degree_estimate <= degree <= bound


def test_pipeline_stages_feed_each_other():
    # expand, check the bound on the expansion, then clear the reduct
    for algebra, k in ((M, 2), (KLEIN, 1)):
        expanded = expand_pipeline(algebra).expanded.as_algebra()
        report = absorbing_arity_check(expanded, arity_cap=3)
        assert report.ok
        assert term_condition_falsify(algebra, k, tuple_bound=1, term_depth_bound=2) is None
