import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finalg.algebra import CapExceeded, FiniteAlgebra, FiniteFunction, Operation, Var, term_table
from finalg.catalog import example_names, load_example
from finalg.clones import DEFAULT_CAP, term_functions
from finalg.congruence import commutator, congruence_lattice, zero_congruence, one_congruence
from finalg.fields import abelian_group_info
from finalg.malcev import (
    MalcevWitness,
    check_plus_properties,
    find_malcev_term,
    plus_minus_o,
    zero_block_group,
)

from oracles import malcev_by_full_closure
from test_acceptance import random_malcev_groupoid


GROUPISH = ["z4", "z8", "z2z2", "d4", "q8", "m"]


def is_malcev_function(func: FiniteFunction) -> bool:
    g = func.as_grid()
    s = g.shape[0]
    return all(
        g[x, y, y] == x and g[x, x, y] == y for x in range(s) for y in range(s)
    )


@pytest.mark.parametrize("name", GROUPISH)
def test_witness_found_on_group_like_fixtures(name):
    algebra = load_example(name)
    witness = find_malcev_term(algebra)
    assert witness is not None
    assert witness.verified
    assert is_malcev_function(witness.function)
    # the recorded term really evaluates to the recorded table
    replayed = term_table(algebra, witness.term, 3)
    assert np.array_equal(replayed.as_array(), witness.function.as_array())


def test_z4_witness_matches_x_minus_y_plus_z():
    z4 = load_example("z4")
    witness = find_malcev_term(z4)
    expected = np.array(
        [[[(x - y + z) % 4 for z in range(4)] for y in range(4)] for x in range(4)],
        dtype=np.uint8,
    )
    assert np.array_equal(witness.grid(), expected)


@pytest.mark.parametrize("name", ["semilattice2", "lattice2"])
def test_no_witness_on_order_structures(name):
    # exhaustive closure, so absence is a certificate
    assert find_malcev_term(load_example(name)) is None


def test_trivial_algebra_has_projection_witness():
    one = FiniteAlgebra("point", 1, [Operation("f", 1, (0,))])
    witness = find_malcev_term(one)
    assert witness is not None
    assert witness.term.to_sexpr() == "x0"


def test_cap_exceeded_is_unknown_not_absence():
    z4 = load_example("z4")
    with pytest.raises(CapExceeded):
        find_malcev_term(z4, depth_cap=1)
    with pytest.raises(CapExceeded):
        find_malcev_term(z4, cap=3)
    # x + (-y) + z style terms appear at composition depth two
    assert find_malcev_term(z4, depth_cap=2) is not None


def search_outcome(search, algebra, cap, depth_cap):
    """(term, table) of the witness, None for a certified absence, or "undecided"."""
    try:
        found = search(algebra, depth_cap=depth_cap, cap=cap)
    except CapExceeded:
        return "undecided"
    if isinstance(found, MalcevWitness):
        return found.term.to_sexpr(), found.function.values
    return None if found is None else found[1:]


def assert_early_stop_matches_full_closure(algebra, cap):
    """Compare at the cap, and just below and at the first witness's row."""
    try:
        hit = malcev_by_full_closure(algebra, cap=cap)
    except CapExceeded:
        hit = None
    caps = [cap] if hit is None else [hit[0], hit[0] + 1, cap]
    for cap in caps:
        for depth_cap in (1, 2, 3, None):
            fast = search_outcome(find_malcev_term, algebra, cap, depth_cap)
            full = search_outcome(malcev_by_full_closure, algebra, cap, depth_cap)
            assert fast == full, (algebra.name, cap, depth_cap)


@pytest.mark.parametrize("name", example_names())
def test_early_stop_matches_full_closure_on_fixtures(name):
    assert_early_stop_matches_full_closure(load_example(name), DEFAULT_CAP)


def test_early_stop_matches_full_closure_on_random_malcev_groupoids():
    # their whole ternary clone is far too large for the reference at the
    # default cap, so the reference runs to the cap the generated groupoids use
    for seed in range(20):
        assert_early_stop_matches_full_closure(random_malcev_groupoid(seed), 2000)


@st.composite
def binary_groupoids(draw):
    size = draw(st.integers(1, 3))
    table = draw(st.lists(st.integers(0, size - 1), min_size=size**2, max_size=size**2))
    return FiniteAlgebra("generated", size, [Operation("f", 2, tuple(table))])


@settings(max_examples=40, deadline=None)
@given(binary_groupoids(), st.integers(1, 2000))
def test_early_stop_matches_full_closure_on_generated_groupoids(algebra, cap):
    assert_early_stop_matches_full_closure(algebra, cap)


def test_search_caches_no_prefix():
    d4 = load_example("d4")
    assert find_malcev_term(d4) is not None
    closure = term_functions(d4, 3, strategy="bfs")
    assert closure.exact and len(closure) == 512


def test_determinism():
    d4 = load_example("d4")
    first = find_malcev_term(d4)
    second = find_malcev_term(d4)
    assert first.term.to_sexpr() == second.term.to_sexpr()


def test_plus_minus_at_zero_recovers_group_addition():
    z4 = load_example("z4")
    witness = find_malcev_term(z4)
    plus, minus, neg = plus_minus_o(z4, witness, 0)
    p = plus.as_grid()
    add = np.array(z4.operation("+").table, dtype=np.uint8).reshape(4, 4)
    assert np.array_equal(p, add)
    assert np.array_equal(neg.as_array(), np.array(z4.operation("neg").table))
    m = minus.as_grid()
    assert all(m[a, b] == (a - b) % 4 for a in range(4) for b in range(4))


def test_plus_at_shifted_zero():
    z4 = load_example("z4")
    witness = find_malcev_term(z4)
    plus, _, _ = plus_minus_o(z4, witness, 1)
    p = plus.as_grid()
    assert all(p[x, y] == (x - 1 + y) % 4 for x in range(4) for y in range(4))


@pytest.mark.parametrize("name", GROUPISH)
def test_derived_zero_laws_everywhere(name):
    algebra = load_example(name)
    witness = find_malcev_term(algebra)
    for o in range(algebra.size):
        plus, minus, _ = plus_minus_o(algebra, witness, o)
        p = plus.as_grid()
        m = minus.as_grid()
        for a in range(algebra.size):
            assert p[a, o] == a and p[o, a] == a and m[a, o] == a
            assert m[a, a] == o


def test_plus_minus_rejects_bad_zero():
    z4 = load_example("z4")
    witness = find_malcev_term(z4)
    with pytest.raises(ValueError):
        plus_minus_o(z4, witness, 7)


def test_nine_properties_on_z4_all_pairs():
    z4 = load_example("z4")
    witness = find_malcev_term(z4)
    lattice = congruence_lattice(z4)
    for alpha in lattice:
        for beta in lattice:
            report = check_plus_properties(z4, witness, 0, alpha, beta)
            assert len(report.items) == 9
            assert report.all_hold, report.failures()


def test_nine_properties_on_m_and_d4():
    for name in ("m", "d4"):
        algebra = load_example(name)
        witness = find_malcev_term(algebra)
        one = one_congruence(algebra.size)
        report = check_plus_properties(algebra, witness, 0, one, one)
        assert report.all_hold, (name, report.failures())


def test_properties_trivial_at_zero_congruence():
    d4 = load_example("d4")
    witness = find_malcev_term(d4)
    zero = zero_congruence(8)
    report = check_plus_properties(d4, witness, 0, zero, zero)
    assert report.all_hold


def test_property_counterexamples_on_fake_witness():
    z4 = load_example("z4")
    fake = MalcevWitness(
        term=Var(0),
        function=FiniteFunction.from_values(3, 4, [x for x in range(4) for _ in range(16)]),
        verified=False,
    )
    one = one_congruence(4)
    report = check_plus_properties(z4, fake, 0, one, one)
    item1 = report.items[0]
    assert not item1.holds
    assert item1.counterexample is not None
    a = item1.counterexample[0]
    # the projection sends (o, a) to o, breaking o + a = a
    assert a != 0


@pytest.mark.parametrize("name", GROUPISH)
def test_zero_block_groups(name):
    algebra = load_example(name)
    witness = find_malcev_term(algebra)
    lattice = congruence_lattice(algebra)
    zero = zero_congruence(algebra.size)
    atoms = [
        alpha
        for alpha in lattice
        if not alpha.is_zero
        and all(g.is_zero or not g.refines(alpha) or g == alpha for g in lattice)
    ]
    for alpha in lattice:
        if not commutator(algebra, alpha, alpha).is_zero:
            continue
        block, elements = zero_block_group(algebra, witness, 0, alpha)
        assert elements[block.operation("zero").table[0]] == 0
        table = np.array(block.operation("+").table, dtype=np.uint8)
        info = abelian_group_info(table.reshape(block.size, block.size))
        assert info is not None, (name, alpha)
        identity, _neg, exponent = info
        assert identity == block.operation("zero").table[0]
        if alpha in atoms:
            assert exponent in (2, 3, 5, 7), (name, alpha, exponent)
    assert not zero.is_one or algebra.size == 1
