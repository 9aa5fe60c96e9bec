import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finalg
from finalg.fields import (
    PrimeSpan,
    abelian_group_info,
    element_orders,
    finite_field,
    group_coordinates,
    is_prime,
    polynomial_degree,
    prime_power,
)

from oracles import (
    abelian_group_axioms,
    difference_degree,
    newton_table,
    product_table,
    span_by_enumeration,
)


@st.composite
def relabelled_products(draw, moduli=st.tuples(st.integers(1, 4), st.integers(1, 4))):
    mods = draw(moduli)
    n = int(np.prod(mods))
    return product_table(mods, draw(st.permutations(range(n))))


@st.composite
def perturbed_products(draw):
    tab = draw(relabelled_products()).copy()
    n = tab.shape[0]
    a, b, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    tab[a, b] = v
    return tab


def assert_matches_axioms(tab: np.ndarray) -> None:
    got = abelian_group_info(tab)
    want = abelian_group_axioms(tab.tolist())
    if want is None:
        assert got is None
    else:
        assert got is not None
        ident, neg, exponent = got
        assert (ident, tuple(int(v) for v in neg), exponent) == want


@settings(max_examples=150, deadline=None)
@given(relabelled_products())
def test_abelian_group_info_on_relabelled_products(tab):
    assert abelian_group_info(tab) is not None
    assert_matches_axioms(tab)
    # the uint8 tables the closure engine passes in give the same answer
    assert_matches_axioms(tab.astype(np.uint8))


@settings(max_examples=300, deadline=None)
@given(perturbed_products())
def test_abelian_group_info_on_perturbed_products(tab):
    assert_matches_axioms(tab)


def test_abelian_group_info_rejects_a_non_abelian_group():
    perms = list(itertools.permutations(range(3)))
    s3 = np.array(
        [[perms.index(tuple(f[g[i]] for i in range(3))) for g in perms] for f in perms]
    )
    assert abelian_group_axioms(s3.tolist()) is None
    assert abelian_group_info(s3) is None


@settings(max_examples=100, deadline=None)
@given(relabelled_products())
def test_element_orders_divide_the_exponent(tab):
    ident, _, exponent = abelian_group_info(tab)
    orders = element_orders(tab, ident)
    assert orders[ident] == 1
    assert all(exponent % o == 0 for o in orders)
    assert max(orders) == exponent  # abelian: some element has the exponent as order


def test_element_orders_stop_on_a_table_that_is_not_a_group():
    # 1 + 1 = 1, so the multiples of 1 never come back to 0
    with pytest.raises(ValueError):
        element_orders(np.array([[0, 1], [1, 1]]), 0)


@st.composite
def elementary_groups(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    dim = draw(st.integers(0, {2: 4, 3: 3, 5: 2}[p]))
    perm = draw(st.permutations(range(p**dim)))
    return p, dim, product_table((p,) * dim, perm), perm[0]


@settings(max_examples=150, deadline=None)
@given(elementary_groups())
def test_group_coordinates_is_an_additive_bijection(group):
    p, dim, plus, zero = group
    coords = group_coordinates(plus, zero, p)
    size = p**dim
    assert coords.shape == (size, dim)
    assert len({tuple(row) for row in coords.tolist()}) == size
    assert not coords[zero].any()
    for a, b in itertools.product(range(size), repeat=2):
        assert np.array_equal(coords[plus[a, b]], (coords[a] + coords[b]) % p)


@st.composite
def group_operations(draw):
    """An operation of arity 0 to 2 on a relabelled elementary abelian
    p-group with at most 16 argument tuples, random or of bounded degree."""
    p, dim = draw(st.sampled_from([(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]))
    size = p**dim
    arity = draw(st.integers(0, 2 if size <= 4 else 1))
    perm = draw(st.permutations(range(size)))
    plus = product_table((p,) * dim, perm)
    coords = group_coordinates(plus, perm[0], p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bound = draw(st.sampled_from([None, 0, 1, 2, 3]))
    if bound is None:
        table = rng.integers(0, size, size**arity).tolist()
    else:
        table = newton_table(rng, p, coords, arity, bound)
    return p, plus, coords, arity, table, bound


@settings(max_examples=150, deadline=None)
@given(group_operations())
def test_polynomial_degree_is_the_least_vanishing_difference_order(case):
    p, plus, coords, arity, table, bound = case
    neg = abelian_group_info(plus)[1].tolist()
    degree = polynomial_degree(np.array(table), arity, coords, p)
    assert degree == difference_degree(table, arity, plus.tolist(), neg)
    if bound is not None:
        assert degree <= bound


@pytest.mark.parametrize("p", [2, 3])
def test_group_coordinates_rejects_a_group_of_another_exponent(p):
    z4 = product_table((4,), list(range(4)))
    with pytest.raises(ValueError):
        group_coordinates(z4, 0, p)


@st.composite
def prime_vectors(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(0, p - 1)] * dim)
    return p, dim, draw(st.lists(vec, max_size=6)), draw(vec)


@settings(max_examples=300, deadline=None)
@given(prime_vectors())
def test_prime_span_matches_enumeration(case):
    p, dim, vectors, probe = case
    echelon = PrimeSpan(p)
    for i, v in enumerate(vectors):
        before = span_by_enumeration(vectors[:i], p, dim)
        assert echelon.add(np.array(v, dtype=np.int64)) == (v not in before)
    span = span_by_enumeration(vectors, p, dim)
    assert p**echelon.rank == len(span)
    assert echelon.contains(np.array(probe, dtype=np.int64)) == (probe in span)
    for v in span:
        assert echelon.contains(np.array(v, dtype=np.int64))


@pytest.mark.parametrize("order", [2, 3, 4, 5, 7, 8, 9])
def test_field_coordinates_are_group_coordinates(order):
    fld = finite_field(order)
    labels = np.arange(order)
    want = group_coordinates(fld.add_table, 0, fld.characteristic)
    assert np.array_equal(fld.coordinates(labels), want)
    grid = fld.add_table
    assert np.array_equal(fld.coordinates(grid), want[grid])


def test_primality_helpers():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_power(1) is None
    assert prime_power(12) is None
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(17) == (17, 1)


def test_no_module_imports_a_private_name_from_a_sibling():
    package = Path(finalg.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("finalg"):
                continue
            offenders += [
                f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")
            ]
    assert offenders == []


def test_no_module_level_import_goes_unused():
    package = Path(finalg.__file__).parent
    # the package __init__ imports only to re-export
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}: {name}" for name in sorted(bound - used)]
    assert offenders == []
