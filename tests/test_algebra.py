import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finalg.algebra import (
    AlgebraFormatError,
    App,
    Const,
    FiniteAlgebra,
    Operation,
    Var,
    cell_digits,
    compose,
    constant_function,
    cylindrify,
    depends_on,
    essential_arity,
    eval_term,
    flat_index,
    parse_algebra,
    projection,
    term_table,
    unflatten_index,
)
from finalg.catalog import example_names, load_example
from finalg.clones import term_functions


def z4_doc():
    return {
        "name": "Z4",
        "size": 4,
        "operations": [
            {"name": "+", "arity": 2, "table": [(i + j) % 4 for i in range(4) for j in range(4)]},
            {"name": "neg", "arity": 1, "table": [(-i) % 4 for i in range(4)]},
            {"name": "zero", "arity": 0, "table": [0]},
        ],
    }


def test_flat_index_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        size = rng.randint(2, 6)
        arity = rng.randint(0, 4)
        args = tuple(rng.randrange(size) for _ in range(arity))
        idx = flat_index(args, size)
        assert unflatten_index(idx, size, arity) == args


def test_flat_index_leftmost_most_significant():
    # f(a1,...,an) sits at a1*s^(n-1) + ... + an
    assert flat_index((1, 0, 2), 3) == 1 * 9 + 0 * 3 + 2
    assert flat_index((2, 1), 4) == 2 * 4 + 1


@settings(max_examples=100, deadline=None)
@given(size=st.integers(1, 5), arity=st.integers(0, 4))
def test_cell_digits_list_every_cell_in_table_order(size, arity):
    digits = cell_digits(size, arity)
    assert digits.dtype == np.int64
    assert digits.shape == (arity, size**arity)
    for idx in range(size**arity):
        assert tuple(digits[:, idx].tolist()) == unflatten_index(idx, size, arity)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_reads_tables_at_flat_indices(data):
    size = data.draw(st.integers(1, 5))
    arity = data.draw(st.integers(0, 3))
    element = st.integers(0, size - 1)
    values = data.draw(st.lists(element, min_size=size**arity, max_size=size**arity))
    table = np.array(values, dtype=np.uint8)
    # on every cell at once, the table comes back unchanged, and so do the
    # arguments, which the index is accumulated next to
    digits = cell_digits(size, arity)
    whole = compose(table, size, digits)
    assert whole.dtype == np.uint8
    assert np.array_equal(np.ravel(whole), table)
    assert np.array_equal(digits, cell_digits(size, arity))
    # argument arrays of shapes (n, 1), (n,), ... broadcast to a grid, and a
    # generator of arguments is read one array at a time
    n = data.draw(st.integers(1, 4))
    args = [np.array(data.draw(st.lists(element, min_size=n, max_size=n))) for _ in range(arity)]
    shaped = [a.reshape((n,) + (1,) * (arity - 1 - i)) for i, a in enumerate(args)]
    grid = compose(table, size, (a for a in shaped))
    assert grid.shape == (n,) * arity
    for cell in np.ndindex(*grid.shape):
        point = tuple(int(args[i][j]) for i, j in enumerate(cell))
        assert grid[cell] == table[flat_index(point, size)]


def test_parse_roundtrip():
    alg = parse_algebra(z4_doc())
    assert alg.size == 4
    assert alg.apply("+", (3, 2)) == 1
    assert alg.apply("neg", (1,)) == 3
    assert alg.apply("zero", ()) == 0
    again = parse_algebra(alg.dumps())
    assert again.to_json() == alg.to_json()


def test_parse_from_string():
    alg = parse_algebra(json.dumps(z4_doc()))
    assert alg.name == "Z4"
    assert alg.max_arity == 2


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("size"), "size"),
        (lambda d: d.update(size=0), "size"),
        (lambda d: d["operations"][0].update(table=[0, 1]), "entries"),
        (lambda d: d["operations"][0]["table"].__setitem__(0, 9), "outside"),
        (lambda d: d["operations"][0]["table"].__setitem__(0, -1), "outside"),
        (lambda d: d["operations"].append(dict(d["operations"][0])), "duplicate"),
        (lambda d: d["operations"][1].update(arity=-1), "arity"),
        (lambda d: d.update(operations="nope"), "operations"),
    ],
)
def test_parse_rejects_malformed(mutate, message):
    doc = z4_doc()
    mutate(doc)
    with pytest.raises(AlgebraFormatError) as err:
        parse_algebra(doc)
    assert message in str(err.value).lower()


def test_reduct_and_with_operations():
    alg = parse_algebra(z4_doc())
    red = alg.reduct(["+"])
    assert [op.name for op in red.operations] == ["+"]
    dbl = Operation("dbl", 1, tuple((2 * i) % 4 for i in range(4)))
    ext = alg.with_operations([dbl])
    assert ext.apply("dbl", (3,)) == 2
    assert alg.has_operation("neg") and not red.has_operation("neg")


def test_operations_are_frozen_so_closures_cannot_go_stale():
    z4 = parse_algebra(z4_doc())
    assert len(term_functions(z4, 2)) == 16
    c1 = Operation("c1", 0, (1,))
    with pytest.raises(AttributeError):
        z4.operations.append(c1)
    with pytest.raises(AttributeError):
        z4.operations = z4.operations + (c1,)
    assert len(term_functions(z4, 2)) == 16
    # the constant 1 adds every translate: all 64 affine maps a*x + b*y + c
    assert len(term_functions(z4.with_operations([c1]), 2)) == 64


def test_eval_term_and_sexpr():
    alg = parse_algebra(z4_doc())
    # x0 + (- x1)
    t = App("+", (Var(0), App("neg", (Var(1),))))
    assert eval_term(alg, t, (1, 3)) == 2
    assert t.to_sexpr() == "(+ x0 (neg x1))"
    assert t.depth() == 2
    assert t.variables() == (0, 1)
    c = App("+", (Var(0), Const(2)))
    assert eval_term(alg, c, (3,)) == 1
    assert c.to_sexpr() == "(+ x0 #2)"


def test_term_table_matches_pointwise_eval():
    alg = parse_algebra(z4_doc())
    t = App("+", (App("+", (Var(1), Var(1))), App("neg", (Var(0),))))
    f = term_table(alg, t, 2)
    for a in range(4):
        for b in range(4):
            assert f((a, b)) == eval_term(alg, t, (a, b))


def test_finite_function_shapes():
    f = projection(3, 2, 1)
    assert f((0, 1, 0)) == 1
    assert f.as_grid().shape == (2, 2, 2)
    assert len(list(f.graph())) == 8
    g = constant_function(2, 3, 2)
    assert set(g.as_array().tolist()) == {2}


def test_essential_arity_basics():
    assert essential_arity(projection(3, 2, 0)) == 1
    assert essential_arity(constant_function(3, 2, 1)) == 0
    alg = parse_algebra(z4_doc())
    plus = term_table(alg, App("+", (Var(0), Var(1))), 2)
    assert essential_arity(plus) == 2
    assert depends_on(plus) == (0, 1)
    assert depends_on(projection(4, 3, 2)) == (2,)


def test_cylindrify_preserves_behaviour():
    alg = parse_algebra(z4_doc())
    plus = term_table(alg, App("+", (Var(0), Var(1))), 2)
    wide = cylindrify(plus, 4, (1, 3))
    for args in np.ndindex(4, 4, 4, 4):
        assert wide(args) == plus((args[1], args[3]))
    assert essential_arity(wide) == 2
    assert depends_on(wide) == (1, 3)
    # default placement keeps the original argument order in front
    front = cylindrify(plus, 3)
    for args in np.ndindex(4, 4, 4):
        assert front(args) == plus((args[0], args[1]))


def test_size_bound_enforced():
    with pytest.raises(AlgebraFormatError):
        FiniteAlgebra("big", 300, [])


def test_catalog_examples_load():
    names = example_names()
    assert {"z4", "z8", "z2z2", "d4", "q8", "m", "semilattice2", "lattice2"} <= set(names)
    for name in names:
        alg = load_example(name)
        assert alg.size >= 2
    d4 = load_example("d4")
    # r * s ends up at index 1 + 4 = 5, and s has order two
    assert d4.apply("*", (1, 4)) == 5
    assert d4.apply("*", (4, 4)) == 0
    q8 = load_example("q8")
    # i * j = k with the sign bit in the low position
    assert q8.apply("*", (2, 4)) == 6
    assert q8.apply("*", (4, 2)) == 7
    with pytest.raises(KeyError):
        load_example("banach")
