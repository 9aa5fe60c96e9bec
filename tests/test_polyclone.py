import itertools
import json
import random

import numpy as np
import pytest

from finalg.algebra import CapExceeded, FiniteFunction, projection
from finalg.cli import EXIT_CAPPED, main
from finalg.fields import FiniteField, finite_field
from finalg.polyclone import (
    FieldPolynomial,
    Monomial,
    PolySet,
    additive_span,
    homovariate_component,
    homovariate_generators,
    homovariate_parts,
    homovariate_parts_of_set,
    induced_function,
    interpolate,
    is_homovariate,
    linear_substitutions,
    parse_polynomial,
    reduce_exponents,
    set_product,
    substitution_closure,
    top_homovariate_of_absorbing,
    verify_homovariate_split,
)

from oracles import eval_poly_text, substitution_order


def pset(fld, texts, tag="t"):
    return PolySet.make(fld, [parse_polynomial(fld, t) for t in texts], tag)


def strs(polyset) -> set[str]:
    return {str(p) for p in polyset}


def random_poly(rng, fld, nvars, max_exp=2, max_terms=3):
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        mono = {v: rng.randint(0, max_exp) for v in range(1, nvars + 1)}
        pairs.append((Monomial.make(mono), rng.randrange(1, fld.order)))
    return FieldPolynomial.make(fld, pairs)


# -- fields ----------------------------------------------------------------


@pytest.mark.parametrize("order", [2, 3, 4, 5, 7, 8, 9, 13, 17])
def test_supported_fields_construct_and_verify(order):
    fld = finite_field(order)
    assert fld.order == order
    assert fld.plus(0, order - 1) == order - 1
    assert fld.times(1, order - 1) == order - 1
    for a in range(order):
        assert fld.plus(a, fld.negate(a)) == 0
        if a:
            assert fld.times(a, fld.invert(a)) == 1
    digits = fld.coordinates(np.arange(order))
    assert digits.shape == (order, fld.degree)
    back = digits @ (fld.characteristic ** np.arange(fld.degree))
    assert np.array_equal(back, np.arange(order))


@pytest.mark.parametrize("order", [0, 1, 6, 10, 12, 16])
def test_unsupported_field_orders_rejected(order):
    with pytest.raises(ValueError):
        finite_field(order)


def test_extension_field_arithmetic_frozen():
    f4 = finite_field(4)
    assert f4.times(2, 2) == 3  # t*t = t + 1
    assert f4.times(2, 3) == 1
    f8 = finite_field(8)
    assert f8.times(2, f8.times(2, 2)) == 3  # t^3 = t + 1
    f9 = finite_field(9)
    assert f9.times(3, 3) == 2  # t^2 = -1
    assert f9.characteristic == 3


def test_broken_field_table_rejected():
    bad_add = np.arange(4).repeat(4).reshape(4, 4)
    good = finite_field(4)
    with pytest.raises(ValueError):
        FiniteField(4, 2, bad_add, good.mul_table)
    not_distributive = np.array([[0, 0, 0], [0, 1, 2], [0, 2, 1]]) % 3
    tweaked = not_distributive.copy()
    tweaked[2, 2] = 2
    with pytest.raises(ValueError):
        FiniteField(3, 3, finite_field(3).add_table, tweaked)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        finite_field(5).invert(0)


# -- polynomial basics ------------------------------------------------------


def test_monomial_canonicalization():
    m = Monomial.make({3: 2, 1: 1, 2: 0})
    assert m.powers == ((1, 1), (3, 2))
    assert m.degree == 3
    assert m.variables == frozenset({1, 3})
    assert m.degree_in(3) == 2 and m.degree_in(2) == 0
    assert str(Monomial.make({})) == "1"
    with pytest.raises(ValueError):
        Monomial.make({0: 1})
    with pytest.raises(ValueError):
        Monomial.make({1: -1})


def test_canonical_term_order_and_serialization():
    f17 = finite_field(17)
    text = "5*x2^2*x3 + 7*x2^2*x3*x4^5 + x1*x2*x3*x4 + 4*x4^3*x5 + 13*x2^6*x3^8*x4^7"
    p = parse_polynomial(f17, text)
    # ascending total degree: 4, 4, 4, 8, 21 with the tie broken by variables
    assert str(p) == "5*x2^2*x3 + x1*x2*x3*x4 + 4*x4^3*x5 + 7*x2^2*x3*x4^5 + 13*x2^6*x3^8*x4^7"
    f2 = finite_field(2)
    q = parse_polynomial(f2, "x2^2 + x1*x2 + x1^2")
    assert str(q) == "x1^2 + x1*x2 + x2^2"
    assert parse_polynomial(f17, str(p)) == p


def test_zero_polynomial_conventions():
    f3 = finite_field(3)
    zero = FieldPolynomial.zero(f3)
    assert zero.is_zero and zero.total_degree == 0 and str(zero) == "0"
    assert parse_polynomial(f3, "0") == zero
    assert zero.support == ()
    one = FieldPolynomial.constant(f3, 1)
    assert one.total_degree == 0 and not one.is_zero


def test_char2_addition_cancels():
    f2 = finite_field(2)
    a = parse_polynomial(f2, "x1*x2 + x1")
    b = parse_polynomial(f2, "x1")
    assert str(a + b) == "x1*x2"


def test_scale_neg_sub():
    f5 = finite_field(5)
    p = parse_polynomial(f5, "2*x1^2 + 3*x2")
    assert str(p.scale(2)) == "x2 + 4*x1^2"
    assert str(-p) == "2*x2 + 3*x1^2"
    assert (p - p).is_zero
    with pytest.raises(ValueError):
        p.scale(7)


def test_substitution_is_formal():
    f2 = finite_field(2)
    square = parse_polynomial(f2, "x1^2")
    sub = square.substitute([parse_polynomial(f2, "x1 + x2")])
    assert str(sub) == "x1^2 + x2^2"  # no function-level reduction
    p = parse_polynomial(f2, "x1*x2 + x1")
    ident = p.substitute(
        {1: FieldPolynomial.variable(f2, 1), 2: FieldPolynomial.variable(f2, 2)}
    )
    assert ident == p
    with pytest.raises(ValueError):
        p.substitute({1: FieldPolynomial.variable(f2, 1)})
    with pytest.raises(ValueError):
        p.substitute(
            {1: FieldPolynomial.variable(finite_field(3), 1),
             2: FieldPolynomial.variable(finite_field(3), 2)}
        )


def test_field_mismatch_rejected():
    p2 = parse_polynomial(finite_field(2), "x1")
    p3 = parse_polynomial(finite_field(3), "x1")
    with pytest.raises(ValueError):
        p2 + p3
    with pytest.raises(ValueError):
        p2 * p3
    with pytest.raises(ValueError):
        PolySet.make(finite_field(2), [p2, p3])


def test_parse_rejects_garbage():
    f3 = finite_field(3)
    for bad in ["", "x0", "x1^", "x1 +", "3*x1", "y2", "x1**2"]:
        with pytest.raises(ValueError):
            parse_polynomial(f3, bad)


def test_parse_round_trip_random():
    rng = random.Random(7)
    for fld in (finite_field(4), finite_field(5)):
        for _ in range(25):
            p = random_poly(rng, fld, 3)
            assert parse_polynomial(fld, str(p)) == p


def test_induced_values_match_text_oracle():
    rng = random.Random(11)
    for q in (2, 3, 5):
        fld = finite_field(q)
        for _ in range(10):
            p = random_poly(rng, fld, 3)
            func = induced_function(p, 3)
            arr = func.as_grid()
            for xs in itertools.product(range(q), repeat=3):
                want = eval_poly_text(str(p), q, dict(zip((1, 2, 3), xs)))
                assert int(arr[xs]) == want


def test_substitution_agrees_with_function_composition():
    rng = random.Random(13)
    f3 = finite_field(3)
    for _ in range(10):
        outer = random_poly(rng, f3, 2)
        inner = [random_poly(rng, f3, 2) for _ in range(2)]
        formal = induced_function(outer.substitute(inner), 2).as_array()
        f_out = induced_function(outer, 2).as_grid()
        g0 = induced_function(inner[0], 2).as_array()
        g1 = induced_function(inner[1], 2).as_array()
        composed = f_out[g0.astype(np.int64), g1.astype(np.int64)]
        assert np.array_equal(formal, composed)


# -- set operations ----------------------------------------------------------


def test_set_product_frozen_examples():
    f2 = finite_field(2)
    prod = set_product(pset(f2, ["x1 + x2"], "A"), pset(f2, ["x1", "x2"], "B"))
    assert strs(prod) == {"0", "x1 + x2"}
    only_zero = set_product(pset(f2, ["0"]), pset(f2, ["x1", "x1*x2"]))
    assert strs(only_zero) == {"0"}
    # constants need no arguments, so they survive an empty right-hand side
    assert strs(set_product(pset(f2, ["0"]), PolySet.make(f2, []))) == {"0"}
    assert strs(set_product(pset(f2, ["x1"]), PolySet.make(f2, []))) == set()


def test_set_product_projections_keep_variable_closed_sets():
    f3 = finite_field(3)
    b = pset(f3, ["x1", "x2", "x1*x2", "x2*x1"], "B")
    proj = pset(f3, ["x1", "x2"], "P")
    assert strs(set_product(proj, b)) == strs(b)


def test_set_product_caps_and_mismatch():
    f2 = finite_field(2)
    with pytest.raises(CapExceeded):
        set_product(pset(f2, ["x1 + x2"]), pset(f2, ["x1", "x2"]), cap=3)
    with pytest.raises(ValueError):
        set_product(pset(f2, ["x1"]), pset(finite_field(3), ["x1"]))


def test_additive_span_frozen_examples():
    f2 = finite_field(2)
    assert strs(additive_span(pset(f2, ["x1"]), 2)) == {"0", "x1"}
    four = additive_span(pset(f2, ["x1", "x2"]), 2)
    assert strs(four) == {"0", "x1", "x2", "x1 + x2"}
    assert strs(additive_span(PolySet.make(f2, []), 2)) == {"0"}
    f3 = finite_field(3)
    assert strs(additive_span(pset(f3, ["x1"]), 1)) == {"0", "x1", "2*x1"}
    with pytest.raises(ValueError):
        additive_span(pset(f2, ["x3"]), 2)
    with pytest.raises(CapExceeded):
        additive_span(pset(f2, ["x1", "x2", "x1 + x2 + x1*x2"]), 2, cap=4)


def test_linear_substitutions_frozen_examples():
    f2 = finite_field(2)
    got = linear_substitutions(pset(f2, ["x1*x2"]), 2)
    assert strs(got) == {
        "0",
        "x1^2",
        "x2^2",
        "x1*x2",
        "x1^2 + x1*x2",
        "x1*x2 + x2^2",
        "x1^2 + x2^2",
    }
    # a single variable picks up exactly the linear forms in the window
    lin = linear_substitutions(pset(f2, ["x1"]), 2)
    assert strs(lin) == {"0", "x1", "x2", "x1 + x2"}
    assert strs(linear_substitutions(PolySet.make(f2, []), 2)) == set()
    with pytest.raises(CapExceeded):
        linear_substitutions(pset(f2, ["x1*x2"]), 2, cap=15)


def test_homovariate_component_worked_example():
    f17 = finite_field(17)
    p = parse_polynomial(
        f17, "5*x2^2*x3 + 7*x2^2*x3*x4^5 + x1*x2*x3*x4 + 4*x4^3*x5 + 13*x2^6*x3^8*x4^7"
    )
    picked = homovariate_component(p, [2, 3, 4])
    assert str(picked) == "7*x2^2*x3*x4^5 + 13*x2^6*x3^8*x4^7"
    small = parse_polynomial(f17, "x2^2 + x3")
    assert homovariate_component(small, [2, 3]).is_zero


def test_homovariate_parts_and_decomposition():
    f5 = finite_field(5)
    p = parse_polynomial(f5, "2*x1^2 + 3*x1*x2 + x2 + 4")
    parts = homovariate_parts(p)
    assert strs(parts) == {"0", "2*x1^2", "3*x1*x2", "x2", "4"}
    total = FieldPolynomial.zero(f5)
    for part in parts:
        total = total + part
    assert total == p
    mono_p = parse_polynomial(f5, "x1*x2 + 2*x1^2*x2")
    assert is_homovariate(mono_p)
    assert strs(homovariate_parts(mono_p)) == {"0", str(mono_p)}
    rng = random.Random(23)
    for _ in range(15):
        q = random_poly(rng, f5, 3)
        back = FieldPolynomial.zero(f5)
        for part in homovariate_parts(q):
            back = back + part
        assert back == q


def test_substitution_closure_examples():
    f2 = finite_field(2)
    close = substitution_closure(pset(f2, ["x1 + x2"]), 2)
    assert strs(close.polys) == {"0", "x1", "x2", "x1 + x2"}
    assert not close.capped
    assert close.depth_of(parse_polynomial(f2, "x1 + x2")) == 1
    assert close.depth_of(parse_polynomial(f2, "x1")) == 0

    empty = substitution_closure(PolySet.make(f2, []), 3)
    assert strs(empty.polys) == {"x1", "x2", "x3"}
    assert set(empty.depths.values()) == {0}

    sq = substitution_closure(pset(f2, ["x1*x2"]), 2, depth_cap=2)
    quartic = parse_polynomial(f2, "x1^2*x2^2")
    assert quartic in sq.polys and sq.depth_of(quartic) == 2
    assert sq.capped  # degrees keep growing past any finite depth

    tiny = substitution_closure(pset(f2, ["x1*x2"]), 2, size_cap=5)
    assert tiny.capped and len(tiny.polys) <= 5


@pytest.mark.parametrize(
    "q, texts",
    [
        (2, ["x1*x2", "1"]),
        (2, ["x1*x2 + 1"]),
        (3, ["x1*x2", "x1 + 2*x2", "2"]),
        (2, ["x1*x2*x3 + x1", "x2 + 1"]),
    ],
)
def test_substitution_closure_order_matches_oracle(q, texts):
    gens = pset(finite_field(q), texts)
    for window in (1, 2, 3):
        for depth_cap in (None, 1, 2, 3):
            for size_cap in (4, 9, 25):
                got = substitution_closure(gens, window, depth_cap=depth_cap, size_cap=size_cap)
                want, capped = substitution_order(gens, window, depth_cap, size_cap)
                assert list(got.depths.items()) == want, (window, depth_cap, size_cap)
                assert got.capped == capped
    # constants come from a generator without variables, so they stay at depth 1
    close = substitution_closure(pset(finite_field(2), ["1", "x1*x2"]), 2, depth_cap=3)
    assert close.depth_of(parse_polynomial(finite_field(2), "1")) == 1


def test_capped_clop_lists_the_oracle_prefix(capsys):
    f3 = finite_field(3)
    code = main(["polyclone", "clop", "--field", "3", "--polys", "x1*x2; 1",
                 "--window", "2", "--size-cap", "12"])
    results = json.loads(capsys.readouterr().out)["results"]
    want, capped = substitution_order(pset(f3, ["x1*x2", "1"]), 2, None, 12)
    assert code == EXIT_CAPPED and capped and results["capped"]
    polys = sorted((p for p, _ in want), key=FieldPolynomial.sort_key)
    assert results["elements"] == [str(p) for p in polys]


def test_homovariate_generator_construction():
    f2 = finite_field(2)
    assert len(homovariate_generators(PolySet.make(f2, []), 3)) == 0
    h = homovariate_generators(pset(f2, ["x1*x2"]), 2)
    assert strs(h) == {"0", "x1^2", "x2^2", "x1*x2"}
    for p in h:
        assert is_homovariate(p) and p.total_degree <= 2
    lin = homovariate_generators(pset(f2, ["x1 + x2"]), 2)
    assert strs(lin) == {"0", "x1", "x2"}
    with pytest.raises(ValueError):
        homovariate_generators(pset(f2, ["x1*x2*x3"]), 2)


def test_product_associativity_on_random_sets():
    rng = random.Random(31)
    for q in (2, 3):
        fld = finite_field(q)
        for _ in range(8):
            a = PolySet.make(fld, [random_poly(rng, fld, 2, max_exp=1) for _ in range(2)], "A")
            b = PolySet.make(fld, [random_poly(rng, fld, 2, max_exp=1) for _ in range(2)], "B")
            c = PolySet.make(fld, [random_poly(rng, fld, 2, max_exp=1) for _ in range(2)], "C")
            proj = pset(fld, ["x1", "x2"], "P")
            ab_c = set_product(set_product(a, b), c)
            a_bc = set_product(a, set_product(b, c))
            abp_c = set_product(set_product(a, set_product(b, proj)), c)
            assert ab_c.elements <= a_bc.elements
            assert a_bc.elements <= abp_c.elements


def test_span_absorbs_linear_composition():
    rng = random.Random(37)
    window = 2
    for q in (2, 3):
        fld = finite_field(q)
        for _ in range(3):
            a = PolySet.make(fld, [random_poly(rng, fld, window, max_exp=1) for _ in range(2)], "A")
            s = additive_span(linear_substitutions(a, window), window)
            again = additive_span(s, window)
            assert again.elements == s.elements
            # right absorption, spot-checked on a sample of the span
            members = s.sorted()
            sample = rng.sample(members, min(12, len(members)))
            substituted = linear_substitutions(PolySet.make(fld, sample), window)
            assert substituted.elements <= s.elements


def test_set_sits_inside_span_of_own_components():
    rng = random.Random(41)
    window = 3
    for q in (2, 3):
        fld = finite_field(q)
        for _ in range(5):
            f = PolySet.make(fld, [random_poly(rng, fld, window, max_exp=1) for _ in range(2)], "F")
            spanned = additive_span(homovariate_parts_of_set(f), window)
            for p in f:
                assert p in spanned


def test_components_inside_span_of_linear_substitutions():
    rng = random.Random(43)
    window = 2
    for q in (2, 3):
        fld = finite_field(q)
        for _ in range(5):
            f = PolySet.make(fld, [random_poly(rng, fld, window, max_exp=1) for _ in range(2)], "F")
            spanned = additive_span(linear_substitutions(f, window), window)
            for h in homovariate_parts_of_set(f):
                assert h in spanned


# -- induced functions and interpolation -------------------------------------


def test_induced_function_examples():
    f2 = finite_field(2)
    proj3 = induced_function(parse_polynomial(f2, "x3"), 5)
    assert proj3 == projection(5, 2, 2)
    ident = induced_function(parse_polynomial(f2, "x1^2"), 1)
    assert list(ident.as_array()) == [0, 1]
    conj = induced_function(parse_polynomial(f2, "x1*x2"), 2)
    assert list(conj.as_array()) == [0, 0, 0, 1]
    with pytest.raises(ValueError):
        induced_function(parse_polynomial(f2, "x3"), 2)


def test_interpolation_frozen_and_round_trip():
    f2 = finite_field(2)
    zero_fn = FiniteFunction(2, 2, bytes(4))
    assert interpolate(zero_fn, f2).is_zero
    xor = FiniteFunction(2, 2, bytes([0, 1, 1, 0]))
    assert str(interpolate(xor, f2)) == "x1 + x2"
    f4 = finite_field(4)
    z4_add = FiniteFunction(
        2, 4, bytes((i + j) % 4 for i in range(4) for j in range(4))
    )
    p = interpolate(z4_add, f4)
    assert induced_function(p, 2) == z4_add
    assert all(p.degree_in(v) < 4 for v in p.support)
    assert reduce_exponents(p) == p
    with pytest.raises(ValueError):
        interpolate(z4_add, f2)


def test_interpolation_round_trip_random():
    rng = random.Random(47)
    for q in (3, 5):
        fld = finite_field(q)
        # arity 0 last, so the earlier draws stay as they were
        for arity in (1, 2, 0):
            for _ in range(5):
                values = bytes(rng.randrange(q) for _ in range(q**arity))
                func = FiniteFunction(arity, q, values)
                p = interpolate(func, fld)
                assert induced_function(p, arity) == func
                assert all(p.degree_in(v) < q for v in p.support)


def test_reduce_exponents_preserves_function():
    f4 = finite_field(4)
    p = parse_polynomial(f4, "x1^5*x2^2 + 2*x1^4")
    r = reduce_exponents(p)
    assert str(r) == "2*x1 + x1^2*x2^2"
    assert induced_function(p, 2) == induced_function(r, 2)


def test_top_homovariate_of_absorbing():
    f2 = finite_field(2)
    with pytest.raises(ValueError):
        top_homovariate_of_absorbing(parse_polynomial(f2, "x1*x2 + x1^2"), 2)
    simple = parse_polynomial(f2, "x1*x2")
    assert top_homovariate_of_absorbing(simple, 2) == simple
    p = parse_polynomial(f2, "x1*x2 + x1^2*x2^2")
    assert top_homovariate_of_absorbing(p, 2) == p


def test_absorbing_induced_equals_top_component_randomized():
    # random absorbing polynomials: multiply anything by x1*x2*...*xn
    rng = random.Random(53)
    for q in (2, 3):
        fld = finite_field(q)
        everything = parse_polynomial(fld, "x1*x2")
        for _ in range(10):
            p = random_poly(rng, fld, 2) * everything
            top = top_homovariate_of_absorbing(p, 2)
            assert top == homovariate_component(p, [1, 2])


# -- functional comparison ----------------------------------------------------


def test_split_check_small_cases():
    f2 = finite_field(2)
    empty = verify_homovariate_split(PolySet.make(f2, []), max_arity=2)
    assert empty.ok and len(empty.homovariate) == 0

    chk = verify_homovariate_split(pset(f2, ["x1*x2"]), max_arity=2)
    assert chk.ok and chk.window == 2
    assert strs(chk.homovariate) == {"0", "x1^2", "x2^2", "x1*x2"}


def test_split_check_rank_certificate_matches_brute_sets():
    # independent validation at arity 2 over F2: materialize both function
    # sets and compare them elementwise against the rank-certified verdict
    from finalg.algebra import FiniteAlgebra, Operation
    from finalg.clones import term_functions

    f2 = finite_field(2)
    f = pset(f2, ["x1*x2"], "F")
    h = homovariate_generators(f, 2)
    ops_h = []
    for k, p in enumerate(h):
        if p.is_zero:
            continue
        arity = p.max_variable
        func = induced_function(p, arity)
        ops_h.append(Operation(f"h{k}", arity, tuple(int(v) for v in func.as_array())))
    alg_h = FiniteAlgebra("H", 2, tuple(ops_h))
    close_h = term_functions(alg_h, 2)
    basis = {tuple(int(v) for v in row) for row in close_h.tables}
    sums = set()
    for take in itertools.chain.from_iterable(
        itertools.combinations(sorted(basis), r) for r in range(len(basis) + 1)
    ):
        acc = np.zeros(4, dtype=np.int64)
        for row in take:
            acc = (acc + np.array(row)) % 2
        sums.add(tuple(int(v) for v in acc))

    mul = tuple(int(a & b) for a in range(2) for b in range(2))
    xor = tuple(int(a ^ b) for a in range(2) for b in range(2))
    alg_f = FiniteAlgebra(
        "F",
        2,
        (
            Operation("mul", 2, mul),
            Operation("+", 2, xor),
            Operation("neg", 1, (0, 1)),
            Operation("zero", 0, (0,)),
        ),
    )
    clone = {
        tuple(int(v) for v in row) for row in term_functions(alg_f, 2).tables
    }
    assert sums == clone
