import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finalg import clones
from finalg.algebra import (
    Const,
    FiniteAlgebra,
    Operation,
    Var,
    cell_digits,
    compose,
    flat_index,
    term_table,
)
from finalg.catalog import example_names, load_example
from finalg.expansion import expand_pipeline
from finalg.clones import (
    additive_structure,
    composition_batches,
    free_spectrum,
    fresh_boxes,
    lane_codes,
    packed_table,
    polynomial_functions,
    term_functions,
)

from finalg.fields import group_coordinates

from oracles import bfs_closure_order, naive_closure, newton_table, product_table


def closure_tables(result) -> set[tuple[int, ...]]:
    return {tuple(int(v) for v in row) for row in result.tables}


@pytest.mark.parametrize("name", ["z4", "z2z2", "m", "semilattice2", "lattice2"])
@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("constants", [False, True])
def test_closure_matches_naive_oracle(name, arity, constants):
    alg = load_example(name)
    expect = naive_closure(alg, arity, constants)
    close = polynomial_functions if constants else term_functions
    got = close(alg, arity)
    assert got.exact
    assert closure_tables(got) == expect
    bfs = close(alg, arity, strategy="bfs")
    assert closure_tables(bfs) == expect


def test_strategies_agree_on_nonprime_exponent():
    z8 = load_example("z8")
    span = additive_structure(z8)
    assert span is not None and span.exponent == 8 and not span.prime
    for arity in (1, 2):
        a = term_functions(z8, arity, strategy="span")
        b = term_functions(z8, arity, strategy="bfs")
        assert closure_tables(a) == closure_tables(b)
        assert a.exact and a.count == len(b)


def test_known_counts_frozen():
    z4 = load_example("z4")
    assert len(term_functions(z4, 1)) == 4
    assert closure_tables(term_functions(z4, 1)) == {
        (0, 1, 2, 3),
        (0, 2, 0, 2),
        (0, 3, 2, 1),
        (0, 0, 0, 0),
    }
    assert len(term_functions(z4, 2)) == 16
    assert len(polynomial_functions(z4, 1)) == 16
    assert len(polynomial_functions(z4, 2)) == 64
    # in the four-group x + x collapses, leaving only identity and zero
    z22 = load_example("z2z2")
    assert len(term_functions(z22, 1)) == 2
    assert len(term_functions(z22, 2)) == 4


def test_ring_polynomial_closure_size():
    m = load_example("m")
    p4 = polynomial_functions(m, 4)
    assert p4.strategy == "span"
    assert p4.exact and len(p4) == 65536
    # products only ever reach {0, t^2}, so each pair multiplies in one bit
    assert p4.count == 4 * 4**4 * 2 ** (4 * 3 // 2)


def test_span_and_bfs_agree_on_ring():
    m = load_example("m")
    for arity in (1, 2):
        a = polynomial_functions(m, arity, strategy="span")
        b = polynomial_functions(m, arity, strategy="bfs")
        assert closure_tables(a) == closure_tables(b)


def test_free_spectrum_values():
    z4 = load_example("z4")
    assert [free_spectrum(z4, n).count for n in (1, 2, 3)] == [4, 16, 64]
    m = load_example("m")
    assert [free_spectrum(m, n).count for n in (1, 2, 3)] == [4, 32, 512]
    z22 = load_example("z2z2")
    assert [free_spectrum(z22, n).count for n in (1, 2, 3)] == [2, 4, 8]
    assert all(free_spectrum(z4, n).exact for n in (1, 2, 3))


def test_cap_behaviour():
    z4 = load_example("z4")
    capped = polynomial_functions(z4, 2, cap=10, strategy="bfs")
    assert capped.capped and not capped.exact
    assert len(capped) == 10
    spanned = polynomial_functions(z4, 2, cap=10, strategy="span")
    assert spanned.capped and not spanned.exact
    assert len(spanned) < 64
    m = load_example("m")
    part = polynomial_functions(m, 4, cap=100)
    assert part.exact and part.count == 65536 and len(part) == 100


def test_until_returns_an_uncached_bfs_prefix():
    z4 = load_example("z4")
    full = term_functions(z4, 2, strategy="bfs")
    target = full.tables[9]
    stopped = term_functions(z4, 2, strategy="bfs", until=lambda row: np.array_equal(row, target))
    assert stopped.stopped and not stopped.capped
    assert not stopped.exact and stopped.exact_count is None
    assert np.array_equal(stopped.tables, full.tables[:10])
    assert stopped.recipes == full.recipes[:10]
    # a predicate nothing satisfies leaves the closure as it was
    never = term_functions(z4, 2, strategy="bfs", until=lambda row: False)
    assert not never.stopped and never.exact
    assert np.array_equal(never.tables, full.tables)
    # the prefix was not cached in place of the closure
    fresh = load_example("z4")
    term_functions(fresh, 2, strategy="bfs", until=lambda row: np.array_equal(row, target))
    again = term_functions(fresh, 2, strategy="bfs")
    assert again.exact and len(again) == len(full)
    for strategy in ("auto", "span"):
        with pytest.raises(ValueError):
            term_functions(z4, 2, strategy=strategy, until=lambda row: False)


def test_terms_reproduce_tables():
    m = load_example("m")
    z4 = load_example("z4")
    rng = random.Random(11)
    for alg, strategy in ((m, "span"), (m, "bfs"), (z4, "span"), (z4, "bfs")):
        close = polynomial_functions(alg, 2, strategy=strategy)
        ids = rng.sample(range(len(close)), min(40, len(close)))
        for fid in ids:
            term = close.term_for(fid)
            again = term_table(alg, term, 2)
            assert again.values == close.tables[fid].tobytes(), (strategy, fid)


def test_membership_and_function_access():
    z4 = load_example("z4")
    close = polynomial_functions(z4, 1)
    ident = close.function(close.index[bytes([0, 1, 2, 3])])
    assert ident in close
    assert len(list(close)) == len(close)


def test_span_strategy_requires_group():
    sl = load_example("semilattice2")
    assert additive_structure(sl) is None
    with pytest.raises(ValueError):
        term_functions(sl, 2, strategy="span")
    d4 = load_example("d4")
    assert additive_structure(d4) is None


def test_deterministic_ordering():
    m = load_example("m")
    a = polynomial_functions(m, 3)
    b = polynomial_functions(m, 3)
    assert np.array_equal(a.tables, b.tables)
    c = polynomial_functions(m, 2, strategy="bfs")
    d = polynomial_functions(m, 2, strategy="bfs")
    assert np.array_equal(c.tables, d.tables)


def test_nullary_only_closure():
    z4 = load_example("z4")
    c0 = term_functions(z4, 0)
    # zero is nullary, and nothing else is reachable at arity zero
    assert closure_tables(c0) == {(0,)}
    sl = load_example("semilattice2")
    assert len(term_functions(sl, 0)) == 0


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 3), (2, 2), (1, 4), (3, 5)])
def test_fresh_boxes_cover_every_tuple_in_lexicographic_order(lo, hi, n):
    tuples, flags = [], []
    for box, old in fresh_boxes(lo, hi, n):
        assert len(box) == n and all(a < b for a, b in box)
        inside = list(itertools.product(*(range(a, b) for a, b in box)))
        tuples += inside
        flags += [old] * len(inside)
    assert tuples == list(itertools.product(range(hi), repeat=n))
    assert flags == [all(v < lo for v in t) for t in tuples]
    if n == 1:
        assert len(list(fresh_boxes(lo, hi, n))) == (lo > 0) + (hi > lo)


def assert_matches_bfs_oracle(algebra, arity, constants, cap, depth_cap=None, until=None):
    close = polynomial_functions if constants else term_functions
    extra = {"until": until} if until is not None else {}
    got = close(algebra, arity, cap=cap, strategy="bfs", depth_cap=depth_cap, **extra)
    rows, recipes, stop = bfs_closure_order(algebra, arity, constants, cap, depth_cap, until)
    assert [tuple(int(v) for v in row) for row in got.tables] == rows
    assert got.recipes == recipes
    assert got.capped == (stop == "cap") and got.stopped == (stop == "until")
    assert got.exact_count == (None if stop else len(rows))


@pytest.mark.parametrize("name", example_names())
@pytest.mark.parametrize("constants", [False, True])
def test_bfs_order_matches_oracle_on_fixtures(name, constants):
    alg = load_example(name)
    for arity, cap, depth_cap in ((1, 1 << 20, None), (2, 120, None), (2, 1 << 20, 1)):
        assert_matches_bfs_oracle(alg, arity, constants, cap, depth_cap)


@st.composite
def mixed_algebras(draw):
    """Algebras of size <= 3 with one to three operations of arity 0 to 3."""
    size = draw(st.integers(1, 3))
    ops = []
    for i, k in enumerate(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))):
        table = draw(st.lists(st.integers(0, size - 1), min_size=size**k, max_size=size**k))
        ops.append(Operation(f"f{i}", k, tuple(table)))
    return FiniteAlgebra("generated", size, ops)


@settings(max_examples=60, deadline=None)
@given(
    mixed_algebras(),
    st.integers(0, 3),
    st.booleans(),
    st.integers(1, 40),
    st.sampled_from([None, 1, 2]),
    st.sampled_from([None, 5, 7, 11]),
)
def test_bfs_order_matches_oracle_on_generated_algebras(
    algebra, arity, constants, cap, depth_cap, modulus
):
    # keep the plain-python reference fast: at most 9 cells per row
    while algebra.size**arity > 9:
        arity -= 1
    until = None
    if modulus is not None and not constants:
        until = lambda row: sum(int(v) * (i + 1) for i, v in enumerate(row)) % modulus == 1
    assert_matches_bfs_oracle(algebra, arity, constants, cap, depth_cap, until)


def test_bfs_order_matches_oracle_on_seeded_ternary_algebras():
    rng = random.Random(4)
    for _ in range(20):
        size = rng.randint(2, 3)
        ops = [
            Operation("t", 3, tuple(rng.randrange(size) for _ in range(size**3))),
            Operation("b", 2, tuple(rng.randrange(size) for _ in range(size**2))),
        ]
        if rng.random() < 0.5:
            ops.append(Operation("c", 0, (rng.randrange(size),)))
        alg = FiniteAlgebra("seeded", size, ops)
        for arity in (1, 2):
            assert_matches_bfs_oracle(alg, arity, False, 50)
            assert_matches_bfs_oracle(alg, arity, True, 50, depth_cap=2)


@st.composite
def commutative_algebras(draw):
    """Algebras of size 2 to 4 with a symmetric binary operation, and maybe
    a second binary or unary operation, with an arity whose rows have at
    most 16 cells and at least 8 when the size allows it."""
    size = draw(st.integers(2, 4))
    cells = draw(st.lists(st.integers(0, size - 1), min_size=size * size, max_size=size * size))
    table = [cells[min(a, b) * size + max(a, b)] for a in range(size) for b in range(size)]
    ops = [Operation("c", 2, tuple(table))]
    k = draw(st.sampled_from([None, 1, 2]))
    if k is not None:
        other = draw(st.lists(st.integers(0, size - 1), min_size=size**k, max_size=size**k))
        ops.insert(draw(st.integers(0, 1)), Operation("g", k, tuple(other)))
    arity = {2: draw(st.integers(2, 4)), 3: 2, 4: 2}[size]
    return FiniteAlgebra("commutative", size, ops), arity


def test_commutative_and_packed_composition_match_bfs_oracle():
    seen = {"skips": 0, "lanes": set()}

    def batches_spy(box, llo, hi, wid, mirror):
        for b0, b1, l0, l1 in composition_batches(box, llo, hi, wid, mirror):
            seen["skips"] += l0 > llo
            yield b0, b1, l0, l1

    def packed_spy(tab, size, k, lanes):
        seen["lanes"].add(lanes)
        return packed_table(tab, size, k, lanes)

    @settings(max_examples=60, deadline=None)
    @given(
        commutative_algebras(),
        st.booleans(),
        st.integers(1, 200),
        st.sampled_from([None, 2, 3]),
        st.sampled_from([None, 7, 13]),
    )
    def check(algebra_arity, constants, cap, depth_cap, modulus):
        algebra, arity = algebra_arity
        until = None
        if modulus is not None and not constants:
            until = lambda row: sum(int(v) * (i + 1) for i, v in enumerate(row)) % modulus == 1
        assert_matches_bfs_oracle(algebra, arity, constants, cap, depth_cap, until)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clones, "composition_batches", batches_spy)
        mp.setattr(clones, "packed_table", packed_spy)
        check()
    # both the mirrored-pair skip and multi-coordinate lookups ran
    assert seen["skips"] > 0 and max(seen["lanes"]) > 1


@pytest.mark.parametrize(
    "size, k, lanes", [(2, 1, 4), (2, 2, 4), (2, 3, 2), (3, 2, 2), (4, 2, 4), (3, 1, 4), (2, 2, 1)]
)
def test_packed_table_matches_per_coordinate_lookups(size, k, lanes):
    rng = np.random.default_rng(size * 100 + k * 10 + lanes)
    tab = rng.integers(0, size, size**k, dtype=np.uint8)
    lut = packed_table(tab, size, k, lanes)
    assert lut.shape == (size ** (lanes * k),) and lut.itemsize == lanes
    wid = 4 * lanes
    operands = rng.integers(0, size, (k, wid), dtype=np.uint8)
    codes = lane_codes(operands, size, lanes).astype(np.int64)
    packed = np.zeros(wid // lanes, dtype=np.int64)
    for c in codes:
        packed = packed * size**lanes + c
    expect = [tab[flat_index(operands[:, cell].tolist(), size)] for cell in range(wid)]
    assert lut[packed].view(np.uint8).tolist() == expect


@pytest.mark.parametrize("budget", [1, 7, 40, 10**6])
@pytest.mark.parametrize(
    "box, llo, hi, mirror",
    [
        (((2, 9),), 0, 9, False),
        (((2, 9),), 0, 9, True),
        (((3, 8),), 0, 8, True),
        (((0, 3),), 3, 8, False),
        (((0, 3),), 3, 8, True),
        (((1, 2), (4, 7)), 0, 7, False),
    ],
)
def test_composition_batches_stay_within_budget_and_order(
    box, llo, hi, mirror, budget, monkeypatch
):
    monkeypatch.setattr(clones, "BATCH_ENTRIES", budget)
    wid = 4
    prefixes = list(itertools.product(*(range(a, b) for a, b in box)))
    tuples = []
    for b0, b1, l0, l1 in composition_batches(box, llo, hi, wid, mirror):
        assert (b1 - b0) * (l1 - l0) * wid <= max(budget, wid)
        tuples += [p + (last,) for p in prefixes[b0:b1] for last in range(l0, l1)]
    assert tuples == sorted(tuples)
    expect = [p + (last,) for p in prefixes for last in range(llo, hi)]
    if mirror:
        # only the pairs (a, b) with b < a, which repeat (b, a), may be left out
        assert set(expect) - set(tuples) <= {(a, b) for a, b in expect if b < a}
        assert set(tuples) <= set(expect)
    else:
        assert tuples == expect


def test_closure_with_a_small_batch_budget_matches_bfs_oracle(monkeypatch):
    # one row per batch, so every prefix meets its last operands in pieces
    monkeypatch.setattr(clones, "BATCH_ENTRIES", 8)
    for name in ("z4", "m", "semilattice2"):
        assert_matches_bfs_oracle(load_example(name), 2, True, 90)
    assert_matches_bfs_oracle(load_example("lattice2"), 3, False, 1 << 20)


def evaluate_term(algebra, term, arity) -> np.ndarray:
    """The row of a term, one compose per distinct node, so that terms
    sharing subterms cost their distinct nodes only."""
    cells = cell_digits(algebra.size, arity)
    memo: dict[int, np.ndarray] = {}

    def row(t) -> np.ndarray:
        if id(t) not in memo:
            if isinstance(t, Var):
                memo[id(t)] = cells[t.index]
            elif isinstance(t, Const):
                memo[id(t)] = np.full(cells.shape[1], t.value)
            elif not t.args:
                memo[id(t)] = np.full(cells.shape[1], algebra.operation(t.symbol).table[0])
            else:
                args = [row(a) for a in t.args]
                memo[id(t)] = compose(algebra.op_array(t.symbol), algebra.size, args)
        return memo[id(t)]

    return row(term)


@st.composite
def prime_group_algebras(draw):
    """Algebras whose first operation + is an elementary abelian p-group of
    order p^d <= 9, relabelled, with one or two more operations of arity 0
    to 3 whose tables are random or of bounded degree."""
    p, dim = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
    size = p**dim
    perm = draw(st.permutations(range(size)))
    plus = product_table((p,) * dim, perm)
    coords = group_coordinates(plus, perm[0], p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = [Operation("+", 2, tuple(plus.reshape(-1).tolist()))]
    for i, k in enumerate(draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))):
        bound = draw(st.sampled_from([None, 0, 1, 2, 3]))
        if bound is None:
            table = rng.integers(0, size, size**k).tolist()
        else:
            table = newton_table(rng, p, coords, k, bound)
        ops.append(Operation(f"f{i}", k, tuple(table)))
    return FiniteAlgebra("generated", size, ops)


# on F_3^2 with coordinates (a, b), f(a, b) = (binom(a, 2), 0): from the
# term x, only the second difference along x reaches f(2x) = (binom(2a, 2), 0)
NEEDS_SECOND_DIFFERENCES = FiniteAlgebra(
    "second differences",
    9,
    [
        Operation("+", 2, tuple(product_table((3, 3), list(range(9))).reshape(-1).tolist())),
        Operation("f", 1, (0, 0, 0, 0, 0, 0, 3, 3, 3)),
    ],
)


@settings(max_examples=80, deadline=None)
@given(prime_group_algebras(), st.integers(0, 3), st.booleans())
@example(NEEDS_SECOND_DIFFERENCES, 1, False)
def test_span_engine_matches_bfs_oracle(algebra, arity, constants):
    # keep the plain-python reference fast: at most 9 cells per row, and
    # closures of at most 81 rows, 27 with a ternary operation
    while algebra.size**arity > 9:
        arity -= 1
    limit = 27 if algebra.max_arity == 3 else 81
    close = polynomial_functions if constants else term_functions
    got = close(algebra, arity, cap=limit)
    rows, recipes, stop = bfs_closure_order(algebra, arity, constants, limit)
    span = additive_structure(algebra)
    if got.strategy == "bfs":
        # past the cap a nonlinear signature hands over to bfs
        assert span.nonlinear and stop == "cap"
        assert [tuple(int(v) for v in row) for row in got.tables] == rows
        assert got.recipes == recipes and got.capped and got.exact_count is None
        return
    assert got.exact and stop is None
    assert closure_tables(got) == set(rows)
    for fid in range(len(got)):
        assert np.array_equal(evaluate_term(algebra, got.term_for(fid), arity), got.tables[fid])
    if got.count < 2:
        return
    # one row under p^rank: a nonlinear signature answers as bfs does
    below = close(algebra, arity, cap=got.count - 1)
    rows, recipes, stop = bfs_closure_order(algebra, arity, constants, got.count - 1)
    assert stop == "cap" and below.capped
    if span.nonlinear:
        assert [tuple(int(v) for v in row) for row in below.tables] == rows
        assert below.recipes == recipes and below.exact_count is None
    else:
        assert below.exact_count == got.count


@pytest.fixture(scope="module")
def expanded():
    """The expansions of z4 and d4; tests copy them to start with a cold
    closure cache."""
    return {
        name: expand_pipeline(load_example(name), zero=0).expanded.as_algebra()
        for name in ("z4", "d4")
    }


def cold(algebra: FiniteAlgebra) -> FiniteAlgebra:
    return FiniteAlgebra(algebra.name, algebra.size, algebra.operations)


@pytest.mark.parametrize("name, arity, rows, budget", [("z4", 3, 2048, 0.5), ("d4", 2, 8192, 5.0)])
def test_expanded_polynomial_clones_are_exact_spans(expanded, name, arity, rows, budget):
    algebra = cold(expanded[name])
    started = time.perf_counter()
    got = polynomial_functions(algebra, arity)
    elapsed = time.perf_counter() - started
    assert got.strategy == "span" and got.exact and not got.capped
    assert got.count == len(got) == rows
    assert elapsed < budget
    for fid in range(0, rows, 97):
        assert np.array_equal(evaluate_term(algebra, got.term_for(fid), arity), got.tables[fid])


def test_span_engine_hands_over_to_bfs_at_the_cap_rank(expanded, monkeypatch):
    ranks = []

    class Spy(clones.PrimeSpan):
        def add(self, vec):
            grew = super().add(vec)
            ranks.append(self.rank)
            return grew

    monkeypatch.setattr(clones, "PrimeSpan", Spy)
    got = polynomial_functions(cold(expanded["d4"]), 3, cap=6000)
    # 2**13 > 6000: the engine stops on its 13th basis row
    assert max(ranks) == 13 and ranks[-1] == 13
    bfs = polynomial_functions(cold(expanded["d4"]), 3, cap=6000, strategy="bfs")
    assert got.strategy == "bfs" and got.capped and got.exact_count is None
    assert np.array_equal(got.tables, bfs.tables) and got.recipes == bfs.recipes
