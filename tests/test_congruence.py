import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finalg import congruence
from finalg.algebra import parse_algebra
from finalg.catalog import load_example
from finalg.congruence import (
    Congruence,
    central_series,
    central_series_from_lower_central,
    commutator,
    congruence_from_pairs,
    congruence_lattice,
    is_central_congruence,
    has_uniform_blocks,
    join_congruences,
    lattice_height,
    lower_central_series,
    maximal_congruence_chain,
    nilpotency_class,
    one_congruence,
    principal_congruence,
    quotient_algebra,
    quotient_congruence,
    zero_congruence,
)

from oracles import brute_congruences, respects_operations, tc_commutator_blocks


def as_blockmap(cong: Congruence) -> tuple[int, ...]:
    return cong.block_of


def canonical(raw) -> tuple[int, ...]:
    return Congruence.from_blocks(len(raw), raw).block_of


def group_from_rule(name: str, order: int, mul, inv):
    """A group as an algebra with *, inv and the identity e = 0."""
    elements = range(order)
    return parse_algebra({
        "name": name,
        "size": order,
        "operations": [
            {"name": "*", "arity": 2, "table": [mul(a, b) for a in elements for b in elements]},
            {"name": "inv", "arity": 1, "table": [inv(a) for a in elements]},
            {"name": "e", "arity": 0, "table": [0]},
        ],
    })


def dihedral_rule(n: int):
    """Multiplication and inverse of the dihedral group of order 2n, with
    r^i s^j numbered i + n*j and s r = r^-1 s."""

    def mul(a, b):
        (j, i), (l, k) = divmod(a, n), divmod(b, n)
        return (i + (-1) ** j * k) % n + n * ((j + l) % 2)

    def inv(a):
        j, i = divmod(a, n)
        return a if j else (-i) % n

    return mul, inv


def cyclic16():
    return group_from_rule("Z16", 16, lambda a, b: (a + b) % 16, lambda a: (-a) % 16)


def z2_times_d4():
    mul, inv = dihedral_rule(4)
    return group_from_rule(
        "Z2xD4",
        16,
        lambda a, b: 8 * ((a // 8 + b // 8) % 2) + mul(a % 8, b % 8),
        lambda a: 8 * (a // 8) + inv(a % 8),
    )


def dihedral16():
    return group_from_rule("D16", 16, *dihedral_rule(8))


ORDER_16 = {"Z16": cyclic16, "Z2xD4": z2_times_d4, "D16": dihedral16}


def random_malcev_algebra(seed: int):
    """A 3-element algebra with x - y + z mod 3 plus one random binary op."""
    rng = random.Random(seed)
    d = [ (x - y + z) % 3 for x in range(3) for y in range(3) for z in range(3)]
    f = [rng.randrange(3) for _ in range(9)]
    return parse_algebra({
        "name": f"rand3-{seed}",
        "size": 3,
        "operations": [
            {"name": "d", "arity": 3, "table": d},
            {"name": "f", "arity": 2, "table": f},
        ],
    })


def test_congruence_canonical_form():
    c = Congruence.from_blocks(4, [7, 3, 7, 3])
    assert c.block_of == (0, 1, 0, 1)
    assert c.blocks() == [(0, 2), (1, 3)]
    assert c.related(0, 2) and not c.related(0, 1)
    assert c.num_blocks == 2
    assert not c.is_zero and not c.is_one
    assert list(c.pairs()) == [(0, 2), (1, 3)]
    assert c.pair_array().tolist() == [[0, 0], [0, 2], [1, 1], [1, 3], [2, 0], [2, 2], [3, 1], [3, 3]]


def test_meet_and_refines():
    a = Congruence.from_blocks(4, [0, 0, 1, 1])
    b = Congruence.from_blocks(4, [0, 1, 0, 1])
    assert a.meet(b).is_zero
    assert zero_congruence(4).refines(a)
    assert a.refines(one_congruence(4))
    assert not a.refines(b)


def test_generated_congruence_is_least():
    z4 = load_example("z4")
    c = principal_congruence(z4, 0, 2)
    assert c.blocks() == [(0, 2), (1, 3)]
    # generating with 0~1 forces everything together in a cyclic group
    assert principal_congruence(z4, 0, 1).is_one


@pytest.mark.parametrize(
    "name, expected_count",
    [
        ("z4", 3),
        ("m", 3),
        ("z2z2", 5),
        ("d4", 6),
        ("q8", 6),
        ("semilattice2", 2),
        ("lattice2", 2),
    ],
)
def test_lattice_matches_bruteforce(name, expected_count):
    alg = load_example(name)
    got = {c.block_of for c in congruence_lattice(alg)}
    expect = {canonical(p) for p in brute_congruences(alg)}
    assert got == expect
    assert len(got) == expected_count


def test_lattice_sorted_ends():
    alg = load_example("d4")
    lat = congruence_lattice(alg)
    assert lat[0].is_zero and lat[-1].is_one


@pytest.mark.parametrize(
    "name, height",
    [("z4", 2), ("m", 2), ("z2z2", 2), ("d4", 3), ("q8", 3), ("lattice2", 1)],
)
def test_lattice_height(name, height):
    assert lattice_height(congruence_lattice(load_example(name))) == height


def test_join_is_least_upper_bound():
    alg = load_example("z2z2")
    lat = congruence_lattice(alg)
    atoms = [c for c in lat if c.num_blocks == 2]
    assert len(atoms) == 3
    assert join_congruences(alg, atoms[0], atoms[1]).is_one


@pytest.mark.parametrize("name", ["z4", "m", "z2z2", "d4"])
def test_commutator_matches_term_condition_oracle(name):
    alg = load_example(name)
    lat = congruence_lattice(alg)
    for alpha, beta in itertools.product(lat, repeat=2):
        got = commutator(alg, alpha, beta)
        apairs = {(a, b) for a in range(alg.size) for b in range(alg.size) if alpha.related(a, b)}
        bpairs = {(a, b) for a in range(alg.size) for b in range(alg.size) if beta.related(a, b)}
        blocks, _ = tc_commutator_blocks(alg, apairs, bpairs)
        assert got.block_of == canonical(blocks), (name, alpha, beta)


@pytest.mark.parametrize("seed", range(12))
def test_commutator_matches_oracle_on_random_malcev(seed):
    alg = random_malcev_algebra(seed)
    lat = congruence_lattice(alg)
    for alpha, beta in itertools.product(lat, repeat=2):
        got = commutator(alg, alpha, beta)
        apairs = {(a, b) for a in range(3) for b in range(3) if alpha.related(a, b)}
        bpairs = {(a, b) for a in range(3) for b in range(3) if beta.related(a, b)}
        blocks, _ = tc_commutator_blocks(alg, apairs, bpairs)
        assert got.block_of == canonical(blocks), (seed, alpha, beta)


def test_commutator_below_both_arguments():
    alg = load_example("q8")
    lat = congruence_lattice(alg)
    for alpha, beta in itertools.product(lat, repeat=2):
        c = commutator(alg, alpha, beta)
        assert c.refines(alpha.meet(beta))


def test_group_commutator_agrees():
    d4 = load_example("d4")
    one = one_congruence(8)
    derived = commutator(d4, one, one)
    # the derived subgroup is {e, r^2}; cosets pair index i with i+2
    assert derived.blocks() == [(0, 2), (1, 3), (4, 6), (5, 7)]
    # of order 16, past the size of a pair subalgebra's old wrapper: the
    # derived subgroup of the dihedral group is <r^2>, whose cosets are
    # r^i s^j with i of fixed parity and fixed j
    derived = commutator(dihedral16(), one_congruence(16), one_congruence(16))
    assert derived.blocks() == [(0, 2, 4, 6), (1, 3, 5, 7), (8, 10, 12, 14), (9, 11, 13, 15)]


def test_commutator_grids_use_the_smallest_signed_pair_ids(monkeypatch):
    # x - y + z mod 16 alone: the ternary grid over the 256 pairs of the
    # full congruence has 256**3 entries, 32 MiB as int16 pair ids
    cells = itertools.product(range(16), repeat=3)
    algebra = parse_algebra({
        "name": "affine16",
        "size": 16,
        "operations": [
            {"name": "d", "arity": 3, "table": [(x - y + z) % 16 for x, y, z in cells]},
        ],
    })
    seen = []

    def spy(size, grids, pairs):
        seen.append((size, [grid.dtype for grid in grids]))
        return from_grids(size, grids, pairs)

    from_grids = congruence._congruence_from_grids
    monkeypatch.setattr(congruence, "_congruence_from_grids", spy)
    one = one_congruence(16)
    # the algebra is affine, so abelian: [1, 1] is the zero congruence
    assert commutator(algebra, one, one).blocks() == [(a,) for a in range(16)]
    # the pair subalgebra first, then the algebra itself for the forced pairs
    assert seen[0] == (256, [np.dtype(np.int16)])


@pytest.mark.parametrize(
    "name, cls",
    [
        ("z4", 1),
        ("z2z2", 1),
        ("z8", 1),
        ("m", 2),
        ("d4", 2),
        ("q8", 2),
        ("semilattice2", None),
        ("lattice2", None),
        ("Z16", 1),
        ("Z2xD4", 2),
        ("D16", 3),
    ],
)
def test_nilpotency_class(name, cls):
    algebra = ORDER_16[name]() if name in ORDER_16 else load_example(name)
    assert nilpotency_class(algebra) == cls


def test_lower_central_series_shape():
    m = load_example("m")
    series = lower_central_series(m)
    assert len(series) == 3
    assert series[0].is_one and series[2].is_zero
    assert series[1].blocks() == [(0, 2), (1, 3)]
    sl = load_example("semilattice2")
    stuck = lower_central_series(sl)
    assert stuck[-1].is_one and len(stuck) == 1


def test_central_congruences():
    d4 = load_example("d4")
    lat = congruence_lattice(d4)
    central = [c for c in lat if is_central_congruence(d4, c)]
    # exactly 0 and the centre {e, r^2} are central in the dihedral group
    assert len(central) == 2
    assert {c.num_blocks for c in central} == {8, 4}
    z4 = load_example("z4")
    assert is_central_congruence(z4, one_congruence(4))


def test_quotient_algebra():
    m = load_example("m")
    alpha = principal_congruence(m, 0, 2)
    q = quotient_algebra(m, alpha)
    assert q.algebra.size == 2
    assert q.to_class == (0, 1, 0, 1)
    assert q.representative == (0, 1)
    # the quotient is the two-element group with a trivial product
    assert q.algebra.apply("+", (1, 1)) == 0
    assert q.algebra.apply("mul", (1, 1)) == 0
    assert q.algebra.apply("zero", ()) == 0


@st.composite
def algebras_with_pairs(draw, distinct=False):
    """A random algebra of size at most 4 and up to 3 pairs of elements;
    with distinct, at least one pair, each of two different elements."""
    size = draw(st.integers(1 + int(distinct), 4))
    element = st.integers(0, size - 1)
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    tables = [draw(st.lists(element, min_size=size**k, max_size=size**k)) for k in arities]
    ops = [{"name": f"f{i}", "arity": k, "table": t} for i, (k, t) in enumerate(zip(arities, tables))]
    pair = st.tuples(element, element)
    if distinct:
        pair = pair.filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, min_size=int(distinct), max_size=3))
    return parse_algebra({"name": "random", "size": size, "operations": ops}), pairs


@settings(max_examples=100, deadline=None)
@given(algebras_with_pairs())
def test_quotient_algebra_agrees_with_its_per_cell_definition(case):
    parent, pairs = case
    q = quotient_algebra(parent, congruence_from_pairs(parent, pairs))
    assert all(type(v) is int for v in q.to_class + q.representative)
    for op in parent.operations:
        table = q.algebra.operation(op.name).table
        assert all(type(v) is int for v in table)
        reps = q.representative
        cells = itertools.product(range(q.algebra.size), repeat=op.arity)
        want = [q.to_class[parent.apply(op.name, [reps[c] for c in cell])] for cell in cells]
        assert list(table) == want


@settings(max_examples=200, deadline=None)
@given(algebras_with_pairs(distinct=True), st.sampled_from([1, 5, 1 << 18]))
# only the images of the second pair, (1, 2), join {0, 1} and {2, 3}
@example(
    (
        parse_algebra(
            {"name": "f", "size": 4, "operations": [{"name": "f", "arity": 1, "table": [0, 0, 1, 2]}]}
        ),
        [(0, 1), (2, 3)],
    ),
    1,
)
def test_generated_congruence_is_the_least_one_holding_the_pairs(case, budget):
    algebra, pairs = case
    size = algebra.size
    # the budget bounds the image entries per numpy step; 1 and 5 split rounds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(congruence, "_IMAGE_ENTRIES", budget)
        got = congruence_from_pairs(algebra, pairs)
    assert got == congruence_from_pairs(algebra, pairs)
    assert respects_operations(algebra, got.block_of)
    above = [Congruence.from_blocks(size, part) for part in brute_congruences(algebra)]
    above = [c for c in above if all(c.related(a, b) for a, b in pairs)]
    assert got in above
    assert all(got.refines(c) for c in above)


def test_uniformity():
    assert has_uniform_blocks(principal_congruence(load_example("d4"), 0, 2))
    assert all(has_uniform_blocks(c) for c in congruence_lattice(load_example("d4")))
    chain3 = parse_algebra({
        "name": "chain3",
        "size": 3,
        "operations": [
            {"name": "meet", "arity": 2,
             "table": [min(i, j) for i in range(3) for j in range(3)]},
        ],
    })
    skew = congruence_from_pairs(chain3, [(1, 2)])
    assert skew.blocks() == [(0,), (1, 2)]
    assert not has_uniform_blocks(skew)
    assert not all(has_uniform_blocks(c) for c in congruence_lattice(chain3))


def test_relation_preservation_witness_basics():
    import numpy as np
    from finalg.congruence import relation_preservation_witness

    xor = np.array([0, 1, 1, 0], dtype=np.int64)
    diag = np.array([[0, 0], [1, 1]], dtype=np.int64)

    def member_diag(rows):
        return rows[:, 0] == rows[:, 1]

    assert relation_preservation_witness(xor, 2, 2, diag, member_diag) is None

    skew = np.array([[0, 1]], dtype=np.int64)

    def member_skew(rows):
        return (rows[:, 0] == 0) & (rows[:, 1] == 1)

    bad = relation_preservation_witness(xor, 2, 2, skew, member_skew)
    assert bad == ((0, 1), (0, 1))
    assert all(type(v) is int for row in bad for v in row)


@pytest.mark.parametrize("name", ["z4", "m", "d4", "q8"])
def test_centrality_check_matches_commutator(name):
    from finalg.malcev import centrality_check, find_malcev_term

    algebra = load_example(name)
    d = find_malcev_term(algebra)
    one = one_congruence(algebra.size)
    for zeta in congruence_lattice(algebra):
        relational = centrality_check(algebra, zeta, d.term)
        viacomm = commutator(algebra, zeta, one).is_zero
        assert relational == viacomm, (name, zeta)


def test_centrality_check_rejects_non_malcev_term():
    from finalg.algebra import Var
    from finalg.malcev import centrality_check

    z4 = load_example("z4")
    with pytest.raises(ValueError):
        centrality_check(z4, one_congruence(4), Var(0))


def test_maximal_chain_is_unrefinable():
    for name in ("z4", "d4", "q8", "semilattice2"):
        algebra = load_example(name)
        chain = maximal_congruence_chain(algebra)
        lattice = congruence_lattice(algebra)
        assert chain[0].is_zero and chain[-1].is_one
        for lo, hi in zip(chain, chain[1:]):
            assert lo.refines(hi) and lo != hi
            between = [
                c for c in lattice
                if c not in (lo, hi) and lo.refines(c) and c.refines(hi)
            ]
            assert between == [], (name, lo, hi)


def test_maximal_chain_lengths():
    assert len(maximal_congruence_chain(load_example("z4"))) == 3
    assert len(maximal_congruence_chain(load_example("d4"))) == 4
    assert len(maximal_congruence_chain(load_example("semilattice2"))) == 2


def test_central_series_factory_accepts_nilpotent_chains():
    z4 = load_example("z4")
    series = central_series(z4, maximal_congruence_chain(z4))
    assert series.length == 2
    d4 = load_example("d4")
    assert central_series(d4, maximal_congruence_chain(d4)).length == 3


def test_central_series_factory_rejects_bad_chains():
    z4 = load_example("z4")
    mid = principal_congruence(z4, 0, 2)
    with pytest.raises(ValueError, match="start"):
        central_series(z4, [mid, one_congruence(4)])
    with pytest.raises(ValueError, match="end"):
        central_series(z4, [zero_congruence(4), mid])
    with pytest.raises(ValueError, match="monotone"):
        central_series(
            z4, [zero_congruence(4), one_congruence(4), mid, one_congruence(4)]
        )
    lat = load_example("lattice2")
    with pytest.raises(ValueError, match="central"):
        central_series(lat, [zero_congruence(2), one_congruence(2)])


def test_central_series_from_lower_central():
    z4 = load_example("z4")
    series = central_series_from_lower_central(z4)
    assert series is not None and series.length == 1
    # re-validating raises nothing
    central_series(z4, list(series.congruences))

    d4 = load_example("d4")
    series = central_series_from_lower_central(d4)
    assert series is not None and series.length == 2
    central_series(d4, list(series.congruences))

    assert central_series_from_lower_central(load_example("semilattice2")) is None


def test_quotient_congruence_images():
    z4 = load_example("z4")
    mid = principal_congruence(z4, 0, 2)
    q = quotient_algebra(z4, mid)
    assert quotient_congruence(q, mid).is_zero
    assert quotient_congruence(q, one_congruence(4)).is_one
    with pytest.raises(ValueError):
        quotient_congruence(q, zero_congruence(4))

    d4 = load_example("d4")
    center = principal_congruence(d4, 0, 2)
    qd = quotient_algebra(d4, center)
    img = quotient_congruence(qd, one_congruence(8))
    assert img.is_one and img.size == 4


@pytest.mark.parametrize("name", ["z4", "z2z2", "m"])
def test_zero_preserving_polynomials_respect_commutator_blocks(name):
    # binary polynomials vanishing on both axes send blocks of zero to
    # the commutator block of zero
    from finalg.clones import polynomial_functions

    algebra = load_example(name)
    size = algebra.size
    pol2 = polynomial_functions(algebra, 2)
    zero_preserving = []
    for row in pol2.tables:
        grid = row.reshape(size, size)
        if all(grid[a, 0] == 0 and grid[0, a] == 0 for a in range(size)):
            zero_preserving.append(grid)
    assert zero_preserving, "expected at least the zero polynomial"
    lattice = congruence_lattice(algebra)
    for xi in lattice:
        for eta in lattice:
            comm = commutator(algebra, xi, eta)
            for grid in zero_preserving:
                for x in range(size):
                    if not xi.related(x, 0):
                        continue
                    for y in range(size):
                        if not eta.related(y, 0):
                            continue
                        assert comm.related(int(grid[x, y]), 0), (
                            name, xi, eta, x, y)
