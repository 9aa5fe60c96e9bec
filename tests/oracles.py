"""Slow reference implementations used only to validate the fast paths.

Everything here works on plain Python tuples and recomputes from first
principles: clone closure by naive fixpoint iteration, congruences by
checking the definition against every operation, commutators via the
term-condition matrices.  Nothing imports the modules under test except
for the shared table containers, the polynomial arithmetic that the
substitution-order reference applies, and the full breadth-first closure
that the Mal'cev reference scans.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from finalg.algebra import CapExceeded, FiniteAlgebra, unflatten_index
from finalg.clones import term_functions
from finalg.polyclone import FieldPolynomial, PolySet


def naive_closure(
    algebra: FiniteAlgebra, arity: int, with_constants: bool
) -> set[tuple[int, ...]]:
    """Fixpoint closure of projections (and constants) under composition."""
    size = algebra.size
    wid = size**arity
    found: dict[tuple[int, ...], None] = {}

    def add(tab):
        found.setdefault(tuple(tab), None)

    for i in range(arity):
        add(unflatten_index(f, size, arity)[i] for f in range(wid))
    if with_constants:
        for v in range(size):
            add((v,) * wid)
    for op in algebra.operations:
        if op.arity == 0:
            add((op.table[0],) * wid)

    changed = True
    while changed:
        changed = False
        snapshot = list(found)
        before = len(found)
        for op in algebra.operations:
            if op.arity == 0:
                continue
            tab = op.table
            for combo in itertools.product(snapshot, repeat=op.arity):
                out = []
                for cell in range(wid):
                    idx = 0
                    for f in combo:
                        idx = idx * size + f[cell]
                    out.append(tab[idx])
                add(out)
        changed = len(found) > before
    return set(found)


def bfs_closure_order(
    algebra: FiniteAlgebra,
    arity: int,
    with_constants: bool,
    cap: int = 1 << 20,
    depth_cap: int | None = None,
    until=None,
) -> tuple[list[tuple[int, ...]], list[tuple], str | None]:
    """Breadth-first closure in the order the bfs strategy promises.

    Rows start with the variables, then the constants (when asked for), then
    the nullary operations.  Each round goes through the operations in
    order and, for each, through every operand tuple over the rows known at
    the start of the round that uses a row of the previous round, in
    lexicographic order.  A new row is refused once there are cap rows, and
    the search stops after the first row satisfying until (a predicate on a
    tuple of values).  Returns the rows, their recipes, and why the search
    ended early: "cap" (row or depth cap), "until", or None at fixpoint.
    """
    size = algebra.size
    wid = size**arity
    rows: list[tuple[int, ...]] = []
    recipes: list[tuple] = []
    seen: set[tuple[int, ...]] = set()
    stop = None

    def add(row: tuple[int, ...], recipe: tuple) -> None:
        nonlocal stop
        if stop or row in seen:
            return
        if len(rows) >= cap:
            stop = "cap"
            return
        seen.add(row)
        rows.append(row)
        recipes.append(recipe)
        if until is not None and until(row):
            stop = "until"

    cells = [unflatten_index(c, size, arity) for c in range(wid)]
    for i in range(arity):
        add(tuple(cell[i] for cell in cells), ("var", i))
    if with_constants:
        for v in range(size):
            add((v,) * wid, ("const", v))
    for op in algebra.operations:
        if op.arity == 0:
            add((op.table[0],) * wid, ("nullary", op.name))
    lo = depth = 0
    while lo < len(rows) and not stop:
        if depth_cap is not None and depth >= depth_cap:
            stop = "cap"
            break
        depth += 1
        hi = len(rows)
        for op in algebra.operations:
            if op.arity == 0:
                continue
            for combo in itertools.product(range(hi), repeat=op.arity):
                if stop:
                    break
                if max(combo) < lo:
                    continue
                out = []
                for cell in range(wid):
                    idx = 0
                    for j in combo:
                        idx = idx * size + rows[j][cell]
                    out.append(op.table[idx])
                add(tuple(out), ("op", op.name, combo))
        lo = hi
    return rows, recipes, stop


def substitution_order(
    generators: PolySet, window: int, depth_cap: int | None, size_cap: int
) -> tuple[list[tuple[FieldPolynomial, int]], bool]:
    """Substitution closure one choice at a time, in the promised order.

    Layer 0 is x1..x_window.  Each layer goes through the generators in
    sorted order and, for each, through every choice of known polynomials
    for its variables, in lexicographic order of their first appearance,
    that uses a polynomial of the previous layer; a generator without
    variables is substituted in every layer.  Returns (polynomial, depth)
    pairs in order of first appearance and whether a cap cut the closure.
    """
    fld = generators.field
    found = [(FieldPolynomial.variable(fld, i), 0) for i in range(1, window + 1)]
    seen = {p for p, _ in found}
    if not generators.elements:
        return found, False
    lo = 0
    depth = 0
    while lo < len(found):
        depth += 1
        if depth_cap is not None and depth > depth_cap:
            return found, True
        known = [p for p, _ in found]
        hi = len(known)
        for g in generators.sorted():
            supp = g.support
            for choice in itertools.product(range(hi), repeat=len(supp)):
                if supp and max(choice) < lo:
                    continue
                result = g.substitute({v: known[i] for v, i in zip(supp, choice)})
                if result in seen:
                    continue
                if len(found) >= size_cap:
                    return found, True
                seen.add(result)
                found.append((result, depth))
        lo = hi
    return found, False


def malcev_by_full_closure(
    algebra: FiniteAlgebra, depth_cap: int | None = None, cap: int = 1 << 20
) -> tuple[int, str, bytes] | None:
    """Mal'cev search by building the whole ternary bfs closure, then scanning.

    Returns (row index, term s-expression, table) of the first row with
    d(x,y,y) = x and d(x,x,y) = y, None when the closure reached its
    fixpoint without one, and raises CapExceeded when it was cut off first.
    """
    closure = term_functions(algebra, 3, cap=cap, strategy="bfs", depth_cap=depth_cap)
    size = algebra.size
    for fid in range(len(closure)):
        d = closure.function(fid)
        if all(
            d((x, y, y)) == x and d((x, x, y)) == y for x in range(size) for y in range(size)
        ):
            return fid, closure.term_for(fid).to_sexpr(), d.values
    if closure.capped:
        raise CapExceeded("closure cut off before a Mal'cev term appeared")
    return None


def all_partitions(n: int):
    """Every partition of {0..n-1}, as a tuple of block ids per element."""
    if n == 0:
        yield ()
        return
    for smaller in all_partitions(n - 1):
        blocks = max(smaller, default=-1) + 1
        for b in range(blocks + 1):
            yield smaller + (b,)


def respects_operations(algebra: FiniteAlgebra, block_of) -> bool:
    """Definition check: every operation maps related tuples to related."""
    size = algebra.size
    for op in algebra.operations:
        if op.arity == 0:
            continue
        for xs in itertools.product(range(size), repeat=op.arity):
            fx = algebra.apply(op.name, xs)
            for pos in range(op.arity):
                for y in range(size):
                    if block_of[y] != block_of[xs[pos]]:
                        continue
                    ys = xs[:pos] + (y,) + xs[pos + 1 :]
                    if block_of[algebra.apply(op.name, ys)] != block_of[fx]:
                        return False
    return True


def brute_congruences(algebra: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All congruences by filtering every partition (small sizes only)."""
    return [
        part
        for part in all_partitions(algebra.size)
        if respects_operations(algebra, part)
    ]


def subuniverse_of_power(
    algebra: FiniteAlgebra, power: int, generators: set[tuple[int, ...]]
) -> set[tuple[int, ...]]:
    """Subuniverse of algebra^power generated coordinatewise."""
    import numpy as np

    size = algebra.size
    found = set(generators)
    for op in algebra.operations:
        if op.arity == 0:
            found.add((op.table[0],) * power)
    changed = True
    while changed:
        changed = False
        rows = np.array(sorted(found), dtype=np.int64).reshape(len(found), power)
        n = len(rows)
        for op in algebra.operations:
            if op.arity == 0:
                continue
            tab = np.asarray(op.table, dtype=np.int64)
            chunk = max(1, (1 << 20) // max(1, n ** (op.arity - 1)))
            for start in range(0, n, chunk):
                cur = rows[start : start + chunk]
                for _ in range(op.arity - 1):
                    cur = (cur[:, None, :] * size + rows[None, :, :]).reshape(-1, power)
                out = tab[cur]
                for vec in map(tuple, np.unique(out, axis=0).tolist()):
                    if vec not in found:
                        found.add(vec)
                        changed = True
    return found


def eval_poly_text(text: str, modulus: int, assignment: dict[int, int]) -> int:
    """Evaluate the serialized polynomial format over a prime modulus.

    Works directly on the text with integer arithmetic, so it shares no
    code with the polynomial module.  Only prime moduli make sense here.
    """
    body = text.strip()
    if body == "0":
        return 0
    total = 0
    for chunk in body.split(" + "):
        value = 1
        for factor in chunk.split("*"):
            factor = factor.strip()
            if factor.isdigit():
                value *= int(factor)
            else:
                assert factor.startswith("x")
                var, _, exp = factor[1:].partition("^")
                value *= assignment[int(var)] ** int(exp or 1)
        total += value
    return total % modulus


def tc_commutator_blocks(
    algebra: FiniteAlgebra,
    alpha_pairs: set[tuple[int, int]],
    beta_pairs: set[tuple[int, int]],
) -> tuple[tuple[int, ...], set[tuple[int, int]]]:
    """Term-condition commutator via the matrix subuniverse.

    Generates the subuniverse of A^4 from alpha rows, beta columns and
    constant squares, then forces (u ~ v whenever a matrix has equal top
    entries but unequal bottom ones) into a congruence by least fixpoint.
    """
    size = algebra.size
    # matrix layout (top-left, top-right, bottom-left, bottom-right)
    gens: set[tuple[int, ...]] = set()
    for a, b in alpha_pairs:
        gens.add((a, a, b, b))
    for c, d in beta_pairs:
        gens.add((c, d, c, d))
    for x in range(size):
        gens.add((x, x, x, x))
    matrices = subuniverse_of_power(algebra, 4, gens)

    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
            return True
        return False

    changed = True
    while changed:
        changed = False
        for m in matrices:
            tl, tr, bl, br = m
            if find(tl) == find(tr) and union(bl, br):
                changed = True
            if find(bl) == find(br) and union(tl, tr):
                changed = True
        # close the merged partition into a congruence as well
        for op in algebra.operations:
            if op.arity == 0:
                continue
            for xs in itertools.product(range(size), repeat=op.arity):
                fx = algebra.apply(op.name, xs)
                for pos in range(op.arity):
                    for y in range(size):
                        if find(y) != find(xs[pos]):
                            continue
                        ys = xs[:pos] + (y,) + xs[pos + 1 :]
                        if union(algebra.apply(op.name, ys), fx):
                            changed = True
    block_of = tuple(find(x) for x in range(size))
    pairs = {
        (x, y)
        for x in range(size)
        for y in range(size)
        if block_of[x] == block_of[y]
    }
    return block_of, pairs


def abelian_group_axioms(table: list[list[int]]) -> tuple[int, tuple[int, ...], int] | None:
    """(identity, inverses, exponent) when the Cayley table satisfies every
    abelian group axiom, checked entry by entry; None otherwise."""
    n = len(table)
    elems = range(n)
    if any(table[a][b] != table[b][a] for a in elems for b in elems):
        return None
    if any(
        table[table[a][b]][c] != table[a][table[b][c]] for a in elems for b in elems for c in elems
    ):
        return None
    idents = [e for e in elems if all(table[e][a] == a for a in elems)]
    if not idents:
        return None
    e = idents[0]
    inverses = []
    for a in elems:
        inv = [b for b in elems if table[a][b] == e]
        if not inv:
            return None
        inverses.append(inv[0])
    exponent = 1
    while True:
        multiples = list(elems)
        for _ in range(exponent - 1):
            multiples = [table[m][a] for m, a in zip(multiples, elems)]
        if all(m == e for m in multiples):
            return e, tuple(inverses), exponent
        exponent += 1


def product_table(moduli: tuple[int, ...], perm: list[int]) -> np.ndarray:
    """Cayley table of Z_m1 x ... x Z_mk with element e renamed perm[e]."""
    elems = list(itertools.product(*(range(m) for m in moduli)))
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    tab = np.zeros((n, n), dtype=np.int64)
    for a, b in itertools.product(range(n), repeat=2):
        s = tuple((x + y) % m for x, y, m in zip(elems[a], elems[b], moduli))
        tab[perm[a], perm[b]] = perm[index[s]]
    return tab


def difference_degree(table, arity: int, plus, neg) -> int:
    """The least D for which every (D+1)-fold difference of a flat table
    vanishes, over the abelian group with Cayley table plus and negation neg.

    The difference of g along h in A^arity is x -> g(x + h) - g(x); D is 0
    for a constant, and otherwise one more than the largest D of the
    differences of g, memoized on the table.
    """
    size = len(plus)
    points = list(itertools.product(range(size), repeat=arity))
    index = {x: i for i, x in enumerate(points)}
    memo: dict[tuple[int, ...], int] = {}

    def degree(values: tuple[int, ...]) -> int:
        if values not in memo:
            if len(set(values)) == 1:
                memo[values] = 0
            else:
                memo[values] = 1 + max(
                    degree(tuple(
                        plus[values[index[tuple(plus[a][b] for a, b in zip(x, h))]]][neg[values[i]]]
                        for i, x in enumerate(points)
                    ))
                    for h in points
                )
        return memo[values]

    return degree(tuple(int(v) for v in table))


def newton_table(rng, p: int, coords: np.ndarray, arity: int, degree: int) -> list[int]:
    """A flat table of degree at most degree over the elementary abelian
    p-group with F_p coordinates coords: g(x) = sum over e with |e| <= degree
    of c_e prod_i binom(x_i, e_i), with random coefficients c_e in F_p^dim
    and x the arity*dim coordinates of the arguments."""
    size, dim = coords.shape
    labels = {tuple(row): a for a, row in enumerate(coords.tolist())}
    exps = [
        e for e in itertools.product(range(p), repeat=arity * dim) if sum(e) <= degree
    ]
    coeffs = rng.integers(0, p, (len(exps), dim))
    table = []
    for args in itertools.product(range(size), repeat=arity):
        x = [c for a in args for c in coords[a].tolist()]
        value = [0] * dim
        for e, c in zip(exps, coeffs.tolist()):
            weight = 1
            for xi, ei in zip(x, e):
                weight *= math.comb(xi, ei)
            value = [(v + weight * ci) % p for v, ci in zip(value, c)]
        table.append(labels[tuple(value)])
    return table


def span_by_enumeration(vectors: list[tuple[int, ...]], p: int, dim: int) -> set[tuple[int, ...]]:
    """Every F_p-linear combination of the vectors, listed exhaustively."""
    span = {(0,) * dim}
    for v in vectors:
        span = {tuple((b + c * x) % p for b, x in zip(base, v)) for base in span for c in range(p)}
    return span


def alignment_witness_by_full_relation(expanded, series, d) -> tuple[bool, str, tuple | None]:
    """The alignment check of verify_expansion on every row of each level's
    relation R = {(x1, x2, x3, x4) : x1 ~ x2 at level i, x4 ~ d(x1, x2, x3)
    at level i-1}, rows listed lexicographically.

    Returns the verdict, the detail, and the first choice of rows that +
    (rows taken in pairs, first row major) or - maps out of R.
    """
    size = expanded.base.size
    plus = expanded.plus_grid().astype(np.int64)
    neg = expanded.neg_array().astype(np.int64)
    dgrid = d.grid().astype(np.int64)
    for i in range(1, len(series.congruences)):
        lower = np.array(series.congruences[i - 1].block_of)
        upper = np.array(series.congruences[i].block_of)

        def member(rows):
            vals = dgrid[rows[:, 0], rows[:, 1], rows[:, 2]]
            return (upper[rows[:, 0]] == upper[rows[:, 1]]) & (lower[vals] == lower[rows[:, 3]])

        rows = np.array(list(itertools.product(range(size), repeat=4)))
        rows = rows[member(rows)]
        for first in rows:
            bad = np.flatnonzero(~member(plus[first, rows]))
            if len(bad):
                witness = (tuple(first.tolist()), tuple(rows[bad[0]].tolist()))
                return False, f"operation + breaks the level-{i} alignment relation", witness
        bad = np.flatnonzero(~member(neg[rows]))
        if len(bad):
            witness = (tuple(rows[bad[0]].tolist()),)
            return False, f"operation - breaks the level-{i} alignment relation", witness
    return True, "difference alignment survives + and - at every level", None
