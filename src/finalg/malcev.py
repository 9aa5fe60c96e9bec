"""Mal'cev term discovery and the derived local addition.

A Mal'cev function d satisfies d(x,y,y) = x and d(x,x,y) = y.  Once a
zero element o is fixed, d induces near-group operations

    x + y := d(x, o, y)      x - y := d(x, y, o)      -y := d(o, y, o)

which behave like an abelian group up to commutator congruences.  This
module finds a witness term for d by breadth-first closure search,
checks the nine local-group laws that the rest of the package relies on,
and uses a witness to test centrality of a congruence relationally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    CapExceeded,
    FiniteAlgebra,
    FiniteFunction,
    Operation,
    Term,
    cell_digits,
    compose,
    term_table,
)
from .clones import term_functions
from .congruence import Congruence, commutator, relation_preservation_witness


@dataclass(frozen=True)
class MalcevWitness:
    """A ternary term whose induced function satisfies both Mal'cev identities."""

    term: Term
    function: FiniteFunction
    verified: bool

    def grid(self) -> np.ndarray:
        return self.function.as_grid()


def _malcev_cells(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the 2|A|^2 cells (x,y,y) and (x,x,y) of a ternary
    table, and the values d(x,y,y) = x and d(x,x,y) = y wanted there."""
    x, y, z = cell_digits(size, 3)
    xyy = np.flatnonzero(y == z)
    xxy = np.flatnonzero(x == y)
    return np.concatenate([xyy, xxy]), np.concatenate([x[xyy], z[xxy]]).astype(np.uint8)


def find_malcev_term(
    algebra: FiniteAlgebra,
    depth_cap: int | None = None,
    cap: int = 1 << 20,
) -> MalcevWitness | None:
    """Search the ternary term functions for a Mal'cev witness.

    The ternary terms are enumerated breadth-first and the search stops
    at the first one satisfying both identities, so the term has minimal
    composition depth and is the same one a full closure would list
    first.  Returns None when the exhaustive closure contains no such
    function.  When the search is cut off by depth_cap or cap before
    finding one, the answer is unknown and CapExceeded is raised instead
    of returning None.
    """
    size = algebra.size
    cells, wanted = _malcev_cells(size)

    def is_malcev(row: np.ndarray) -> bool:
        return np.array_equal(row[cells], wanted)

    closure = term_functions(
        algebra, 3, cap=cap, strategy="bfs", depth_cap=depth_cap, until=is_malcev
    )
    if not closure.stopped:
        if closure.capped:
            raise CapExceeded(
                "closure search cut off before finding a Mal'cev term; "
                "existence is undecided at this cap"
            )
        return None
    last = len(closure) - 1
    func = FiniteFunction(3, size, closure.tables[last].tobytes())
    return MalcevWitness(term=closure.term_for(last), function=func, verified=True)


def malcev_grid(algebra: FiniteAlgebra, term: Term) -> np.ndarray:
    """The (size, size, size) int64 table of a ternary term; ValueError
    unless it satisfies both Mal'cev identities on this algebra."""
    func = term_table(algebra, term, 3)
    cells, wanted = _malcev_cells(algebra.size)
    if not np.array_equal(func.as_array()[cells], wanted):
        raise ValueError("term does not satisfy the Mal'cev identities")
    return func.as_grid().astype(np.int64)


def centrality_check(algebra: FiniteAlgebra, zeta: Congruence, d: Term) -> bool:
    """Whether zeta is central, tested relationally.

    Builds the 4-ary relation of pairs (a1,a2) in zeta extended by any
    a3 and the value d(a1,a2,a3), and checks that every fundamental
    operation preserves it.  Equivalent to the commutator of zeta with
    the full congruence being trivial.
    """
    grid = malcev_grid(algebra, d)
    s = algebra.size
    zb = np.array(zeta.block_of, dtype=np.int64)

    def member(cand: np.ndarray) -> np.ndarray:
        lookup = compose(grid, s, cand[:, :3].T)
        return (zb[cand[:, 0]] == zb[cand[:, 1]]) & (lookup == cand[:, 3])

    # the relation's rows, in lexicographic order
    cells = cell_digits(s, 4).T
    tuples = cells[member(cells)]

    for op in algebra.operations:
        bad = relation_preservation_witness(
            algebra.op_array(op.name), op.arity, s, tuples, member
        )
        if bad is not None:
            return False
    return True


def plus_minus_o(
    algebra: FiniteAlgebra, d: MalcevWitness, o: int
) -> tuple[FiniteFunction, FiniteFunction, FiniteFunction]:
    """Derived operations (x+y, x-y, -y) at zero o, as function tables."""
    if not 0 <= o < algebra.size:
        raise ValueError(f"zero element {o} outside 0..{algebra.size - 1}")
    grid = d.grid()
    size = algebra.size
    plus = FiniteFunction(2, size, np.ascontiguousarray(grid[:, o, :]).tobytes())
    minus = FiniteFunction(2, size, np.ascontiguousarray(grid[:, :, o]).tobytes())
    neg = FiniteFunction(1, size, np.ascontiguousarray(grid[o, :, o]).tobytes())
    return plus, minus, neg


@dataclass(frozen=True)
class PlusProperty:
    index: int
    description: str
    holds: bool
    counterexample: tuple[int, ...] | None


@dataclass(frozen=True)
class PlusPropertiesReport:
    zero: int
    items: tuple[PlusProperty, ...]

    @property
    def all_hold(self) -> bool:
        return all(item.holds for item in self.items)

    def failures(self) -> tuple[PlusProperty, ...]:
        return tuple(item for item in self.items if not item.holds)


def check_plus_properties(
    algebra: FiniteAlgebra,
    d: MalcevWitness,
    o: int,
    alpha: Congruence,
    beta: Congruence,
) -> PlusPropertiesReport:
    """Exhaustively check the nine local-group laws of the derived addition.

    Items 1 and 2 are on-the-nose equalities.  Items 3 to 7 hold modulo
    the commutator [alpha,beta] under their stated membership
    preconditions, and items 8 and 9 (the two inverse laws) hold modulo
    [alpha,alpha].  Each failed item carries the first offending tuple.
    """
    size = algebra.size
    grid = d.grid()
    plus, minus, neg = plus_minus_o(algebra, d, o)
    p = plus.as_grid()
    m = minus.as_grid()
    n = neg.as_array()

    comm_ab = commutator(algebra, alpha, beta)
    comm_aa = commutator(algebra, alpha, alpha)

    def cong(gamma: Congruence, x: int, y: int) -> bool:
        return gamma.block_of[x] == gamma.block_of[y]

    results: list[PlusProperty] = []

    def record(index: int, description: str, counterexample: tuple[int, ...] | None) -> None:
        results.append(
            PlusProperty(index, description, counterexample is None, counterexample)
        )

    bad: tuple[int, ...] | None = None
    for a in range(size):
        if not (p[a, o] == a and p[o, a] == a and m[a, o] == a):
            bad = (a,)
            break
    record(1, "a+o = o+a = a-o = a", bad)

    bad = None
    for a in range(size):
        if m[a, a] != o:
            bad = (a,)
            break
    record(2, "a-a = o", bad)

    bad = None
    for a in range(size):
        for b in range(size):
            if not (alpha.related(a, b) and beta.related(b, o)):
                continue
            if not cong(comm_ab, p[m[a, b], b], a):
                bad = (a, b)
                break
        if bad:
            break
    record(3, "(a-b)+b = a mod [alpha,beta] when a~alpha~b~beta~o", bad)

    # items 4..7 share the precondition a alpha o and o beta b
    left = [a for a in range(size) if alpha.related(a, o)]
    right = [b for b in range(size) if beta.related(o, b)]

    bad = None
    for a in left:
        for b in right:
            if not cong(comm_ab, m[p[a, b], b], a):
                bad = (a, b)
                break
        if bad:
            break
    record(4, "(a+b)-b = a mod [alpha,beta] when a~alpha~o~beta~b", bad)

    bad = None
    for a in left:
        for b in right:
            if not cong(comm_ab, p[a, b], p[b, a]):
                bad = (a, b)
                break
        if bad:
            break
    record(5, "a+b = b+a mod [alpha,beta] when a~alpha~o~beta~b", bad)

    bad = None
    for a in left:
        for b in right:
            for c in range(size):
                if not cong(comm_ab, p[p[a, b], c], p[a, p[b, c]]):
                    bad = (a, b, c)
                    break
            if bad:
                break
        if bad:
            break
    record(6, "(a+b)+c = a+(b+c) mod [alpha,beta] when a~alpha~o~beta~b", bad)

    bad = None
    for a in left:
        for b in right:
            for c in range(size):
                if not cong(comm_ab, grid[p[a, b], b, c], p[a, c]):
                    bad = (a, b, c)
                    break
            if bad:
                break
        if bad:
            break
    record(7, "d(a+b,b,c) = a+c mod [alpha,beta] when a~alpha~o~beta~b", bad)

    bad = None
    for a in left:
        if not cong(comm_aa, p[n[a], a], o):
            bad = (a,)
            break
    record(8, "(-a)+a = o mod [alpha,alpha] when a~alpha~o", bad)

    bad = None
    for a in left:
        if not cong(comm_aa, p[a, n[a]], o):
            bad = (a,)
            break
    record(9, "a+(-a) = o mod [alpha,alpha] when a~alpha~o", bad)

    return PlusPropertiesReport(zero=o, items=tuple(results))


def zero_block_group(
    algebra: FiniteAlgebra, d: MalcevWitness, o: int, alpha: Congruence
) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """The congruence block of o as an algebra under the derived addition.

    For a,b in the block of o, both a+b and -a land back in the block,
    so the restriction is total.  When [alpha,alpha] is trivial the
    result satisfies all abelian group axioms; callers wanting that
    guarantee should verify it on the returned tables.  Returns the
    block algebra (elements relabelled 0..k-1, operations "+", "neg",
    "zero") together with the tuple of original elements.
    """
    plus, _, neg = plus_minus_o(algebra, d, o)
    elements = tuple(x for x in range(algebra.size) if alpha.related(x, o))
    rank = {x: i for i, x in enumerate(elements)}
    k = len(elements)
    p = plus.as_grid()
    n = neg.as_array()
    plus_table = [rank[int(p[a, b])] for a in elements for b in elements]
    neg_table = [rank[int(n[a])] for a in elements]
    block = FiniteAlgebra(
        f"{algebra.name}|block of {o}",
        k,
        [
            Operation("+", 2, tuple(plus_table)),
            Operation("neg", 1, tuple(neg_table)),
            Operation("zero", 0, (rank[o],)),
        ],
    )
    return block, elements
