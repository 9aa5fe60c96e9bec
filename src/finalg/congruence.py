"""Congruences, commutators, and nilpotency for finite algebras.

A congruence is stored as a canonical partition: ``block_of[x]`` is the
least element of the block containing ``x``.  Generated congruences use
union-find in rounds: each pair that merged two classes is substituted
into every operation one argument position at a time, and the distinct
pairs of classes that its images still separate are merged in the next
round; iterating that to a fixpoint yields full compatibility.

The binary commutator is computed inside the subalgebra of A x A whose
universe is one of the congruences: generate a congruence there from
the diagonal pairs of the other, then read off which pairs collapse
onto the diagonal.  That pair subalgebra is never wrapped as an algebra:
its operations are grids of pair ids, in the smallest signed type that
holds them, built with finalg.algebra.compose, so commutators add no
order limit of their own.  A k-ary operation's grid has
(number of pairs)**k entries.  The lower central series iterates the
commutator with the full congruence, which yields the nilpotency class.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .algebra import FiniteAlgebra, Operation, cell_digits, compose


@dataclass(frozen=True)
class Congruence:
    """A partition of {0..size-1} compatible with some algebra's operations."""

    size: int
    block_of: tuple[int, ...]

    @staticmethod
    def from_blocks(size: int, raw: Sequence[int]) -> "Congruence":
        """Canonicalize an arbitrary block labelling."""
        least: dict[int, int] = {}
        for x, b in enumerate(raw):
            if b not in least:
                least[b] = x
        return Congruence(size, tuple(least[b] for b in raw))

    def related(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    def blocks(self) -> list[tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for x, b in enumerate(self.block_of):
            out.setdefault(b, []).append(x)
        return [tuple(out[b]) for b in sorted(out)]

    def block_containing(self, a: int) -> tuple[int, ...]:
        rep = self.block_of[a]
        return tuple(x for x in range(self.size) if self.block_of[x] == rep)

    @property
    def num_blocks(self) -> int:
        return len(set(self.block_of))

    @property
    def is_zero(self) -> bool:
        return self.num_blocks == self.size

    @property
    def is_one(self) -> bool:
        return self.num_blocks == 1

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Related pairs (a, b) with a < b."""
        for a, b in self.pair_array().tolist():
            if a < b:
                yield a, b

    def pair_array(self) -> np.ndarray:
        """Every related pair (a, b), a == b included, as an (n, 2) int64
        array in lexicographic order."""
        blocks = np.asarray(self.block_of, dtype=np.int64)
        return np.argwhere(blocks[:, None] == blocks[None, :]).astype(np.int64, copy=False)

    def refines(self, other: "Congruence") -> bool:
        seen: dict[int, int] = {}
        for x in range(self.size):
            mine = self.block_of[x]
            if mine in seen:
                if seen[mine] != other.block_of[x]:
                    return False
            else:
                seen[mine] = other.block_of[x]
        return True

    def meet(self, other: "Congruence") -> "Congruence":
        return Congruence.from_blocks(self.size, list(zip(self.block_of, other.block_of)))

    def __repr__(self) -> str:
        body = "|".join(",".join(map(str, blk)) for blk in self.blocks())
        return f"Congruence[{body}]"


def zero_congruence(size: int) -> Congruence:
    return Congruence(size, tuple(range(size)))


def one_congruence(size: int) -> Congruence:
    return Congruence(size, (0,) * size)


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


# image entries per numpy step when generating a congruence
_IMAGE_ENTRIES = 1 << 18


def congruence_from_pairs(
    algebra: FiniteAlgebra, pairs: Iterable[tuple[int, int]]
) -> Congruence:
    """Least congruence containing the given pairs."""
    size = algebra.size
    grids = [
        algebra.op_array(op.name).reshape((size,) * op.arity)
        for op in algebra.operations
        if op.arity >= 1
    ]
    return _congruence_from_grids(size, grids, pairs)


def _congruence_from_grids(
    size: int,
    grids: Sequence[np.ndarray],
    pairs: Iterable[tuple[int, int]],
) -> Congruence:
    """Least partition of range(size) containing the pairs and compatible
    with operations given as grids of shape (size,) * arity.

    Works in rounds.  A round merges the pending pairs, substitutes each
    pair that joined two classes into every argument position of every
    operation, and keeps as the next round's pending pairs the distinct
    pairs of classes that the images still separate.  Substitutions go
    through numpy at most _IMAGE_ENTRIES image entries at a time.
    """
    uf = _UnionFind(size)
    slots = [(grid, pos) for grid in grids for pos in range(grid.ndim)]
    # elements per numpy step; each has grid.size // size images per slot
    step = max(1, _IMAGE_ENTRIES * size // max(sum(grid.size for grid, _ in slots), 1))
    classes = size
    work = list(pairs)
    while work:
        joined = [(a, b) for a, b in work if uf.union(a, b)]
        classes -= len(joined)
        if not joined or not slots or classes == 1:
            break
        label = np.array([uf.find(x) for x in range(size)], dtype=np.int64)
        firsts, seconds = np.array(joined, dtype=np.int64).T

        def images(elements: np.ndarray) -> np.ndarray:
            taken = [np.take(grid, elements, axis=pos).reshape(-1) for grid, pos in slots]
            # grids may hold small integer types, which index more slowly
            return label[np.concatenate(taken, dtype=np.intp)]

        pending: set[int] = set()
        for lo in range(0, len(joined), step):
            left = images(firsts[lo : lo + step])
            right = images(seconds[lo : lo + step])
            apart = left != right
            pending.update((left[apart] * size + right[apart]).tolist())
        work = [divmod(code, size) for code in pending]
    return Congruence.from_blocks(size, [uf.find(x) for x in range(size)])


def principal_congruence(algebra: FiniteAlgebra, a: int, b: int) -> Congruence:
    return congruence_from_pairs(algebra, [(a, b)])


def join_congruences(
    algebra: FiniteAlgebra, first: Congruence, *rest: Congruence
) -> Congruence:
    pairs: list[tuple[int, int]] = list(first.pairs())
    for c in rest:
        pairs.extend(c.pairs())
    return congruence_from_pairs(algebra, pairs)


def congruence_lattice(algebra: FiniteAlgebra) -> list[Congruence]:
    """All congruences, as the join closure of the principal ones.

    Sorted from the identity congruence upward (fewer merges first), so
    the first entry is always 0 and the last is always 1.
    """
    found: dict[tuple[int, ...], Congruence] = {}
    zero = zero_congruence(algebra.size)
    found[zero.block_of] = zero
    for a in range(algebra.size):
        for b in range(a + 1, algebra.size):
            c = principal_congruence(algebra, a, b)
            found.setdefault(c.block_of, c)
    frontier = list(found.values())
    while frontier:
        fresh: list[Congruence] = []
        for c in frontier:
            for d in list(found.values()):
                j = join_congruences(algebra, c, d)
                if j.block_of not in found:
                    found[j.block_of] = j
                    fresh.append(j)
        frontier = fresh
    return sorted(found.values(), key=lambda c: (c.size - c.num_blocks, c.block_of))


def lattice_height(congruences: Sequence[Congruence]) -> int:
    """Length (number of covers) of the longest chain in the ordering."""
    order = sorted(congruences, key=lambda c: c.size - c.num_blocks)
    best = [0] * len(order)
    for i, c in enumerate(order):
        for j in range(i):
            d = order[j]
            if d.block_of != c.block_of and d.refines(c):
                best[i] = max(best[i], best[j] + 1)
    return max(best, default=0)


@dataclass(frozen=True)
class QuotientResult:
    """A quotient algebra with the maps between it and its parent."""

    algebra: FiniteAlgebra
    to_class: tuple[int, ...]  # parent element -> quotient element
    representative: tuple[int, ...]  # quotient element -> least parent element


def quotient_algebra(
    parent: FiniteAlgebra, cong: Congruence, name: str | None = None
) -> QuotientResult:
    """Quotient by a congruence; class i is the i-th block by least element."""
    # block labels are least elements, so sorting them orders the classes
    reps, to_class = np.unique(np.array(cong.block_of, dtype=np.int64), return_inverse=True)
    ops = []
    for op in parent.operations:
        # the class of the parent's value at the representatives of each cell
        args = reps[cell_digits(len(reps), op.arity)]
        value = to_class[compose(parent.op_array(op.name), parent.size, args)]
        ops.append(Operation(op.name, op.arity, tuple(np.ravel(value).tolist())))
    alg = FiniteAlgebra(name or f"{parent.name}/~", len(reps), ops)
    return QuotientResult(alg, tuple(to_class.tolist()), tuple(reps.tolist()))


def commutator(algebra: FiniteAlgebra, alpha: Congruence, beta: Congruence) -> Congruence:
    """Binary term-condition commutator of two congruences.

    Works inside the pair subalgebra over beta, whose elements are the
    beta-pairs numbered in lexicographic order and whose operations act
    componentwise: the congruence generated there by identifying (a,a)
    with (b,b) for all alpha-pairs tells us which beta-pairs are forced
    onto the diagonal.
    """
    size = algebra.size
    members = beta.pair_array()
    m = len(members)
    # pair ids in the smallest signed type that holds m and the -1 sentinel,
    # since each k-ary grid has m**k of them
    pair_id = np.full((size, size), -1, dtype=np.min_scalar_type(-m - 1))
    pair_id[members[:, 0], members[:, 1]] = np.arange(m)
    grids = []
    for op in algebra.operations:
        k = op.arity
        if k == 0:
            continue
        table = algebra.op_array(op.name)
        # argument i of the grid runs along axis i
        axes = [(m,) + (1,) * (k - 1 - i) for i in range(k)]
        ends = [[members[:, c].reshape(shape) for shape in axes] for c in (0, 1)]
        # a slab of first arguments at a time bounds the int64 indices
        # compose builds to _IMAGE_ENTRIES
        step = max(1, _IMAGE_ENTRIES // m ** (k - 1))
        grid = np.empty((m,) * k, dtype=pair_id.dtype)
        for lo in range(0, m, step):
            firsts, seconds = (compose(table, size, [a[0][lo : lo + step]] + a[1:]) for a in ends)
            grid[lo : lo + step] = pair_id[firsts, seconds]
        grids.append(grid)
    diagonal = np.diagonal(pair_id).tolist()
    gens = [(diagonal[a], diagonal[b]) for a, b in alpha.pairs()]
    delta = np.array(_congruence_from_grids(m, grids, gens).block_of)
    x, y = members.T
    forced = members[(x != y) & (delta == delta[pair_id[y, y]])]
    return congruence_from_pairs(algebra, forced.tolist())


def lower_central_series(algebra: FiniteAlgebra) -> list[Congruence]:
    """Iterated commutators with the full congruence, until stable.

    The list starts at the full congruence; if the algebra is nilpotent
    the last entry is the identity congruence.
    """
    series = [one_congruence(algebra.size)]
    while True:
        nxt = commutator(algebra, one_congruence(algebra.size), series[-1])
        if nxt.block_of == series[-1].block_of:
            return series
        series.append(nxt)
        if nxt.is_zero:
            return series


def nilpotency_class(algebra: FiniteAlgebra) -> int | None:
    """Least m with the (m+1)-st lower central term trivial, or None."""
    series = lower_central_series(algebra)
    if not series[-1].is_zero:
        return None
    return len(series) - 1


def is_central_congruence(algebra: FiniteAlgebra, zeta: Congruence) -> bool:
    """Whether the commutator of zeta with the full congruence is trivial."""
    return commutator(algebra, zeta, one_congruence(algebra.size)).is_zero


def has_uniform_blocks(cong: Congruence) -> bool:
    sizes = {len(b) for b in cong.blocks()}
    return len(sizes) <= 1


def maximal_congruence_chain(algebra: FiniteAlgebra) -> list[Congruence]:
    """An unrefinable chain from the identity to the full congruence.

    Deterministic: at each step the first cover of the current
    congruence in the lattice's canonical order is taken.
    """
    lattice = congruence_lattice(algebra)
    cur = zero_congruence(algebra.size)
    chain = [cur]
    while not cur.is_one:
        ups = [g for g in lattice if cur.refines(g) and g != cur]
        for g in ups:
            if not any(h != g and cur.refines(h) and h.refines(g) for h in ups):
                cur = g
                break
        else:  # pragma: no cover - ups always contains the full congruence
            raise RuntimeError("no cover found above a non-full congruence")
        chain.append(cur)
    return chain


@dataclass(frozen=True)
class CentralSeries:
    """A chain of congruences from identity to full, each level central
    over the previous one: the commutator of the full congruence with
    level i must lie below level i-1."""

    congruences: tuple[Congruence, ...]

    @property
    def length(self) -> int:
        return len(self.congruences) - 1

    def __iter__(self) -> Iterator[Congruence]:
        return iter(self.congruences)


def central_series(
    algebra: FiniteAlgebra, congruences: Sequence[Congruence]
) -> CentralSeries:
    """Validate a candidate chain and wrap it as a CentralSeries.

    Raises ValueError naming the first level where monotonicity or
    centrality fails.
    """
    chain = tuple(congruences)
    if not chain:
        raise ValueError("a central series needs at least one congruence")
    if not chain[0].is_zero:
        raise ValueError("series must start at the identity congruence")
    if not chain[-1].is_one:
        raise ValueError("series must end at the full congruence")
    one = one_congruence(algebra.size)
    for i in range(1, len(chain)):
        if not chain[i - 1].refines(chain[i]):
            raise ValueError(f"series is not monotone at level {i}")
        if not commutator(algebra, one, chain[i]).refines(chain[i - 1]):
            raise ValueError(f"series is not central at level {i}")
    return CentralSeries(chain)


def central_series_from_lower_central(algebra: FiniteAlgebra) -> CentralSeries | None:
    """The reversed lower central series, or None if not nilpotent."""
    lcs = lower_central_series(algebra)
    if not lcs[-1].is_zero:
        return None
    return CentralSeries(tuple(reversed(lcs)))


def quotient_congruence(quotient: QuotientResult, gamma: Congruence) -> Congruence:
    """Image of a congruence in a quotient whose kernel lies below it."""
    for x, cls in enumerate(quotient.to_class):
        if not gamma.related(x, quotient.representative[cls]):
            raise ValueError("congruence does not contain the quotient kernel")
    labels = [gamma.block_of[rep] for rep in quotient.representative]
    return Congruence.from_blocks(len(quotient.representative), labels)


def relation_preservation_witness(
    table: np.ndarray,
    arity: int,
    size: int,
    tuples: np.ndarray,
    member: Callable[[np.ndarray], np.ndarray],
    chunk: int = 1 << 18,
) -> tuple[tuple[int, ...], ...] | None:
    """First counterexample to an operation preserving a k-ary relation.

    tuples is an (r, k) array of relation rows; member maps an (n, k)
    array of candidate rows to a boolean vector.  Applying the operation
    coordinatewise to every choice of arity-many rows must land back in
    the relation; the first offending choice is returned as actual rows.
    """
    flat = table.reshape(-1).astype(np.int64)
    r, k = tuples.shape
    cols = tuples.astype(np.int64)
    if arity == 0:
        row = np.full((1, k), flat[0], dtype=np.int64)
        if bool(member(row)[0]):
            return None
        return ()
    total = r**arity
    weights = [r**j for j in range(arity - 1, -1, -1)]
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        combo = np.arange(lo, hi, dtype=np.int64)
        picks = [(combo // w) % r for w in weights]
        args = np.zeros((hi - lo, k), dtype=np.int64)
        for pick in picks:
            args = args * size + cols[pick]
        out = flat[args]
        ok = member(out)
        if not ok.all():
            at = int(np.flatnonzero(~ok)[0])
            return tuple(tuple(cols[int(p[at])].tolist()) for p in picks)
    return None
