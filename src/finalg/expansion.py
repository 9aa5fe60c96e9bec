"""Expanding a nilpotent algebra by compatible abelian group operations.

Given a Mal'cev witness d, a zero element o, and a central series, the
construction produces binary + and unary - on the original universe so
that ⟨A, +, -, o⟩ is an abelian group, every series congruence remains
a congruence of the enlarged algebra, and the enlarged algebra is still
nilpotent of class at most the series length.

The addition is assembled level by level: quotient by the first
nontrivial series congruence, recurse to get an addition there, then
stitch the quotient addition together with the derived local addition
d(x,o,y) on the block of o, using one representative per block.  The
group so obtained is, up to isomorphism, the direct product of the
per-level blocks of o, which this module also materializes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import lcm, prod

import numpy as np

from .algebra import FiniteAlgebra, FiniteFunction, Operation, cell_digits, compose
from .congruence import (
    CentralSeries,
    Congruence,
    central_series,
    maximal_congruence_chain,
    nilpotency_class,
    quotient_algebra,
    quotient_congruence,
    relation_preservation_witness,
)
from .fields import abelian_group_info, element_orders, is_prime
from .malcev import MalcevWitness, find_malcev_term, malcev_grid


@dataclass(frozen=True)
class GroupFactor:
    """One level's block of the zero element, as a standalone group.

    members are quotient-class labels of the level's lower quotient;
    plus and neg are tables over the relabelled range 0..len-1.
    """

    members: tuple[int, ...]
    plus: tuple[int, ...]
    neg: tuple[int, ...]
    zero: int

    @property
    def order(self) -> int:
        return len(self.members)

    def element_orders(self) -> list[int]:
        return element_orders(np.reshape(self.plus, (self.order, -1)), self.zero)


@dataclass(frozen=True)
class AssociatedGroup:
    """Direct product of the per-level zero blocks of a central series."""

    factors: tuple[GroupFactor, ...]

    @property
    def order(self) -> int:
        return prod(f.order for f in self.factors)

    @property
    def exponent(self) -> int:
        return lcm(1, *(o for f in self.factors for o in f.element_orders()))

    @property
    def is_elementary_abelian(self) -> bool:
        return self.order == 1 or is_prime(self.exponent)

    def order_profile(self) -> dict[int, int]:
        """How many elements of each order the product group has."""
        profile = {1: 1}
        for f in self.factors:
            nxt: dict[int, int] = {}
            for got, cnt in profile.items():
                for o in f.element_orders():
                    key = lcm(got, o)
                    nxt[key] = nxt.get(key, 0) + cnt
            profile = nxt
        return profile


def associated_abelian_group(
    algebra: FiniteAlgebra, series: CentralSeries, o: int, d: MalcevWitness
) -> AssociatedGroup:
    """Per-level blocks of o with the quotient-derived addition.

    Level i works in the quotient by series level i-1 and takes the
    classes of elements congruent to o at level i; addition of classes
    g, h is d(g, class-of-o, h) computed in that quotient.
    """
    central_series(algebra, series.congruences)
    factors = []
    for i in range(1, len(series.congruences)):
        lower = series.congruences[i - 1]
        upper = series.congruences[i]
        qres = quotient_algebra(algebra, lower)
        grid = malcev_grid(qres.algebra, d.term)
        obar = qres.to_class[o]
        members = sorted({qres.to_class[x] for x in range(algebra.size) if upper.related(x, o)})
        rank = {g: j for j, g in enumerate(members)}
        plus = tuple(rank[int(grid[g, obar, h])] for g in members for h in members)
        neg = tuple(rank[int(grid[obar, g, obar])] for g in members)
        factor = GroupFactor(tuple(members), plus, neg, rank[obar])
        k = factor.order
        info = abelian_group_info(np.array(plus, dtype=np.int64).reshape(k, k))
        if info is None or info[0] != factor.zero:
            raise ValueError(f"level {i} block of the zero element is not an abelian group")
        factors.append(factor)
    return AssociatedGroup(tuple(factors))


@dataclass(frozen=True)
class ExpandedAlgebra:
    """An algebra together with constructed group operations on its universe."""

    base: FiniteAlgebra
    plus: FiniteFunction
    minus: FiniteFunction
    zero: int

    def plus_grid(self) -> np.ndarray:
        return self.plus.as_grid()

    def neg_array(self) -> np.ndarray:
        return self.minus.as_array()

    def as_algebra(self, name: str | None = None) -> FiniteAlgebra:
        """Base operations plus "+", "neg" and the constant "zero".

        An identical operation already present is not duplicated; a name
        clash with a different table gets "2" suffixes until free.
        """
        ops = list(self.base.operations)
        taken = {op.name for op in ops}
        additions = [
            ("+", 2, tuple(int(v) for v in self.plus.as_array())),
            ("neg", 1, tuple(int(v) for v in self.minus.as_array())),
            ("zero", 0, (self.zero,)),
        ]
        for opname, arity, table in additions:
            present = next((op for op in ops if op.name == opname), None)
            if present is not None and present.arity == arity and present.table == table:
                continue
            final = opname
            while final in taken:
                final += "2"
            taken.add(final)
            ops.append(Operation(final, arity, table))
        return FiniteAlgebra(name or f"{self.base.name}+group", self.base.size, ops)


def _expand(
    algebra: FiniteAlgebra,
    chain: tuple[Congruence, ...],
    o: int,
    d: MalcevWitness,
) -> tuple[np.ndarray, np.ndarray]:
    size = algebra.size
    if size == 1:
        return np.zeros((1, 1), dtype=np.int64), np.zeros(1, dtype=np.int64)
    grid = malcev_grid(algebra, d.term)
    plus_o = grid[:, o, :]
    minus_o = grid[:, :, o]
    neg_o = grid[o, :, o]

    alpha = chain[1]
    qres = quotient_algebra(algebra, alpha)
    pi = np.array(qres.to_class, dtype=np.int64)
    rep = np.array(qres.representative, dtype=np.int64)
    # o must represent its own block even when it is not the least element
    rep[pi[o]] = o

    sub_chain = tuple(quotient_congruence(qres, c) for c in chain[1:])
    plus_b, neg_b = _expand(qres.algebra, sub_chain, int(pi[o]), d)

    psi2 = minus_o[np.arange(size), rep[pi]]
    rebuilt = plus_o[psi2, rep[pi]]
    if not np.array_equal(rebuilt, np.arange(size)):
        raise ValueError("block translations fail to invert; series is not central here")
    block = [q for q in range(size) if alpha.related(q, o)]
    for c in range(qres.algebra.size):
        for q in block:
            a = int(plus_o[q, rep[c]])
            if int(pi[a]) != c or int(psi2[a]) != q:
                raise ValueError(
                    "block translations fail to invert; series is not central here"
                )

    plus = plus_o[plus_o[psi2[:, None], psi2[None, :]], rep[plus_b[pi[:, None], pi[None, :]]]]
    neg = plus_o[neg_o[psi2], rep[neg_b[pi]]]
    return plus.astype(np.int64), neg.astype(np.int64)


def expand_with_group(
    algebra: FiniteAlgebra, series: CentralSeries, o: int, d: MalcevWitness
) -> ExpandedAlgebra:
    """Construct + and - on the universe along the given central series."""
    if not 0 <= o < algebra.size:
        raise ValueError(f"zero element {o} outside 0..{algebra.size - 1}")
    if not d.verified:
        raise ValueError("Mal'cev witness is not verified")
    central_series(algebra, series.congruences)
    plus, neg = _expand(algebra, series.congruences, o, d)
    return ExpandedAlgebra(
        base=algebra,
        plus=FiniteFunction(2, algebra.size, plus.astype(np.uint8).tobytes()),
        minus=FiniteFunction(1, algebra.size, neg.astype(np.uint8).tobytes()),
        zero=o,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    witness: tuple | None = None


@dataclass(frozen=True)
class ExpansionReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_expansion(
    expanded: ExpandedAlgebra, series: CentralSeries, d: MalcevWitness
) -> ExpansionReport:
    """Four checks: series congruences survive, the new operations form
    the expected abelian group, the per-level alignment relations are
    preserved, and nilpotency stays within the series length.

    The level-i alignment relation is R = {(x1, x2, x3, x4) : x1 ≡ x2 at
    level i, x4 ≡ d(x1, x2, x3) at level i-1}, listed lexicographically.
    It is checked on one row per triple of T = {(x1, x2, x3) : x1 ≡ x2
    at level i}, the row whose x4 is the least element of its class, so
    + costs |T|**2 choices of rows instead of |R|**2, with |R| = |T|
    times the size of a level-(i-1) block.  For +, a choice x, y of T
    fails when x + y leaves T or d(x) + d(y) and d(x + y) differ at
    level i-1.  The verdict and the first failing rows are those of R:
    while + and - preserve the level-(i-1) congruence, whether a choice
    of R rows fails depends only on their triples, and each triple's
    row here is its first in R.  If they break a series congruence, let
    k be the first level they break: levels 1 to k still satisfy that
    condition, and R fails at level k already, on rows whose images
    leave x1 ≡ x2, so no later level is reached."""
    algebra = expanded.base
    size = algebra.size
    o = expanded.zero
    plus = expanded.plus_grid().astype(np.int64)
    neg = expanded.neg_array().astype(np.int64)
    dgrid = d.grid().astype(np.int64)
    checks: list[CheckResult] = []

    new_ops = [(plus, 2, "+"), (neg, 1, "-")]

    bad_witness: tuple | None = None
    bad_detail = ""
    for i, cong in enumerate(series.congruences):
        blocks = np.array(cong.block_of, dtype=np.int64)
        tuples = cong.pair_array()

        def member_pair(rows: np.ndarray) -> np.ndarray:
            return blocks[rows[:, 0]] == blocks[rows[:, 1]]

        for table, arity, label in new_ops:
            hit = relation_preservation_witness(table, arity, size, tuples, member_pair)
            if hit is not None:
                bad_witness = hit
                bad_detail = f"operation {label} breaks series congruence at level {i}"
                break
        if bad_witness is not None:
            break
    checks.append(
        CheckResult(
            "series-congruences-preserved",
            bad_witness is None,
            bad_detail or f"all {len(series.congruences)} levels survive + and -",
            bad_witness,
        )
    )

    group = None
    try:
        group = associated_abelian_group(algebra, series, o, d)
    except ValueError as exc:
        checks.append(CheckResult("group-structure", False, str(exc)))
    if group is not None:
        info = abelian_group_info(plus)
        if info is None:
            checks.append(
                CheckResult("group-structure", False, "+ is not an abelian group table")
            )
        elif info[0] != o:
            checks.append(
                CheckResult("group-structure", False, f"+ has identity {info[0]}, expected {o}")
            )
        elif not np.array_equal(info[1], neg):
            checks.append(
                CheckResult("group-structure", False, "- does not invert +")
            )
        else:
            got = dict(Counter(element_orders(plus, o)))
            want = group.order_profile()
            ok = got == want and group.order == size
            detail = f"element order profile {got} vs block product {want}"
            checks.append(CheckResult("group-structure", ok, detail))

    bad_witness = None
    bad_detail = ""
    triples = cell_digits(size, 3).T
    for i in range(1, len(series.congruences)):
        lower = np.array(series.congruences[i - 1].block_of, dtype=np.int64)
        upper = np.array(series.congruences[i].block_of, dtype=np.int64)

        def member_aligned(cand: np.ndarray) -> np.ndarray:
            vals = compose(dgrid, size, cand[:, :3].T)
            return (upper[cand[:, 0]] == upper[cand[:, 1]]) & (lower[vals] == lower[cand[:, 3]])

        # the first row of each triple of T, in lexicographic order
        base = triples[upper[triples[:, 0]] == upper[triples[:, 1]]]
        tuples = np.column_stack([base, lower[compose(dgrid, size, base.T)]])

        for table, arity, label in new_ops:
            hit = relation_preservation_witness(table, arity, size, tuples, member_aligned)
            if hit is not None:
                bad_witness = hit
                bad_detail = f"operation {label} breaks the level-{i} alignment relation"
                break
        if bad_witness is not None:
            break
    checks.append(
        CheckResult(
            "alignment-relations-preserved",
            bad_witness is None,
            bad_detail or "difference alignment survives + and - at every level",
            bad_witness,
        )
    )

    cls = nilpotency_class(expanded.as_algebra())
    m = series.length
    checks.append(
        CheckResult(
            "nilpotency-bound",
            cls is not None and cls <= m,
            f"expansion has nilpotency class {cls}, series length {m}",
        )
    )

    return ExpansionReport(tuple(checks))


@dataclass(frozen=True)
class PipelineResult:
    witness: MalcevWitness
    series: CentralSeries
    group: AssociatedGroup
    expanded: ExpandedAlgebra
    report: ExpansionReport
    nilpotency: int


def expand_pipeline(algebra: FiniteAlgebra, zero: int = 0) -> PipelineResult:
    """Witness search, maximal chain, expansion, and verification in one go.

    Refuses algebras without a Mal'cev term and algebras that are not
    nilpotent; both conditions are certificates, not cap effects.
    """
    witness = find_malcev_term(algebra)
    if witness is None:
        raise ValueError("no Mal'cev term exists; expansion requires one")
    cls = nilpotency_class(algebra)
    if cls is None:
        raise ValueError("algebra is not nilpotent; expansion refused")
    chain = maximal_congruence_chain(algebra)
    series = central_series(algebra, chain)
    group = associated_abelian_group(algebra, series, zero, witness)
    expanded = expand_with_group(algebra, series, zero, witness)
    report = verify_expansion(expanded, series, witness)
    return PipelineResult(
        witness=witness,
        series=series,
        group=group,
        expanded=expanded,
        report=report,
        nilpotency=cls,
    )
