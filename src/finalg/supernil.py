"""Bounded verification of supernilpotency degrees via absorbing functions.

For nilpotent algebras carrying a group reduct, the polynomial functions
that vanish whenever any argument equals a designated zero element decide
the higher-commutator structure: the degree-s condition holds exactly when
no such function depends on more than s arguments.  This module surveys
absorbing polynomial functions arity by arity, derives the arity bound
(m(q-1))^(h-1) from the carrier size q, the operation arities m and the
congruence-lattice height h, probes free spectra for the degree of their
log2 growth, and searches for explicit witnesses against the higher term
condition and for nontrivial commutator terms.

Everything here is a bounded search.  A witness found under a cap is a
certificate no matter what was cut off; a clean scan verifies only up to
its caps and says so through the partial flags.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (
    CapExceeded,
    FiniteAlgebra,
    FiniteFunction,
    Term,
    cell_digits,
    compose,
    essential_arity,
    term_table,
    unflatten_index,
)
from .clones import (
    DEFAULT_CAP,
    abelian_group_operations,
    free_spectrum,
    polynomial_functions,
    term_functions,
)
from .congruence import congruence_lattice, lattice_height, lower_central_series, nilpotency_class
from .fields import finite_field, group_coordinates
from .polyclone import (
    FieldPolynomial,
    homovariate_parts,
    induced_function,
    interpolate,
)

__all__ = [
    "AbsorbingEntry",
    "AbsorbingSurvey",
    "AbsorbingArityReport",
    "CommutatorTermEntry",
    "CommutatorTermSurvey",
    "IdealLevelCheck",
    "SpectrumProbe",
    "SupernilReport",
    "TermConditionWitness",
    "absorbing_arity_check",
    "absorbing_survey",
    "check_supernilpotent",
    "commutator_term_check",
    "commutator_term_survey",
    "is_absorbing",
    "log_height_bound",
    "spectrum_degree_probe",
    "supernilpotency_bound",
    "term_condition_falsify",
]


def supernilpotency_bound(order: int, max_arity: int, height: int) -> int:
    """The arity bound (max_arity * (order - 1)) ** (height - 1).

    Height counts covers in a maximal congruence chain; a one-element
    algebra has height 0 and gets the trivial bound 1.
    """
    if order < 1 or max_arity < 1 or height < 0:
        raise ValueError("order and arity must be positive, height nonnegative")
    if height == 0:
        if order == 1:
            return 1
        raise ValueError("height 0 is only possible for a one-element algebra")
    return (max_arity * (order - 1)) ** (height - 1)


def log_height_bound(order: int, max_arity: int) -> tuple[float, int]:
    """Bound with height replaced by log2(order), as real and ceiling.

    Congruence-uniform chains cover at least a factor 2 per step, so the
    lattice height is at most log2(order); the order need not be a prime
    power for this variant.
    """
    if order < 2 or max_arity < 1:
        raise ValueError("needs at least two elements and a positive arity")
    real = float(max_arity * (order - 1)) ** (math.log2(order) - 1)
    return real, math.ceil(real - 1e-9)


@lru_cache(maxsize=32)
def _zero_touching_mask(arity: int, size: int, zero: int) -> np.ndarray:
    return (cell_digits(size, arity) == zero).any(axis=0)


def is_absorbing(f: FiniteFunction, zero: int) -> bool:
    """Whether f returns zero whenever any argument equals zero."""
    if f.arity == 0:
        return True
    mask = _zero_touching_mask(f.arity, f.size, zero)
    return bool(np.all(f.as_array()[mask] == zero))


@dataclass(frozen=True)
class AbsorbingEntry:
    function: FiniteFunction
    essential_arity: int
    term: Term | None


@dataclass
class AbsorbingSurvey:
    """All absorbing members of the searched slice of polynomial functions."""

    arity: int
    zero: int
    entries: list[AbsorbingEntry]
    partial: bool
    searched: int

    def nonzero(self) -> list[AbsorbingEntry]:
        z = self.zero
        return [
            e for e in self.entries if any(v != z for v in e.function.values)
        ]

    @property
    def max_essential_arity(self) -> int:
        return max((e.essential_arity for e in self.nonzero()), default=0)


def absorbing_survey(
    algebra: FiniteAlgebra,
    zero: int = 0,
    arity: int = 2,
    cap: int = DEFAULT_CAP,
    with_terms: bool = True,
) -> AbsorbingSurvey:
    """Filter the arity-slice of polynomial functions for absorbing members.

    Absorbing functions are not closed under composition, so the whole
    slice is generated first and filtered afterwards.  A capped closure
    makes the survey partial: absence of witnesses then proves nothing,
    but any entry found is genuine.
    """
    closure = polynomial_functions(algebra, arity, cap=cap)
    mask = _zero_touching_mask(arity, algebra.size, zero)
    flat = np.asarray(closure.tables)
    hits = np.nonzero(np.all(flat[:, mask] == zero, axis=1))[0]
    entries = []
    for fid in hits:
        func = closure.function(int(fid))
        term = closure.term_for(int(fid)) if with_terms else None
        entries.append(AbsorbingEntry(func, essential_arity(func), term))
    return AbsorbingSurvey(arity, zero, entries, closure.capped, len(flat))


@dataclass
class SupernilReport:
    """Outcome of scanning arities above a candidate degree for witnesses."""

    algebra: str
    size: int
    degree: int
    arity_cap: int
    verified_degree: int | None
    counterexample: AbsorbingEntry | None
    counterexample_arity: int | None
    partial: bool
    nilpotency_class: int | None = None
    height: int | None = None
    max_arity: int | None = None
    bound: int | None = None
    surveys: tuple[AbsorbingSurvey, ...] = ()

    @property
    def refuted(self) -> bool:
        return self.counterexample is not None


def check_supernilpotent(
    algebra: FiniteAlgebra,
    degree: int,
    arity_cap: int | None = None,
    zero: int = 0,
    cap: int = DEFAULT_CAP,
    with_context: bool = True,
) -> SupernilReport:
    """Scan arities degree+1 .. arity_cap for nonzero absorbing functions.

    A nonzero absorbing function of arity t > degree depends on all t of
    its arguments, so finding one refutes the degree; a completed clean
    scan verifies it up to the arity cap.  Partial closures leave the
    verdict open (partial flag, verified_degree None).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if arity_cap is None:
        arity_cap = degree + 1
    if arity_cap < degree + 1:
        raise ValueError("arity cap must reach past the degree under test")
    surveys: list[AbsorbingSurvey] = []
    counter: AbsorbingEntry | None = None
    counter_arity: int | None = None
    partial = False
    for t in range(degree + 1, arity_cap + 1):
        survey = absorbing_survey(algebra, zero, t, cap=cap)
        surveys.append(survey)
        witnesses = survey.nonzero()
        if witnesses:
            counter = witnesses[0]
            counter_arity = t
            break
        partial = partial or survey.partial
    verified = degree if counter is None and not partial else None
    report = SupernilReport(
        algebra=algebra.name,
        size=algebra.size,
        degree=degree,
        arity_cap=arity_cap,
        verified_degree=verified,
        counterexample=counter,
        counterexample_arity=counter_arity,
        partial=partial and counter is None,
        surveys=tuple(surveys),
    )
    if with_context:
        report.nilpotency_class = nilpotency_class(algebra)
        report.height = lattice_height(congruence_lattice(algebra))
        report.max_arity = max((op.arity for op in algebra.operations), default=1)
        if report.height:
            report.bound = supernilpotency_bound(
                algebra.size, max(report.max_arity, 1), report.height
            )
    return report


# -- higher term condition --------------------------------------------------


@dataclass(frozen=True)
class TermConditionWitness:
    """A term and tuple system violating the degree-k term condition."""

    term: Term
    composition: tuple[int, ...]
    left_tuples: tuple[tuple[int, ...], ...]
    right_tuples: tuple[tuple[int, ...], ...]
    lhs: int
    rhs: int


def _violation_for_table(
    table: np.ndarray, sizes: tuple[int, ...], k: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Search one term table for a violating choice of tuple pairs.

    The table is reshaped so block i contributes one axis of length
    size**n_i; the search space doubles every axis (one copy for each
    side of the pair) and is swept with boolean broadcasting.
    """
    grid = table.reshape(sizes)
    wide = tuple(itertools.chain.from_iterable((s, s) for s in sizes))

    def embedded_eq(select: tuple[int, ...]) -> np.ndarray:
        # select[i] says which member of pair i feeds block i
        shape_u = [1] * (2 * k + 2)
        for i, s in enumerate(sizes[:-1]):
            shape_u[2 * i + select[i]] = s
        shape_v = list(shape_u)
        shape_u[2 * k] = sizes[-1]
        shape_v[2 * k + 1] = sizes[-1]
        return grid.reshape(shape_u) == grid.reshape(shape_v)

    premise = np.ones((1,) * (2 * k + 2), dtype=bool)
    for select in itertools.product((0, 1), repeat=k):
        if all(s == 1 for s in select):
            continue
        premise = premise & embedded_eq(select)
    conclusion = embedded_eq((1,) * k)
    violation = np.broadcast_to(premise & ~conclusion, wide)
    if not violation.any():
        return None
    spot = np.unravel_index(int(np.argmax(violation)), wide)
    left = tuple(int(spot[2 * i]) for i in range(k + 1))
    right = tuple(int(spot[2 * i + 1]) for i in range(k + 1))
    return left, right


def term_condition_falsify(
    algebra: FiniteAlgebra,
    k: int,
    tuple_bound: int = 1,
    term_depth_bound: int = 3,
    cap: int = DEFAULT_CAP,
) -> TermConditionWitness | None:
    """Look for a bounded witness against the degree-k term condition.

    Enumerates tuple-length splits n_1..n_{k+1} up to tuple_bound per
    block, then sweeps all term functions of composition depth up to
    term_depth_bound on sum(n_i) variables.  Returns the first violation
    in a deterministic order, or None when the bounded search is clean.
    """
    if k < 1 or tuple_bound < 1:
        raise ValueError("degree and tuple bound must be positive")
    size = algebra.size
    comps = sorted(
        (
            comp
            for comp in itertools.product(range(tuple_bound + 1), repeat=k + 1)
            if sum(comp) >= 1 and comp[-1] >= 1
        ),
        key=lambda c: (sum(c), c),
    )
    for comp in comps:
        arity = sum(comp)
        closure = term_functions(
            algebra, arity, cap=cap, depth_cap=term_depth_bound
        )
        sizes = tuple(size**n for n in comp)
        for fid in range(len(closure.tables)):
            found = _violation_for_table(closure.tables[fid], sizes, k)
            if found is None:
                continue
            left_flat, right_flat = found
            left = tuple(
                unflatten_index(left_flat[i], size, comp[i]) for i in range(k + 1)
            )
            right = tuple(
                unflatten_index(right_flat[i], size, comp[i]) for i in range(k + 1)
            )
            grid = closure.tables[fid].reshape(sizes)
            lhs = int(grid[right_flat[:-1] + (left_flat[-1],)])
            rhs = int(grid[right_flat])
            return TermConditionWitness(
                closure.term_for(fid), comp, left, right, lhs, rhs
            )
    return None


# -- commutator terms ---------------------------------------------------------


@dataclass(frozen=True)
class CommutatorTermEntry:
    term: Term
    rank: int
    satisfies: bool
    trivial: bool


@dataclass
class CommutatorTermSurvey:
    rank: int
    entries: list[CommutatorTermEntry]
    partial: bool
    searched: int

    def nontrivial(self) -> list[CommutatorTermEntry]:
        return [e for e in self.entries if not e.trivial]


def _commutator_flags(grid: np.ndarray, rank: int, size: int) -> tuple[bool, bool]:
    """(collapses to its last variable on every diagonal, is a projection)."""
    line = np.arange(size, dtype=grid.dtype)
    satisfies = True
    for i in range(rank):
        diag = np.diagonal(grid, axis1=i, axis2=rank)
        if not np.array_equal(diag, np.broadcast_to(line, diag.shape)):
            satisfies = False
            break
    trivial = np.array_equal(grid, np.broadcast_to(line, grid.shape))
    return satisfies, trivial


def commutator_term_check(
    algebra: FiniteAlgebra, term: Term, rank: int
) -> CommutatorTermEntry:
    """Classify one candidate term of rank+1 variables directly."""
    func = term_table(algebra, term, rank + 1)
    grid = func.as_array().reshape((algebra.size,) * (rank + 1))
    satisfies, trivial = _commutator_flags(grid, rank, algebra.size)
    return CommutatorTermEntry(term, rank, satisfies, trivial)


def commutator_term_survey(
    algebra: FiniteAlgebra,
    rank: int,
    depth_cap: int | None = None,
    cap: int = DEFAULT_CAP,
) -> CommutatorTermSurvey:
    """All terms on rank+1 variables that collapse to the last variable
    whenever any other variable is identified with it.

    The trivial ones are the plain projections onto the last variable;
    a nontrivial entry witnesses commutator behaviour of the given rank.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    closure = term_functions(algebra, rank + 1, cap=cap, depth_cap=depth_cap)
    size = algebra.size
    entries = []
    for fid in range(len(closure.tables)):
        grid = closure.tables[fid].reshape((size,) * (rank + 1))
        satisfies, trivial = _commutator_flags(grid, rank, size)
        if satisfies:
            entries.append(
                CommutatorTermEntry(closure.term_for(fid), rank, True, trivial)
            )
    return CommutatorTermSurvey(rank, entries, closure.capped, len(closure.tables))


# -- free spectrum probe ------------------------------------------------------


@dataclass
class SpectrumProbe:
    arities: tuple[int, ...]
    counts: tuple[int, ...]
    log2_counts: tuple[float, ...]
    differences: tuple[tuple[float, ...], ...]
    degree_estimate: int


def spectrum_degree_probe(
    algebra: FiniteAlgebra, max_arity: int = 3, cap: int = DEFAULT_CAP
) -> SpectrumProbe:
    """Estimate the polynomial degree of log2 of the free spectrum.

    Computes exact term-function counts for arities 1..max_arity and reads
    the degree off the difference table of their base-2 logarithms: the
    estimate is the first difference level that vanishes, or the deepest
    measurable level when none does.  Aborts rather than estimate from
    capped counts.
    """
    if max_arity < 1:
        raise ValueError("need at least one arity")
    counts = []
    for n in range(1, max_arity + 1):
        sc = free_spectrum(algebra, n, cap=cap)
        if not sc.exact:
            raise CapExceeded(
                f"free spectrum at arity {n} exceeded the cap; no degree estimate"
            )
        counts.append(sc.count)
    logs = [math.log2(c) for c in counts]
    levels: list[tuple[float, ...]] = []
    cur = logs
    while len(cur) > 1:
        cur = [b - a for a, b in zip(cur, cur[1:])]
        levels.append(tuple(cur))
    estimate = len(logs) - 1
    tol = 1e-9
    if all(abs(v) <= tol for v in logs):
        estimate = 0
    else:
        for depth, level in enumerate(levels, start=1):
            if all(abs(v) <= tol for v in level):
                estimate = depth - 1
                break
    return SpectrumProbe(
        tuple(range(1, max_arity + 1)),
        tuple(counts),
        tuple(logs),
        tuple(levels),
        estimate,
    )


# -- arity bound on absorbing functions --------------------------------------


@dataclass
class IdealLevelCheck:
    level: int
    variable_count: int
    image: tuple[int, ...]
    target: tuple[int, ...]
    contained: bool


@dataclass
class AbsorbingArityReport:
    algebra: str
    order: int
    nilpotency_class: int
    plus_op: str
    extra_ops: tuple[str, ...]
    max_extra_arity: int
    substitution_degree: int
    bound: int
    arity_cap: int
    observed_max_essential: int
    within_bound: bool
    partial: bool
    surveys: tuple[AbsorbingSurvey, ...]
    ideal_checks: tuple[IdealLevelCheck, ...]
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.within_bound and all(c.contained for c in self.ideal_checks)


def _detect_prime_plus(
    algebra: FiniteAlgebra, zero: int, plus_op: str | None
) -> tuple[str, np.ndarray, np.ndarray, int]:
    """Find a binary operation that is an abelian group of prime exponent
    with the designated zero as identity; returns (name, table, neg, p)."""
    for span in abelian_group_operations(algebra):
        if span.prime and span.zero == zero and plus_op in (None, span.plus_name):
            return span.plus_name, span.plus.astype(np.int64), span.neg, span.exponent
    raise ValueError(
        "no binary operation forms an abelian group of prime exponent "
        f"with identity {zero}"
    )


def _relabel_table(table: np.ndarray, arity: int, size: int, phi: np.ndarray) -> np.ndarray:
    inv = np.empty(size, dtype=np.int64)
    inv[phi] = np.arange(size)
    return phi[np.ravel(compose(table, size, inv[cell_digits(size, arity)]))]


def absorbing_arity_check(
    algebra: FiniteAlgebra,
    zero: int = 0,
    plus_op: str | None = None,
    arity_cap: int = 3,
    cap: int = DEFAULT_CAP,
    sample: int = 3,
) -> AbsorbingArityReport:
    """Check the arity bound on absorbing polynomial functions, plus the
    ideal-chain containment that drives it.

    Needs a nilpotent algebra with a prime-exponent abelian group among
    its basic operations (identity at the designated zero).  Surveys
    absorbing functions up to arity_cap against (m(q-1))^(k-1), then
    composes sampled homovariate polynomials into balanced trees and
    checks that once the variable count passes (m(q-1))^(l-1) the values
    land in the l-th lower-central ideal; at l = k that ideal is {zero},
    so deep enough compositions are forced to vanish.
    """
    notes: list[str] = []
    plus_name, plus_tab, neg_tab, p = _detect_prime_plus(algebra, zero, plus_op)
    series = lower_central_series(algebra)
    if not series[-1].is_zero:
        raise ValueError("algebra is not nilpotent; the arity bound needs a class")
    k = len(series) - 1
    size = algebra.size

    extras = []
    for op in algebra.operations:
        if op.name == plus_name:
            continue
        if op.arity == 1 and np.array_equal(
            np.array(op.table, dtype=np.int64), neg_tab
        ):
            continue
        if op.arity == 0 and op.table[0] == zero:
            continue
        extras.append(op)
    m = max((op.arity for op in extras), default=1)
    n = m * (size - 1)
    bound = n ** (k - 1)

    surveys = []
    for t in range(1, arity_cap + 1):
        surveys.append(absorbing_survey(algebra, zero, t, cap=cap))
    observed = max((s.max_essential_arity for s in surveys), default=0)
    partial = any(s.partial for s in surveys)

    ideals = [set(series[level].block_containing(zero)) for level in range(len(series))]

    ideal_checks: list[IdealLevelCheck] = []
    try:
        fld = finite_field(size)
    except ValueError:
        fld = None
        notes.append(f"no supported field of order {size}; ideal checks skipped")
    if fld is not None and extras:
        coords = group_coordinates(plus_tab, zero, p)
        weights = p ** np.arange(coords.shape[1], dtype=np.int64)
        phi = coords @ weights
        relabeled_plus = _relabel_table(plus_tab, 2, size, phi)
        if not np.array_equal(relabeled_plus, fld.add_table.reshape(-1)):
            raise RuntimeError("relabeling failed to align addition with the field")
        gens = []
        for op in extras:
            table = _relabel_table(np.array(op.table), op.arity, size, phi)
            func = FiniteFunction(op.arity, size, table.astype(np.uint8).tobytes())
            gens.append(interpolate(func, fld))
        candidates: list[FieldPolynomial] = []
        seen: set[FieldPolynomial] = set()
        for g in sorted(gens, key=FieldPolynomial.sort_key):
            for part in homovariate_parts(g):
                if len(part.support) >= 2 and part not in seen:
                    seen.add(part)
                    candidates.append(part)
        candidates = candidates[:sample]
        if not candidates:
            notes.append("no sampled generator has a multi-variable part; ideal checks skipped")
        phi_ideals = [
            np.sort(np.array([int(phi[x]) for x in ideal], dtype=np.int64))
            for ideal in ideals
        ]
        for h in candidates:
            supp = h.support
            renumbered = h.substitute(
                {v: FieldPolynomial.variable(fld, i + 1) for i, v in enumerate(supp)}
            )
            fan = len(supp)
            grid = induced_function(renumbered, fan).as_array().reshape((size,) * fan)
            image = np.arange(size, dtype=np.int64)
            var_count = 1
            level = 1
            while level <= k:
                image = np.unique(grid[np.ix_(*([image] * fan))])
                var_count *= fan
                while level <= k and var_count >= n ** (level - 1) + 1:
                    want = phi_ideals[level]
                    contained = bool(np.all(np.isin(image, want)))
                    ideal_checks.append(
                        IdealLevelCheck(
                            level,
                            var_count,
                            tuple(int(v) for v in image),
                            tuple(int(v) for v in want),
                            contained,
                        )
                    )
                    level += 1
    elif fld is not None:
        notes.append("no operations beyond the group structure; ideal checks vacuous")

    return AbsorbingArityReport(
        algebra=algebra.name,
        order=size,
        nilpotency_class=k,
        plus_op=plus_name,
        extra_ops=tuple(op.name for op in extras),
        max_extra_arity=m,
        substitution_degree=n,
        bound=bound,
        arity_cap=arity_cap,
        observed_max_essential=observed,
        within_bound=observed <= bound,
        partial=partial,
        surveys=tuple(surveys),
        ideal_checks=tuple(ideal_checks),
        notes=tuple(notes),
    )
