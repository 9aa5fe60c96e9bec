"""Sparse multivariate polynomials over small finite fields.

The module provides the calculus used to rebuild composition clones of
polynomials from additive data: substitution products of polynomial
sets, prime-subfield additive spans inside a fixed variable window,
splitting a polynomial into its homovariate components (the maximal
pieces whose monomials all mention exactly the same variables), bounded
closure under substitution (layer by layer, generator by generator, the
substitutions that use a polynomial new in the previous layer, in the
bfs order of finalg.clones), and the derived generator construction that
replaces a generating set F by homovariate generators H whose sums of
compositions induce the same finitary functions as the closure of F
together with x+y, -x and 0.

Polynomials are kept canonical: a sorted tuple of (monomial, nonzero
coefficient) pairs, ordered by ascending total degree with same-degree
ties broken so that higher powers of lower-indexed variables come
first.  Variables are numbered from 1 and written x1, x2, ...
Coefficient literals in the text format are element labels of the
field.  No function-level identities are applied: x1^2 and x1 are
different polynomials even over GF(2).
"""
from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import CapExceeded, FiniteFunction, cell_digits
from .clones import fresh_tuples, term_functions
from .fields import FiniteField, PrimeSpan

DEFAULT_POLY_CAP = 1 << 20


@dataclass(frozen=True)
class Monomial:
    """A product of variable powers, e.g. x2^2*x3; empty means 1."""

    powers: tuple[tuple[int, int], ...]

    @staticmethod
    def make(powers: Iterable[tuple[int, int]] | Mapping[int, int]) -> "Monomial":
        items = powers.items() if isinstance(powers, Mapping) else powers
        acc: dict[int, int] = {}
        for var, exp in items:
            if var < 1:
                raise ValueError(f"variable index {var} must be at least 1")
            if exp < 0:
                raise ValueError(f"exponent {exp} of x{var} must be nonnegative")
            if exp:
                acc[var] = acc.get(var, 0) + exp
        return Monomial(tuple(sorted(acc.items())))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    @property
    def variables(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.powers)

    def degree_in(self, var: int) -> int:
        return dict(self.powers).get(var, 0)

    def times(self, other: "Monomial") -> "Monomial":
        acc = dict(self.powers)
        for var, exp in other.powers:
            acc[var] = acc.get(var, 0) + exp
        return Monomial(tuple(sorted(acc.items())))

    def sort_key(self) -> tuple:
        # same degree: higher power of a lower-indexed variable first
        return (self.degree, tuple((v, -e) for v, e in self.powers))

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        return "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in self.powers)


@dataclass(frozen=True)
class FieldPolynomial:
    """Canonical sparse polynomial over a fixed finite field."""

    field: FiniteField
    terms: tuple[tuple[Monomial, int], ...]

    @staticmethod
    def make(fld: FiniteField, pairs: Iterable[tuple[Monomial, int]]) -> "FieldPolynomial":
        acc: dict[Monomial, int] = {}
        for mono, coeff in pairs:
            if not 0 <= coeff < fld.order:
                raise ValueError(f"coefficient {coeff} is not an element label of GF({fld.order})")
            acc[mono] = fld.plus(acc.get(mono, 0), coeff)
        kept = [(m, c) for m, c in acc.items() if c]
        kept.sort(key=lambda mc: mc[0].sort_key())
        return FieldPolynomial(fld, tuple(kept))

    @staticmethod
    def zero(fld: FiniteField) -> "FieldPolynomial":
        return FieldPolynomial(fld, ())

    @staticmethod
    def constant(fld: FiniteField, c: int) -> "FieldPolynomial":
        return FieldPolynomial.make(fld, [(Monomial(()), c)])

    @staticmethod
    def variable(fld: FiniteField, var: int) -> "FieldPolynomial":
        return FieldPolynomial.make(fld, [(Monomial.make({var: 1}), 1)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        """Largest monomial degree; 0 for the zero polynomial."""
        return max((m.degree for m, _ in self.terms), default=0)

    def degree_in(self, var: int) -> int:
        return max((m.degree_in(var) for m, _ in self.terms), default=0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted({v for m, _ in self.terms for v in m.variables}))

    @property
    def max_variable(self) -> int:
        return max((v for m, _ in self.terms for v in m.variables), default=0)

    def coefficient(self, mono: Monomial) -> int:
        for m, c in self.terms:
            if m == mono:
                return c
        return 0

    def __add__(self, other: "FieldPolynomial") -> "FieldPolynomial":
        if self.field != other.field:
            raise ValueError("polynomials live over different fields")
        return FieldPolynomial.make(self.field, self.terms + other.terms)

    def __neg__(self) -> "FieldPolynomial":
        return FieldPolynomial(
            self.field, tuple((m, self.field.negate(c)) for m, c in self.terms)
        )

    def __sub__(self, other: "FieldPolynomial") -> "FieldPolynomial":
        return self + (-other)

    def scale(self, c: int) -> "FieldPolynomial":
        if not 0 <= c < self.field.order:
            raise ValueError(f"scalar {c} is not an element label of GF({self.field.order})")
        return FieldPolynomial.make(
            self.field, [(m, self.field.times(c, k)) for m, k in self.terms]
        )

    def __mul__(self, other: "FieldPolynomial") -> "FieldPolynomial":
        if self.field != other.field:
            raise ValueError("polynomials live over different fields")
        pairs = [
            (m1.times(m2), self.field.times(c1, c2))
            for m1, c1 in self.terms
            for m2, c2 in other.terms
        ]
        return FieldPolynomial.make(self.field, pairs)

    def power(self, e: int) -> "FieldPolynomial":
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        out = FieldPolynomial.constant(self.field, 1)
        for _ in range(e):
            out = out * self
        return out

    def substitute(
        self, subs: Sequence["FieldPolynomial"] | Mapping[int, "FieldPolynomial"]
    ) -> "FieldPolynomial":
        """Replace each variable by a polynomial; entry i of a sequence feeds x(i+1).

        Purely formal: no function-level reduction happens, so substituting
        x1+x2 into x1^2 over GF(2) yields x1^2 + x2^2.
        """
        if isinstance(subs, Mapping):
            table = dict(subs)
        else:
            table = {i + 1: p for i, p in enumerate(subs)}
        for v in self.support:
            if v not in table:
                raise ValueError(f"no replacement given for x{v}")
        for p in table.values():
            if p.field != self.field:
                raise ValueError("replacement polynomial lives over a different field")
        out = FieldPolynomial.zero(self.field)
        for mono, coeff in self.terms:
            piece = FieldPolynomial.constant(self.field, coeff)
            for var, exp in mono.powers:
                piece = piece * table[var].power(exp)
            out = out + piece
        return out

    def sort_key(self) -> tuple:
        return (
            self.total_degree,
            len(self.terms),
            tuple((m.sort_key(), c) for m, c in self.terms),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            if not mono.powers:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(str(mono))
            else:
                parts.append(f"{coeff}*{mono}")
        return " + ".join(parts)


_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_polynomial(fld: FiniteField, text: str) -> FieldPolynomial:
    """Parse the textual format, e.g. "5*x2^2*x3 + 7*x2^2*x3*x4^5 - x1".

    Coefficients are field element labels; a leading minus negates the term.
    """
    body = text.replace("−", "-").strip()
    if not body:
        raise ValueError("empty polynomial text")
    if body == "0":
        return FieldPolynomial.zero(fld)
    chunks = re.findall(r"[+-]?[^+-]+", body)
    if "".join(chunks).replace(" ", "") != body.replace(" ", ""):
        raise ValueError(f"cannot parse polynomial text {text!r}")
    pairs = []
    for chunk in chunks:
        chunk = chunk.strip()
        negate = chunk.startswith("-")
        chunk = chunk.lstrip("+-").strip()
        if not chunk:
            raise ValueError(f"dangling sign in polynomial text {text!r}")
        coeff = 1
        powers: list[tuple[int, int]] = []
        for factor in chunk.split("*"):
            factor = factor.strip()
            m = _FACTOR.match(factor)
            if m:
                powers.append((int(m.group(1)), int(m.group(2) or 1)))
            elif factor.isdigit():
                val = int(factor)
                if val >= fld.order:
                    raise ValueError(
                        f"coefficient {val} is not an element label of GF({fld.order})"
                    )
                coeff = fld.times(coeff, val)
            else:
                raise ValueError(f"cannot parse factor {factor!r}")
        if negate:
            coeff = fld.negate(coeff)
        pairs.append((Monomial.make(powers), coeff))
    return FieldPolynomial.make(fld, pairs)


@dataclass(frozen=True)
class PolySet:
    """A finite set of polynomials over one field, with a provenance tag."""

    field: FiniteField
    elements: frozenset[FieldPolynomial]
    tag: str = ""

    @staticmethod
    def make(fld: FiniteField, polys: Iterable[FieldPolynomial], tag: str = "") -> "PolySet":
        elems = frozenset(polys)
        for p in elems:
            if p.field != fld:
                raise ValueError("polynomial set mixes fields")
        return PolySet(fld, elems, tag)

    def sorted(self) -> list[FieldPolynomial]:
        return sorted(self.elements, key=FieldPolynomial.sort_key)

    def retagged(self, tag: str) -> "PolySet":
        return PolySet(self.field, self.elements, tag)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.sorted())

    def __contains__(self, p: FieldPolynomial) -> bool:
        return p in self.elements


def _tagjoin(left: str, op: str, right: str) -> str:
    if not left and not right:
        return ""
    return f"({left or '?'}{op}{right or '?'})"


def set_product(a: PolySet, b: PolySet, cap: int = DEFAULT_POLY_CAP) -> PolySet:
    """All substitutions of members of b for the variables of members of a.

    Every variable occurring in a member of a ranges independently over b,
    so a member with k variables contributes |b|^k substitutions.  Members
    without variables need no arguments and survive unchanged, even when b
    is empty.
    """
    if a.field != b.field:
        raise ValueError("polynomial sets live over different fields")
    tag = _tagjoin(a.tag, "*", b.tag)
    pool = b.sorted()
    out: set[FieldPolynomial] = set()
    budget = cap
    for p in a.sorted():
        supp = p.support
        for choice in itertools.product(pool, repeat=len(supp)):
            if budget <= 0:
                raise CapExceeded(f"substitution product exceeded cap {cap}")
            budget -= 1
            out.add(p.substitute(dict(zip(supp, choice))))
    return PolySet(a.field, frozenset(out), tag)


def additive_span(f: PolySet, window: int, cap: int = DEFAULT_POLY_CAP) -> PolySet:
    """The subgroup of (polynomials, +) generated by f inside x1..x_window.

    Coefficient multiples stay in the prime subfield: the span collects
    exactly the sums of integer multiples of members of f.  The empty set
    spans {0}.
    """
    p = f.field.characteristic
    zero = FieldPolynomial.zero(f.field)
    span: set[FieldPolynomial] = {zero}
    for g in f.sorted():
        if g.max_variable > window:
            raise ValueError(
                f"generator {g} mentions x{g.max_variable}, outside the window x1..x{window}"
            )
        if g in span:
            continue
        multiples = [g.scale(k) for k in range(1, p)]
        fresh = set()
        for mult in multiples:
            for s in span:
                fresh.add(s + mult)
        span |= fresh
        if len(span) > cap:
            raise CapExceeded(f"additive span exceeded cap {cap}")
    return PolySet(f.field, frozenset(span), f"span({f.tag or 'set'})")


def _linear_forms(fld: FiniteField, window: int) -> list[FieldPolynomial]:
    """All prime-subfield-coefficient linear forms in x1..x_window, with 0."""
    p = fld.characteristic
    forms = []
    for coeffs in itertools.product(range(p), repeat=window):
        pairs = [(Monomial.make({i + 1: 1}), c) for i, c in enumerate(coeffs) if c]
        forms.append(FieldPolynomial.make(fld, pairs))
    forms.sort(key=FieldPolynomial.sort_key)
    return forms


def linear_substitutions(f: PolySet, window: int, cap: int = DEFAULT_POLY_CAP) -> PolySet:
    """All members of f with variables replaced by linear forms in x1..x_window.

    The forms have prime-subfield coefficients and include 0, so the result
    contains every plain restriction of a member of f to the window.
    """
    forms = _linear_forms(f.field, window)
    out: set[FieldPolynomial] = set()
    budget = cap
    for g in f.sorted():
        supp = g.support
        for choice in itertools.product(forms, repeat=len(supp)):
            if budget <= 0:
                raise CapExceeded(f"linear substitution set exceeded cap {cap}")
            budget -= 1
            out.add(g.substitute(dict(zip(supp, choice))))
    return PolySet(f.field, frozenset(out), _tagjoin(f.tag, "@", "lin"))


def homovariate_component(p: FieldPolynomial, variables: Iterable[int]) -> FieldPolynomial:
    """The part of p whose monomials mention exactly the given variables."""
    want = frozenset(variables)
    return FieldPolynomial.make(
        p.field, [(m, c) for m, c in p.terms if m.variables == want]
    )


def is_homovariate(p: FieldPolynomial) -> bool:
    sets = {m.variables for m, _ in p.terms}
    return len(sets) <= 1


def homovariate_parts(p: FieldPolynomial) -> PolySet:
    """The homovariate components of p, together with 0."""
    groups: dict[frozenset[int], list[tuple[Monomial, int]]] = {}
    for m, c in p.terms:
        groups.setdefault(m.variables, []).append((m, c))
    parts = {FieldPolynomial.make(p.field, pairs) for pairs in groups.values()}
    parts.add(FieldPolynomial.zero(p.field))
    return PolySet(p.field, frozenset(parts), "hoc")


def homovariate_parts_of_set(f: PolySet) -> PolySet:
    """Union of the homovariate components of all members; empty for empty f."""
    out: set[FieldPolynomial] = set()
    for p in f.sorted():
        out |= homovariate_parts(p).elements
    return PolySet(f.field, frozenset(out), _tagjoin("hoc", "@", f.tag))


@dataclass
class PolyClosure:
    """Result of a bounded closure under substitution within a window."""

    polys: PolySet
    depths: dict[FieldPolynomial, int]
    capped: bool
    window: int

    def depth_of(self, p: FieldPolynomial) -> int:
        return self.depths[p]

    def __len__(self) -> int:
        return len(self.polys)


def substitution_closure(
    generators: PolySet,
    window: int,
    depth_cap: int | None = None,
    size_cap: int = 4096,
) -> PolyClosure:
    """Close the window variables under substitution into the generators.

    Layer 0 holds x1..x_window; layer d+1 adds every substitution of layer
    members into a generator that uses at least one polynomial first seen in
    layer d.  The recorded depth of a polynomial is the layer where it first
    appears.  Stops early at depth_cap or size_cap and marks the result
    capped when a fixed point was not certified.
    """
    fld = generators.field
    depths: dict[FieldPolynomial, int] = {}
    for i in range(1, window + 1):
        depths[FieldPolynomial.variable(fld, i)] = 0
    if not generators.elements:
        return PolyClosure(PolySet(fld, frozenset(depths), "clop"), depths, False, window)
    capped = False
    depth = 0
    lo = 0  # depths lists the polynomials of the last layer from lo on
    while lo < len(depths):
        depth += 1
        if depth_cap is not None and depth > depth_cap:
            capped = True
            break
        known = list(depths)
        fresh: dict[FieldPolynomial, int] = {}
        hit_size_cap = False
        for g in generators.sorted():
            supp = g.support
            # a generator without variables is substituted in every layer
            for pos in fresh_tuples(lo, len(known), len(supp)) if supp else [()]:
                result = g.substitute({v: known[i] for v, i in zip(supp, pos)})
                if result in depths or result in fresh:
                    continue
                if len(depths) + len(fresh) >= size_cap:
                    hit_size_cap = True
                    break
                fresh[result] = depth
            if hit_size_cap:
                break
        lo = len(depths)
        depths.update(fresh)
        if hit_size_cap:
            capped = True
            break
    return PolyClosure(PolySet(fld, frozenset(depths), "clop"), depths, capped, window)


def homovariate_generators(
    f: PolySet, window: int, span_cap: int = DEFAULT_POLY_CAP
) -> PolySet:
    """Homovariate generators equivalent to f once x+y, -x, 0 are adjoined.

    Substitutes linear forms in x1..x_window into f, closes additively, and
    splits into homovariate components.  Requires every generator degree to
    fit in the window; the output then keeps the same degree bound.
    """
    return _span_and_generators(f, window, span_cap)[1]


def _span_and_generators(f: PolySet, window: int, span_cap: int) -> tuple[PolySet, PolySet]:
    """The additive span of the linear substitutions of f into the window,
    and the homovariate generators split from it."""
    if not f.elements:
        return additive_span(f, window), PolySet(f.field, frozenset(), "H")
    for g in f.sorted():
        if g.total_degree > window:
            raise ValueError(
                f"generator degree {g.total_degree} exceeds the window bound {window}"
            )
    spanned = additive_span(linear_substitutions(f, window), window, cap=span_cap)
    out = homovariate_parts_of_set(spanned)
    for h in out.sorted():
        if h.total_degree > window:
            raise RuntimeError("homovariate generator escaped the degree bound")
    return spanned, out.retagged("H")


# -- induced functions ---------------------------------------------------


def induced_function(p: FieldPolynomial, arity: int) -> FiniteFunction:
    """Evaluate p as a function of (x1, ..., x_arity) over its field."""
    if p.max_variable > arity:
        raise ValueError(
            f"polynomial mentions x{p.max_variable}, beyond the requested arity {arity}"
        )
    fld = p.field
    q = fld.order
    if q > 255:
        raise ValueError("field order too large for table-backed functions")
    n = q**arity
    var_digits = cell_digits(q, arity)
    values = np.zeros(n, dtype=np.int64)
    for mono, coeff in p.terms:
        term = np.full(n, coeff, dtype=np.int64)
        for var, exp in mono.powers:
            term = fld.mul_table[term, fld.power_array(var_digits[var - 1], exp)]
        values = fld.add_table[values, term]
    return FiniteFunction(arity, q, values.astype(np.uint8).tobytes())


@lru_cache(maxsize=16)
def _vandermonde_inverse(fld: FiniteField) -> np.ndarray:
    q = fld.order
    a = np.zeros((q, 2 * q), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            a[i, j] = fld.power(i, j)
        a[i, q + i] = 1
    for col in range(q):
        pivot = next(r for r in range(col, q) if a[r, col])
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
        inv = fld.invert(int(a[col, col]))
        a[col] = fld.mul_table[a[col], inv]
        for r in range(q):
            if r != col and a[r, col]:
                factor = fld.negate(int(a[r, col]))
                a[r] = fld.add_table[a[r], fld.mul_table[a[col], factor]]
    return a[:, q:]


def interpolate(func: FiniteFunction, fld: FiniteField) -> FieldPolynomial:
    """The unique polynomial with per-variable degree below the field order
    that induces func.  The function's carrier size must equal the order."""
    if func.size != fld.order:
        raise ValueError(
            f"function over a {func.size}-element set cannot be interpolated over GF({fld.order})"
        )
    q = fld.order
    m = func.arity
    w = _vandermonde_inverse(fld)
    coeffs = func.as_array().astype(np.int64).reshape((q,) * m)
    for axis in range(m):
        moved = np.moveaxis(coeffs, axis, 0)
        new = np.zeros_like(moved)
        for j in range(q):
            row = np.zeros_like(moved[0])
            for i in range(q):
                wji = int(w[j, i])
                if wji:
                    row = fld.add_table[row, fld.mul_table[wji, moved[i]]]
            new[j] = row
        coeffs = np.moveaxis(new, 0, axis)
    pairs = []
    for exps, c in zip(cell_digits(q, m).T.tolist(), coeffs.reshape(-1).tolist()):
        if c:
            pairs.append((Monomial.make({i + 1: e for i, e in enumerate(exps) if e}), c))
    return FieldPolynomial.make(fld, pairs)


def reduce_exponents(p: FieldPolynomial) -> FieldPolynomial:
    """Fold exponents with the function-preserving rule x^q = x.

    Each exponent e >= 1 becomes ((e - 1) mod (q - 1)) + 1 with q the field
    order, which never changes the induced function.
    """
    q = p.field.order
    pairs = []
    for mono, coeff in p.terms:
        folded = Monomial.make({v: ((e - 1) % (q - 1)) + 1 for v, e in mono.powers})
        pairs.append((folded, coeff))
    return FieldPolynomial.make(p.field, pairs)


def top_homovariate_of_absorbing(p: FieldPolynomial, arity: int) -> FieldPolynomial:
    """For p inducing a function that vanishes whenever an argument is 0,
    the component on all of x1..x_arity, which induces the same function."""
    func = induced_function(p, arity)
    touching_zero = (cell_digits(p.field.order, arity) == 0).any(axis=0)
    if np.any(func.as_array()[touching_zero] != 0):
        raise ValueError("induced function is not absorbing at 0")
    top = homovariate_component(p, range(1, arity + 1))
    if induced_function(top, arity) != func:
        raise RuntimeError("top homovariate component failed to match the function")
    return top


# -- functional comparison of generated clones ----------------------------


@dataclass
class ArityComparison:
    arity: int
    sums_rank: int
    clone_rank: int
    clone_size: int | None
    equal: bool
    conclusive: bool


@dataclass
class SplitCheck:
    """Outcome of comparing sums of compositions of H with the clone of F."""

    window: int
    generators: PolySet
    homovariate: PolySet
    membership_ok: bool
    arities: list[ArityComparison] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.membership_ok and all(a.equal and a.conclusive for a in self.arities)


def _digit_vector(fld: FiniteField, table: np.ndarray) -> np.ndarray:
    return fld.coordinates(table.astype(np.int64)).reshape(-1)


def _ops_from_polys(
    fld: FiniteField, polys: Iterable[FieldPolynomial], with_group: bool
) -> "FiniteAlgebra":
    from .algebra import FiniteAlgebra, Operation

    ops = []
    seen = set()
    for k, p in enumerate(sorted(polys, key=FieldPolynomial.sort_key)):
        arity = p.max_variable
        func = induced_function(p, arity)
        key = (arity, func.values)
        if key in seen:
            continue
        seen.add(key)
        ops.append(Operation(f"g{k}", arity, tuple(int(v) for v in func.as_array())))
    if with_group:
        ops.append(
            Operation("+", 2, tuple(int(v) for v in fld.add_table.reshape(-1)))
        )
        ops.append(Operation("neg", 1, tuple(int(v) for v in fld.neg_table)))
        ops.append(Operation("zero", 0, (0,)))
    return FiniteAlgebra(f"carrier{fld.order}", fld.order, tuple(ops))


def verify_homovariate_split(
    f: PolySet,
    window: int | None = None,
    max_arity: int = 3,
    closure_cap: int = 1 << 16,
) -> SplitCheck:
    """Certify that sums of compositions of the derived homovariate set H
    induce the same functions as compositions of f with x+y, -x, 0 adjoined.

    Both sides are compared arity by arity through prime-subfield ranks:
    the right side is the clone of f plus the group structure (a subspace,
    since addition is in the signature), the left side is the span of the
    clone of H.  The left side always sits inside the right side once every
    member of H reduces to 0 against the right echelon, so rank equality
    certifies set equality even when closures were cut off early.
    """
    fld = f.field
    if window is None:
        window = max(1, max((p.total_degree for p in f.sorted()), default=1))
    spanned, h = _span_and_generators(f, window, DEFAULT_POLY_CAP)
    membership_ok = all(p in spanned for p in h.sorted())

    alg_f = _ops_from_polys(fld, f.sorted(), with_group=True)
    alg_h = _ops_from_polys(fld, h.sorted(), with_group=False)
    check = SplitCheck(window, f, h, membership_ok)
    p = fld.characteristic
    for arity in range(1, max_arity + 1):
        rhs = term_functions(alg_f, arity, cap=closure_cap)
        rhs_span = PrimeSpan(p)
        if rhs.span is not None:
            basis = rhs.generator_tables
            rhs_conclusive = rhs.exact
        else:
            basis = rhs.tables
            rhs_conclusive = not rhs.capped
        for row in basis:
            rhs_span.add(_digit_vector(fld, row))
        lhs = term_functions(alg_h, arity, cap=closure_cap)
        lhs_span = PrimeSpan(p)
        inside = True
        for row in lhs.tables:
            vec = _digit_vector(fld, row)
            if not rhs_span.contains(vec):
                inside = False
            lhs_span.add(vec)
        equal = inside and lhs_span.rank == rhs_span.rank
        # a saturated left rank certifies equality even if the closure was cut
        conclusive = rhs_conclusive and (not lhs.capped or equal)
        size = p**rhs_span.rank if rhs_conclusive else None
        check.arities.append(
            ArityComparison(arity, lhs_span.rank, rhs_span.rank, size, equal, conclusive)
        )
    return check
