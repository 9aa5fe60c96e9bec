"""Small finite fields, and the group and F_p-linear helpers they rest on.

Elements are labelled 0..q-1.  A label is read as the base-p digit
vector of the element over the prime subfield, so addition is always
digit-wise modulo p, 0 is the additive identity, and 1 is the
multiplicative identity.  Prime fields use plain modular arithmetic;
the orders 4, 8 and 9 are built from fixed irreducible polynomials.
Every constructed field re-verifies the full set of field axioms
exhaustively on its finished tables.

The rest of the package shares the group and F_p-linear helpers kept
here: primality, element orders and abelian-group detection on Cayley
tables, F_p coordinates of an elementary abelian p-group, and an
incremental echelon form over GF(p).  This module imports nothing from
the rest of the package, so any module can use them.
"""
from __future__ import annotations

from math import comb, isqrt, lcm

import numpy as np

# lower coefficients c_0..c_{e-1} of a monic irreducible, read as t^e = -(c_0 + c_1 t + ...)
_REDUCTIONS = {
    4: (2, (1, 1)),   # x^2 + x + 1 over F2
    8: (2, (1, 1, 0)),  # x^3 + x + 1 over F2
    9: (3, (1, 0)),   # x^2 + 1 over F3
}


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, isqrt(n) + 1))


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with p prime and p**e == n, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            m, e = n, 0
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
        p += 1
    return (n, 1)


def element_orders(plus: np.ndarray, zero: int) -> list[int]:
    """Order of each element of a group given by its Cayley table.

    An element order never exceeds the group order, so an element whose
    multiples do not reach zero by then shows the table is not a group.
    """
    size = plus.shape[0]
    orders = []
    for a in range(size):
        n, x = 1, a
        while x != zero:
            if n >= size:
                raise ValueError(f"the multiples of {a} never reach {zero}: not a group")
            x = int(plus[x, a])
            n += 1
        orders.append(n)
    return orders


def abelian_group_info(tab: np.ndarray) -> tuple[int, np.ndarray, int] | None:
    """(identity, negation table, exponent) when tab is the Cayley table of
    an abelian group, else None."""
    size = tab.shape[0]
    if not np.array_equal(tab, tab.T):
        return None
    ident = None
    for e in range(size):
        if np.array_equal(tab[e], np.arange(size, dtype=tab.dtype)):
            ident = e
            break
    if ident is None:
        return None
    left = tab[tab.reshape(-1), :].reshape(size, size, size)
    right = tab[:, tab.reshape(-1)].reshape(size, size, size)
    if not np.array_equal(left, right):
        return None
    neg = np.full(size, -1, dtype=np.int64)
    for a in range(size):
        hits = np.nonzero(tab[a] == ident)[0]
        if len(hits) == 0:
            return None
        neg[a] = hits[0]
    return ident, neg, lcm(*element_orders(tab, ident))


def group_coordinates(plus: np.ndarray, zero: int, p: int) -> np.ndarray:
    """F_p coordinates of an elementary abelian p-group over a greedy basis.

    Each element, in label order, that the basis so far does not reach
    becomes the next basis vector; row a of the (size, dim) result holds
    the digits of a over that basis.
    """
    size = plus.shape[0]
    coords: dict[int, tuple[int, ...]] = {zero: ()}
    for a in range(size):
        if a in coords:
            continue
        snapshot = list(coords.items())
        coords = {}
        for elem, vec in snapshot:
            coords[elem] = vec + (0,)
            x = elem
            for j in range(1, p):
                x = int(plus[x, a])
                coords[x] = vec + (j,)
    dim = len(coords[zero])
    if len(coords) != size or p**dim != size:
        raise ValueError("designated addition does not span the carrier")
    out = np.zeros((size, dim), dtype=np.int64)
    for elem, vec in coords.items():
        out[elem] = vec
    if not np.array_equal(out[plus], (out[:, None] + out[None, :]) % p):
        raise ValueError(f"designated addition is not an elementary abelian {p}-group")
    return out


def coordinate_labels(coords: np.ndarray, p: int) -> np.ndarray:
    """The inverse of coords: entry sum_j v_j * p**j is the element whose
    coordinates are v."""
    size, dim = coords.shape
    labels = np.empty(size, dtype=np.int64)
    labels[coords @ p ** np.arange(dim)] = np.arange(size)
    return labels


def newton_weights(p: int) -> np.ndarray:
    """The (p, p) matrix of forward differences: Delta^j f(0) is the sum
    over i of entry (j, i), (-1)^(j-i) binom(j, i) for i <= j, times f(i)."""
    newton = np.zeros((p, p), dtype=np.int64)
    for j in range(p):
        for i in range(j + 1):
            newton[j, i] = (-1) ** (j - i) * comb(j, i)
    return newton


def polynomial_degree(table: np.ndarray, arity: int, coords: np.ndarray, p: int) -> int:
    """Degree of a flat arity-ary table over an elementary abelian p-group.

    coords are the group's F_p coordinates (group_coordinates).  Read in
    them, the table is a map F_p^(arity*dim) -> F_p^dim, and Newton's
    forward-difference (Moebius) transform along each coordinate gives its
    coefficients Delta^e g(0), e in {0..p-1}^(arity*dim).  The degree is the
    largest |e| with a nonzero coefficient, 0 for a constant: the least D
    for which every (D+1)-fold difference of g vanishes.
    """
    size, dim = coords.shape
    by_code = coordinate_labels(coords, p)
    # cell c of the grid holds g at the elements whose codes are c's digits
    flat = np.zeros(size**arity, dtype=np.int64)
    for codes in np.indices((size,) * arity).reshape(arity, size**arity):
        flat = flat * size + by_code[codes]
    grid = coords[np.asarray(table, dtype=np.int64)[flat]].reshape((p,) * (arity * dim) + (dim,))
    newton = newton_weights(p)
    for axis in range(arity * dim):
        grid = np.moveaxis(np.tensordot(newton, grid, axes=([1], [axis])) % p, 0, axis)
    exps = np.indices(grid.shape[:-1]).sum(axis=0)
    return int(exps[grid.any(axis=-1)].max(initial=0))


class PrimeSpan:
    """Incremental semi-echelon form over GF(p).

    Each stored row is reduced against the rows before it and scaled to a
    leading 1 at its pivot, so reducing a vector row by row in insertion
    order clears every pivot; earlier rows are never back-substituted.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        v = vec % self.p
        for row, piv in zip(self.rows, self.pivots):
            c = int(v[piv])
            if c:
                v = (v - c * row) % self.p
        return v

    def add(self, vec: np.ndarray) -> bool:
        """Insert the vector; True when it enlarged the span."""
        v = self.reduce(vec)
        nz = np.nonzero(v)[0]
        if not len(nz):
            return False
        piv = int(nz[0])
        self.rows.append((v * pow(int(v[piv]), -1, self.p)) % self.p)
        self.pivots.append(piv)
        return True

    def contains(self, vec: np.ndarray) -> bool:
        return not np.any(self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)


class FiniteField:
    """GF(q) given by full addition and multiplication tables."""

    def __init__(self, order: int, characteristic: int, add: np.ndarray, mul: np.ndarray):
        self.order = order
        self.characteristic = characteristic
        self.degree = 1
        while characteristic**self.degree < order:
            self.degree += 1
        self.add_table = np.asarray(add, dtype=np.int64)
        self.mul_table = np.asarray(mul, dtype=np.int64)
        self._verify_axioms()
        self.neg_table = np.array(
            [int(np.nonzero(self.add_table[a] == 0)[0][0]) for a in range(order)],
            dtype=np.int64,
        )
        inv = np.zeros(order, dtype=np.int64)
        for a in range(1, order):
            inv[a] = int(np.nonzero(self.mul_table[a] == 1)[0][0])
        self.inv_table = inv
        self._coords = group_coordinates(self.add_table, 0, characteristic)
        self._hash = hash((order, self.add_table.tobytes(), self.mul_table.tobytes()))

    def _verify_axioms(self) -> None:
        q = self.order
        if q < 2:
            raise ValueError("a field needs at least the two identities")
        idx = np.arange(q, dtype=np.int64)
        for label, tab in (("addition", self.add_table), ("multiplication", self.mul_table)):
            if tab.shape != (q, q) or tab.min() < 0 or tab.max() >= q:
                raise ValueError(f"{label} table is not a {q}x{q} table over 0..{q - 1}")
            if not np.array_equal(tab, tab.T):
                raise ValueError(f"{label} is not commutative")
            left = tab[tab.reshape(-1), :].reshape(q, q, q)
            right = tab[:, tab.reshape(-1)].reshape(q, q, q)
            if not np.array_equal(left, right):
                raise ValueError(f"{label} is not associative")
        if not np.array_equal(self.add_table[0], idx):
            raise ValueError("0 is not the additive identity")
        if not np.array_equal(self.mul_table[1], idx):
            raise ValueError("1 is not the multiplicative identity")
        if not all(0 in self.add_table[a] for a in range(q)):
            raise ValueError("some element has no additive inverse")
        if not all(1 in self.mul_table[a] for a in range(1, q)):
            raise ValueError("some nonzero element has no multiplicative inverse")
        lhs = self.mul_table[:, self.add_table.reshape(-1)].reshape(q, q, q)
        ab = self.mul_table[idx[:, None, None], idx[None, :, None]]
        ac = self.mul_table[idx[:, None, None], idx[None, None, :]]
        if not np.array_equal(lhs, self.add_table[ab, ac]):
            raise ValueError("distributivity fails")

    # -- element arithmetic ------------------------------------------------

    def plus(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def times(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def negate(self, a: int) -> int:
        return int(self.neg_table[a])

    def minus(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def invert(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def power(self, a: int, e: int) -> int:
        if e < 0:
            return self.power(self.invert(a), -e)
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.times(out, base)
            base = self.times(base, base)
            e >>= 1
        return out

    def scalar(self, n: int) -> int:
        """The image of the integer n in the prime subfield."""
        return n % self.characteristic

    def elements(self) -> range:
        return range(self.order)

    def coordinates(self, labels: np.ndarray) -> np.ndarray:
        """Base-p digits of labels: the prime-subfield coordinates."""
        return self._coords[np.asarray(labels, dtype=np.int64)]

    def power_array(self, arr: np.ndarray, e: int) -> np.ndarray:
        out = np.ones_like(arr)
        base = arr
        while e:
            if e & 1:
                out = self.mul_table[out, base]
            base = self.mul_table[base, base]
            e >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, FiniteField)
            and self.order == other.order
            and np.array_equal(self.add_table, other.add_table)
            and np.array_equal(self.mul_table, other.mul_table)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteField(order={self.order}, characteristic={self.characteristic})"


def _prime_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(p, dtype=np.int64)
    return (idx[:, None] + idx[None, :]) % p, (idx[:, None] * idx[None, :]) % p


def _extension_tables(p: int, low: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    e = len(low)
    q = p**e

    def digits(a: int) -> list[int]:
        return [(a // p**i) % p for i in range(e)]

    def label(coeffs: list[int]) -> int:
        return sum(c * p**i for i, c in enumerate(coeffs))

    def reduce(coeffs: list[int]) -> list[int]:
        out = list(coeffs) + [0] * (2 * e - 1 - len(coeffs))
        for d in range(2 * e - 2, e - 1, -1):
            c = out[d] % p
            if c:
                out[d] = 0
                for j, lo in enumerate(low):
                    out[d - e + j] = (out[d - e + j] - c * lo) % p
        return [c % p for c in out[:e]]

    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        da = digits(a)
        for b in range(q):
            db = digits(b)
            add[a, b] = label([(x + y) % p for x, y in zip(da, db)])
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
            mul[a, b] = label(reduce(prod))
    return add, mul


_CACHE: dict[int, FiniteField] = {}


def finite_field(order: int) -> FiniteField:
    """GF(order) for a prime order or one of the orders 4, 8, 9."""
    if order in _CACHE:
        return _CACHE[order]
    if is_prime(order):
        add, mul = _prime_tables(order)
        fld = FiniteField(order, order, add, mul)
    elif order in _REDUCTIONS:
        p, low = _REDUCTIONS[order]
        add, mul = _extension_tables(p, low)
        fld = FiniteField(order, p, add, mul)
    else:
        raise ValueError(
            f"unsupported field order {order}; primes and the orders 4, 8, 9 are available"
        )
    _CACHE[order] = fld
    return fld
