"""Finite algebras as operation tables, with 0-based element indices.

An algebra is a finite universe {0, ..., size-1} together with named
operations given by flat lookup tables.  Tables are row-major with the
leftmost argument most significant: the value of f(a_1, ..., a_n) sits at
index sum(a_j * size**(n-j)).  This module is the one home of that layout:
flat_index and unflatten_index convert single cells, cell_digits lists the
arguments of every cell, and compose applies a table to whole arrays of
arguments.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


class AlgebraFormatError(ValueError):
    """Raised when an algebra document is malformed."""


class CapExceeded(RuntimeError):
    """Raised when a bounded search runs out of budget without an answer."""


def flat_index(args: Sequence[int], size: int) -> int:
    idx = 0
    for a in args:
        idx = idx * size + a
    return idx


def unflatten_index(idx: int, size: int, arity: int) -> tuple[int, ...]:
    out = []
    for _ in range(arity):
        out.append(idx % size)
        idx //= size
    return tuple(reversed(out))


def cell_digits(size: int, arity: int) -> np.ndarray:
    """The (arity, size**arity) int64 array whose column c holds the
    arguments of cell c of an arity-ary table, in table order."""
    return np.indices((size,) * arity, dtype=np.int64).reshape(arity, size**arity)


def compose(table: np.ndarray, size: int, args: Iterable) -> np.ndarray:
    """The flat k-ary table applied entrywise to k broadcastable arrays.

    args is read one array at a time, so it may be a generator; the result
    has the broadcast shape of the arguments and the table's dtype, so
    callers doing arithmetic on a uint8 table's result must cast it first.
    """
    idx = np.int64(0)
    for a in args:
        shape = np.shape(a)
        # accumulate in place when a matches trailing axes of idx, so that
        # only one index array is alive at a time
        if len(shape) <= idx.ndim and idx.shape[idx.ndim - len(shape) :] == shape:
            idx *= size
            idx += a
        else:
            idx = idx * size + a
    return table.reshape(-1)[idx]


@dataclass(frozen=True)
class Operation:
    name: str
    arity: int
    table: tuple[int, ...]


class FiniteAlgebra:
    """A finite algebra: named universe size plus a tuple of operations.

    The operations are fixed at construction, so results memoized per
    algebra in closure_cache cannot go stale.
    """

    def __init__(self, name: str, size: int, operations: Sequence[Operation]):
        if size < 1:
            raise AlgebraFormatError(f"size must be >= 1, got {size}")
        if size > 255:
            raise AlgebraFormatError(f"size {size} exceeds the supported maximum of 255")
        self.name = name
        self.size = size
        self._operations = tuple(operations)
        self._by_name: dict[str, Operation] = {}
        for op in self._operations:
            if op.name in self._by_name:
                raise AlgebraFormatError(f"duplicate operation name {op.name!r}")
            expected = size**op.arity
            if len(op.table) != expected:
                raise AlgebraFormatError(
                    f"operation {op.name!r}: table has {len(op.table)} entries, expected {expected}"
                )
            for i, v in enumerate(op.table):
                if not (0 <= v < size):
                    raise AlgebraFormatError(
                        f"operation {op.name!r}: entry {i} is {v}, outside 0..{size - 1}"
                    )
            self._by_name[op.name] = op
        # numpy views of the tables, used throughout the closure machinery
        self._arrays = {op.name: np.asarray(op.table, dtype=np.uint8) for op in self._operations}
        # closures keyed by their parameters, filled by finalg.clones
        self.closure_cache: dict[tuple, object] = {}

    @property
    def operations(self) -> tuple[Operation, ...]:
        return self._operations

    def operation(self, name: str) -> Operation:
        try:
            return self._by_name[name]
        except KeyError:
            raise AlgebraFormatError(f"unknown operation {name!r}") from None

    def op_array(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def has_operation(self, name: str) -> bool:
        return name in self._by_name

    @property
    def max_arity(self) -> int:
        return max((op.arity for op in self.operations), default=0)

    def elements(self) -> range:
        return range(self.size)

    def apply(self, name: str, args: Sequence[int]) -> int:
        op = self.operation(name)
        if len(args) != op.arity:
            raise AlgebraFormatError(
                f"operation {name!r} has arity {op.arity}, got {len(args)} arguments"
            )
        return op.table[flat_index(args, self.size)]

    def with_operations(self, extra: Sequence[Operation], name: str | None = None) -> "FiniteAlgebra":
        return FiniteAlgebra(name or self.name, self.size, self._operations + tuple(extra))

    def reduct(self, names: Iterable[str], name: str | None = None) -> "FiniteAlgebra":
        ops = [self.operation(n) for n in names]
        return FiniteAlgebra(name or f"{self.name}-reduct", self.size, ops)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "operations": [
                {"name": op.name, "arity": op.arity, "table": list(op.table)}
                for op in self.operations
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def __repr__(self) -> str:
        sig = ", ".join(f"{op.name}/{op.arity}" for op in self.operations)
        return f"FiniteAlgebra({self.name!r}, size={self.size}, ops=[{sig}])"


def parse_algebra(source: str | Mapping) -> FiniteAlgebra:
    """Parse the JSON algebra document format.

    Expected shape: {"name": str, "size": int, "operations": [
        {"name": str, "arity": int, "table": [int, ...]}, ...]}
    """
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise AlgebraFormatError(f"invalid JSON: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, Mapping):
        raise AlgebraFormatError("top-level document must be an object")
    for key in ("name", "size", "operations"):
        if key not in doc:
            raise AlgebraFormatError(f"missing required key {key!r}")
    name = doc["name"]
    size = doc["size"]
    if not isinstance(name, str):
        raise AlgebraFormatError("'name' must be a string")
    if not isinstance(size, int) or isinstance(size, bool):
        raise AlgebraFormatError("'size' must be an integer")
    ops = []
    raw_ops = doc["operations"]
    if not isinstance(raw_ops, list):
        raise AlgebraFormatError("'operations' must be a list")
    for i, raw in enumerate(raw_ops):
        if not isinstance(raw, Mapping):
            raise AlgebraFormatError(f"operation {i}: must be an object")
        for key in ("name", "arity", "table"):
            if key not in raw:
                raise AlgebraFormatError(f"operation {i}: missing key {key!r}")
        arity = raw["arity"]
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
            raise AlgebraFormatError(f"operation {raw['name']!r}: arity must be a non-negative integer")
        table = raw["table"]
        if not isinstance(table, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in table
        ):
            raise AlgebraFormatError(f"operation {raw['name']!r}: table must be a list of integers")
        ops.append(Operation(raw["name"], arity, tuple(table)))
    return FiniteAlgebra(name, size, ops)


# ---------------------------------------------------------------------------
# Terms


class Term:
    """Syntax tree over an algebra's operation symbols.

    Nodes are variables (Var), operation applications (App), or element
    literals (Const).  Literals only appear in witnesses produced from
    polynomial closures, where constants are not part of the signature.
    """

    __slots__ = ()

    def to_sexpr(self) -> str:
        raise NotImplementedError

    def depth(self) -> int:
        raise NotImplementedError

    def variables(self) -> tuple[int, ...]:
        """Sorted distinct variable indices occurring in the term."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.to_sexpr()


@dataclass(frozen=True, repr=False)
class Var(Term):
    index: int

    def to_sexpr(self) -> str:
        return f"x{self.index}"

    def depth(self) -> int:
        return 0

    def variables(self) -> tuple[int, ...]:
        return (self.index,)


@dataclass(frozen=True, repr=False)
class App(Term):
    symbol: str
    args: tuple[Term, ...]

    def to_sexpr(self) -> str:
        if not self.args:
            return f"({self.symbol})"
        inner = " ".join(a.to_sexpr() for a in self.args)
        return f"({self.symbol} {inner})"

    def depth(self) -> int:
        return 1 + max((a.depth() for a in self.args), default=0)

    def variables(self) -> tuple[int, ...]:
        out: set[int] = set()
        for a in self.args:
            out.update(a.variables())
        return tuple(sorted(out))


@dataclass(frozen=True, repr=False)
class Const(Term):
    value: int

    def to_sexpr(self) -> str:
        return f"#{self.value}"

    def depth(self) -> int:
        return 0

    def variables(self) -> tuple[int, ...]:
        return ()


def eval_term(algebra: FiniteAlgebra, term: Term, args: Sequence[int]) -> int:
    """Evaluate a term at a point of the algebra."""
    if isinstance(term, Var):
        if term.index >= len(args):
            raise AlgebraFormatError(
                f"term uses variable x{term.index} but only {len(args)} arguments were given"
            )
        return args[term.index]
    if isinstance(term, Const):
        if not (0 <= term.value < algebra.size):
            raise AlgebraFormatError(f"literal {term.value} outside the universe")
        return term.value
    if isinstance(term, App):
        vals = [eval_term(algebra, a, args) for a in term.args]
        return algebra.apply(term.symbol, vals)
    raise TypeError(f"not a term: {term!r}")


def term_table(algebra: FiniteAlgebra, term: Term, arity: int) -> "FiniteFunction":
    """Tabulate a term as a function of the given arity."""
    size = algebra.size
    vals = bytearray(size**arity)
    for idx in range(size**arity):
        vals[idx] = eval_term(algebra, term, unflatten_index(idx, size, arity))
    return FiniteFunction(arity, size, bytes(vals))


# ---------------------------------------------------------------------------
# Finitary functions


@dataclass(frozen=True)
class FiniteFunction:
    """A function {0..size-1}^arity -> {0..size-1}, stored as a flat table."""

    arity: int
    size: int
    values: bytes

    def __post_init__(self):
        if len(self.values) != self.size**self.arity:
            raise AlgebraFormatError(
                f"function table has {len(self.values)} entries, expected {self.size ** self.arity}"
            )

    @classmethod
    def from_values(cls, arity: int, size: int, values: Iterable[int]) -> "FiniteFunction":
        return cls(arity, size, bytes(values))

    def __call__(self, args: Sequence[int]) -> int:
        return self.values[flat_index(args, self.size)]

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.values, dtype=np.uint8)

    def as_grid(self) -> np.ndarray:
        return self.as_array().reshape((self.size,) * self.arity)

    def graph(self) -> Iterator[tuple[tuple[int, ...], int]]:
        for idx, v in enumerate(self.values):
            yield unflatten_index(idx, self.size, self.arity), v


def projection(arity: int, size: int, index: int) -> FiniteFunction:
    return FiniteFunction(arity, size, cell_digits(size, arity)[index].astype(np.uint8).tobytes())


def constant_function(arity: int, size: int, value: int) -> FiniteFunction:
    return FiniteFunction(arity, size, bytes([value]) * (size**arity))


def essential_arity(f: FiniteFunction) -> int:
    """Number of argument positions the function actually depends on."""
    return len(depends_on(f))


def depends_on(f: FiniteFunction) -> tuple[int, ...]:
    """Indices of the essential argument positions."""
    grid = f.as_grid()
    out = []
    for axis in range(f.arity):
        first = np.take(grid, [0], axis=axis)
        if not np.array_equal(np.broadcast_to(first, grid.shape), grid):
            out.append(axis)
    return tuple(out)


def cylindrify(f: FiniteFunction, arity: int, positions: Sequence[int] | None = None) -> FiniteFunction:
    """Embed f into a larger arity, reading its arguments at the given positions.

    With positions omitted, the first f.arity slots are used.
    """
    if positions is None:
        positions = list(range(f.arity))
    if len(positions) != f.arity:
        raise AlgebraFormatError("positions must match the function arity")
    if arity < f.arity or any(not 0 <= p < arity for p in positions):
        raise AlgebraFormatError("invalid cylindrification target")
    digits = cell_digits(f.size, arity)
    full = compose(f.as_array(), f.size, (digits[pos] for pos in positions))
    return FiniteFunction(arity, f.size, np.broadcast_to(full, digits.shape[1:]).tobytes())
