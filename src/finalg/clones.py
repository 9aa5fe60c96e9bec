"""Clones of term and polynomial functions on a finite algebra.

Two closure strategies share one result type:

* an explicit breadth-first closure over composition in a fixed order:
  the seeds, then round by round, operation by operation, the operand
  tuples that use a row new in the previous round, lexicographically
  (fresh_boxes enumerates them), so the first witness of any property
  is reproducible and terms come out at minimal depth.  Two shortcuts
  leave that order and every row and recipe unchanged: a binary
  operation with a symmetric table skips the pairs (a, b) with b < a of
  fresh first operands, whose rows repeat the earlier (b, a); and each
  table lookup composes 1, 2 or 4 adjacent coordinates of the operand
  rows at once, through a table on lane codes (lane_codes, packed_table);

* a span strategy for algebras all of whose operations are multilinear
  over a designated abelian group operation (detected by table checks).
  There the closure is the subgroup generated by finitely many
  independent generators, and compositions only ever need to run over
  generator tuples: f(sum n_i g_i, sum m_j h_j) expands by
  multilinearity into a combination of the f(g_i, h_j).  This makes
  closures with tens of thousands of members exact and cheap.  For a
  prime exponent, membership is rank over F_p: the group detection,
  coordinates and echelon form come from finalg.fields.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .algebra import App, Const, FiniteAlgebra, FiniteFunction, Term, Var, cell_digits, compose
from .fields import PrimeSpan, abelian_group_info, group_coordinates, is_prime

DEFAULT_CAP = 1 << 20
BATCH_ENTRIES = 4_000_000  # table entries composed in one numpy step
LUT_ENTRIES = 1 << 16  # entries of the largest packed table

Recipe = tuple


@dataclass
class SpanStructure:
    """An abelian group operation under which every other op is multilinear."""

    plus_name: str
    plus: np.ndarray  # (size, size)
    zero: int
    neg: np.ndarray  # (size,)
    exponent: int

    @property
    def prime(self) -> bool:
        return is_prime(self.exponent)


def _is_multilinear(grid: np.ndarray, plus: np.ndarray) -> bool:
    size = plus.shape[0]
    for j in range(grid.ndim):
        lhs = np.take(grid, plus.reshape(-1), axis=j)
        shape = grid.shape[:j] + (size, size) + grid.shape[j + 1 :]
        lhs = lhs.reshape(shape)
        a = np.expand_dims(grid, axis=j + 1)
        b = np.expand_dims(grid, axis=j)
        if not np.array_equal(lhs, plus[a, b]):
            return False
    return True


def additive_structure(algebra: FiniteAlgebra) -> SpanStructure | None:
    """Detect a group operation making the whole signature multilinear."""
    for op in algebra.operations:
        if op.arity != 2:
            continue
        tab = algebra.op_array(op.name).reshape(algebra.size, algebra.size)
        info = abelian_group_info(tab)
        if info is None:
            continue
        zero, neg, exponent = info
        ok = True
        for other in algebra.operations:
            if other.name == op.name or other.arity == 0:
                continue
            grid = algebra.op_array(other.name).reshape((algebra.size,) * other.arity)
            if not _is_multilinear(grid, tab):
                ok = False
                break
        if ok:
            return SpanStructure(op.name, tab, zero, neg, exponent)
    return None


@dataclass
class ClosureResult:
    """The (possibly partial) set of functions reached by a closure."""

    algebra: FiniteAlgebra
    arity: int
    strategy: str
    tables: np.ndarray  # (count, size**arity) uint8, deterministic order
    index: dict[bytes, int]
    recipes: list[Recipe]
    capped: bool
    exact_count: int | None  # known even when materialization was capped
    span: SpanStructure | None = None
    generator_tables: np.ndarray | None = None  # span strategy only
    core_recipes: list[Recipe] = field(default_factory=list)
    generator_core_ids: list[int] = field(default_factory=list)
    stopped: bool = False  # bfs halted at its first row satisfying `until`

    def __len__(self) -> int:
        return self.tables.shape[0]

    @property
    def count(self) -> int:
        """Best known size of the closure; a lower bound only when capped
        without span structure, or stopped early."""
        return self.exact_count if self.exact_count is not None else len(self)

    @property
    def exact(self) -> bool:
        return self.exact_count is not None

    def __contains__(self, f: FiniteFunction) -> bool:
        if f.arity != self.arity or f.size != self.algebra.size:
            return False
        return f.values in self.index

    def function(self, fid: int) -> FiniteFunction:
        return FiniteFunction(self.arity, self.algebra.size, self.tables[fid].tobytes())

    def functions(self) -> list[FiniteFunction]:
        return [self.function(i) for i in range(len(self))]

    def __iter__(self) -> Iterator[FiniteFunction]:
        return iter(self.functions())

    def term_for(self, fid: int) -> Term:
        memo: dict[int, Term] = {}
        core_memo: dict[int, Term] = {}
        plus = self.span.plus_name if self.span is not None else None

        def build_core(cid: int) -> Term:
            if cid in core_memo:
                return core_memo[cid]
            t = self._term_from(self.core_recipes[cid], build_core, build_core)
            core_memo[cid] = t
            return t

        def build(i: int) -> Term:
            if i in memo:
                return memo[i]
            recipe = self.recipes[i]
            if recipe[0] == "core":
                t = build_core(recipe[1])
            elif recipe[0] == "lincomb":
                parts: list[Term] = []
                for cid, mult in recipe[1]:
                    g = build_core(cid)
                    parts.extend([g] * mult)
                if not parts:
                    g = build_core(self.generator_core_ids[0])
                    parts = [g] * self.span.exponent
                t = parts[0]
                for part in parts[1:]:
                    t = App(plus, (t, part))
            else:
                t = self._term_from(recipe, build, build)
            memo[i] = t
            return t

        return build(fid)

    @staticmethod
    def _term_from(recipe: Recipe, build, build_arg) -> Term:
        kind = recipe[0]
        if kind == "var":
            return Var(recipe[1])
        if kind == "const":
            return Const(recipe[1])
        if kind == "nullary":
            return App(recipe[1], ())
        if kind == "op":
            return App(recipe[1], tuple(build_arg(j) for j in recipe[2]))
        raise ValueError(f"unknown recipe {recipe!r}")


def _seed_rows(
    algebra: FiniteAlgebra, arity: int, with_constants: bool
) -> list[tuple[np.ndarray, Recipe]]:
    size = algebra.size
    wid = size**arity
    seeds: list[tuple[np.ndarray, Recipe]] = [
        (digits.astype(np.uint8), ("var", i)) for i, digits in enumerate(cell_digits(size, arity))
    ]
    if with_constants:
        for v in range(size):
            seeds.append((np.full(wid, v, dtype=np.uint8), ("const", v)))
    for op in algebra.operations:
        if op.arity == 0:
            seeds.append((np.full(wid, op.table[0], dtype=np.uint8), ("nullary", op.name)))
    return seeds


def _composing_ops(algebra: FiniteAlgebra, skip: str | None = None) -> list[tuple]:
    """(name, arity, table) of every operation of positive arity but skip."""
    return [
        (op.name, op.arity, algebra.op_array(op.name))
        for op in algebra.operations
        if op.arity >= 1 and op.name != skip
    ]


def _empty_result(algebra: FiniteAlgebra, arity: int, strategy: str) -> ClosureResult:
    wid = algebra.size**arity
    return ClosureResult(
        algebra, arity, strategy, np.empty((0, wid), dtype=np.uint8), {}, [], False, 0
    )


def fresh_boxes(lo: int, hi: int, n: int) -> Iterator[tuple[tuple, bool]]:
    """Cover range(hi)**n by boxes, tuples of (start, stop) ranges, listed
    so that their tuples come in lexicographic order.

    A box is flagged old when every entry of its tuples is below lo.  First
    entries below lo are fixed one box at a time, a first entry >= lo starts
    one box free in the rest, and n = 1 gives [0, lo) and [lo, hi).  Empty
    boxes are left out; n = 0 gives the one old box ().
    """
    if n == 0:
        yield (), True
        return
    if n > 1:
        for a in range(lo):
            for rest, old in fresh_boxes(lo, hi, n - 1):
                yield ((a, a + 1),) + rest, old
    elif lo:
        yield ((0, lo),), True
    if lo < hi:
        yield ((lo, hi),) + ((0, hi),) * (n - 1), False


def fresh_tuples(lo: int, hi: int, n: int) -> Iterator[tuple[int, ...]]:
    """The tuples of range(hi)**n with an entry >= lo, in lexicographic order."""
    for box, old in fresh_boxes(lo, hi, n):
        if not old:
            yield from itertools.product(*(range(a, b) for a, b in box))


def composition_batches(
    box: tuple, llo: int, hi: int, wid: int, mirror: bool
) -> Iterator[tuple[int, int, int, int]]:
    """Split the operand tuples of one prefix box into batches, in order.

    The box's prefixes, numbered in lexicographic order, meet the last
    operands [llo, hi); each yielded (b0, b1, l0, l1) pairs prefixes
    b0..b1 with last operands l0..l1, and no batch holds more than
    BATCH_ENTRIES table entries (wid per tuple) unless one tuple does.
    With mirror, box is a range of first operands of a commutative binary
    operation, and a batch starting at first operand a0 meets the last
    operands from max(llo, a0) on only: for b < a the pair (a, b) gives the
    row of (b, a), which is fresh too and comes earlier in the round, so it
    is never a first occurrence.
    """
    n_pre = math.prod(b - a for a, b in box)
    b0 = 0
    while b0 < n_pre:
        start = max(llo, box[0][0] + b0) if mirror else llo
        per = BATCH_ENTRIES // ((hi - start) * wid)
        if per:
            b1 = min(b0 + per, n_pre)
            yield b0, b1, start, hi
            b0 = b1
        else:
            step = max(1, BATCH_ENTRIES // wid)
            for l0 in range(start, hi, step):
                yield b0, b0 + 1, l0, min(l0 + step, hi)
            b0 += 1


def lane_width(size: int, wid: int, k: int, entries: int) -> int:
    """Adjacent coordinates composed per lookup into a k-ary table.

    The largest of 1, 2 and 4 that divides the row width wid and whose
    packed table (size**lanes)**k has at most LUT_ENTRIES entries and no
    more than the entries the round composes, so that a small closure does
    not pay to build it.
    """
    for lanes in (4, 2):
        if wid % lanes == 0 and size ** (lanes * k) <= min(LUT_ENTRIES, entries):
            return lanes
    return 1


def lane_codes(rows: np.ndarray, size: int, lanes: int) -> np.ndarray:
    """Each run of lanes adjacent coordinates of each row as one base-size
    number, leftmost most significant; lanes = 1 gives a view of rows."""
    grouped = rows.reshape(len(rows), -1, lanes)
    codes = grouped[..., 0].astype(np.min_scalar_type(size**lanes - 1), copy=False)
    for j in range(1, lanes):
        codes = codes * size + grouped[..., j]
    return codes


def packed_table(tab: np.ndarray, size: int, k: int, lanes: int) -> np.ndarray:
    """The k-ary table tab on lane codes.

    Entry sum_i c_i * (size**lanes)**(k-1-i) holds, as one unsigned integer
    of lanes bytes, the values of tab on the operands' coordinates 1..lanes
    of the codes c_i (see lane_codes), in memory order, so that a lookup
    viewed as uint8 gives lanes adjacent coordinates of the result.
    """
    digits = cell_digits(size, k * lanes).reshape(k, lanes, -1)
    values = compose(tab, size, digits).T
    return np.ascontiguousarray(values).view(np.dtype(f"u{lanes}")).reshape(-1)


def _explicit_closure(
    algebra: FiniteAlgebra,
    arity: int,
    seeds: list[tuple[np.ndarray, Recipe]],
    cap: int,
    depth_cap: int | None = None,
    until: Callable[[np.ndarray], bool] | None = None,
) -> ClosureResult:
    size = algebra.size
    wid = size**arity
    rows: list[np.ndarray] = []
    index: dict[bytes, int] = {}
    recipes: list[Recipe] = []
    # why the search ended early: "cap" (row or depth cap) or "until"
    stop: str | None = None

    # candidate batches are screened against the known rows with sorted
    # fixed-width comparisons, so the python-level add only ever sees rows
    # that are new (or duplicated within one batch)
    void = np.dtype((np.void, wid))
    sorted_keys = np.empty(0, dtype=void)
    fresh: list[bytes] = []
    fresh_sorted = np.empty(0, dtype=void)
    fresh_dirty = False

    def add(row: np.ndarray, recipe: Recipe) -> None:
        nonlocal stop, fresh_dirty
        if stop:
            return
        key = row.tobytes()
        if key in index:
            return
        if len(rows) >= cap:
            stop = "cap"
            return
        index[key] = len(rows)
        rows.append(np.array(row, dtype=np.uint8))
        recipes.append(recipe)
        fresh.append(key)
        fresh_dirty = True
        if until is not None and until(rows[-1]):
            stop = "until"

    def new_offsets(batch: np.ndarray) -> np.ndarray:
        """Ascending offsets of batch rows not yet in the closure."""
        nonlocal sorted_keys, fresh, fresh_sorted, fresh_dirty
        if len(fresh) > max(256, len(rows) // 8):
            stacked = np.ascontiguousarray(np.stack(rows))
            sorted_keys = np.sort(stacked.view(void).ravel())
            fresh = []
            fresh_sorted = np.empty(0, dtype=void)
            fresh_dirty = False
        elif fresh_dirty:
            fresh_sorted = np.sort(np.frombuffer(b"".join(fresh), dtype=void))
            fresh_dirty = False
        keys = np.ascontiguousarray(batch).view(void).ravel()
        known = np.zeros(len(keys), dtype=bool)
        for ref in (sorted_keys, fresh_sorted):
            if len(ref):
                pos = np.minimum(np.searchsorted(ref, keys), len(ref) - 1)
                known |= ref[pos] == keys
        return np.nonzero(~known)[0]

    for row, recipe in seeds:
        add(row, recipe)

    if not rows:
        return _empty_result(algebra, arity, "bfs")

    # a commutative binary operation skips mirrored operand pairs
    ops = []
    for name, k, tab in _composing_ops(algebra):
        grid = tab.reshape(size, -1)
        ops.append((name, k, tab, k == 2 and np.array_equal(grid, grid.T)))
    # packed tables, built once per operation and lane width
    luts: dict[tuple[str, int], np.ndarray] = {}
    round_lo = 0
    depth = 0
    while round_lo < len(rows) and not stop:
        if depth_cap is not None and depth >= depth_cap:
            stop = "cap"
            break
        depth += 1
        hi = len(rows)
        stack = np.stack(rows[:hi])
        codes: dict[int, np.ndarray] = {}
        for name, k, tab, symmetric in ops:
            lanes = lane_width(size, wid, k, (hi**k - round_lo**k) * wid)
            if (name, lanes) not in luts:
                luts[name, lanes] = packed_table(tab, size, k, lanes)
            if lanes not in codes:
                codes[lanes] = lane_codes(stack, size, lanes)
            lut, lane = luts[name, lanes], codes[lanes]
            base = size**lanes
            # smallest unsigned type holding an index into lut
            dtype = np.min_scalar_type(base**k - 1)
            # an old operand prefix meets the new last operands, any other all
            for box, old in fresh_boxes(round_lo, hi, k - 1):
                if stop:
                    break
                llo = round_lo if old else 0
                for b0, b1, l0, l1 in composition_batches(box, llo, hi, wid, symmetric):
                    if stop:
                        break
                    # operand ids of a block of prefixes, in lexicographic order
                    flat = np.arange(b0, b1)
                    prefix = []
                    for a, b in reversed(box):
                        flat, q = np.divmod(flat, b - a)
                        prefix.insert(0, a + q)
                    idx = lane[None, l0:l1]
                    if prefix:
                        pre = lane[prefix[0]].astype(dtype)
                        for ids in prefix[1:]:
                            pre = pre * base + lane[ids]
                        idx = pre[:, None, :] * base + idx
                    batch = lut[idx.reshape(-1, wid // lanes)].view(np.uint8)
                    for off in new_offsets(batch):
                        q, r = divmod(int(off), l1 - l0)
                        args = tuple(int(ids[q]) for ids in prefix) + (l0 + r,)
                        add(batch[off], ("op", name, args))
                        if stop:
                            break
        round_lo = hi

    tables = np.stack(rows)
    return ClosureResult(
        algebra, arity, "bfs", tables, index, recipes, stop == "cap", None if stop else len(rows),
        stopped=stop == "until",
    )


def _span_closure_prime(
    algebra: FiniteAlgebra,
    arity: int,
    seeds: list[tuple[np.ndarray, Recipe]],
    cap: int,
    span: SpanStructure,
) -> ClosureResult:
    size = algebra.size
    wid = size**arity
    p = span.exponent
    # (A, plus) as an F_p vector space, for membership tests
    coord_table = group_coordinates(span.plus, span.zero, p)
    echelon = PrimeSpan(p)

    # generator discovery: every registered row is a core function; those
    # outside the span so far are generators, and compositions only need
    # to run over generator tuples that involve a generator new this round
    core_rows: list[np.ndarray] = []
    core_recipes: list[Recipe] = []
    core_index: dict[bytes, int] = {}
    gens: list[int] = []
    new_gens: list[int] = []

    def register(row: np.ndarray, recipe: Recipe) -> None:
        key = row.tobytes()
        if key in core_index:
            return
        cid = len(core_rows)
        core_index[key] = cid
        core_rows.append(np.array(row, dtype=np.uint8))
        core_recipes.append(recipe)
        if echelon.add(coord_table[row].reshape(-1)):
            gens.append(cid)
            new_gens.append(cid)

    for row, recipe in seeds:
        register(row, recipe)

    ops = _composing_ops(algebra, span.plus_name)
    while new_gens:
        # the generators new last round are the tail of gens
        lo, hi = len(gens) - len(new_gens), len(gens)
        new_gens = []
        for name, k, tab in ops:
            for pos in fresh_tuples(lo, hi, k):
                combo = tuple(gens[i] for i in pos)
                register(compose(tab, size, (core_rows[g] for g in combo)), ("op", name, combo))

    if not core_rows:
        return _empty_result(algebra, arity, "span")

    exact = p ** len(gens)
    limit = min(exact, cap)
    tables = np.empty((limit, wid), dtype=np.uint8)
    tables[0] = np.full(wid, span.zero, dtype=np.uint8)
    recipes: list[Recipe] = [("lincomb", ())]
    n_have = 1
    for gid in gens:
        if n_have >= limit:
            break
        base = core_rows[gid]
        n_base = n_have
        mult_row = base
        for mult in range(1, p):
            room = limit - n_have
            if room <= 0:
                break
            take = min(n_base, room)
            tables[n_have : n_have + take] = compose(span.plus, size, (tables[:take], mult_row))
            for i in range(take):
                recipes.append(("lincomb", recipes[i][1] + ((gid, mult),)))
            n_have += take
            if mult + 1 < p:
                mult_row = compose(span.plus, size, (mult_row, base))

    tables = tables[:n_have]
    index = {tables[i].tobytes(): i for i in range(n_have)}
    # prefer direct recipes for rows that coincide with core functions
    for cid, row in enumerate(core_rows):
        fid = index.get(row.tobytes())
        if fid is not None:
            recipes[fid] = ("core", cid)

    return ClosureResult(
        algebra,
        arity,
        "span",
        tables,
        index,
        recipes,
        exact > cap,
        exact,
        span,
        np.stack([core_rows[g] for g in gens]) if gens else np.empty((0, wid), dtype=np.uint8),
        core_recipes,
        gens,
    )


def _span_closure_general(
    algebra: FiniteAlgebra,
    arity: int,
    seeds: list[tuple[np.ndarray, Recipe]],
    cap: int,
    span: SpanStructure,
) -> ClosureResult:
    """Span closure for non-prime exponents: the subgroup stays materialized."""
    size = algebra.size
    wid = size**arity

    rows: list[np.ndarray] = []
    index: dict[bytes, int] = {}
    recipes: list[Recipe] = []
    members: dict[bytes, None] = {}
    capped = False

    def register(row: np.ndarray, recipe: Recipe) -> int:
        key = row.tobytes()
        if key in index:
            return index[key]
        fid = len(rows)
        index[key] = fid
        rows.append(np.array(row, dtype=np.uint8))
        recipes.append(recipe)
        return fid

    gen_rows: list[np.ndarray] = []

    def extend(row: np.ndarray, fid: int) -> None:
        """Grow the subgroup by a new generator (cosets of its multiples)."""
        nonlocal capped
        gen_rows.append(rows[fid])
        multiples = [fid]
        x = rows[fid]
        while True:
            x = compose(span.plus, size, (x, rows[fid]))
            key = x.tobytes()
            if key in members or key == rows[fid].tobytes():
                break
            multiples.append(register(x, ("op", span.plus_name, (multiples[-1], fid))))
        snapshot = [index[key] for key in members]
        for mid in multiples:
            mrow = rows[mid]
            members[mrow.tobytes()] = None
            for sid in snapshot:
                out = compose(span.plus, size, (mrow, rows[sid]))
                members[out.tobytes()] = None
                register(out, ("op", span.plus_name, (mid, sid)))
                if len(members) > cap:
                    capped = True
                    return

    def note(row: np.ndarray, recipe: Recipe) -> None:
        if capped:
            return
        if row.tobytes() in members:
            register(row, recipe)
        else:
            extend(row, register(row, recipe))

    for row, recipe in seeds:
        note(row, recipe)

    if not rows:
        return _empty_result(algebra, arity, "span")

    ops = _composing_ops(algebra, span.plus_name)
    done = 0
    while done < len(gen_rows) and not capped:
        known = len(gen_rows)
        gen_ids = [index[g.tobytes()] for g in gen_rows[:known]]
        for name, k, tab in ops:
            if capped:
                break
            for combo in fresh_tuples(done, known, k):
                ids = tuple(gen_ids[c] for c in combo)
                note(compose(tab, size, (rows[i] for i in ids)), ("op", name, ids))
                if capped:
                    break
        done = known

    tables = np.stack(rows)
    return ClosureResult(
        algebra,
        arity,
        "span",
        tables,
        index,
        recipes,
        capped,
        None if capped else len(rows),
        span,
        np.stack(gen_rows) if gen_rows else np.empty((0, wid), dtype=np.uint8),
    )


def _close(
    algebra: FiniteAlgebra,
    arity: int,
    with_constants: bool,
    cap: int,
    strategy: str,
    depth_cap: int | None,
    until: Callable[[np.ndarray], bool] | None = None,
) -> ClosureResult:
    if arity < 0:
        raise ValueError("arity must be >= 0")
    if strategy not in ("auto", "span", "bfs"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if until is not None:
        if strategy != "bfs":
            raise ValueError("a stop predicate needs the bfs strategy")
        # the predicate is not part of the cache key, so a prefix it cut
        # short must never be served as the closure
        seeds = _seed_rows(algebra, arity, with_constants)
        return _explicit_closure(algebra, arity, seeds, cap, depth_cap, until)
    # closures are pure functions of the operation tables, which an algebra
    # never changes after construction, so they are safe to memoize
    cache = algebra.closure_cache
    key = (arity, with_constants, cap, strategy, depth_cap)
    hit = cache.get(key)
    if hit is not None:
        return hit
    seeds = _seed_rows(algebra, arity, with_constants)
    if strategy != "bfs" and depth_cap is None:
        span = additive_structure(algebra)
        if span is not None:
            result = (
                _span_closure_prime(algebra, arity, seeds, cap, span)
                if span.prime
                else _span_closure_general(algebra, arity, seeds, cap, span)
            )
            cache[key] = result
            return result
        if strategy == "span":
            raise ValueError("no abelian group operation with a multilinear signature")
    elif strategy == "span":
        raise ValueError("the span strategy does not track composition depth")
    result = _explicit_closure(algebra, arity, seeds, cap, depth_cap)
    cache[key] = result
    return result


def term_functions(
    algebra: FiniteAlgebra,
    arity: int,
    cap: int = DEFAULT_CAP,
    strategy: str = "auto",
    depth_cap: int | None = None,
    until: Callable[[np.ndarray], bool] | None = None,
) -> ClosureResult:
    """Closure of the projections under the fundamental operations.

    For arity 0 only constants derivable from nullary symbols appear.
    A depth_cap bounds composition depth and forces the explicit
    breadth-first strategy, since the span shortcut loses depths.

    until, allowed only with strategy="bfs", is a predicate on a row of
    function values.  The search stops as soon as a newly added row
    satisfies it and returns the breadth-first prefix up to and including
    that row, marked stopped: not exact, with no exact_count, and never
    cached.  Without a hit the result is what the same call without until
    returns: exact at fixpoint, or capped.
    """
    return _close(
        algebra, arity, with_constants=False, cap=cap, strategy=strategy, depth_cap=depth_cap,
        until=until,
    )


def polynomial_functions(
    algebra: FiniteAlgebra,
    arity: int,
    cap: int = DEFAULT_CAP,
    strategy: str = "auto",
    depth_cap: int | None = None,
) -> ClosureResult:
    """Like term_functions but with every constant admitted as a seed."""
    return _close(algebra, arity, with_constants=True, cap=cap, strategy=strategy, depth_cap=depth_cap)


@dataclass(frozen=True)
class SpectrumCount:
    arity: int
    count: int
    exact: bool


def free_spectrum(
    algebra: FiniteAlgebra, arity: int, cap: int = DEFAULT_CAP
) -> SpectrumCount:
    """|Clo_n(A)|; when capped without span structure the count is a lower bound."""
    closure = term_functions(algebra, arity, cap=cap)
    return SpectrumCount(arity, closure.count, closure.exact)
