"""Per-layer spans for finalg, recorded from outside the package.

Each module of `src/finalg` is a layer.  `LayerTracer.install` finds, by
reading the package source, every function that one module imports from
another, and replaces it with a timing wrapper at every binding: in each
importing module and in its own module, so calls made through a
function-level import or from inside the layer pass the wrapper too.  The
CLI job itself is the root span (`cli.main`).  Nothing under `src/` is
changed; `uninstall` puts the original functions back.

A span is (name, start, end, parent span, job).  Self time ("busy") is
charged to the layer of the innermost open span, so the busy times of all
layers plus the time outside any span add up to the traced wall time.
Counts come only from public return values (`ClosureResult`,
`MalcevWitness`, `AbsorbingSurvey`, `PolyClosure`, congruence lists).
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import time
from pathlib import Path

LAYERS = (
    "algebra",
    "clones",
    "congruence",
    "malcev",
    "expansion",
    "fields",
    "polyclone",
    "supernil",
    "cli",
)

# functions called only from inside their own layer that a per-layer
# metric needs as a separate span
INNER = (("expansion", "verify_expansion"),)

# inclusive times reported per layer: metric name -> traced function
INCLUSIVE = {
    "expansion.verify_share": "expansion.verify_expansion",
    "congruence.relpres_share": "congruence.relation_preservation_witness",
    "polyclone.clop_share": "polyclone.substitution_closure",
    "polyclone.split_share": "polyclone.verify_homovariate_split",
    "polyclone.build_h_share": "polyclone.homovariate_generators",
}


def cross_module_bindings(package_dir: Path) -> list[tuple[str, str, str, str]]:
    """(module holding the binding, name bound there, defining module, name
    defined there) for each function one layer imports from another, read
    from the package source."""
    bindings = set()
    for path in sorted(package_dir.glob("*.py")):
        importer = path.stem
        if importer not in LAYERS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            if node.module not in LAYERS or node.module == importer:
                continue
            for alias in node.names:
                if id(node) in top_level:
                    bindings.add((importer, alias.asname or alias.name, node.module, alias.name))
                # a function-level import, and any call from inside the
                # defining layer, looks the name up in the defining module
                bindings.add((node.module, alias.name, node.module, alias.name))
    for layer, name in INNER:
        bindings.add((layer, name, layer, name))
    return sorted(bindings)


class PassStats:
    """Busy time per layer, inclusive function times and counts for one pass."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.uncovered = 0.0
        self.busy = {layer: 0.0 for layer in LAYERS}
        self.inclusive: dict[str, float] = {}
        self.counts = {
            "clones.calls": 0,
            "clones.bfs_rows": 0,
            "clones.span_rows": 0,
            "clones.capped_calls": 0,
            "clones.repeats": 0,
            "clones.peak_table_bytes": 0,
            "malcev.searches": 0,
            "malcev.rows_built": 0,
            "malcev.useful_rows": 0,
            "congruence.commutator_calls": 0,
            "congruence.congruences": 0,
            "supernil.survey_rows": 0,
            "supernil.partial_surveys": 0,
            "polyclone.clop_polys": 0,
            "algebra.parse_calls": 0,
        }
        self.closure_time = {"bfs_binary": 0.0, "bfs_ternary": 0.0, "span": 0.0}


class LayerTracer:
    def __init__(self, package_dir: Path, clock=time.perf_counter) -> None:
        self.package_dir = package_dir
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.layer_of: list[str] = []
        self.job = -1
        self.stats: PassStats | None = None
        self.last = 0.0
        self.depth: dict[str, int] = {}
        self.originals: list[tuple[object, str, object]] = []
        self.job_results: dict[int, object] = {}
        self.malcev_closure = None
        self.types: tuple = ()

    # -- installation ---------------------------------------------------------

    def install(self) -> int:
        """Wrap every cross-module binding; returns how many were wrapped."""
        from finalg.clones import ClosureResult
        from finalg.malcev import MalcevWitness
        from finalg.polyclone import PolyClosure
        from finalg.supernil import AbsorbingSurvey

        self.types = (ClosureResult, MalcevWitness, AbsorbingSurvey, PolyClosure)
        planned = []
        wrappers: dict[int, object] = {}
        for holder, bound, source, name in cross_module_bindings(self.package_dir):
            defining = importlib.import_module(f"finalg.{source}")
            func = getattr(defining, name, None)
            if not inspect.isfunction(func) or func.__module__ != defining.__name__:
                continue  # classes and constants are not spans
            if id(func) not in wrappers:
                wrappers[id(func)] = self.wrap(source, f"{source}.{name}", func)
            planned.append((importlib.import_module(f"finalg.{holder}"), bound, wrappers[id(func)]))
        for module, bound, wrapper in planned:
            self.originals.append((module, bound, getattr(module, bound)))
            setattr(module, bound, wrapper)
        return len(planned)

    def uninstall(self) -> None:
        for module, name, original in reversed(self.originals):
            setattr(module, name, original)
        self.originals.clear()

    def wrap(self, layer: str, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.enter(layer, name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.exit(span, name, None, raised=True)
                raise
            tracer.exit(span, name, result, raised=False)
            return result

        return traced

    # -- passes and jobs --------------------------------------------------------

    def begin_pass(self) -> None:
        self.stats = PassStats()
        self.last = self.clock()
        self.pass_start = self.last

    def end_pass(self) -> PassStats:
        now = self.clock()
        self._charge(now)
        stats = self.stats
        stats.wall = now - self.pass_start
        self.stats = None
        return stats

    def run_job(self, main, argv):
        """Call the CLI entry point as the root span of a new job."""
        self.job += 1
        self.job_results = {}
        span = self.enter("cli", "cli.main")
        try:
            return main(argv)
        finally:
            self.exit(span, "cli.main", None, raised=False)
            self.job_results = {}

    # -- spans ----------------------------------------------------------------

    def _charge(self, now: float) -> None:
        if self.stack:
            self.stats.busy[self.layer_of[self.stack[-1]]] += now - self.last
        else:
            self.stats.uncovered += now - self.last
        self.last = now

    def enter(self, layer: str, name: str) -> int:
        now = self.clock()
        self._charge(now)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, now, None, parent, self.job])
        self.layer_of.append(layer)
        self.stack.append(len(self.spans) - 1)
        self.depth[name] = self.depth.get(name, 0) + 1
        return len(self.spans) - 1

    def exit(self, span: int, name: str, result, raised: bool) -> None:
        now = self.clock()
        self._charge(now)
        self.stack.pop()
        record = self.spans[span]
        record[2] = now
        self.depth[name] -= 1
        elapsed = now - record[1]
        stats = self.stats
        if self.depth[name] == 0:
            stats.inclusive[name] = stats.inclusive.get(name, 0.0) + elapsed
        caller = self.layer_of[self.stack[-1]] if self.stack else None
        self._count(name, result, raised, elapsed, caller)

    # -- counts from public return values -------------------------------------

    def _count(self, name, result, raised, elapsed, caller) -> None:
        closure_type, witness_type, survey_type, polyclosure_type = self.types
        counts = self.stats.counts
        if isinstance(result, closure_type):
            counts["clones.calls"] += 1
            rows = len(result)
            if result.strategy == "span":
                counts["clones.span_rows"] += rows
                self.stats.closure_time["span"] += elapsed
            else:
                counts["clones.bfs_rows"] += rows
                ternary = any(op.arity >= 3 for op in result.algebra.operations)
                self.stats.closure_time["bfs_ternary" if ternary else "bfs_binary"] += elapsed
            counts["clones.capped_calls"] += int(result.capped)
            if id(result) in self.job_results:
                counts["clones.repeats"] += 1
            self.job_results[id(result)] = result  # keeps ids unique within the job
            counts["clones.peak_table_bytes"] = max(
                counts["clones.peak_table_bytes"], int(result.tables.nbytes)
            )
            if caller == "malcev":
                counts["malcev.rows_built"] += rows
                self.malcev_closure = result
        elif name == "malcev.find_malcev_term":
            counts["malcev.searches"] += 1
            closure, self.malcev_closure = self.malcev_closure, None
            built = len(closure) if closure is not None else 0
            if isinstance(result, witness_type) and closure is not None:
                # rows up to and including the witness were needed
                counts["malcev.useful_rows"] += closure.index[result.function.values] + 1
            else:
                # no witness, or a capped search: the whole closure was needed
                counts["malcev.useful_rows"] += built
        elif isinstance(result, survey_type):
            counts["supernil.survey_rows"] += int(result.searched)
            counts["supernil.partial_surveys"] += int(result.partial)
        elif isinstance(result, polyclosure_type):
            counts["polyclone.clop_polys"] += len(result)
        elif name == "congruence.congruence_lattice" and not raised:
            counts["congruence.congruences"] += len(result)
        if name == "congruence.commutator":
            counts["congruence.commutator_calls"] += 1
        elif name == "algebra.parse_algebra":
            counts["algebra.parse_calls"] += 1

    # -- output -----------------------------------------------------------------

    def span_table(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans,
        }


def unit(metric: str) -> str:
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    return "count"


def layer_metrics(stats: PassStats, untraced_wall: float, report_bytes: int) -> dict:
    """The per-layer metrics of one traced pass.

    Times are shares of the traced wall time, so that a layer a workload
    never enters reads 0 rather than a constant 0 seconds.
    """
    wall = stats.wall
    counts = stats.counts
    out = {f"{layer}.busy_share": stats.busy[layer] / wall for layer in LAYERS}
    out.update(
        {
            "clones.calls": counts["clones.calls"],
            "clones.bfs_binary_share": stats.closure_time["bfs_binary"] / wall,
            "clones.bfs_ternary_share": stats.closure_time["bfs_ternary"] / wall,
            "clones.bfs_rows": counts["clones.bfs_rows"],
            "clones.span_share": stats.closure_time["span"] / wall,
            "clones.span_rows": counts["clones.span_rows"],
            "clones.capped_calls": counts["clones.capped_calls"],
            "clones.repeat_ratio": counts["clones.repeats"] / max(counts["clones.calls"], 1),
            "clones.peak_table_mib": counts["clones.peak_table_bytes"] / 2**20,
            "malcev.searches": counts["malcev.searches"],
            "malcev.rows_built": counts["malcev.rows_built"],
            "malcev.useful_row_ratio": counts["malcev.useful_rows"]
            / max(counts["malcev.rows_built"], 1),
            "congruence.commutator_calls": counts["congruence.commutator_calls"],
            "congruence.congruences": counts["congruence.congruences"],
            "supernil.survey_rows": counts["supernil.survey_rows"],
            "supernil.partial_surveys": counts["supernil.partial_surveys"],
            "polyclone.clop_polys": counts["polyclone.clop_polys"],
            "algebra.parse_calls": counts["algebra.parse_calls"],
            "cli.report_bytes": report_bytes,
            "trace.wall_s": wall,
            "trace.uncovered_s": stats.uncovered,
            "trace.overhead_ratio": wall / untraced_wall,
        }
    )
    for metric, name in INCLUSIVE.items():
        out[metric] = stats.inclusive.get(name, 0.0) / wall
    return out


def self_check(stats: PassStats) -> str | None:
    """Busy times plus uncovered time must add up to the traced wall time."""
    total = sum(stats.busy.values()) + stats.uncovered
    if abs(total - stats.wall) > 1e-9 * max(stats.wall, 1.0):
        return f"layer busy times sum to {total} s, traced wall is {stats.wall} s"
    return None


def workload_shares(workload: str, metrics: dict) -> dict:
    """The wall-time shares that justify each workload, with a verdict."""
    bfs = metrics["clones.bfs_binary_share"] + metrics["clones.bfs_ternary_share"]
    if workload == "supernil":
        others = max(v for k, v in metrics.items() if k.endswith(".busy_share") and k != "clones.busy_share")
        return {"clones_bfs_share": bfs, "largest_other_layer_share": others, "holds": bfs > others}
    if workload == "structure":
        share = metrics["malcev.busy_share"] + bfs
        return {"malcev_plus_clones_bfs_share": share, "holds": share >= 0.5}
    share = metrics["polyclone.busy_share"] + metrics["clones.busy_share"]
    return {"polyclone_plus_clones_share": share, "holds": share >= 0.5}
