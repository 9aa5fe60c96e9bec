"""Workloads of the finalg benchmark: seeded inputs, job lists and answer checks.

A workload is a fixed list of `finalg` CLI jobs.  The seed only relabels the
elements of an algebra (jobs whose pinned answer cannot depend on labels),
permutes the variables of a fixed generator set, or draws random
polynomials whose answer the benchmark computes itself.  Capped jobs keep
the bundled labeling, because the prefix a capped search explores depends
on labels.

Every job is a dict with an `id` that is the same for every seed, the
`argv` given to `finalg.cli.main`, and a `check` kind:

* `pinned`: the label-invariant projection of the report (see `answer`)
  must equal the entry under `id` in reference.json;
* `expand`: pinned, plus the expanded algebra must keep the input
  operations and carry an abelian group with the designated zero;
* `hoc`, `span`, `product`: the listing must match what this module
  computes from the input polynomials with its own arithmetic.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from pathlib import Path

WORKLOADS = ("structure", "supernil", "polyclone")

STRUCTURE_FIXTURES = ("z4", "z2z2", "m", "z8", "d4", "q8", "lattice2", "semilattice2")
SUPERNIL_EXACT = ("z4", "m", "z2z2")
SUPERNIL_CAPPED = (("z8", 6000), ("d4", 8000), ("q8", 8000))
SUPERNIL_SPECTRUM = ("d4", "q8", "m")

# the generator sets of acceptance scenario 6, then two heavier ones;
# the window is the largest total degree, as in that scenario
LCLO_SETS = (
    (2, ""),
    (2, "x1*x2"),
    (2, "x1*x2 + x1"),
    (2, "x1*x2*x3"),
    (3, "x1*x2"),
    (5, "x1*x2"),
    (2, "x1*x2 + x3"),
)
BUILD_H_SETS = ((7, "x1*x2 + x2", 2), (2, "x1*x2*x3 + x1", 3))
CLOP_SETS = ((3, "x1*x2", 2, 512), (2, "x1*x2 + x3", 3, 1024))
HOC_FIELDS = (7, 9, 17)
SPAN_FIELDS = ((7, 3), (17, 2))  # (field, generator count); span size field**count
PRODUCT_FIELDS = (7, 17)

POLY_VARS = 4  # random polynomials use x1..x4
EXIT_CAPPED = 3


# -- seeded inputs -------------------------------------------------------------


def _rng(seed: int, name: str) -> random.Random:
    # string seeds hash deterministically, independent of PYTHONHASHSEED
    return random.Random(f"{seed}:{name}")


def relabel(algebra: dict, perm: list[int]) -> dict:
    """The isomorphic copy of an algebra in which element a is called perm[a]."""
    n = algebra["size"]
    ops = []
    for op in algebra["operations"]:
        table = op["table"]
        new = [0] * len(table)
        for i, args in enumerate(itertools.product(range(n), repeat=op["arity"])):
            j = 0
            for a in args:
                j = j * n + perm[a]
            new[j] = perm[table[i]]
        ops.append({"name": op["name"], "arity": op["arity"], "table": new})
    return {"name": algebra["name"], "size": n, "operations": ops}


def _permutation(seed: int, name: str, n: int) -> list[int]:
    perm = list(range(n))
    _rng(seed, name).shuffle(perm)
    return perm


def _write_algebra(out_dir: Path, stem: str, algebra: dict) -> str:
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(algebra), encoding="utf-8")
    return str(path)


def _permute_variables(text: str, seed: int, name: str) -> str:
    used = [int(v) for v in re.findall(r"x(\d+)", text)]
    if not used:
        return text
    perm = _permutation(seed, name, max(used))
    return re.sub(r"x(\d+)", lambda m: f"x{perm[int(m.group(1)) - 1] + 1}", text)


def _random_poly(rng: random.Random, q: int, terms: int, max_exp: int, variables: int) -> dict:
    poly: dict = {}
    while len(poly) < terms:
        chosen = rng.sample(range(1, variables + 1), rng.randint(1, variables))
        mono = tuple(sorted((v, rng.randint(1, max_exp)) for v in chosen))
        poly[mono] = rng.randrange(1, q)
    return poly


def _structure_jobs(seed: int, fixtures: Path, out_dir: Path) -> list[dict]:
    jobs = []
    for name in STRUCTURE_FIXTURES:
        base = json.loads((fixtures / f"{name}.json").read_text(encoding="utf-8"))
        perm = _permutation(seed, name, base["size"])
        path = _write_algebra(out_dir, name, relabel(base, perm))
        jobs.append({"id": f"analyze {name}", "argv": ["analyze", path], "check": "pinned"})
        jobs.append(
            {
                "id": f"expand {name}",
                "argv": ["expand", path, "--zero", str(perm[0])],
                "check": "expand",
            }
        )
    return jobs


def _supernil_jobs(seed: int, fixtures: Path, out_dir: Path) -> list[dict]:
    jobs = []
    paths = {}
    for name in dict.fromkeys(SUPERNIL_EXACT + SUPERNIL_SPECTRUM):
        base = json.loads((fixtures / f"{name}.json").read_text(encoding="utf-8"))
        perm = _permutation(seed, name, base["size"])
        paths[name] = (_write_algebra(out_dir, name, relabel(base, perm)), perm[0])
    for name in SUPERNIL_EXACT:
        path, zero = paths[name]
        argv = ["bound-verify", path, "--zero", str(zero)]
        jobs.append({"id": f"bound-verify {name}", "argv": argv, "check": "pinned"})
    for name, cap in SUPERNIL_CAPPED:
        base = json.loads((fixtures / f"{name}.json").read_text(encoding="utf-8"))
        path = _write_algebra(out_dir, f"{name}-bundled", base)
        argv = ["bound-verify", path, "--size-cap", str(cap)]
        jobs.append({"id": f"bound-verify {name} cap {cap}", "argv": argv, "check": "pinned"})
    for name in SUPERNIL_SPECTRUM:
        argv = ["spectrum", paths[name][0]]
        jobs.append({"id": f"spectrum {name}", "argv": argv, "check": "pinned"})
    return jobs


def _polyclone_jobs(seed: int) -> list[dict]:
    jobs = []
    for q, text in LCLO_SETS:
        polys = _permute_variables(text, seed, f"lclo {q} {text}")
        window = max(_total_degrees(text), default=1)
        argv = ["polyclone", "lclo-check", "--field", str(q), "--polys", polys,
                "--window", str(window), "--max-arity", "3"]
        jobs.append({"id": f"lclo-check F{q} [{text}]", "argv": argv, "check": "pinned"})
    for q, text, window in BUILD_H_SETS:
        polys = _permute_variables(text, seed, f"build-h {q} {text}")
        argv = ["polyclone", "build-h", "--field", str(q), "--polys", polys, "--window", str(window)]
        jobs.append({"id": f"build-h F{q} [{text}]", "argv": argv, "check": "pinned"})
    for q, text, window, cap in CLOP_SETS:
        argv = ["polyclone", "clop", "--field", str(q), "--polys", text,
                "--window", str(window), "--size-cap", str(cap)]
        jobs.append({"id": f"clop F{q} [{text}] cap {cap}", "argv": argv, "check": "pinned"})
    for q in HOC_FIELDS:
        rng = _rng(seed, f"hoc {q}")
        polys = [_random_poly(rng, q, 6, 3, POLY_VARS) for _ in range(3)]
        argv = ["polyclone", "hoc", "--field", str(q), "--polys", _set_text(polys)]
        jobs.append({"id": f"hoc F{q}", "argv": argv, "check": "hoc"})
    for q, count in SPAN_FIELDS:
        rng = _rng(seed, f"span {q}")
        # redraw until the generators are independent, so that every seed
        # spans q**count polynomials and costs the same
        while True:
            gens = [_random_poly(rng, q, 4, 2, POLY_VARS) for _ in range(count)]
            if _rank(gens, q) == count:
                break
        argv = ["polyclone", "span", "--field", str(q), "--polys", _set_text(gens),
                "--window", str(POLY_VARS)]
        jobs.append({"id": f"span F{q}", "argv": argv, "check": "span"})
    for q in PRODUCT_FIELDS:
        rng = _rng(seed, f"product {q}")
        # each left member mentions both x1 and x2, so every seed makes
        # 2 * 4**2 substitutions
        left: list[dict] = []
        while len(left) < 2:
            poly = _random_poly(rng, q, 3, 2, 2)
            if {v for mono in poly for v, _ in mono} == {1, 2}:
                left.append(poly)
        right = [_random_poly(rng, q, 2, 2, 3) for _ in range(4)]
        argv = ["polyclone", "product", "--field", str(q), "--a", _set_text(left),
                "--b", _set_text(right)]
        jobs.append({"id": f"product F{q}", "argv": argv, "check": "product"})
    return jobs


def _total_degrees(text: str) -> list[int]:
    return [
        sum(int(e or 1) for _, e in re.findall(r"x(\d+)(?:\^(\d+))?", term))
        for term in text.split("+")
        if term.strip()
    ]


def prepare(workload: str, seed: int, root: Path, out_dir: Path) -> list[dict]:
    """Write the seeded inputs of a workload into out_dir and return its jobs.

    The job list is also written to out_dir/jobs.json.
    """
    fixtures = root / "src" / "finalg" / "fixtures"
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "structure":
        jobs = _structure_jobs(seed, fixtures, out_dir)
    elif workload == "supernil":
        jobs = _supernil_jobs(seed, fixtures, out_dir)
    elif workload == "polyclone":
        jobs = _polyclone_jobs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out_dir / "jobs.json").write_text(json.dumps(jobs, indent=1), encoding="utf-8")
    return jobs


# -- polynomial arithmetic over prime fields, independent of finalg ------------
# a polynomial is a dict {monomial: coefficient}, a monomial a sorted tuple of
# (variable, exponent) pairs; no exponent reduction, as in finalg


def _mono_text(mono: tuple) -> str:
    return "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in mono)


def poly_text(poly: dict) -> str:
    if not poly:
        return "0"
    parts = []
    for mono, coeff in poly.items():
        if not mono:
            parts.append(str(coeff))
        else:
            parts.append(_mono_text(mono) if coeff == 1 else f"{coeff}*{_mono_text(mono)}")
    return " + ".join(parts)


def _set_text(polys: list[dict]) -> str:
    return "; ".join(poly_text(p) for p in polys)


def parse_poly(text: str) -> dict:
    """Read finalg's printed form, e.g. `4 + 13*x2 + 7*x1*x2^2`."""
    poly: dict = {}
    if text.strip() == "0":
        return poly
    for term in text.split(" + "):
        coeff = 1
        powers: dict[int, int] = {}
        for factor in term.split("*"):
            m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor.strip())
            if m:
                var = int(m.group(1))
                powers[var] = powers.get(var, 0) + int(m.group(2) or 1)
            else:
                coeff *= int(factor)
        mono = tuple(sorted(powers.items()))
        if mono in poly:
            raise ValueError(f"monomial repeated in {text!r}")
        poly[mono] = coeff
    return poly


def _frozen(poly: dict) -> frozenset:
    return frozenset(poly.items())


def _mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            acc = dict(m1)
            for v, e in m2:
                acc[v] = acc.get(v, 0) + e
            mono = tuple(sorted(acc.items()))
            out[mono] = (out.get(mono, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def _add(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = (out.get(m, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def _substitute(poly: dict, subs: dict, p: int) -> dict:
    out: dict = {}
    for mono, coeff in poly.items():
        piece = {(): coeff}
        for v, e in mono:
            for _ in range(e):
                piece = _mul(piece, subs[v], p)
        out = _add(out, piece, p)
    return out


def _rank(polys: list[dict], p: int) -> int:
    """Rank over GF(p) of the coefficient vectors of the polynomials."""
    monos = sorted({m for poly in polys for m in poly})
    rows = [[poly.get(m, 0) % p for m in monos] for poly in polys]
    rank = 0
    for col in range(len(monos)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _polys_of(argv: list[str], flag: str) -> list[dict]:
    return [parse_poly(t.strip()) for t in _option(argv, flag).split(";") if t.strip()]


def _listing(results: dict) -> tuple[int, list[dict], bool]:
    """(count, listed polynomials, whether the listing is complete)."""
    if "elements" in results:
        return results["count"], [parse_poly(t) for t in results["elements"]], True
    return results["count"], [parse_poly(t) for t in results["elements_sample"]], False


def expected_hoc(polys: list[dict]) -> set:
    """Homovariate parts of every input, with 0: each part collects the
    monomials on one variable set, so the parts of a polynomial sum to it."""
    parts = {_frozen({})}
    for poly in polys:
        groups: dict = {}
        for mono, coeff in poly.items():
            groups.setdefault(frozenset(v for v, _ in mono), {})[mono] = coeff
        parts |= {_frozen(g) for g in groups.values()}
    return parts


def expected_product(left: list[dict], right: list[dict], p: int) -> set:
    """Every substitution of members of right for the variables of members of left."""
    out = set()
    for poly in left:
        support = sorted({v for mono in poly for v, _ in mono})
        for choice in itertools.product(right, repeat=len(support)):
            out.add(_frozen(_substitute(poly, dict(zip(support, choice)), p)))
    return out


# -- answer checks -------------------------------------------------------------


def answer(code: int, report: dict | None) -> dict:
    """The label-invariant part of a job's outcome, as pinned in reference.json.

    Element labels show up only in the expanded algebra, in the image and
    target sets of the ideal checks, and in the polynomial listings, so
    those are reduced to sizes.
    """
    if report is None:
        return {"code": code}
    command = report["command"]
    results = dict(report["results"])
    if command == "expand":
        results.pop("expanded_algebra", None)
    elif command == "bound-verify" and "ideal_checks" in results.get("absorbing_arity_check", {}):
        arity = dict(results["absorbing_arity_check"])
        arity["ideal_checks"] = [
            dict(c, image=len(c["image"]), target=len(c["target"]))
            for c in arity["ideal_checks"]
        ]
        results["absorbing_arity_check"] = arity
    elif command == "polyclone lclo-check":
        results["generators"] = len(results["generators"])
        results["homovariate"] = len(results["homovariate"])
    elif command.startswith("polyclone "):
        results.pop("elements", None)
        results.pop("elements_sample", None)
        results.pop("note", None)
    return {"code": code, "caps_hit": report["caps_hit"], "results": results}


def _is_abelian_group(plus: list[int], neg: list[int], n: int, zero: int) -> bool:
    def add(a, b):
        return plus[a * n + b]

    elems = range(n)
    return (
        all(add(a, zero) == a for a in elems)
        and all(add(a, neg[a]) == zero for a in elems)
        and all(add(a, b) == add(b, a) for a in elems for b in elems)
        and all(add(add(a, b), c) == add(a, add(b, c)) for a in elems for b in elems for c in elems)
    )


def _check_expansion(argv: list[str], report: dict) -> str | None:
    base = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    zero = int(_option(argv, "--zero"))
    ops = report["results"]["expanded_algebra"]["operations"]
    if ops[: len(base["operations"])] != base["operations"]:
        return "expanded algebra does not keep the input operations"

    def last(prefix: str, arity: int) -> list[int] | None:
        found = [op["table"] for op in ops if op["arity"] == arity and op["name"].rstrip("2") == prefix]
        return found[-1] if found else None

    plus, neg = last("+", 2), last("neg", 1)
    if plus is None or neg is None or not _is_abelian_group(plus, neg, base["size"], zero):
        return f"expanded + and neg are not an abelian group with zero {zero}"
    return None


def _check_computed(job: dict, report: dict) -> str | None:
    argv = job["argv"]
    p = int(_option(argv, "--field"))
    count, listed, complete = _listing(report["results"])
    got = {_frozen(x) for x in listed}
    if len(got) != len(listed):
        return "listing repeats a polynomial"
    kind = job["check"]
    if kind == "span":
        gens = _polys_of(argv, "--polys")
        rank = _rank(gens, p)
        if count != p**rank:
            return f"span has {count} members, expected {p}**{rank}"
        outside = [x for x in listed if _rank(gens + [x], p) != rank]
        if outside:
            return f"listed {poly_text(outside[0])} is outside the span"
        return None
    if kind == "hoc":
        want = expected_hoc(_polys_of(argv, "--polys"))
    else:
        want = expected_product(_polys_of(argv, "--a"), _polys_of(argv, "--b"), p)
    if count != len(want) or not got <= want or (complete and got != want):
        return f"{kind} listing differs from the independent computation"
    return None


def check(job: dict, code: int, stdout: str, reference: dict) -> str | None:
    """None when the job's output is right, else the reason it is not."""
    try:
        report = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        return "report is not JSON"
    if job["check"] in ("pinned", "expand"):
        if job["id"] not in reference:
            return "no pinned answer"
        if answer(code, report) != reference[job["id"]]:
            return "answer differs from the pinned reference"
        if job["check"] == "expand" and code == 0:
            return _check_expansion(job["argv"], report)
        return None
    if code != 0 or report is None:
        return f"exit code {code}"
    return _check_computed(job, report)


def command_group(job: dict) -> str:
    """The named command-time sum a job counts toward."""
    argv = job["argv"]
    if argv[0] != "polyclone":
        return argv[0].replace("-", "_") + "_s"
    return "lclo_check_s" if argv[1] == "lclo-check" else "poly_arith_s"
