"""Command line front end with machine-readable JSON reports.

Every invocation runs one analysis and prints a single JSON report to
standard output.  A report carries the command name, a digest of the
input, the resolved parameters, the results payload, the list of caps
that were hit, and the wall time.  Everything except the wall time is
deterministic for a fixed input and parameter set, so reports can be
diffed or cached by scripts.

Exit codes:
    0   analysis completed
    1   unusable input (bad file, bad flags, malformed polynomial)
    2   definite negative verdict or witness (refusal, refutation)
    3   a cap cut the search short of a verdict
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from .algebra import AlgebraFormatError, CapExceeded, FiniteAlgebra, parse_algebra
from .clones import DEFAULT_CAP
from .congruence import (
    congruence_lattice,
    has_uniform_blocks,
    lattice_height,
    nilpotency_class,
)
from .expansion import expand_pipeline
from .fields import finite_field, prime_power
from .malcev import find_malcev_term
from .polyclone import (
    PolySet,
    additive_span,
    homovariate_component,
    homovariate_generators,
    homovariate_parts_of_set,
    parse_polynomial,
    set_product,
    substitution_closure,
    verify_homovariate_split,
)
from .supernil import (
    absorbing_arity_check,
    absorbing_survey,
    check_supernilpotent,
    log_height_bound,
    spectrum_degree_probe,
    supernilpotency_bound,
    term_condition_falsify,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_WITNESS = 2
EXIT_CAPPED = 3

LISTING_LIMIT = 200


class CliInputError(Exception):
    """Anything wrong with the invocation itself rather than the math."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # witness exit code; surface flag problems as input errors instead
    def error(self, message):
        raise CliInputError(message)


def _load_algebra(path: str) -> tuple[FiniteAlgebra, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}")
    digest = hashlib.sha256(raw).hexdigest()
    try:
        algebra = parse_algebra(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, AlgebraFormatError) as exc:
        raise CliInputError(f"{path}: {exc}")
    return algebra, digest


def _check_zero(algebra: FiniteAlgebra, zero: int) -> None:
    if not 0 <= zero < algebra.size:
        raise CliInputError(f"zero element {zero} outside 0..{algebra.size - 1}")


def _finish(command, digest, parameters, results, caps_hit, started, json_out) -> None:
    report = {
        "command": command,
        "input_digest": digest,
        "parameters": parameters,
        "results": results,
        "caps_hit": sorted(set(caps_hit)),
        "wall_time_seconds": round(time.perf_counter() - started, 6),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if json_out:
        Path(json_out).write_text(text + "\n", encoding="utf-8")


def _listing(polys) -> dict:
    texts = [str(p) for p in polys]
    out = {"count": len(texts)}
    if len(texts) <= LISTING_LIMIT:
        out["elements"] = texts
    else:
        out["elements_sample"] = texts[:LISTING_LIMIT]
        out["note"] = "listing truncated"
    return out


def _survey_summary(survey) -> dict:
    nonzero = survey.nonzero()
    return {
        "arity": survey.arity,
        "searched": int(survey.searched),
        "nonzero_absorbing": len(nonzero),
        "max_essential_arity": max((e.essential_arity for e in nonzero), default=0),
        "partial": survey.partial,
    }


def _arity_report_dict(report) -> dict:
    return {
        "order": report.order,
        "nilpotency_class": report.nilpotency_class,
        "plus_op": report.plus_op,
        "extra_ops": sorted(report.extra_ops),
        "max_extra_arity": report.max_extra_arity,
        "substitution_degree": report.substitution_degree,
        "bound": report.bound,
        "arity_cap": report.arity_cap,
        "observed_max_essential": report.observed_max_essential,
        "within_bound": report.within_bound,
        "partial": report.partial,
        "ok": report.ok,
        "surveys": [_survey_summary(s) for s in report.surveys],
        "ideal_checks": [
            {
                "level": c.level,
                "variable_count": c.variable_count,
                "image": [int(v) for v in c.image],
                "target": [int(v) for v in c.target],
                "contained": c.contained,
            }
            for c in report.ideal_checks
        ],
        "notes": list(report.notes),
    }


def _check_dict(check) -> dict:
    out = {
        "degree": check.degree,
        "arity_cap": check.arity_cap,
        "verified_degree": check.verified_degree,
        "refuted": check.refuted,
        "partial": check.partial,
    }
    if check.counterexample is not None:
        out["counterexample_arity"] = check.counterexample_arity
    for name in ("nilpotency_class", "height", "bound"):
        value = getattr(check, name)
        if value is not None:
            out[name] = value
    return out


def _probe_dict(probe) -> dict:
    return {
        "arities": list(probe.arities),
        "counts": [int(c) for c in probe.counts],
        "log2_counts": [round(float(v), 6) for v in probe.log2_counts],
        "degree_estimate": probe.degree_estimate,
    }


def _tc_witness_dict(witness) -> dict:
    return {
        "term": witness.term.to_sexpr(),
        "composition": list(witness.composition),
        "left_tuples": [list(t) for t in witness.left_tuples],
        "right_tuples": [list(t) for t in witness.right_tuples],
        "lhs": witness.lhs,
        "rhs": witness.rhs,
    }


def _cmd_analyze(args, started) -> int:
    algebra, digest = _load_algebra(args.file)
    size_cap = args.size_cap if args.size_cap is not None else DEFAULT_CAP
    parameters = {"file": args.file, "size_cap": size_cap}
    caps: list[str] = []
    lattice = congruence_lattice(algebra)
    klass = nilpotency_class(algebra)
    results = {
        "size": algebra.size,
        "operation_names": [op.name for op in algebra.operations],
        "congruences": len(lattice),
        "height": lattice_height(lattice),
        "nilpotency_class": klass if klass is not None else "not nilpotent",
        "congruence_uniform": all(has_uniform_blocks(c) for c in lattice),
    }
    code = EXIT_OK
    try:
        witness = find_malcev_term(algebra, depth_cap=args.depth_cap, cap=size_cap)
    except CapExceeded as exc:
        results["malcev_term"] = None
        results["malcev_note"] = str(exc)
        caps.append("malcev term search capped")
        code = EXIT_CAPPED
    else:
        results["malcev_term"] = witness.term.to_sexpr() if witness else None
    _finish("analyze", digest, parameters, results, caps, started, args.json_out)
    return code


def _cmd_expand(args, started) -> int:
    algebra, digest = _load_algebra(args.file)
    _check_zero(algebra, args.zero)
    parameters = {"file": args.file, "zero": args.zero, "out": args.out}
    caps: list[str] = []
    try:
        pipe = expand_pipeline(algebra, zero=args.zero)
    except ValueError as exc:
        _finish("expand", digest, parameters, {"refused": str(exc)}, caps, started, args.json_out)
        return EXIT_WITNESS
    except CapExceeded as exc:
        caps.append("malcev term search capped")
        _finish("expand", digest, parameters, {"undecided": str(exc)}, caps, started, args.json_out)
        return EXIT_CAPPED
    expanded = pipe.expanded.as_algebra()
    results = {
        "witness": pipe.witness.term.to_sexpr(),
        "nilpotency_class": pipe.nilpotency,
        "series_length": pipe.series.length,
        "group_factors": [len(f.members) for f in pipe.group.factors],
        "checks": [{"name": c.name, "passed": c.passed} for c in pipe.report.checks],
        "all_passed": all(c.passed for c in pipe.report.checks),
        "expanded_algebra": expanded.to_json(),
    }
    if args.out:
        Path(args.out).write_text(
            json.dumps(expanded.to_json(), indent=1) + "\n", encoding="utf-8"
        )
        results["output_path"] = args.out
    _finish("expand", digest, parameters, results, caps, started, args.json_out)
    return EXIT_OK


def _cmd_bound_verify(args, started) -> int:
    algebra, digest = _load_algebra(args.file)
    _check_zero(algebra, args.zero)
    size_cap = args.size_cap if args.size_cap is not None else DEFAULT_CAP
    parameters = {
        "file": args.file,
        "zero": args.zero,
        "arity_cap": args.arity_cap,
        "size_cap": size_cap,
        "depth_cap": args.depth_cap,
    }
    caps: list[str] = []
    q = algebra.size
    m = algebra.max_arity
    h = lattice_height(congruence_lattice(algebra))
    results: dict = {"q": q, "m": m, "h": h}
    if q >= 2 and prime_power(q) is None:
        # the degree bound is stated per prime-power factor; splitting a
        # mixed-order algebra into factors is left to the caller
        real, ceiling = log_height_bound(q, m)
        results["warning"] = (
            "order is not a prime power; apply the bound to each "
            "prime-power factor separately"
        )
        results["log_order_bound"] = {"real": round(real, 6), "ceiling": ceiling}
    results["bound_s"] = supernilpotency_bound(q, m, h) if q >= 2 else 1
    try:
        pipe = expand_pipeline(algebra, zero=args.zero)
    except ValueError as exc:
        results["refused"] = str(exc)
        _finish("bound-verify", digest, parameters, results, caps, started, args.json_out)
        return EXIT_WITNESS
    except CapExceeded as exc:
        results["undecided"] = str(exc)
        caps.append("malcev term search capped")
        _finish("bound-verify", digest, parameters, results, caps, started, args.json_out)
        return EXIT_CAPPED
    expanded = pipe.expanded.as_algebra()
    results["series_length"] = pipe.series.length
    results["expansion_verified"] = all(c.passed for c in pipe.report.checks)

    observed = None
    try:
        arity_report = absorbing_arity_check(
            expanded, zero=args.zero, arity_cap=args.arity_cap, cap=size_cap
        )
    except ValueError as exc:
        results["absorbing_arity_check"] = {"skipped": str(exc)}
    else:
        results["absorbing_arity_check"] = _arity_report_dict(arity_report)
        observed = arity_report.observed_max_essential
        if arity_report.partial:
            caps.append("absorbing surveys capped")
    if observed is None:
        observed = 0
        for n in range(1, args.arity_cap + 1):
            survey = absorbing_survey(expanded, zero=args.zero, arity=n, cap=size_cap, with_terms=False)
            if survey.partial:
                caps.append(f"absorbing survey arity {n} capped")
            observed = max(
                observed, max((e.essential_arity for e in survey.nonzero()), default=0)
            )
    degree = max(1, observed)
    results["observed_degree"] = degree

    check = check_supernilpotent(
        expanded, degree, arity_cap=max(args.arity_cap, degree + 1), zero=args.zero, cap=size_cap
    )
    results["degree_check"] = _check_dict(check)
    if check.partial:
        caps.append("degree check closure capped")
    if degree >= 2:
        refutation = check_supernilpotent(
            expanded, degree - 1, arity_cap=degree, zero=args.zero, cap=size_cap, with_context=False
        )
        results["lower_degree_refuted"] = refutation.refuted
        if refutation.counterexample is not None:
            results["lower_degree_witness_arity"] = refutation.counterexample_arity

    # the original algebra inherits any degree verified for its expansion,
    # so a violation found back on the reduct at that degree is a real
    # inconsistency rather than new information
    k = min(degree, 2)
    depth = args.depth_cap if args.depth_cap else 2
    tc_witness = term_condition_falsify(algebra, k, tuple_bound=1, term_depth_bound=depth, cap=size_cap)
    results["reduct_term_condition"] = {
        "k": k,
        "witness": _tc_witness_dict(tc_witness) if tc_witness else None,
    }
    inconsistent = check.refuted or (tc_witness is not None and k >= degree)

    estimate = None
    try:
        probe = spectrum_degree_probe(algebra, max_arity=3, cap=size_cap)
        results["spectrum"] = _probe_dict(probe)
        estimate = probe.degree_estimate
    except CapExceeded as exc:
        results["spectrum"] = {"skipped": str(exc)}
        caps.append("free spectrum capped")
    bound_s = results["bound_s"]
    results["triangle"] = {
        "spectrum_estimate": estimate,
        "observed_degree": degree,
        "verified_degree": check.verified_degree,
        "bound_s": bound_s,
        "consistent": not inconsistent
        and (estimate is None or estimate <= degree)
        and degree <= bound_s,
    }
    if inconsistent:
        results["inconsistent"] = True
        code = EXIT_WITNESS
    elif check.verified_degree is None:
        code = EXIT_CAPPED
    else:
        code = EXIT_OK
    _finish("bound-verify", digest, parameters, results, caps, started, args.json_out)
    return code


def _cmd_spectrum(args, started) -> int:
    algebra, digest = _load_algebra(args.file)
    size_cap = args.size_cap if args.size_cap is not None else DEFAULT_CAP
    parameters = {"file": args.file, "max_arity": args.max_arity, "size_cap": size_cap}
    caps: list[str] = []
    try:
        probe = spectrum_degree_probe(algebra, max_arity=args.max_arity, cap=size_cap)
    except CapExceeded as exc:
        caps.append("free spectrum capped")
        _finish("spectrum", digest, parameters, {"skipped": str(exc)}, caps, started, args.json_out)
        return EXIT_CAPPED
    results = _probe_dict(probe)
    results["differences"] = [
        [round(float(v), 6) for v in row] for row in probe.differences
    ]
    _finish("spectrum", digest, parameters, results, caps, started, args.json_out)
    return EXIT_OK


def _parse_field(text: str):
    t = text.strip()
    try:
        if "^" in t:
            base, _, exp = t.partition("^")
            order = int(base) ** int(exp)
        else:
            order = int(t)
    except ValueError:
        raise CliInputError(f"cannot parse field order {text!r}")
    try:
        return finite_field(order)
    except ValueError as exc:
        raise CliInputError(str(exc))


def _parse_polys(fld, text: str, tag: str) -> PolySet:
    polys = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            polys.append(parse_polynomial(fld, chunk))
        except ValueError as exc:
            raise CliInputError(f"bad polynomial {chunk!r}: {exc}")
    return PolySet.make(fld, polys, tag)


def _cmd_polyclone(args, started) -> int:
    fld = _parse_field(args.field)
    sub = args.subcommand
    parameters = {
        "subcommand": sub,
        "field": fld.order,
        "window": args.window,
        "size_cap": args.size_cap,
        "depth_cap": args.depth_cap,
        "max_arity": args.max_arity,
    }
    if sub == "product":
        if args.a is None or args.b is None:
            raise CliInputError("product needs --a and --b polynomial lists")
        parameters["a"] = args.a
        parameters["b"] = args.b
    else:
        parameters["polys"] = args.polys
        if args.variables:
            parameters["variables"] = args.variables
    digest = hashlib.sha256(
        json.dumps(parameters, sort_keys=True).encode("utf-8")
    ).hexdigest()
    caps: list[str] = []
    size_cap = args.size_cap
    code = EXIT_OK

    if sub == "product":
        left = _parse_polys(fld, args.a, "a")
        right = _parse_polys(fld, args.b, "b")
        try:
            results = _listing(set_product(left, right, cap=size_cap or 1 << 20).sorted())
        except CapExceeded as exc:
            results = {"skipped": str(exc)}
            caps.append("product capped")
            code = EXIT_CAPPED
    elif sub == "span":
        gens = _parse_polys(fld, args.polys, "F")
        try:
            results = _listing(additive_span(gens, args.window, cap=size_cap or 1 << 20).sorted())
        except CapExceeded as exc:
            results = {"skipped": str(exc)}
            caps.append("span capped")
            code = EXIT_CAPPED
    elif sub == "hoc":
        gens = _parse_polys(fld, args.polys, "F")
        if args.variables:
            try:
                variables = [int(v) for v in args.variables.split(",") if v.strip()]
            except ValueError:
                raise CliInputError(f"bad variable list {args.variables!r}")
            parts = sorted(
                homovariate_component(p, variables) for p in gens.sorted()
            )
            results = _listing(parts)
        else:
            results = _listing(homovariate_parts_of_set(gens).sorted())
    elif sub == "clop":
        gens = _parse_polys(fld, args.polys, "F")
        closure = substitution_closure(
            gens, args.window, depth_cap=args.depth_cap, size_cap=size_cap or 4096
        )
        results = _listing(closure.polys.sorted())
        results["capped"] = closure.capped
        results["window"] = closure.window
        if closure.capped:
            caps.append("substitution closure capped")
            code = EXIT_CAPPED
    elif sub == "build-h":
        gens = _parse_polys(fld, args.polys, "F")
        try:
            results = _listing(
                homovariate_generators(gens, args.window, span_cap=size_cap or 1 << 20).sorted()
            )
        except CapExceeded as exc:
            results = {"skipped": str(exc)}
            caps.append("generator span capped")
            code = EXIT_CAPPED
    elif sub == "lclo-check":
        gens = _parse_polys(fld, args.polys, "F")
        try:
            split = verify_homovariate_split(
                gens,
                window=args.window,
                max_arity=args.max_arity,
                closure_cap=size_cap or 65536,
            )
        except CapExceeded as exc:
            caps.append("homovariate split capped")
            results = {"skipped": str(exc)}
            _finish(f"polyclone {sub}", digest, parameters, results, caps, started, args.json_out)
            return EXIT_CAPPED
        results = {
            "window": split.window,
            "generators": [str(p) for p in split.generators.sorted()],
            "homovariate": [str(p) for p in split.homovariate.sorted()],
            "membership_ok": split.membership_ok,
            "arities": [
                {
                    "arity": c.arity,
                    "sums_rank": c.sums_rank,
                    "clone_rank": c.clone_rank,
                    "clone_size": c.clone_size,
                    "equal": c.equal,
                    "conclusive": c.conclusive,
                }
                for c in split.arities
            ],
            "ok": split.ok,
        }
        if not split.membership_ok or any(c.conclusive and not c.equal for c in split.arities):
            code = EXIT_WITNESS
        elif not split.ok:
            caps.append("induced function comparison inconclusive")
            code = EXIT_CAPPED
    else:  # pragma: no cover - argparse restricts choices
        raise CliInputError(f"unknown polyclone subcommand {sub!r}")

    _finish(f"polyclone {sub}", digest, parameters, results, caps, started, args.json_out)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="finalg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--size-cap", type=int, default=None, help="row cap for closures")
        p.add_argument("--depth-cap", type=int, default=None, help="composition depth cap")
        p.add_argument("--json-out", default=None, help="also write the report to this path")

    p = sub.add_parser("analyze", help="congruence lattice, nilpotency, Mal'cev witness")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("expand", help="group expansion of a nilpotent Mal'cev algebra")
    p.add_argument("file")
    p.add_argument("--zero", type=int, default=0, help="designated zero element")
    p.add_argument("--out", default=None, help="write the expanded algebra to this path")
    common(p)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("bound-verify", help="degree bound and absorbing checks on the expansion")
    p.add_argument("file")
    p.add_argument("--zero", type=int, default=0)
    p.add_argument("--arity-cap", type=int, default=3, help="largest survey arity")
    common(p)
    p.set_defaults(handler=_cmd_bound_verify)

    p = sub.add_parser("spectrum", help="free spectrum counts and degree estimate")
    p.add_argument("file")
    p.add_argument("--max-arity", type=int, default=3)
    common(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("polyclone", help="polynomial set operations over a finite field")
    p.add_argument(
        "subcommand",
        choices=["product", "span", "hoc", "clop", "build-h", "lclo-check"],
    )
    p.add_argument("--field", default="2", help="field order, given as q or p^e")
    p.add_argument("--polys", default="", help="semicolon-separated polynomials")
    p.add_argument("--a", default=None, help="left polynomial list for product")
    p.add_argument("--b", default=None, help="right polynomial list for product")
    p.add_argument("--variables", default=None, help="comma-separated variable indices for hoc")
    p.add_argument("--window", type=int, default=3, help="variable window for substitutions")
    p.add_argument("--max-arity", type=int, default=3, help="largest arity for lclo-check")
    common(p)
    p.set_defaults(handler=_cmd_polyclone)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, started)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (AlgebraFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
