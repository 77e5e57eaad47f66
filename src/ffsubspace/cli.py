"""Command-line interface.

Subcommands dispatch thinly onto the library: `check` runs a scenario file
end to end, the others expose individual pipelines (Hilbert slices, the
ratio threshold, Chow expansions, the constants ledger, filtrations, and
the position check).  Exit codes: 0 success, 1 when a check produced a
Violation verdict, 2 on input errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from functools import cache

from .chow import (
    check_skew_floor,
    chow_of_hypersurface,
    chow_of_linear,
    expand_skew,
    psigma_count_report,
)
from .effective_constants import ConstantInputs, assemble_constants
from .errors import PointOnDivisor, SchemaError, ToolkitError
from .filtration import (
    build_filtration,
    exponent_sum,
    filtration_inequality_check,
)
from .function_field import Place, ProjectivePoint
from .graded_ideal import (
    POSITION_CAP,
    IdealGenerators,
    check_subgeneral_position,
    graded_piece,
    quotient_monomial_basis,
)
from .harness import (
    constants_rows,
    emit_report,
    fmt_q,
    has_violation,
    int_text,
    json_text,
    load_scenario,
    load_variety_dict,
    parse_fraction,
    parse_variety,
    position_to_dict,
    read_json,
    run_check,
    schema_validate,
)
from .hilbert_bounds import scan_ratio_window, threshold_a_eps
from .multipoly import format_monomial, parse_poly
from .parsing import parse_rational


def _infer_num_vars(texts, explicit):
    if explicit is not None:
        if explicit < 1:
            raise ToolkitError(f"--num-vars must be at least 1, got {explicit}")
        return explicit
    top = -1
    for text in texts:
        for match in re.finditer(r"X(\d+)", text):
            top = max(top, int(match.group(1)))
    if top < 0:
        raise ToolkitError("cannot infer variable count; pass --num-vars")
    return top + 1


def _parse_gens(arg: str, num_vars) -> IdealGenerators:
    texts = [s for s in (part.strip() for part in arg.split(";")) if s]
    nv = _infer_num_vars(texts, num_vars)
    return IdealGenerators.parse(nv, texts)


_RATIONAL = {"type": ["string", "integer"]}
# Every count is at least 1, H values too: H_X(k) >= 1 for a nonempty X.
_COUNT = {"type": "integer", "minimum": 1}
CONSTANTS_SCHEMA = {
    "type": "object",
    "required": ["n", "delta", "M", "N", "q", "d_i", "epsilon", "s_card", "s_degree"],
    "properties": {
        **{key: _COUNT for key in ("n", "delta", "M", "N", "q", "s_card", "s_degree")},
        "m": {"type": "integer"},  # ConstantInputs checks m against its floor
        "d_i": {"type": "array", "items": _COUNT},
        **{key: _RATIONAL for key in ("epsilon", "h_fx", "h_q_family", "e_s_term", "c1", "c1_prime")},
        "h_q_i": {"type": "array", "items": _RATIONAL},
        "H_table": {
            "type": "object",
            "propertyNames": {"pattern": "^[0-9]+$"},
            "additionalProperties": _COUNT,
        },
    },
}


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(payload: dict, args) -> None:
    if getattr(args, "report", None):
        _write(args.report, json_text(payload) + "\n")


def _cmd_check(args) -> int:
    scenario = load_scenario(args.file)
    report = run_check(scenario)
    text = emit_report(report, args.format)
    sys.stdout.write(text)
    if args.report:
        # with --format json, stdout already holds the report's text
        if args.format == "json":
            _write(args.report, text)
        else:
            emit_report(report, "json", args.report)
    return 1 if has_violation(report) else 0


def _cmd_hilbert(args) -> int:
    gens = _parse_gens(args.gens, args.num_vars)
    piece = graded_piece(gens, args.m)
    basis = quotient_monomial_basis(gens, args.m)
    h = len(basis)  # H(m), read off the piece built above
    print(f"degree m = {args.m}: rank {piece.rank}, H(m) = {h}")
    print("quotient monomial basis:", " ".join(
        format_monomial(mono) or "1" for mono in basis.monomials
    ))
    _emit(
        {
            "m": args.m,
            "rank": piece.rank,
            "hilbert": h,
            "quotient_basis": [list(mono) for mono in basis.monomials],
        },
        args,
    )
    return 0


# `scan_ratio_window` sums its prefix up to a_eps in closed form and takes
# one H value per multiple of d in a window of at most MAX_SCAN_WINDOW
# degrees, so its cost does not grow with a_eps.  `bounds a-eps` refuses a
# scan past MAX_SCAN_DEGREE before computing any: a_eps grows like
# (2 delta)^(n+1), so the limit bounds n too, and with it the cost of each
# closed form and H value (n = 300 took 19 s without it; Python 3.11.7, 2
# vCPUs).
MAX_SCAN_WINDOW = 1000
MAX_SCAN_DEGREE = 10**6


def _fraction_arg(text: str) -> Fraction:
    """A Fraction for argparse: '1/0' raises ZeroDivisionError, which argparse
    would not turn into a usage error (exit 2)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _cmd_bounds_a_eps(args) -> int:
    if args.window < 0:
        raise ToolkitError(f"--window must be at least 0, got {args.window}")
    if args.window > MAX_SCAN_WINDOW:
        raise ToolkitError(f"--window must be at most {MAX_SCAN_WINDOW}, got {args.window}")
    eps = args.eps
    a = threshold_a_eps(args.n, args.delta, args.d, eps)
    if a + args.window > MAX_SCAN_DEGREE:
        raise ToolkitError(
            f"a_eps = {int_text(a)}: a scan to degree {int_text(a + args.window)} "
            f"exceeds the limit {MAX_SCAN_DEGREE}"
        )
    ok = scan_ratio_window(args.n, args.delta, args.d, eps, a, args.window)
    print(f"a_eps = {a}")
    print(
        f"scan of [{a}, {a + args.window}] against the extremal Hilbert "
        f"function: {'pass' if ok else 'FAIL'}"
    )
    _emit({"a_eps": a, "scan_window": args.window, "scan_ok": ok}, args)
    return 0 if ok else 1


def _cmd_chow(args) -> int:
    data = read_json(args.input)
    # a scenario, or a bare variety file: {"ambient_dim": M, "kind": ..., ...}.
    # Only the Chow form is printed, so of a scenario only the variety is
    # parsed: its divisors, places and points are left to `check`.
    if isinstance(data, dict) and "variety" in data:
        schema_validate(data)
        variety = parse_variety(data["variety"], data["ambient_dim"], "/variety")
    else:
        variety = load_variety_dict(data)
    # `check` needs only an ideal's Chow form, so the others are built here,
    # unless their shape alone makes `expand_skew` refuse them
    form, gens = variety.chow_form, variety.x_gens
    if variety.kind != "ideal":
        check_skew_floor(variety.dimension + 1, gens.num_vars, variety.degree)
    if variety.kind == "hypersurface":
        form = chow_of_hypersurface(gens.generators[0])
    elif variety.kind == "projective_space":
        units = [[int(i == j) for j in range(gens.num_vars)] for i in range(gens.num_vars)]
        form = chow_of_linear(map(ProjectivePoint, units))
    expansion = expand_skew(form)
    counts = psigma_count_report(expansion)
    height = fmt_q(variety.h_fx)
    print(
        f"Chow form: {form.blocks} blocks of {form.vars_per_block} vars, "
        f"degree {form.block_degree} per block, {len(form.terms)} terms"
    )
    print(f"height h(X) = {height}")
    print(
        f"skew expansion: {counts.actual_count} nonzero P_sigma; "
        f"stated bound {counts.stated_bound}; "
        f"combinatorial monomial count {counts.combinatorial_count}"
    )
    _emit(
        {
            "blocks": form.blocks,
            "vars_per_block": form.vars_per_block,
            "block_degree": form.block_degree,
            "terms": len(form.terms),
            "height": height,
            "sigma_actual": counts.actual_count,
            "sigma_stated_bound": counts.stated_bound,
            "sigma_combinatorial": counts.combinatorial_count,
        },
        args,
    )
    return 0


def _cmd_constants(args) -> int:
    data = read_json(args.inputs)
    schema_validate(data, CONSTANTS_SCHEMA)

    def rational(key, default="0"):
        return parse_fraction(data.get(key, default), f"/{key}")

    inputs = ConstantInputs(
        n=data["n"],
        delta=data["delta"],
        M=data["M"],
        N=data["N"],
        q=data["q"],
        d_i=tuple(data["d_i"]),
        epsilon=rational("epsilon"),
        s_card=data["s_card"],
        s_degree=data["s_degree"],
        h_fx=rational("h_fx"),
        h_q_family=rational("h_q_family"),
        h_q_i=tuple(
            parse_fraction(h, f"/h_q_i/{i}")
            for i, h in enumerate(data.get("h_q_i", ["0"] * data["q"]))
        ),
        e_s_term=rational("e_s_term"),
        c1=rational("c1"),
        c1_prime=rational("c1_prime"),
        m=data.get("m"),
    )
    table = data.get("H_table", {})
    for key in table:
        # the schema's pattern also lets "01" and "1\n" through: a second
        # name for degree 1, which would silently replace the first
        if not key.isdigit() or (key.startswith("0") and key != "0"):
            raise SchemaError(f"{key!r} is not a canonical degree", f"/H_table/{key}")
    # E, where H may differ from the Sombra bound G, is the table's degrees:
    # the table gives H where it has a key, and G stands in everywhere else
    degrees = sorted(map(int, table))
    rows = constants_rows(assemble_constants(inputs, lambda k: table.get(str(k)), degrees))
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k.rjust(width)} = {v if isinstance(v, str) else int_text(v)}")
    _emit({k: v for k, v in rows}, args)
    return 0


def _cmd_filtration(args) -> int:
    if (args.point is None) != (args.place is None):
        missing = "--place" if args.place is None else "--point"
        raise ToolkitError(f"missing {missing}: the key inequality needs --point and --place")
    gens_texts = [s for s in (p.strip() for p in args.gens.split(";")) if s]
    nv = _infer_num_vars(gens_texts + [args.q_poly], args.num_vars)
    gens = IdealGenerators.parse(nv, gens_texts)
    q_poly = parse_poly(args.q_poly, nv)
    if args.point is not None:
        x = ProjectivePoint([parse_rational(c) for c in args.point.split(",")])
        if x.num_vars != nv:
            raise ToolkitError(f"--point has {x.num_vars} coordinates, the ideal has {nv} variables")
        p = Place.parse(args.place)
        if q_poly.evaluate(x).is_zero():
            raise PointOnDivisor("point lies on the filtration divisor")
    basis = build_filtration(gens, args.m, q_poly)
    print(f"filtration of degree {args.m} by {args.q_poly} (d = {q_poly.degree}):")
    print(f"  level dims W_i: {list(basis.level_dims)}")
    for i, g in basis.entries:
        print(f"  i = {i}: g = {format_monomial(g) or '1'}")
    rep = exponent_sum(basis)
    print(
        f"exponent sum {rep.total}; level sum {rep.level_sum}; "
        f"stated closed form {rep.stated_sum} (difference {rep.difference})"
    )
    payload = {
        "m": args.m,
        "d": q_poly.degree,
        "level_dims": list(basis.level_dims),
        "entries": [
            {"i": i, "g": format_monomial(g) or "1"} for i, g in basis.entries
        ],
        "exponent_sum": rep.total,
        "stated_sum": rep.stated_sum,
    }
    if args.point is not None:
        chk = filtration_inequality_check(p, x, basis)
        print(
            f"key inequality at place {p}, point {x}: "
            f"lhs {chk.lhs} >= rhs {chk.rhs}: {'ok' if chk.ok else 'FAIL'}"
        )
        payload["inequality"] = {
            "place": str(p),
            "lhs": None if not chk.finite else chk.lhs,
            "rhs": chk.rhs,
            "ok": chk.ok,
        }
    _emit(payload, args)
    return 0


def _cmd_position(args) -> int:
    scenario = load_scenario(args.file)
    n_value = args.N if args.N is not None else scenario.N
    top = len(scenario.divisors) - 1
    if args.N is not None and not 1 <= n_value <= top:
        # N >= 1 as in a scenario, and N <= q - 1 leaves an (N+1)-subset to check.
        raise ToolkitError(f"--N must lie in [1, {top}], got {n_value}")
    report = check_subgeneral_position(scenario.variety.x_gens, scenario.divisors, n_value)
    print(
        f"N = {n_value}: {'in position' if report.in_position else 'NOT certified'} "
        f"(cap {POSITION_CAP})"
    )
    for sub in report.subsets:
        print(f"  subset {list(sub.indices)}: {sub.verdict}")
    _emit(position_to_dict(report), args)
    return 0


_COMMAND_HELP = {
    "check": "run a scenario file end to end",
    "hilbert": "Hilbert function of a graded slice",
    "bounds": "quantitative Hilbert bounds",
    "chow": "Chow form expansion statistics",
    "constants": "effective constants ledger",
    "filtration": "divisor filtration of a graded quotient",
    "position": "N-subgeneral position check",
}


def _command_parser(name, sub=None) -> argparse.ArgumentParser:
    """Command `name`'s parser: a subparser of `sub`, or with None its own."""
    p = (argparse.ArgumentParser(prog=f"ffsubspace {name}") if sub is None
         else sub.add_parser(name, help=_COMMAND_HELP[name]))
    if name == "check":
        p.add_argument("file")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--report", help="also write a JSON report here")
        p.set_defaults(func=_cmd_check)
    elif name == "hilbert":
        p.add_argument("--gens", required=True, help="semicolon-separated generators")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--num-vars", type=int)
        p.add_argument("--report")
        p.set_defaults(func=_cmd_hilbert)
    elif name == "bounds":
        bounds_sub = p.add_subparsers(dest="bounds_command", required=True)
        pa = bounds_sub.add_parser("a-eps", help="ratio threshold a_eps")
        pa.add_argument("--n", type=int, required=True)
        pa.add_argument("--delta", type=int, required=True)
        pa.add_argument("--d", type=int, required=True)
        pa.add_argument("--eps", type=_fraction_arg, required=True)
        pa.add_argument("--window", type=int, default=100)
        pa.add_argument("--report")
        pa.set_defaults(func=_cmd_bounds_a_eps)
    elif name == "chow":
        p.add_argument("--input", required=True, help="scenario or variety JSON")
        p.add_argument("--report")
        p.set_defaults(func=_cmd_chow)
    elif name == "constants":
        p.add_argument("--inputs", required=True, help="JSON file of constant inputs")
        p.add_argument("--report")
        p.set_defaults(func=_cmd_constants)
    elif name == "filtration":
        p.add_argument("--gens", required=True, help="semicolon-separated generators ('' for the zero ideal)")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--q-poly", required=True)
        p.add_argument("--num-vars", type=int)
        p.add_argument("--point", help="comma-separated coordinates for the key inequality")
        p.add_argument("--place", help="place for the key inequality")
        p.add_argument("--report")
        p.set_defaults(func=_cmd_filtration)
    elif name == "position":
        p.add_argument("--file", required=True)
        p.add_argument("--N", type=int, help="override the scenario's N")
        p.add_argument("--report")
        p.set_defaults(func=_cmd_position)
    return p


@cache
def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's full parser, or a command's own, each built once per process
    however often `main` runs; every caller shares it, so none may change it."""
    if command is not None:
        return _command_parser(command)
    parser = argparse.ArgumentParser(
        prog="ffsubspace",
        description="Exact heights, Chow expansions, Hilbert bounds and "
        "subspace-inequality checks over Q(t)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMAND_HELP:
        _command_parser(name, sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the full parser reads a call that names no command or leaves arguments over
    command = argv[0] if argv and argv[0] in _COMMAND_HELP else None
    args, rest = build_parser(command).parse_known_args(argv[1:] if command else argv)
    if rest:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
