"""Command-line interface: construction, tables, repair, simulation, checks.

Exit codes: 0 success, 1 usage/input error, 2 a verified invariant failed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

from .construction import (build_evaluation_set, defining_coefficients,
                           find_nice_orbits, recovery_indices, surface_params)
from .elliptic_verify import (NONSQUARE, SINGULAR, SUM_O, SUM_TWO_TORSION,
                              discriminant_profile, fiber_sums)
from .gf import parse_field_label
from .lrc_code import (basis_vertices, code_profile, distance_b1,
                       distance_lower_bound, encode, f_min_message,
                       generator_matrix, min_distance)
from .newton_arc import monomial_valuations, pole_degree, splitting_at_infinity
from .recovery import (Corrupted, IncompleteRecoverySet,
                       recover_vertical, repair)
from .serialize import (ParseError, SchemaMismatch, codeword_from_dict,
                        codeword_to_dict, evaluation_set_from_profile,
                        load_json, profile_from_dict, profile_to_dict,
                        save_json, write_table_csv)
from .simulate import BadScenario, run_simulation, storage_scenario


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the contract here reserves 2 for
    # invariant violations, so usage errors are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# converters raise ArgumentTypeError so argparse reports the reason instead
# of a generic "invalid value" line
def _field_arg(text: str):
    if "^" not in text:
        text = f"{text}^1"
    try:
        return parse_field_label(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _orbits_arg(text: str):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_arg(text: str):
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _erase_arg(text: str):
    triples = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"erasure {chunk!r} is not of the form l,i,j")
        try:
            triples.append(tuple(int(v) for v in parts))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return triples


def _require(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--{name.replace('_', '-')} is required here")
    return value


def _emit(write, obj, out):
    """write(obj, file) to the file named out, or to stdout."""
    if out:
        with open(out, "w") as fh:
            write(obj, fh)
    else:
        write(obj, sys.stdout)


def _report(lines, out, code: int) -> int:
    """Write a verify report, one line per entry, to out or stdout."""
    _emit(lambda ls, fh: fh.writelines(line + "\n" for line in ls), lines, out)
    return code


def _load(path: str) -> dict:
    with open(path) as fh:
        return load_json(fh)


def _build_es(args):
    """Evaluation set from --profile if given, else --field/--r/--orbits."""
    if getattr(args, "profile", None) is not None:
        prof, fld = profile_from_dict(_load(args.profile))
        return evaluation_set_from_profile(prof, fld)
    fld = _require(args, "field")
    return build_evaluation_set(surface_params(fld, args.r), args.orbits)


def run_table(field, r: int = 3, max_subsets: int = 255, threads: int = 1):
    """(q, m, b, n, delta, d) rows over all nonempty orbit subsets.

    A row is read off the code's exact profile, so a code outside its own
    bounds raises BoundsViolation here as it does in mindist.  Subsets
    enumerate in (b, subset) order and cap at max_subsets; delta is None
    on b=1 rows, where d = 8 exactly is the sharper statement.
    """
    sp = surface_params(field, r)
    if r > 3:       # >= 1.9e15 classes: only mindist --budget bounds d
        raise ValueError(f"table needs exact distances, out of reach for r = {r}; "
                         "use mindist --budget")
    orbits = range(len(find_nice_orbits(sp)))
    subsets = itertools.chain.from_iterable(    # lazily: 2^91 - 1 on 3^8
        itertools.combinations(orbits, b) for b in range(1, len(orbits) + 1))
    rows = []
    for subset in itertools.islice(subsets, max_subsets):
        es = build_evaluation_set(sp, subset)
        prof = code_profile(es, min_distance(es, threads=threads))
        delta = None if prof.b == 1 else prof.d_lower
        rows.append((prof.q, prof.m, prof.b, prof.n, delta, prof.d_exact))
    return rows


def _cmd_construct(args) -> int:
    es = _build_es(args)
    _emit(save_json, profile_to_dict(code_profile(es), es.field), args.out)
    return 0


def _cmd_mindist(args) -> int:
    es = _build_es(args)
    dist = min_distance(es, budget=args.budget, threads=args.threads)
    _emit(save_json, profile_to_dict(code_profile(es, dist), es.field), args.out)
    return 0


def _cmd_table(args) -> int:
    rows = run_table(_require(args, "field"), args.r, args.max_subsets,
                     args.threads)
    _emit(write_table_csv, rows, args.out)
    return 0


def _check_horizontal_repairs(es, res) -> None:
    """Recompute each horizontal repair from its vertical fiber, if whole.

    A horizontal set has no spare node, so a corrupted symbol in it gives a
    wrong repair silently; recover_vertical detects it or disagrees.
    """
    for trip in sorted(t for t, path in res.paths.items() if path == "H"):
        try:
            value = recover_vertical(es, res.codeword, trip)
        except IncompleteRecoverySet:
            continue  # an unrecovered partner leaves nothing to compare
        if value != res.codeword[es.point_index(*trip)]:
            raise Corrupted(
                f"horizontal repair of {trip} disagrees with its vertical fiber")


def _cmd_recover(args) -> int:
    es = _build_es(args)
    cfld, symbols = codeword_from_dict(_load(args.codeword))
    if cfld != es.field:
        raise SchemaMismatch("codeword field differs from profile field")
    if len(symbols) != es.n:
        raise SchemaMismatch(f"codeword has {len(symbols)} symbols, code n={es.n}")
    for trip in args.erase:
        symbols[es.point_index(*trip)] = None
    res = repair(es, symbols)
    _check_horizontal_repairs(es, res)
    for trip in sorted(res.paths):
        print(f"({trip[0]},{trip[1]},{trip[2]}) {res.paths[trip]}")
    for trip in sorted(res.unrecovered):
        print(f"({trip[0]},{trip[1]},{trip[2]}) UNRECOVERED")
    _emit(save_json, codeword_to_dict(es.field, res.codeword), args.out)
    return 2 if res.unrecovered else 0


def _cmd_simulate(args) -> int:
    scenario = storage_scenario(_build_es(args), args.failures, args.trials,
                                args.seed, args.group_by_fiber)
    _emit(save_json, run_simulation(scenario).to_dict(), args.out)
    return 0


def _cmd_verify_newton(args) -> int:
    fld = _require(args, "field")
    r = args.r
    # raises on a wrong segment count, a non-squarefree segment polynomial
    # or a wrong sum e*f, so only the pole-degree checks are left here
    vt = splitting_at_infinity(surface_params(fld, r))
    lines = ["support points at the pole of t: "
             + " ".join(f"({i},{v})" for i, v in vt.support.points)]
    for idx, (seg, data) in enumerate(vt.segments, start=1):
        facs = ", ".join(f"({f})^{mult}" for f, mult in data.factors)
        lines += [f"segment {idx}: slope {seg.slope} from {seg.start} to {seg.end}",
                  f"  gamma = {data.gamma}",
                  f"  delta = {data.delta}  factors: {facs}"]
    word = "a square" if vt.case == 1 else "not a square"
    lines += [f"case {vt.case}: -1 is {word} in {fld.label}",
              "place  e  f  v_t  v_x"]
    for pl in vt.places:
        lines.append(f"{pl.name:5}  {pl.e}  {pl.f}  {pl.v_t:3}  {pl.v_x:3}")
    total = sum(pl.e * pl.f for pl in vt.places)
    lines.append(f"sum e*f = {total} (degree {r + 1})")
    # both are linear in (i, j), so the basis corners hold their extremes
    corners = basis_vertices(r)
    maxdeg = max(pole_degree(i, j, r) for i, j in corners)
    minv1 = min(monomial_valuations(vt, i, j)["P1"] for i, j in corners)
    lines += [f"max pole degree = {maxdeg} = 2r^2-2r-1; min v_P1 = {minv1}",
              f"distance bound: d >= n - {maxdeg - minv1} "
              "for any b >= 2 selection"]
    ok = maxdeg == 2 * r * r - 2 * r - 1 and minv1 == 2 \
        and distance_lower_bound(2 * (r + 1) ** 2, r) \
        == 2 * (r + 1) ** 2 - (maxdeg - minv1)
    lines.append("newton checks: " + ("ok" if ok else "FAILED"))
    return _report(lines, args.out, 0 if ok else 2)


def _cmd_verify_elliptic(args) -> int:
    es = _build_es(args)
    if es.r != 3:
        raise ValueError("elliptic checks apply to locality r = 3 only")
    vertical = {SUM_O: "sum O",
                SINGULAR: "SINGULAR (tbar^4 = 1), group sum undefined"}
    horizontal = {SUM_O: "sum 2-torsion", SUM_TWO_TORSION: "sum 2-torsion",
                  NONSQUARE: "NONSQUARE TWIST (x - x^2 not a square)",
                  SINGULAR: "SINGULAR, group sum undefined"}
    lines, bad = [], 0
    for l, (orbit, (ver, hor)) in enumerate(zip(es.orbits,
                                                fiber_sums(es).tolist())):
        for j, verdict in enumerate(ver):
            bad += verdict != SUM_O
            lines.append(f"vertical (l={l}, j={j}) t={orbit.members[j]}: "
                         + vertical.get(verdict, "SUM NOT O"))
        for i, verdict in enumerate(hor):
            bad += verdict not in (SUM_O, SUM_TWO_TORSION)
            lines.append(f"horizontal (l={l}, i={i}) x={orbit.roots[i]}: "
                         + horizontal.get(verdict, "SUM NOT 2-TORSION"))
    profile = discriminant_profile(es.params)
    orders = sorted((o for _, o in profile), reverse=True)
    lines.append("discriminant vanishing orders: "
                 + " ".join(f"{lbl}:{o}" for lbl, o in profile))
    if orders != [8, 8, 2, 2, 2, 2]:
        lines.append("discriminant profile MISMATCH, wanted [8, 8, 2, 2, 2, 2]")
        bad += 1
    lines.append(f"elliptic checks: {'ok' if bad == 0 else f'{bad} FAILED'}")
    return _report(lines, args.out, 0 if bad == 0 else 2)


def _cmd_verify_invariants(args) -> int:
    es = _build_es(args)
    fld, r = es.field, es.r
    gm = generator_matrix(es)
    prof = code_profile(es)
    xs, ys, ts = es.xyt
    # P_t(x) by Horner in x below its monic top, coefficients read at each t
    *low, _ = defining_coefficients(fld, r)
    on_P, x_half = 1, 1
    for coeff in reversed(low):
        on_P = fld.vsum(fld.vmul(on_P, xs), coeff.eval_nonzero(ts))
    for _ in range((r + 1) // 2):
        x_half = fld.vmul(x_half, xs)
    checks = [
        ("k = r(r-1)-1 generator rank", gm.k == r * (r - 1) - 1),
        ("n = b(r+1)^2", es.n == es.b * (r + 1) ** 2),
        ("points on multisection", not on_P.any()),
        ("points on section y = x^{(r+1)/2} + 1",
         bool((ys == fld.vsum(x_half, 1)).all())),
        ("bounds ordered", prof.d_lower <= prof.d_upper),
    ]
    disjoint = True
    for trip in map(es.triple, range(es.n)):
        hor, ver = recovery_indices(es, *trip)
        disjoint &= (len(hor) == r and len(ver) == r
                     and not set(hor) & set(ver)
                     and trip not in hor and trip not in ver)
    checks.append(("recovery sets disjoint, size r", disjoint))
    if es.b == 1:
        vec = f_min_message(es)
        w = sum(1 for v in encode(gm, vec) if v)
        checks.append(("f_min witness weight 8",
                       w == 8 == distance_b1(r)))
    lines = [("ok   " if good else "FAIL ") + name for name, good in checks]
    return _report(lines, args.out,
                   0 if all(good for _, good in checks) else 2)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="fibered-lrc",
                     description="availability-2 LRC construction toolkit")
    common = _Parser(add_help=False)
    common.add_argument("--field", type=_field_arg, default=None,
                        help="base field as p^m, e.g. 7^2 or 13")
    common.add_argument("--r", type=int, default=3, help="locality (odd, >= 3)")
    common.add_argument("--threads", type=_positive_arg, default=1,
                        help="accepted for compatibility; has no effect")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="output file (default stdout)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common],
                       help="build a code profile (no distance search)")
    p.add_argument("--orbits", type=_orbits_arg, default=None,
                   help="comma-separated orbit indices (default: all)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("mindist", parents=[common],
                       help="exact or budget-capped minimum distance")
    p.add_argument("--orbits", type=_orbits_arg, default=None)
    p.add_argument("--budget", type=int, default=None,
                   help="cap on enumerated projective classes")
    p.set_defaults(func=_cmd_mindist)

    p = sub.add_parser("table", parents=[common],
                       help="CSV of (q, m, b, n, delta, d) over orbit subsets")
    p.add_argument("--max-subsets", type=_positive_arg, default=255)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("recover", parents=[common],
                       help="repair erasures in a codeword file")
    p.add_argument("--profile", required=True)
    p.add_argument("--codeword", required=True)
    p.add_argument("--erase", type=_erase_arg, default=[],
                   help="semicolon-separated l,i,j triples")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("simulate", parents=[common],
                       help="storage node failure simulation")
    p.add_argument("--profile", required=True)
    p.add_argument("--failures", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--group-by-fiber", action="store_true",
                   help="co-locate each vertical fiber on one node")
    p.set_defaults(func=_cmd_simulate)

    pv = sub.add_parser("verify", help="invariant checkers")
    vsub = pv.add_subparsers(dest="check", required=True)
    p = vsub.add_parser("newton", parents=[common],
                        help="arc segments, splitting, pole bound")
    p.set_defaults(func=_cmd_verify_newton)
    for name, fn in (("elliptic", _cmd_verify_elliptic),
                     ("invariants", _cmd_verify_invariants)):
        p = vsub.add_parser(name, parents=[common])
        p.add_argument("--profile", default=None)
        p.add_argument("--orbits", type=_orbits_arg, default=None)
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaMismatch, AssertionError, ArithmeticError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ParseError, BadScenario, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
