"""Command-line surface.

Each subcommand is a thin adapter over one library operation: it parses
flags, loads inputs, calls the operation, and prints its report through the
package's one JSON emitter, ``report_to_json``.  No numeric logic lives
here.  Machine output goes to stdout, diagnostics to stderr; exit codes
are 0 for success, 1 for domain errors, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import SpongeError
from .cubes import (
    _check_planar, as_scale, boxes_to_csv, boxes_to_svg, count_cubes, prefractal,
)
from .dims import dim_report, lg_family_csv
from .measure import (
    coordinate_uniform,
    cube_measure,
    load_measure,
    positive_weight_grid,
    weights_to_doc,
)
from .model import has_uniform_fibres, load_sponge, satisfies_vssc
from .verify import (
    DoublingVerdict,
    Mode,
    check_tangent_convergence,
    doubling_report,
    report_to_json,
    scan_ball_ratios_vssc,
    scan_cube_ratios,
    scan_samples_csv,
    tangent_image,
)

_MAX_DENOMINATOR = 10**9


def _parse_scale(text: str) -> Fraction:
    """Exact 'p/q' or decimal scale; out-of-range decimals are snapped.

    'p/q' is always kept exact.  Decimals convert exactly when possible;
    otherwise the nearest rational with denominator <= 10^9 is used and the
    substitution is reported, because exactness matters at bracket
    boundaries r = n_l^-k.
    """
    try:
        value = as_scale(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    if "/" not in text and value.denominator > _MAX_DENOMINATOR:
        snapped = value.limit_denominator(_MAX_DENOMINATOR)
        print(
            f"note: scale {text} snapped to "
            f"{snapped.numerator}/{snapped.denominator}",
            file=sys.stderr,
        )
        return snapped
    return value


def _parse_word(text: str) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated digit tuples, e.g. '0,0,0;0,0,3'."""
    try:
        return tuple(
            tuple(int(part) for part in chunk.split(","))
            for chunk in text.split(";")
            if chunk != ""
        )
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed word: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spongedim",
        description="dimensions, measures, and scaling checks for "
        "grid self-affine sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension report as JSON")
    p.add_argument("file")

    p = sub.add_parser("validate", help="check a sponge file and show flags")
    p.add_argument("file")

    p = sub.add_parser("weights", help="coordinate uniform weight table")
    p.add_argument("file")

    p = sub.add_parser("cube-measure", help="mass of one approximate cube")
    p.add_argument("file")
    p.add_argument("--word", required=True, type=_parse_word)
    p.add_argument("--scale", required=True, type=_parse_scale)
    p.add_argument("--measure", help="weight file; default coordinate uniform")

    p = sub.add_parser("count", help="number of cubes at a scale")
    p.add_argument("file")
    p.add_argument("--scale", required=True, type=_parse_scale)

    p = sub.add_parser("scan", help="cube-mass sandwich scan")
    p.add_argument("file")
    p.add_argument("--measure", help="weight file; default coordinate uniform")
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--samples-csv", help="also dump per-sample rows to a file")

    p = sub.add_parser("ball-scan", help="ball-mass scaling scan (needs VSSC)")
    p.add_argument("file")
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--samples-csv", help="also dump per-sample rows to a file")

    p = sub.add_parser("doubling", help="adjacent-cube ratio growth")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--measure", help="weight file for a single run")
    group.add_argument(
        "--grid", type=_parse_scale, help="sweep all positive step-grid vectors"
    )
    p.add_argument("--max-depth", required=True, type=int)

    p = sub.add_parser("tangent", help="rescaled-piece convergence check")
    p.add_argument("file")
    p.add_argument("--scale", required=True, type=_parse_scale)
    p.add_argument("--mode", required=True, choices=["max", "min"])
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--emit-boxes", help="write the rescaled cover as CSV")

    p = sub.add_parser("family-lg", help="dimension table of the lambda family")
    p.add_argument("--min", required=True, type=_parse_scale)
    p.add_argument("--max", required=True, type=_parse_scale)
    p.add_argument("--step", required=True, type=_parse_scale)

    p = sub.add_parser("render", help="export a pre-fractal cover")
    p.add_argument("file")
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--out", required=True)

    return parser


def _cmd_dims(args: argparse.Namespace) -> int:
    print(report_to_json(dim_report(load_sponge(args.file))))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    s = load_sponge(args.file)
    print(report_to_json({
        "ok": True,
        "d": s.d,
        "bases": s.bases,
        "digit_count": len(s.digits),
        "strict_bases": s.strict_bases,
        "uniform_fibres": has_uniform_fibres(s),
        "vssc": satisfies_vssc(s),
    }))
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    m = coordinate_uniform(load_sponge(args.file))
    print(report_to_json({"weights": weights_to_doc(m)}))
    return 0


def _measure_for(args: argparse.Namespace, s) -> object:
    if args.measure:
        return load_measure(s, args.measure)
    return coordinate_uniform(s)


def _cmd_cube_measure(args: argparse.Namespace) -> int:
    s = load_sponge(args.file)
    m = _measure_for(args, s)
    mass = cube_measure(m, args.word, args.scale)
    print(report_to_json(
        {"exact": mass.exact, "log": mass.log_value, "value": float(mass)}
    ))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    print(count_cubes(load_sponge(args.file), args.scale))
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    s = load_sponge(args.file)
    if args.command == "scan":
        m = _measure_for(args, s)
        report = scan_cube_ratios(s, m, args.samples, args.seed, args.depth)
    else:
        report = scan_ball_ratios_vssc(s, args.samples, args.seed, args.depth)
    print(report_to_json(report))
    if args.samples_csv:
        with open(args.samples_csv, "w", encoding="utf-8") as fh:
            fh.write(scan_samples_csv(report))
        print(f"wrote {args.samples} sample rows to {args.samples_csv}",
              file=sys.stderr)
    return 0


def _cmd_doubling(args: argparse.Namespace) -> int:
    s = load_sponge(args.file)
    if args.grid is not None:
        results = []
        for m in positive_weight_grid(s, args.grid):
            report = doubling_report(s, m, args.max_depth)
            results.append({
                "weights": weights_to_doc(m),
                "growth_rate": report.growth_rate,
                "verdict": report.verdict,
            })
        print(report_to_json({
            "step": args.grid,
            "max_depth": args.max_depth,
            "vectors": len(results),
            "all_non_doubling": all(
                result["verdict"] is DoublingVerdict.NON_DOUBLING
                for result in results
            ),
            "results": results,
        }))
        return 0
    m = load_measure(s, args.measure)
    print(report_to_json(doubling_report(s, m, args.max_depth)))
    return 0


def _cmd_tangent(args: argparse.Namespace) -> int:
    s = load_sponge(args.file)
    mode = Mode.MAX if args.mode == "max" else Mode.MIN
    print(report_to_json(check_tangent_convergence(s, args.scale, mode, args.level)))
    if args.emit_boxes:
        boxes = tangent_image(s, args.scale, mode, args.level)
        with open(args.emit_boxes, "w", encoding="utf-8") as fh:
            fh.write(boxes_to_csv(boxes))
        print(f"wrote {len(boxes)} boxes to {args.emit_boxes}", file=sys.stderr)
    return 0


def _cmd_family_lg(args: argparse.Namespace) -> int:
    sys.stdout.write(lg_family_csv(args.min, args.max, args.step))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    s = load_sponge(args.file)
    if args.out.endswith(".svg"):
        _check_planar(s.d)
        export = boxes_to_svg
    elif args.out.endswith(".csv"):
        export = boxes_to_csv
    else:
        print("error: --out must end in .svg or .csv", file=sys.stderr)
        return 2
    boxes = prefractal(s, args.level)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(export(boxes))
    print(f"wrote {len(boxes)} boxes to {args.out}", file=sys.stderr)
    return 0


_HANDLERS = {
    "dims": _cmd_dims,
    "validate": _cmd_validate,
    "weights": _cmd_weights,
    "cube-measure": _cmd_cube_measure,
    "count": _cmd_count,
    "scan": _cmd_scan,
    "ball-scan": _cmd_scan,
    "doubling": _cmd_doubling,
    "tangent": _cmd_tangent,
    "family-lg": _cmd_family_lg,
    "render": _cmd_render,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except SpongeError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
