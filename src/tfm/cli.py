"""Command-line interface.

Subcommands: validate, info, qfact, mori, cone-check, bundle, fujita,
cohomology, kodaira, discrepancy, mmp, build-bundle.  Human-readable
text by default, machine JSON with --json.  Exit codes: 0 success,
1 assertion or counterexample, 2 usage or parse error, 3 internal error
(a runtime certificate of tfm itself failed).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from tfm import cohomology as coh
from tfm import fan as fanmod
from tfm import foliation as fol
from tfm import jsonio
from tfm import mmp as mmpmod
from tfm import moricone as mc

OK, FAIL, USAGE, INTERNAL = 0, 1, 2, 3


def _rat(x) -> str:
    return jsonio.format_rational(x)


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(jsonio.dump_json(payload))
    else:
        for line in text_lines:
            print(line)


def _load_fan(args) -> "fanmod.Fan":
    return jsonio.fan_from_json(jsonio.load_json(args.fan), args.fan)


def _load_pair(args, f):
    return jsonio.pair_from_json(jsonio.load_json(args.pair), f, args.pair)


def _load_divisor(args, f, attr="divisor"):
    path = getattr(args, attr)
    return jsonio.divisor_from_json(jsonio.load_json(path), f, path)


def cmd_validate(args) -> int:
    f = _load_fan(args)
    report = fanmod.validate_fan(f)
    payload = {"ok": report.ok, "violations": list(report.violations)}
    lines = ["valid" if report.ok else "invalid:"]
    lines += ["  - " + v for v in report.violations]
    _emit(args, payload, lines)
    return OK if report.ok else FAIL


def cmd_info(args) -> int:
    f = _load_fan(args)
    complete = fanmod.is_complete(f)
    simplicial = fanmod.is_simplicial(f)
    payload = {
        "dim": f.dim,
        "rays": len(f.rays),
        "max_cones": len(f.max_cones),
        "complete": complete,
        "simplicial": simplicial,
        "smooth": fanmod.is_smooth(f) if simplicial else False,
        "projective": fanmod.is_projective(f) if complete else None,
        "walls": len(fanmod.enumerate_walls(f)) if complete else None,
    }
    lines = ["%s: %s" % (k, payload[k]) for k in payload]
    _emit(args, payload, lines)
    return OK


def cmd_qfact(args) -> int:
    f = _load_fan(args)
    result = fanmod.qfactorialize(f)
    payload = {
        "fan": jsonio.fan_to_json(result.fan),
        "cone_map": list(result.cone_map),
        "subdivided_input_cones": sorted(result.certificates),
        "already_simplicial": not result.certificates,
    }
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(jsonio.dump_json(jsonio.fan_to_json(result.fan)))
    lines = [
        "max cones: %d -> %d" % (len(f.max_cones), len(result.fan.max_cones)),
        "subdivided input cones: %s" % (sorted(result.certificates) or "none"),
    ]
    if args.out:
        lines.append("wrote %s" % args.out)
    _emit(args, payload, lines)
    return OK


def _ray_payload(f, pair, ray):
    entry = {
        "generator": [str(x) for x in ray.generator],
        "walls": [list(w.rays) for w in ray.member_walls],
    }
    if pair is not None:
        entry["length"] = _rat(mc.ray_length(pair, ray))
    kind = mc.contraction(f, ray).kind
    entry["kind"] = kind
    if kind == "fiber":
        result = mc.detect_pr_bundle(f, ray)
        if not isinstance(result, mc.BundleDetectionFailure):
            entry["bundle"] = {
                "fiber_rays": list(result.fiber_ray_indices),
                "base_dim": result.base_fan.dim,
                "line_degrees": list(result.line_degrees)
                if result.line_degrees is not None
                else None,
            }
    return entry


def cmd_mori(args) -> int:
    f = _load_fan(args)
    pair = _load_pair(args, f) if args.pair else None
    rays = mc.mori_cone(f)
    entries = [_ray_payload(f, pair, ray) for ray in rays]
    bound_ok = True
    if pair is not None:
        r = pair.rank
        bound_ok = all(
            Fraction(e["length"]) <= r + 1 for e in entries
        )
    payload = {"rays": entries, "bound_ok": bound_ok}
    lines = ["extremal rays: %d" % len(rays)]
    for e in entries:
        desc = "  generator %s kind=%s" % (e["generator"], e["kind"])
        if "length" in e:
            desc += " length=%s" % e["length"]
        lines.append(desc)
    lines.append("bound_ok: %s" % bound_ok)
    _emit(args, payload, lines)
    return OK if bound_ok else FAIL


def cmd_cone_check(args) -> int:
    f = _load_fan(args)
    pair = _load_pair(args, f)
    report = mc.check_cone_theorem(pair)
    entries = []
    for item in report.rays:
        entries.append(
            {
                "generator": [str(x) for x in item.ray.generator],
                "length": _rat(item.length),
                "bound_ok": item.bound_ok,
                "kind": item.kind,
                "needs_bundle": item.needs_bundle,
                "bundle_ok": item.bundle is not None,
                "bundle_failure": item.bundle_failure,
                "tangent_ok": item.tangent_ok,
                "delta_sum_ok": item.delta_sum_ok,
            }
        )
    payload = {"rays": entries, "ok": report.ok, "note": report.note}
    lines = ["cone theorem %s" % ("verified" if report.ok else "FAILED")]
    for e in entries:
        lines.append(
            "  ray %s: length=%s bound_ok=%s kind=%s"
            % (e["generator"], e["length"], e["bound_ok"], e["kind"])
        )
    _emit(args, payload, lines)
    return OK if report.ok else FAIL


def cmd_bundle(args) -> int:
    f = _load_fan(args)
    rays = mc.mori_cone(f)
    if not 0 <= args.ray < len(rays):
        print("ray index out of range (%d rays)" % len(rays), file=sys.stderr)
        return USAGE
    result = mc.detect_pr_bundle(f, rays[args.ray])
    if isinstance(result, mc.BundleDetectionFailure):
        payload = {"bundle": None, "reason": result.reason}
        _emit(args, payload, ["not a bundle: " + result.reason])
        return FAIL
    payload = {
        "bundle": {
            "fiber_rays": list(result.fiber_ray_indices),
            "base": jsonio.fan_to_json(result.base_fan),
            "line_degrees": list(result.line_degrees)
            if result.line_degrees is not None
            else None,
        }
    }
    lines = [
        "bundle over a %d-dimensional base" % result.base_fan.dim,
        "fiber rays: %s" % (list(result.fiber_ray_indices),),
        "line degrees: %s" % (result.line_degrees,),
    ]
    _emit(args, payload, lines)
    return OK


def cmd_fujita(args) -> int:
    f = _load_fan(args)
    pair = _load_pair(args, f)
    ample = _load_divisor(args, f, "ample")
    report = mc.fujita_report(pair, ample)
    payload = {
        "rank": report.rank,
        "freeness_nef": report.freeness_nef,
        "improved_nef": report.improved_nef,
        "improved_exception": _certificate_payload(report.improved_exception),
        "very_ample": report.very_ample,
        "improved_very_ample": report.improved_very_ample,
        "improved_very_ample_exception": _certificate_payload(
            report.improved_very_ample_exception
        ),
        "ok": report.ok,
    }
    lines = [
        "K_F+Delta+(r+1)A nef: %s" % report.freeness_nef,
        "K_F+rA nef: %s" % report.improved_nef,
    ]
    if report.improved_exception is not None:
        lines.append("  exception certificate verified")
    if report.very_ample is not None:
        lines.append("K_F+(r+2)A very ample: %s" % report.very_ample)
        lines.append("K_F+(r+1)A very ample: %s" % report.improved_very_ample)
    lines.append("ok: %s" % report.ok)
    _emit(args, payload, lines)
    return OK if report.ok else FAIL


def _certificate_payload(cert):
    if cert is None:
        return None
    return {
        "fiber_rays": list(cert["fiber_rays"]),
        "base_dim": cert["base_dim"],
        "line_degree_of_A": cert["line_degree_of_A"],
        "delta_sum_lt_1": cert["delta_sum_lt_1"],
    }


def cmd_cohomology(args) -> int:
    f = _load_fan(args)
    d = _load_divisor(args, f)
    report = coh.weil_cohomology(f, d, args.box)
    payload = {"h": list(report.h), "box": report.box}
    lines = [
        "h = %s" % (list(report.h),),
        "box = %d" % report.box,
    ]
    _emit(args, payload, lines)
    return OK


def cmd_kodaira(args) -> int:
    f = _load_fan(args)
    pair = _load_pair(args, f)
    d = _load_divisor(args, f)
    report = coh.kodaira_check(pair, d, args.box)
    payload = {
        "hypothesis": {
            "ok": report.hypothesis_ok,
            "reason": report.hypothesis_reason,
            "perturbation": [
                _rat(c) for c in report.perturbation.coeffs
            ]
            if report.perturbation is not None
            else None,
        },
        "h": list(report.cohomology.h) if report.cohomology else None,
        "box": report.cohomology.box if report.cohomology else None,
        "vanishing_ok": report.vanishing_ok,
    }
    lines = ["hypothesis: %s" % report.hypothesis_reason]
    if report.cohomology:
        lines.append("h = %s" % (list(report.cohomology.h),))
        lines.append("vanishing_ok: %s" % report.vanishing_ok)
    _emit(args, payload, lines)
    if not report.hypothesis_ok:
        return FAIL
    return OK if report.vanishing_ok else FAIL


def cmd_discrepancy(args) -> int:
    f = _load_fan(args)
    pair = _load_pair(args, f)
    try:
        w = tuple(int(x) for x in args.w.split(","))
    except ValueError:
        print("--w expects a comma-separated integer vector", file=sys.stderr)
        return USAGE
    a, iota = fol.discrepancy(pair, w)
    payload = {"a": _rat(a), "iota": iota, "w": list(w)}
    _emit(args, payload, ["a(E_w) = %s, iota = %d" % (_rat(a), iota)])
    return OK


def cmd_mmp(args) -> int:
    f = _load_fan(args)
    pair = _load_pair(args, f)
    trace = mmpmod.run_mmp(pair, max_steps=args.max_steps)
    steps = [
        {
            "ray": [str(x) for x in s.ray_generator],
            "kind": s.kind,
            "length": _rat(s.length),
        }
        for s in trace.steps
    ]
    payload = {"steps": steps, "terminal": trace.terminal}
    lines = ["%d step(s), terminal: %s" % (len(steps), trace.terminal)]
    for s in steps:
        lines.append("  %s ray %s length=%s" % (s["kind"], s["ray"], s["length"]))
    _emit(args, payload, lines)
    return OK


def cmd_build_bundle(args) -> int:
    base = jsonio.fan_from_json(jsonio.load_json(args.base), args.base)
    try:
        degrees = [int(x) for x in args.degrees.split(",")]
    except ValueError:
        print("--degrees expects comma-separated integers", file=sys.stderr)
        return USAGE
    specs = fanmod.p1_degree_specs(base, degrees)
    built = fanmod.build_split_bundle(base, specs)
    payload = jsonio.fan_to_json(built)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(jsonio.dump_json(payload))
    lines = [
        "built fan: dim=%d rays=%d cones=%d"
        % (built.dim, len(built.rays), len(built.max_cones)),
    ]
    if args.out:
        lines.append("wrote %s" % args.out)
    _emit(args, payload, lines)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfm",
        description="Exact Mori-theoretic invariants of toric foliated pairs",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("validate", cmd_validate, help="check fan invariants")
    p.add_argument("--fan", required=True)

    p = add("info", cmd_info, help="fan summary")
    p.add_argument("--fan", required=True)

    p = add("qfact", cmd_qfact, help="small projective Q-factorialization")
    p.add_argument("--fan", required=True)
    p.add_argument("--out")

    p = add("mori", cmd_mori, help="extremal rays (lengths with --pair)")
    p.add_argument("--fan", required=True)
    p.add_argument("--pair")

    p = add("cone-check", cmd_cone_check, help="length bound and bundle dichotomy")
    p.add_argument("--fan", required=True)
    p.add_argument("--pair", required=True)

    p = add("bundle", cmd_bundle, help="projective-bundle detection on a ray")
    p.add_argument("--fan", required=True)
    p.add_argument("--ray", type=int, required=True)

    p = add("fujita", cmd_fujita, help="freeness / very-ampleness report")
    p.add_argument("--fan", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--ample", required=True)

    p = add("cohomology", cmd_cohomology, help="cohomology of a divisor")
    p.add_argument("--fan", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--box", type=int)

    p = add("kodaira", cmd_kodaira, help="vanishing check")
    p.add_argument("--fan", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--box", type=int)

    p = add("discrepancy", cmd_discrepancy, help="discrepancy of a star subdivision")
    p.add_argument("--fan", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--w", required=True, help="comma-separated vector")

    p = add("mmp", cmd_mmp, help="run the minimal model program")
    p.add_argument("--fan", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--max-steps", type=int, default=20)

    p = add("build-bundle", cmd_build_bundle, help="split bundle fan over a base")
    p.add_argument("--base", required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage()
        return USAGE
    try:
        return args.func(args)
    except jsonio.SchemaError as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return USAGE
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return FAIL
    except RuntimeError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
