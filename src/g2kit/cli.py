"""Command-line front end.

Every subcommand emits a versioned Report (JSON or text) echoing the
command, the resolved configuration, a digest of the inputs, the outputs,
and the residual behind each claimed pass/fail flag.  Exit codes: 0 when
every check in the report passed, 1 when a computation or validation
failed, 2 when the input could not be parsed or read; 1 also when a float
result left the float range, and that report is not printed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from . import __version__
from .bryant import TwistParams, derivative_rank, recover, sample_params, twist, twist_decomposed
from .context import CONSTRAINT_TOL, DEFAULT_TOL, Context
from .errors import G2KitError, ParseError
from .exterior import DIM, KForm, coerce_form, form_inner
from .g2core import decompose2, decompose3, metric_from_phi, standard_structure
from .liegroup import (act_on_form, coset_tangent_dim, g2_algebra_basis, lie_normalizer,
                       orthogonality_gap, so7_basis)
from .models import (
    covering_sheet_count,
    flat_model,
    gamma_membership,
    gamma_sample,
    holonomy_sample,
    model_structure,
    translation_orbit,
)
from .serialize import (
    SCHEMA_VERSION,
    canonical_json,
    kform_from_json,
    kform_to_json,
    matrix_from_json,
    scalar_to_json,
    sha256_hex,
    twistparams_to_json,
)

MODELS = ("t7", "s1xcy3", "t3xk3")


def _resolve_mode(flag):
    if flag:
        return flag
    env = os.environ.get("G2KIT_MODE", "")
    if env:
        try:
            return Context.of(env).mode
        except ValueError as exc:
            raise ParseError(f"G2KIT_MODE must be 'exact' or 'float', got {env!r}") from exc
    return "exact"


def _reject_constant(name: str):
    """json's hook for NaN, Infinity and -Infinity, which are not JSON."""
    raise ParseError(f"non-finite number {name} in JSON input")


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin, parse_constant=_reject_constant)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _report(command: str, args, inputs, outputs: dict, residuals: dict, checks: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "mode": args.mode,
        "tol": args.tol,
        "seed": args.seed,
        "inputs_sha256": sha256_hex(canonical_json(inputs)),
        "outputs": outputs,
        "residuals": residuals,
        "checks": checks,
        "ok": all(checks.values()) if checks else True,
    }


# -- subcommands ----------------------------------------------------------


def cmd_decompose(args) -> dict:
    payload = _load_json(args.form)
    if args.degree not in (2, 3):
        raise G2KitError(f"decomposition is defined for degrees 2 and 3, not {args.degree}")
    ctx = Context.of(args.mode)
    form = kform_from_json(payload, ctx)
    if form.degree != args.degree:
        raise G2KitError(f"form has degree {form.degree}, command asked for {args.degree}")
    s = standard_structure(args.mode)
    outputs, residuals = {}, {}
    if args.degree == 2:
        d = decompose2(form, s)
        parts = {"p7": d.p7, "p14": d.p14}
    else:
        d = decompose3(form, s)
        parts = {"p1": d.p1, "p7": d.p7, "p27": d.p27}
    for name, part in parts.items():
        outputs[name] = kform_to_json(part)
        outputs[f"{name}_norm_sq"] = scalar_to_json(form_inner(part, part, s.metric))
    recon = (d.total() - form).max_abs()
    residuals["reconstruction"] = scalar_to_json(recon)
    checks = {"reconstruction": ctx.is_zero(recon, args.tol)}
    return _report("decompose", args, payload, outputs, residuals, checks)


def cmd_twist(args) -> dict:
    ctx = Context.of(args.mode)
    if (args.omega_file is None) == (args.omega is None):
        raise ParseError("pass exactly one of --omega-file and --omega")
    omega_payload = _load_json(args.omega_file) if args.omega_file else _parse_inline(args.omega)
    omega = kform_from_json(omega_payload, ctx)
    if omega.degree != 1:
        raise G2KitError(f"the twist direction must be a 1-form, got degree {omega.degree}")
    c = ctx.scalar(args.c)
    p = TwistParams(c, omega)
    s = standard_structure(args.mode)
    inputs = {"c": scalar_to_json(c), "omega": omega_payload}
    res = p.constraint_residual(s)
    residuals = {"constraint": scalar_to_json(res)}
    # twist itself checks the constraint within CONSTRAINT_TOL, so --tol can
    # only tighten it
    if not ctx.is_zero(res, min(args.tol, CONSTRAINT_TOL)):
        return _report("twist", args, inputs, {}, residuals,
                       {"constraint_on_sphere": False})
    phit = twist(s, p)
    d = twist_decomposed(s, p)
    g, o = metric_from_phi(phit, ctx)
    gdiff = max(abs(x - y) for rg, rs in zip(g.rows, s.metric.rows) for x, y in zip(rg, rs))
    inner = form_inner(phit, s.phi, s.metric)
    inner_gap = inner - (8 * c * c - 1)
    parts_gap = (d.total() - phit).max_abs()
    residuals.update({
        "metric_preservation": scalar_to_json(gdiff),
        "inner_product_law": scalar_to_json(inner_gap),
        "parts_reconstruction": scalar_to_json(parts_gap),
    })
    checks = {
        "constraint_on_sphere": True,
        "metric_preserved": ctx.is_zero(gdiff, args.tol),
        "orientation_preserved": o.sign == s.orientation.sign,
        "inner_product_law": ctx.is_zero(inner_gap, args.tol),
        "parts_reconstruction": ctx.is_zero(parts_gap, args.tol),
    }
    outputs = {
        "phit": kform_to_json(phit),
        "p1": kform_to_json(d.p1),
        "p7": kform_to_json(d.p7),
        "p27": kform_to_json(d.p27),
        "inner_with_base": scalar_to_json(inner),
    }
    return _report("twist", args, inputs, outputs, residuals, checks)


def _parse_inline(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid inline JSON: {exc}") from exc


def cmd_recover(args) -> dict:
    payload = _load_json(args.phit)
    ctx = Context.of(args.mode)
    phit = kform_from_json(payload, ctx)
    s = standard_structure(args.mode)
    rec = recover(s, phit, tol=args.tol)
    back = (twist(s, rec.params) - phit).max_abs()
    outputs = {"params": twistparams_to_json(rec.params)}
    residuals = {
        "recovery": scalar_to_json(rec.residual),
        "reconstruction": scalar_to_json(back),
    }
    checks = {"reconstruction": ctx.is_zero(back, args.tol)}
    return _report("recover", args, payload, outputs, residuals, checks)


def cmd_g2check(args) -> dict:
    payload = _load_json(args.matrix)
    ctx = Context.of(args.mode)
    rows = matrix_from_json(payload, ctx)
    s = standard_structure(args.mode)
    ortho_gap = orthogonality_gap(rows)
    ortho_ok = ctx.is_zero(ortho_gap, args.tol)
    residuals = {"orthogonality": scalar_to_json(ortho_gap)}
    form_ok = False
    if ortho_ok:
        moved = act_on_form(rows, s.phi)
        form_gap = (moved - s.phi).max_abs()
        residuals["form_preservation"] = scalar_to_json(form_gap)
        form_ok = ctx.is_zero(form_gap, args.tol)
    else:
        residuals["form_preservation"] = "not evaluated"
    outputs = {"member": form_ok, "orthogonal": ortho_ok}
    return _report("g2check", args, payload, outputs, residuals, {"member": form_ok})


def cmd_normalizer(args) -> dict:
    s = standard_structure(args.mode)
    basis = g2_algebra_basis(s)
    normalizer = lie_normalizer(so7_basis(s.ctx), basis)
    outputs = {
        "algebra_dim": basis.dim,
        "normalizer_dim": normalizer.dim,
    }
    checks = {
        "algebra_dim_14": basis.dim == 14,
        "self_normalizing": normalizer.dim == basis.dim,
    }
    return _report("normalizer", args, {"command": "normalizer"}, outputs, {}, checks)


def _phase_fit(s, p: TwistParams) -> dict:
    """Exploratory: compare a circle-direction twist with a phase-rotated
    holomorphic volume part.  Observational only; nothing here is asserted."""
    re_vol = KForm.from_entries(3, {(2, 4, 6): 1, (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1},
                                s.ctx)
    im_vol = KForm.from_entries(3, {(3, 4, 6): 1, (2, 4, 7): 1, (2, 5, 6): 1, (3, 5, 7): -1},
                                s.ctx)
    phit = twist(s, p)
    cos_fit = form_inner(phit, re_vol, s.metric) / 4
    sin_fit = form_inner(phit, im_vol, s.metric) / -4
    kaehler_part = phit - re_vol * cos_fit + im_vol * sin_fit
    ansatz_gap = (kaehler_part - (s.phi - re_vol)).max_abs()
    c, w1 = p.c, p.omega.coeffs[0]
    return {
        "note": "observational fit, not asserted",
        "cos_fit": scalar_to_json(cos_fit),
        "sin_fit": scalar_to_json(sin_fit),
        "cos_minus_2c2_minus_1": scalar_to_json(cos_fit - (2 * c * c - 1)),
        "sin_plus_2cw": scalar_to_json(sin_fit + 2 * c * w1),
        "unit_circle_gap": scalar_to_json(cos_fit * cos_fit + sin_fit * sin_fit - 1),
        "ansatz_gap": scalar_to_json(ansatz_gap),
    }


def cmd_demo(args) -> dict:
    ctx = Context.of(args.mode)
    m = flat_model(args.model)
    s = model_structure(m.kind, args.mode)
    rng = random.Random(args.seed)
    base_gap = (s.phi - standard_structure(args.mode).phi).max_abs()
    pt = gamma_sample(m, rng)
    phit = twist(s, pt.params)
    back = gamma_membership(m, phit, args.mode)
    roundtrip_gap = (twist(s, back.params) - phit).max_abs()
    rank = derivative_rank(s, pt.params, m.b1)
    coset = coset_tangent_dim(holonomy_sample(m, rng))
    outputs = {
        "model": m.kind,
        "b1": m.b1,
        "holonomy": m.holonomy_label,
        "sample_params": twistparams_to_json(pt.params),
        "recovered_params": twistparams_to_json(back.params),
        "derivative_rank": rank,
        "coset_tangent_dim": coset,
    }
    residuals = {
        "standard_form": scalar_to_json(base_gap),
        "roundtrip": scalar_to_json(roundtrip_gap),
    }
    checks = {
        "standard_form": ctx.is_zero(base_gap, args.tol),
        "roundtrip": ctx.is_zero(roundtrip_gap, args.tol),
        "rank_equals_b1": rank == m.b1,
        "coset_equals_b1": coset == m.b1,
    }
    if m.kind == "t7":
        translations = [tuple(rng.uniform(0, 1) for _ in range(DIM)) for _ in range(20)]
        orbit = translation_orbit(m, pt, translations)
        sheets = covering_sheet_count(m, pt, rng)
        outputs["orbit_size"] = len(orbit)
        outputs["sheets"] = sheets
        outputs["summary"] = f"b1={m.b1}, sheets={sheets}"
        checks["orbit_singleton"] = len(orbit) == 1
        checks["one_sheet"] = sheets == 1
    else:
        outputs["summary"] = f"b1={m.b1}"
    if m.kind == "s1xcy3":
        p = sample_params(rng, subspace_dim=1)
        circle = TwistParams(ctx.scalar(p.c), coerce_form(p.omega, ctx))
        outputs["phase_fit"] = _phase_fit(s, circle)
    return _report("demo", args, {"model": args.model}, outputs, residuals, checks)


def cmd_selftest(args) -> dict:
    from .selftest import run_selftest

    results = run_selftest(seed=args.seed, tol=args.tol)
    outputs = {
        "checks_run": len(results),
        "failures": [r.name for r in results if not r.passed],
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail,
             "seconds": round(r.seconds, 4)}
            for r in results
        ],
    }
    checks = {r.name: r.passed for r in results}
    return _report("selftest", args, {"command": "selftest"}, outputs, {}, checks)


# -- rendering ------------------------------------------------------------


def _render_text(report: dict) -> str:
    lines = [
        f"command: {report['command']}",
        f"mode: {report['mode']}  tol: {report['tol']}  seed: {report['seed']}",
        f"inputs sha256: {report['inputs_sha256']}",
    ]
    outputs = report["outputs"]
    if report["command"] == "selftest":
        for entry in outputs["results"]:
            mark = "pass" if entry["passed"] else "FAIL"
            lines.append(f"{mark}  {entry['name']:42s} {entry['seconds']:8.3f}s  {entry['detail']}")
        lines.append(f"{outputs['checks_run']} checks, {len(outputs['failures'])} failures")
    else:
        if "summary" in outputs:
            lines.append(outputs["summary"])
        for key, value in outputs.items():
            if key == "summary":
                continue
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        for key, value in report["residuals"].items():
            lines.append(f"residual {key}: {value}")
        for key, value in report["checks"].items():
            lines.append(f"check {key}: {'pass' if value else 'FAIL'}")
    lines.append(f"ok: {str(report['ok']).lower()}")
    return "\n".join(lines)


def _render(report: dict, output: str) -> str:
    """The report as printed; G2KitError when it holds a non-finite float."""
    try:
        text = canonical_json(report)
    except ValueError as exc:
        raise G2KitError("the result left the float range (a non-finite value)") from exc
    return text if output == "json" else _render_text(report)


# -- argument plumbing -----------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--mode", choices=("exact", "float"), default=None,
                        help="arithmetic mode (default: $G2KIT_MODE or exact)")
    shared.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="tolerance for float-mode comparisons")
    shared.add_argument("--seed", type=int, default=0, help="random seed, echoed in the report")
    shared.add_argument("--output", choices=("json", "text"), default="text")

    parser = argparse.ArgumentParser(prog="g2kit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"g2kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[shared],
                       help="split a 2- or 3-form into its irreducible parts")
    p.add_argument("form", help="form JSON file, or - for stdin")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("twist", parents=[shared],
                       help="twist the standard 3-form by a parameter point (c, omega)")
    p.add_argument("--c", required=True, help="scalar, e.g. 3/5")
    p.add_argument("--omega-file", help="1-form JSON file")
    p.add_argument("--omega", help="inline 1-form JSON")
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("recover", parents=[shared],
                       help="recover canonical parameters from a twisted 3-form")
    p.add_argument("phit", help="3-form JSON file, or - for stdin")
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("g2check", parents=[shared],
                       help="test whether a 7x7 matrix preserves the standard 3-form")
    p.add_argument("matrix", help="matrix JSON file, or - for stdin")
    p.set_defaults(fn=cmd_g2check)

    p = sub.add_parser("normalizer", parents=[shared],
                       help="stabilizer algebra dimension and its normalizer inside so(7)")
    p.set_defaults(fn=cmd_normalizer)

    p = sub.add_parser("demo", parents=[shared], help="walk one flat model end to end")
    p.add_argument("--model", choices=MODELS, required=True)
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("selftest", parents=[shared],
                       help="run every named invariant check (exact-mode battery)")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if not 0 < args.tol < math.inf:
            raise ParseError(f"--tol must be positive and finite, got {args.tol}")
        args.mode = _resolve_mode(args.mode)
        report = args.fn(args)
        text = _render(report, args.output)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except G2KitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
