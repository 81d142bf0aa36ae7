"""Command-line surface.

Exit codes: 0 solved and certified, 2 hypothesis or premise failure (named
in the report), 3 input error, 4 the LP kernel hit its iteration cap (status
``lp_error``). Human-readable reports go to stdout; pass ``--out`` to also
write the machine block (full certificates included, so external tools can
re-verify without this library).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import time

import numpy as np

from . import io as kit_io
from . import product as prod
from . import solvers
from .errors import (HypothesisError, InputError, LinearProgramError,
                     PremiseError)
from .geometry import Polytope, strictly_positive_functional
from .instances import check_assumptions
from .io import Report, render
from .scalarize import GerstewitzFn, gz_bisect_oracle, gz_value

# the string escapes of json.dumps with its default ensure_ascii=True
_json_string = json.encoder.encode_basestring_ascii

EVP_THEOREMS = ("3.1", "3.5", "3.6", "4.1", "4.2", "4.4", "4.5", "4.6")
PRODUCT_THEOREMS = ("5.1", "5.2", "5.6")


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than most small commands."""
    parser = argparse.ArgumentParser(
        prog="evpkit",
        description="Certified minimal-point solvers for finite "
                    "vector-optimization instances over polyhedral cones.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write the machine-readable report here")

    p = sub.add_parser("validate", help="check instance files")
    p.add_argument("paths", nargs="+")
    add_out(p)

    p = sub.add_parser("solve-evp", help="run a variational-principle solver")
    p.add_argument("--theorem", required=True, choices=EVP_THEOREMS)
    p.add_argument("--mode", default="greedy", choices=("greedy", "faithful"))
    p.add_argument("--xi", default="linear", choices=("linear", "gerstewitz"),
                   help="scalarization for the general solver")
    p.add_argument("paths", nargs="+")
    add_out(p)

    p = sub.add_parser("solve-minimal-point",
                       help="run a graph-space minimal-point solver")
    p.add_argument("--theorem", required=True, choices=PRODUCT_THEOREMS)
    p.add_argument("--mode", default="greedy", choices=("greedy", "faithful"))
    p.add_argument("paths", nargs="+")
    add_out(p)

    p = sub.add_parser("pareto", help="minimal points of the value set")
    p.add_argument("--strict", action="store_true")
    p.add_argument("paths", nargs="+")
    add_out(p)

    p = sub.add_parser("scalarize", help="evaluate the cone scalarization")
    p.add_argument("--y", required=True,
                   help="comma-separated point, e.g. '2,3'")
    p.add_argument("--k0", help="direction override, e.g. '1,1'")
    p.add_argument("paths", nargs=1)
    add_out(p)

    p = sub.add_parser("check-assumptions",
                       help="evaluate the named solver hypotheses")
    p.add_argument("--xi", default="linear", choices=("linear", "gerstewitz"))
    p.add_argument("paths", nargs="+")
    add_out(p)

    p = sub.add_parser("generate", help="emit a deterministic random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--values", type=int, default=2)
    p.add_argument("--variant", default="singleton",
                   choices=kit_io.VARIANTS)
    add_out(p)

    p = sub.add_parser("builtin", help="emit a bundled instance")
    p.add_argument("--name", required=True, choices=kit_io.BUILTIN_NAMES)
    p.add_argument("--samples", type=int, default=8)
    add_out(p)
    return parser


def _parse_point(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"not a comma-separated point: {text!r}") from None


def _family_direction_vertices(bundle):
    """Direction-set vertices the perturbation carries, for separation."""
    if bundle.family.kind != "extensional":
        return _direction_polytope(bundle)
    # extensional: pool the real vertices of all sets over distinct label
    # pairs from the family's (x2, x1, index, vertex) stack, in that order
    space = bundle.instance.space
    _, V, nv = bundle.family.arrays(space)
    real = np.arange(V.shape[3]) < nv[..., None]
    real &= ~np.eye(space.n, dtype=bool)[:, :, None, None]
    if not real.any():
        raise InputError("perturbation has no sets over distinct labels")
    return Polytope(V[real])


def _positive_functional(H, cone_, tol, what):
    """The separating functional of H; its absence names ``what``."""
    xi = strictly_positive_functional(H, cone_, tol)
    if xi is None:
        raise HypothesisError(
            "separation", f"no strictly positive functional for {what}")
    return xi


def _general_xi(bundle, kind):
    inst = bundle.instance
    if kind == "gerstewitz":
        spec = bundle.raw["perturbation"]
        k0 = spec.get("k0")
        if k0 is None:
            raise InputError("gerstewitz scalarization needs perturbation.k0")
        return GerstewitzFn(inst.cone, k0, inst.tol)
    return _positive_functional(_family_direction_vertices(bundle), inst.cone,
                                inst.tol, "the perturbation's direction "
                                "vertices")


def _require(params, *names):
    for name in names:
        attr = "lam" if name == "lambda" else name
        if getattr(params, attr) is None:
            raise InputError(f"params.{name} is required for this solver")


def _direction_k0(bundle):
    """``perturbation.k0``; epsilon and lambda must be given too."""
    _require(bundle.params, "epsilon", "lambda")
    k0 = bundle.raw["perturbation"].get("k0")
    if k0 is None:
        raise InputError("perturbation.k0 is required for this solver")
    return k0


def _dispatch_evp(bundle, theorem, mode, xi_kind):
    inst = bundle.instance
    params = bundle.params
    if theorem == "3.1":
        xi = _general_xi(bundle, xi_kind)
        return solvers.solve_evp_general(inst, bundle.family, xi,
                                         params.x0, mode)
    if theorem in ("3.5", "3.6"):
        premise = "pointwise" if theorem == "3.5" else "global"
        return solvers.solve_evp_direction(
            inst, _direction_k0(bundle), params.epsilon, params.lam,
            params.x0, premise=premise, mode=mode)
    if theorem in ("4.1", "4.2"):
        _require(params, "gamma")
        return solvers.solve_evp_set_direction(
            inst, _direction_polytope(bundle), params.gamma, params.x0,
            open_family=theorem == "4.1", mode=mode)
    if theorem == "4.4":
        if bundle.family.kind != "quasimetric":
            raise InputError("this solver needs a quasimetric perturbation")
        return solvers.solve_evp_quasimetric(
            inst, bundle.family.H, bundle.family.p, params.x0, mode=mode)
    if theorem in ("4.5", "4.6"):
        _require(params, "epsilon", "gamma")
        return solvers.solve_evp_approx(
            inst, _direction_polytope(bundle), params.epsilon, params.gamma,
            params.x0, strict=theorem == "4.6", mode=mode)
    raise InputError(f"unknown theorem {theorem!r}")


def _direction_polytope(bundle):
    """The loaded family's direction set H."""
    if bundle.family.kind == "extensional":
        raise InputError("perturbation carries no direction set")
    return bundle.family.H


def _dispatch_product(bundle, theorem, mode):
    if bundle.product is None:
        raise InputError("instance has no product block")
    pi = bundle.product
    params = bundle.params
    if theorem == "5.6":
        return prod.solve_pareto_evp(pi, _direction_k0(bundle),
                                     params.epsilon, params.lam, mode=mode)
    gamma = (params.gamma if params.gamma is not None
             else bundle.raw["perturbation"].get("gamma"))
    if gamma is None:
        raise InputError("params.gamma is required for this solver")
    H = _direction_polytope(bundle)
    xi = _positive_functional(H, pi.cone, pi.tol, "the direction set")
    fm = prod.fmap_from_rate(pi.base, H, gamma, xi)
    if theorem == "5.1":
        return prod.solve_minimal_point(pi, fm, mode=mode)
    if theorem == "5.2":
        return prod.solve_strict_minimal(pi, fm, mode=mode)
    raise InputError(f"unknown theorem {theorem!r}")


# error class -> (report status, exit code); any other error is a bug
_ERROR_STATUS = {InputError: ("input_error", 3),
                 PremiseError: ("premise_failed", 2),
                 HypothesisError: ("hypothesis_failed", 2),
                 LinearProgramError: ("lp_error", 4)}


def _run_on_path(command, path, worker, theorem=None):
    """Report of ``worker`` run on the bundle loaded from ``path``, or on
    None with no load when ``path`` is None; an error of ``_ERROR_STATUS``
    becomes a report with its status and exit code."""
    started = time.perf_counter()
    tol = kit_io.DEFAULT_TOL
    try:
        bundle = None
        if path is not None:
            bundle = kit_io.load_validate(path)
            tol = bundle.tol
        payload = worker(bundle)
        status = "certified" if "certificate" in payload else "ok"
        code = 0
    except tuple(_ERROR_STATUS) as exc:
        status, code = _ERROR_STATUS[type(exc)]
        payload = {"error": str(exc)}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            payload["witness"] = solvers._jsonable(witness)
        name = getattr(exc, "name", None)
        if name:
            payload["failed_hypothesis"] = name
    return Report(command=command, status=status, exit_code=code,
                  instance=None if path is None else str(path),
                  theorem=theorem, payload=payload,
                  timing_s=time.perf_counter() - started, tolerance=tol)


def _validate(args, bundle):
    return {"summary": {
        "labels": len(bundle.instance.labels),
        "dimension": bundle.instance.cone.dim,
        "variant": bundle.raw["perturbation"]["variant"],
        "has_product": bundle.product is not None,
    }}


def _solve_evp(args, bundle):
    return {"certificate": _dispatch_evp(bundle, args.theorem, args.mode,
                                         args.xi).to_dict()}


def _solve_minimal_point(args, bundle):
    return {"certificate": _dispatch_product(bundle, args.theorem,
                                             args.mode).to_dict()}


def _pareto(args, bundle):
    B = bundle.instance.fmap.all_points()
    fn = prod.strict_pareto_min if args.strict else prod.pareto_min
    pts = fn(list(B), bundle.instance.cone, bundle.tol)
    return {"minimal": [[float(v) for v in p] for p in pts],
            "strict": bool(args.strict)}


def _scalarize(args, bundle):
    y = _parse_point(args.y)
    k0 = (_parse_point(args.k0) if args.k0
          else bundle.raw["perturbation"].get("k0"))
    if k0 is None:
        raise InputError("no direction: pass --k0 or use a "
                         "singleton perturbation")
    g = GerstewitzFn(bundle.instance.cone, k0, bundle.tol)
    value = gz_value(g, y)
    oracle = gz_bisect_oracle(g, y)
    return {"y": y, "k0": list(map(float, k0)),
            "value": value, "oracle": oracle}


def _check_assumptions(args, bundle):
    xi = _general_xi(bundle, args.xi)
    report = check_assumptions(bundle.instance, bundle.family, xi,
                               bundle.params.x0)
    payload = {"assumptions": report.to_dict(),
               "solvable": report.solvable()}
    if not report.solvable():
        raise HypothesisError(report.failed_name(),
                              "assumption gate failed", witness=payload)
    return payload


def _json_text(document):
    """``json.dumps(document, indent=2)``, byte for byte.

    The standard library runs its pure-Python encoder whenever ``indent``
    is set; this one makes the same choices in the same order (str, None,
    True, False, int, float, list or tuple, dict), with the same string
    escapes and number forms, and no generator per container. It does not
    look for circular references."""
    parts = []
    _json_parts(document, "\n", parts)
    return "".join(parts)


def _json_scalar(o):
    """The JSON text of a scalar, as ``json.dumps`` writes it, or None for a
    container or any other object."""
    if isinstance(o, str):
        return _json_string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    return None


def _json_parts(o, newline, parts):
    """Append the text of ``o`` to ``parts``; ``newline`` is the line break
    and indent of its own level."""
    text = _json_scalar(o)
    if text is not None:
        parts.append(text)
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            parts.append(sep)
            sep = "," + inner
            _json_parts(item, inner, parts)
        parts.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in o.items():
            if isinstance(key, (int, float)) or key is None:
                key = _json_scalar(key)
            elif not isinstance(key, str):
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            parts.append(sep + _json_string(key) + ": ")
            sep = "," + inner
            _json_parts(item, inner, parts)
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        "is not JSON serializable")


def _write_out(path, document):
    """Write ``document`` to ``--out``, or raise InputError naming it.

    An existing file is written over in place and then cut at the written
    end, not emptied first: on ext4, closing a file that was truncated to
    zero length flushes it to disk, which costs more than the write. Only a
    regular file is cut, so ``/dev/null`` and pipes take the text as they
    did."""
    text = _json_text(document).encode("utf-8")
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as e:
        raise InputError(f"cannot write --out: {e}") from None


def _emit(args, payload):
    """Write the emitted instance to ``--out``, if given."""
    if args.out:
        _write_out(args.out, payload["instance"])
        payload["written"] = args.out
    return payload


def _generate(args, _):
    return _emit(args, {"instance": kit_io.generate(
        args.seed, n=args.n, m=args.m, values_per_point=args.values,
        variant=args.variant)})


def _builtin(args, _):
    data = kit_io.builtin(args.name, samples=args.samples)
    payload = {"instance": data}
    if args.name == "example41":
        payload["probes"] = kit_io.example41_probes(
            kit_io.load_validate(data))
    return _emit(args, payload)


# command -> worker(args, bundle) returning the report payload; generate
# and builtin take no instance file and write the instance to --out
WORKERS = {
    "validate": _validate,
    "solve-evp": _solve_evp,
    "solve-minimal-point": _solve_minimal_point,
    "pareto": _pareto,
    "scalarize": _scalarize,
    "check-assumptions": _check_assumptions,
    "generate": _generate,
    "builtin": _builtin,
}
EMITTERS = ("generate", "builtin")


def run_command(argv):
    """Execute one CLI invocation; returns ``(exit_code, reports)``.

    Reports come back in input order; the exit code is the first nonzero
    per-report code, or 0; an unwritable ``--out`` adds an input error.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return (3 if e.code not in (0, None) else 0), []

    worker = functools.partial(WORKERS[args.command], args)
    theorem = getattr(args, "theorem", None)
    reports = [_run_on_path(args.command, path, worker, theorem=theorem)
               for path in getattr(args, "paths", [None])]
    if args.out and args.command not in EMITTERS:
        try:
            _write_out(args.out, {"reports": [r.to_dict() for r in reports]})
        except InputError as exc:
            status, code = _ERROR_STATUS[InputError]
            reports.append(Report(command=args.command, status=status,
                                  exit_code=code, theorem=theorem,
                                  payload={"error": str(exc)}))
    exit_code = next((r.exit_code for r in reports if r.exit_code), 0)
    return exit_code, reports


def main(argv=None):
    code, reports = run_command(sys.argv[1:] if argv is None else argv)
    try:
        for report in reports:
            print(render(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # nothing reads stdout any more: point it at devnull, so that the
        # flush at interpreter exit stays silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
