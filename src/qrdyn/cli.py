"""Command-line interface.

Exit codes: 0 success, 2 invalid parameters, 3 numerical failure or
resource limit, 64 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys

from .core import make_params, params_of_mu
from .circle import orbit
from .rays import fixed_rays, k_theta
from .mobius import dilatation_distance_series, growth_fit
from .blaschke import julia_classification, julia_sample, immediate_basin
from .plane import Window, _rewrite, render_grid, write_ppm, write_stats
from .obstruct import TRACE_TOL, obstruction_report
from .errors import InvalidParameter, NoBasin, QrdynError

EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _add_param_flags(sp):
    sp.add_argument("--K", type=float, help="stretch factor, > 1")
    sp.add_argument("--theta", type=float, help="stretch direction angle")
    sp.add_argument("--mu", type=str, metavar="RE,IM",
                    help="complex dilatation instead of (K, theta)")
    sp.add_argument("--degrees", action="store_true",
                    help="interpret angle flags in degrees")


def _angle(args, x):
    return math.radians(x) if args.degrees else x


def _params_from_args(args, suffix=""):
    """The map given by --K/--theta or --mu; suffix "2" reads the second
    map's --K2/--theta2/--mu2."""
    K, theta, mu = (getattr(args, name + suffix) for name in ("K", "theta", "mu"))
    if mu is not None:
        if K is not None or theta is not None:
            raise InvalidParameter(
                f"give either --mu{suffix} or --K{suffix}/--theta{suffix}, not both")
        return params_of_mu(complex(*_parse_floats(mu, f"--mu{suffix}", "RE,IM")))
    if K is None or theta is None:
        raise InvalidParameter(f"need --K{suffix} and --theta{suffix} (or --mu{suffix})")
    return make_params(K, _angle(args, theta))


def _parse_floats(text, flag, metavar):
    """The comma-separated numbers of a flag, as many as metavar names."""
    parts = text.split(",")
    if len(parts) != len(metavar.split(",")):
        raise InvalidParameter(f"{flag} expects {metavar}")
    try:
        return tuple(float(x) for x in parts)
    except ValueError:
        raise InvalidParameter(f"{flag} expects numbers {metavar}, got {text!r}")


def _run_config(args):
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k != "func" and v is not None}
    return cfg


@contextlib.contextmanager
def _out_text(out, newline=None):
    """Text stream to the --out file, rewritten in place as plane's outputs
    are, or stdout without --out."""
    if not out:
        yield sys.stdout
        return
    with _rewrite(out) as raw:
        f = io.TextIOWrapper(raw, encoding="utf-8", newline=newline)
        try:
            yield f
        finally:
            f.detach()  # flushes the text before _rewrite cuts the file


def _emit(args, rows, header, json_payload):
    """Write CSV rows or a JSON object to --out (default stdout)."""
    out = getattr(args, "out", None)
    if args.format == "csv":
        with _out_text(out, newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            for row in rows:
                w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    else:
        json_payload["config"] = _run_config(args)
        text = json.dumps(json_payload, indent=2, sort_keys=True) + "\n"
        with _out_text(out) as f:
            f.write(text)


def cmd_fixed_rays(args):
    p = _params_from_args(args)
    rep = fixed_rays(p)
    rows = [(r.angle, r.multiplier, r.stability.value, r.trace_sq,
             r.contraction_k) for r in rep.rays]
    header = ["angle", "multiplier", "stability", "trace_sq", "contraction_k"]
    payload = {
        "regime": rep.regime.value,
        "k_theta": rep.k_theta,
        "rays": [dict(zip(header, row)) for row in rows],
    }
    _emit(args, rows, header, payload)
    return 0


def cmd_ktheta(args):
    if args.theta is None:
        raise InvalidParameter("need --theta")
    theta = _angle(args, args.theta)
    K = k_theta(theta)
    _emit(args, [(theta, K)], ["theta", "K_theta"], {"theta": theta, "K_theta": K})
    return 0


def cmd_orbit(args):
    p = _params_from_args(args)
    seq = orbit(p, _angle(args, args.phi), args.n)
    rows = list(enumerate(seq))
    _emit(args, rows, ["n", "angle"], {"orbit": seq})
    return 0


def cmd_growth(args):
    p = _params_from_args(args)
    if args.z is not None:
        target = complex(*_parse_floats(args.z, "--z", "RE,IM"))
    elif args.phi is not None:
        target = _angle(args, args.phi)
    else:
        raise InvalidParameter("need --phi (fixed ray) or --z (orbit start)")
    # the fit validates the window in the flags' names
    fit = growth_fit(p, target, args.n_lo, args.n_hi)
    dists = dilatation_distance_series(p, target, args.n_hi)
    rows = [(n + 1, d) for n, d in enumerate(dists)]
    _emit(args, rows, ["n", "hyperbolic_distance"],
          {"distances": dists,
           "fit": {"slope": fit.slope, "intercept": fit.intercept,
                   "residual": fit.residual, "n_used": list(fit.n_used)}})
    return 0


def cmd_julia(args):
    p = _params_from_args(args)
    cls = julia_classification(p)
    angles = julia_sample(p, args.count, args.seed)
    rows = list(enumerate(angles))
    _emit(args, rows, ["index", "angle"],
          {"kind": cls.kind.value, "regime": cls.regime.value,
           "angles": angles})
    return 0


def cmd_basin(args):
    p = _params_from_args(args)
    b = immediate_basin(p)
    _emit(args, [(b.lo, b.hi, b.closed_lo, b.closed_hi)],
          ["lo", "hi", "closed_lo", "closed_hi"],
          {"lo": b.lo, "hi": b.hi,
           "closed_lo": b.closed_lo, "closed_hi": b.closed_hi})
    return 0


def cmd_render(args):
    p = _params_from_args(args)
    w = Window.from_bounds(*_parse_floats(args.window, "--window",
                                          "XMIN,XMAX,YMIN,YMAX"))
    grid = render_grid(p, w, args.res, args.max_iter)
    write_ppm(grid, args.out)
    write_stats(grid, p, args.out + ".json")
    return 0


def cmd_obstruct(args):
    p1 = _params_from_args(args)
    p2 = _params_from_args(args, suffix="2")
    v = obstruction_report(p1, p2, tol=args.tol)
    d = v.to_dict()
    rows = [(d["verdict"], d["reason"])]
    _emit(args, rows, ["verdict", "reason"], d)
    return 0


@functools.cache
def build_parser():
    """The qrdyn parser, built on the first call and shared after that.

    Building it costs about 20 parses, and `main` may run many times in one
    process.  Parsing leaves the parser unchanged and returns a fresh
    Namespace, so the shared parser answers every argv as a new one would;
    callers must not add to it.
    """
    ap = _Parser(prog="qrdyn",
                 description="Dynamics of the quasiregular maps H = h_{K,theta}^2")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, fmt_default="json"):
        sp = sub.add_parser(name)
        _add_param_flags(sp)
        sp.add_argument("--format", choices=["csv", "json"], default=fmt_default)
        sp.add_argument("--out", type=str, default=None)
        sp.set_defaults(func=func)
        return sp

    add("fixed-rays", cmd_fixed_rays)

    sp = add("ktheta", cmd_ktheta)

    sp = add("orbit", cmd_orbit)
    sp.add_argument("--phi", type=float, required=True)
    sp.add_argument("--n", type=int, default=100)

    sp = add("growth", cmd_growth)
    sp.add_argument("--phi", type=float, default=None)
    sp.add_argument("--z", type=str, default=None, metavar="RE,IM")
    sp.add_argument("--n-lo", type=int, default=10)
    sp.add_argument("--n-hi", type=int, default=60)

    sp = add("julia", cmd_julia)
    sp.add_argument("--count", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)

    add("basin", cmd_basin)

    sp = sub.add_parser("render")
    _add_param_flags(sp)
    sp.add_argument("--window", type=str, required=True, metavar="XMIN,XMAX,YMIN,YMAX")
    sp.add_argument("--res", type=int, default=512)
    sp.add_argument("--max-iter", type=int, default=100)
    sp.add_argument("--out", type=str, required=True)
    sp.set_defaults(func=cmd_render)

    sp = add("obstruct", cmd_obstruct)
    sp.add_argument("--K2", type=float, default=None)
    sp.add_argument("--theta2", type=float, default=None)
    sp.add_argument("--mu2", type=str, default=None, metavar="RE,IM")
    sp.add_argument("--tol", type=float, default=TRACE_TOL)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except QrdynError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, (InvalidParameter, NoBasin)) else 3
    except OSError as e:  # writing --out, or stdout without it
        path = e.filename or getattr(args, "out", None) or "<stdout>"
        print(f"error: cannot write {path}: {e.strerror or e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
