"""Command-line front end: eval, expand, verify, sweep, poles, special.

Configuration may come from flags or from a single JSON document passed
via --config; flags override config-file keys.  Output is JSON
(default) or CSV with 17-significant-digit numbers; complex values are
always serialized as paired *_re / *_im fields.  Exit status: 0 on
success (all checks PASS), 2 if any check FAILs, 1 on usage or domain
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import CurvGreenError
from .expansions import (TwoPointConfig, addition_special, euclidean_expansion,
                         fourier_2d, green_expansion)
from .geometry import EUCLIDEAN, HYPERBOLOID, HYPERSPHERE, ManifoldSpec
from .greens import (MINUS, PLUS, VARIANT_SPACES, WaveParams,
                     eigenvalue_poles, euclidean_green, green_value,
                     pole_proximity, sphere_candidate_minus)
from .verify import check_normalization, default_suite


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(doc: dict, config: dict, output: str, stream) -> None:
    doc = dict(doc)
    doc["tool_version"] = __version__
    doc["config_echo"] = {k: v for k, v in sorted(config.items())
                          if v is not None}
    if output == "json":
        stream.write(json.dumps(doc, sort_keys=True, default=str) + "\n")
        return
    rows = doc.pop("rows", None)
    if rows is None:
        # a single record is a one-row table of its sorted keys
        rows = [{k: doc[k] for k in sorted(doc)
                 if k not in ("tool_version", "config_echo")}]
    if rows:
        keys = list(rows[0].keys())
        stream.write(",".join(keys) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(v) if isinstance(v, (int, float))
                                  and not isinstance(v, bool) else str(v)
                                  for v in (row[k] for k in keys)) + "\n")


def _manifold(cfg: dict) -> ManifoldSpec:
    kind = cfg.get("manifold", "hyperboloid")
    if kind not in (HYPERBOLOID, HYPERSPHERE, EUCLIDEAN):
        raise CurvGreenError(
            f"--manifold must be hyperboloid|hypersphere|euclidean, "
            f"got {kind!r}")
    return ManifoldSpec(kind, int(cfg["d"]), float(cfg.get("R", 1.0)))


def _eval_result_doc(res) -> dict:
    v = complex(res.value)
    return {
        "value_re": v.real, "value_im": v.imag,
        "abs_err_est": res.abs_err_est,
        "terms_used": res.terms_used,
        "flags": sorted(res.flags),
    }


def _series_doc(rep) -> dict:
    v = complex(rep.value)
    doc = {
        "value_re": v.real, "value_im": v.imag,
        "terms": rep.terms, "last_term_mag": rep.last_term_mag,
        "est_ratio": rep.est_ratio, "domain_ok": rep.domain_ok,
        "flags": sorted(rep.flags),
    }
    if rep.reference_value is not None:
        r = complex(rep.reference_value)
        doc["reference_re"] = r.real
        doc["reference_im"] = r.imag
        doc["rel_err"] = rep.rel_err
    return doc


def _cmd_eval(cfg, out):
    m = _manifold(cfg)
    beta = float(cfg["beta"])
    rho = float(cfg["rho"])
    variant = cfg.get("variant")
    if m.kind == EUCLIDEAN:
        sign = cfg.get("sign", "plus")
        res = euclidean_green(sign, m.d, beta, rho)
        _emit(_eval_result_doc(res), cfg, cfg["output"], out)
        return 0
    sign = cfg.get("sign", "plus")
    if variant is None and m.kind == HYPERSPHERE and sign == MINUS:
        # no proven fundamental solution: report both candidates with
        # diagnostics, never privileging one
        wp = WaveParams(m, beta, MINUS)
        doc = {"pole_proximity": pole_proximity(wp)}
        for tag in ("SF_MINUS", "FRAK_MINUS"):
            res = sphere_candidate_minus(tag, wp, rho)
            sub = _eval_result_doc(res)
            norm = check_normalization(tag, wp, tol=1e-6)
            sub["normalization_measured"] = norm.measured
            sub["normalization_target"] = norm.target
            for k, v in sub.items():
                doc[f"{tag}.{k}"] = v
        _emit(doc, cfg, cfg["output"], out)
        return 0
    if variant is None:
        variant = {
            (HYPERBOLOID, PLUS): "H_PLUS",
            (HYPERBOLOID, MINUS): "H_MINUS",
            (HYPERSPHERE, PLUS): "S_PLUS",
        }[(m.kind, sign)]
    res = green_value(variant, m, beta, rho)
    _emit(_eval_result_doc(res), cfg, cfg["output"], out)
    return 0


def _cmd_expand(cfg, out):
    m = _manifold(cfg)
    variant = cfg["variant"]
    l_max = int(cfg.get("lmax", 40))
    if m.kind == EUCLIDEAN:
        rep = euclidean_expansion(cfg.get("sign", "plus"), m.d,
                                  float(cfg["beta"]), float(cfg["r"]),
                                  float(cfg["r_prime"]),
                                  float(cfg["gamma"]), l_max)
    else:
        if m.kind == HYPERSPHERE:
            pair = TwoPointConfig(float(cfg["theta"]),
                                  float(cfg["theta_prime"]),
                                  float(cfg["gamma"]))
        else:
            pair = TwoPointConfig(float(cfg["r"]), float(cfg["r_prime"]),
                                  float(cfg["gamma"]))
        # an unknown tag takes the + sign and is refused by the expansion
        sign = VARIANT_SPACES.get(variant, (None, PLUS))[1]
        wp = WaveParams(m, float(cfg["beta"]), sign)
        if m.d == 2:
            rep = fourier_2d(variant, wp, pair, l_max)
        else:
            rep = green_expansion(variant, wp, pair, l_max)
    _emit(_series_doc(rep), cfg, cfg["output"], out)
    return 0


def _cmd_verify(cfg, out):
    reports = default_suite()
    rows = [{"check_id": r.check_id, "status": r.status,
             "measured": r.measured, "target": r.target,
             "tolerance": r.tolerance, "notes": r.notes} for r in reports]
    npass = sum(1 for r in reports if r.passed)
    _emit({"rows": rows, "passed": npass, "failed": len(reports) - npass},
          cfg, cfg["output"], out)
    return 0 if npass == len(reports) else 2


def _cmd_sweep(cfg, out):
    m_kind = cfg.get("manifold", "hyperboloid")
    variant = cfg["variant"]
    beta = float(cfg["beta"])
    d = int(cfg["d"])
    r_phys = float(cfg["r_phys"])
    r_list = [float(x) for x in str(cfg["R_list"]).split(",")]
    # an unknown tag takes the + sign here and is refused by green_value
    sign = VARIANT_SPACES.get(variant, (None, PLUS))[1]
    ref = euclidean_green(sign, d, beta, r_phys).value
    rows = []
    for R in r_list:
        m = ManifoldSpec(m_kind, d, R)
        val = green_value(variant, m, beta, r_phys / R).value
        rows.append({
            "R": R,
            "value_re": val.real, "value_im": val.imag,
            "ref_re": ref.real, "ref_im": ref.imag,
            "rel_err": abs(val - ref) / abs(ref),
        })
    _emit({"rows": rows}, cfg, cfg["output"], out)
    return 0


def _cmd_poles(cfg, out):
    m = ManifoldSpec(HYPERSPHERE, int(cfg["d"]), float(cfg.get("R", 1.0)))
    wp = WaveParams(m, float(cfg.get("beta", 1.0)), MINUS)
    poles = eigenvalue_poles(wp, int(cfg.get("count", 5)))
    rows = [{"n": i + 1, "beta": b, "beta_squared_R_squared":
             (b * m.R) ** 2} for i, b in enumerate(poles)]
    _emit({"rows": rows, "pole_proximity": pole_proximity(wp)},
          cfg, cfg["output"], out)
    return 0


def _cmd_special(cfg, out):
    case = cfg["case"]
    params = {}
    for key in ("k", "m"):
        if cfg.get(key) is not None:
            params[key] = int(cfg[key])
    for key in ("mu", "nu"):
        if cfg.get(key) is not None:
            params[key] = float(cfg[key])
    if cfg.get("form") is not None:
        params["form"] = cfg["form"]
    if case == "COSH_SINH_LEGENDRE":
        pair = TwoPointConfig(float(cfg["r"]), float(cfg["r_prime"]),
                              float(cfg["gamma"]))
    else:
        pair = TwoPointConfig(float(cfg["theta"]), float(cfg["theta_prime"]),
                              float(cfg["gamma"]))
    rep = addition_special(case, params, pair, int(cfg.get("nmax", 80)))
    _emit(_series_doc(rep), cfg, cfg["output"], out)
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "poles": _cmd_poles,
    "special": _cmd_special,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="curvgreen",
        description="Helmholtz Green's functions on constant-curvature "
                    "manifolds: evaluation, expansions, verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override")
        p.add_argument("--output", choices=("json", "csv"), default=None)

    p = sub.add_parser("eval", help="evaluate a Green's function")
    common(p)
    p.add_argument("--manifold",
                   choices=(HYPERBOLOID, HYPERSPHERE, EUCLIDEAN))
    p.add_argument("--d", type=int)
    p.add_argument("--R", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--sign", choices=(PLUS, MINUS))
    p.add_argument("--variant")
    p.add_argument("--rho", type=float)

    p = sub.add_parser("expand", help="series expansion vs closed form")
    common(p)
    p.add_argument("--variant", required=True)
    p.add_argument("--manifold",
                   choices=(HYPERBOLOID, HYPERSPHERE, EUCLIDEAN))
    p.add_argument("--d", type=int)
    p.add_argument("--R", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--sign", choices=(PLUS, MINUS))
    p.add_argument("--theta", type=float)
    p.add_argument("--theta-prime", dest="theta_prime", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--r-prime", dest="r_prime", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--lmax", type=int)

    p = sub.add_parser("verify", help="run the verification suite")
    common(p)
    p.add_argument("--suite", default="default", choices=("default",))

    p = sub.add_parser("sweep", help="flat-space limit sweep over R")
    common(p)
    p.add_argument("--variant", required=True)
    p.add_argument("--manifold",
                   choices=(HYPERBOLOID, HYPERSPHERE), default=None)
    p.add_argument("--d", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--r-phys", dest="r_phys", type=float)
    p.add_argument("--R-list", dest="R_list")

    p = sub.add_parser("poles", help="eigenvalue (bad wavenumber) lattice")
    common(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--R", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--count", type=int)

    p = sub.add_parser("special", help="special-case addition series")
    common(p)
    p.add_argument("--case", required=True)
    p.add_argument("--theta", type=float)
    p.add_argument("--theta-prime", dest="theta_prime", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--r-prime", dest="r_prime", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--mu", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--form", choices=("cosh", "exp"))
    p.add_argument("--nmax", type=int)
    return ap


def run(argv=None, stdout=None) -> int:
    """Parse arguments, merge config, dispatch; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    cfg = {}
    if getattr(ns, "config", None):
        try:
            with open(ns.config) as fh:
                cfg.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read config: {e}", file=sys.stderr)
            return 1
    for k, v in vars(ns).items():
        if k in ("command", "config"):
            continue
        if v is not None:
            cfg[k] = v
    cfg.setdefault("output", "json")
    try:
        return _COMMANDS[ns.command](cfg, stdout)
    except CurvGreenError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return 1
    except KeyError as e:
        print(f"error: missing required option {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
