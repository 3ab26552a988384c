"""Command-line interface: compute quantities, verify identities, emit reports.

Subcommands mirror the library: pitilde, omega, atpoly, gamma, eta, bj, and
coords serialize single objects; verify runs identity suites and reports one
row per (identity, params) cell.

Exit codes: 0 success / all cells passed; 1 some verification cell failed
(the report is still emitted); 2 invalid configuration or parameters;
3 a precision bound could not be met (the message names the bound).

Output is deterministic byte-for-byte for a fixed config and seed.  When
--out is a relative path and CARLITZHD_OUT_DIR is set, the file is written
under that directory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import stat
import sys

from . import __version__
from .carlitz import (
    CarlitzCtx,
    PeriodCoords,
    Report,
    at_poly,
    b_rat,
    carlitz_combinatorics,
    eta_rat,
    eta_sjet,
    minimal_l,
    omega_tpoly,
    pitilde,
    verify_lagrange,
    verify_suite,
    z_via_at,
    z_via_eta,
    z_via_omega,
    VERIFY_SELECTORS,
)
from .errors import CarlitzhdError, ConstraintViolated, PrecisionExhausted
from .gf import MAX_Q, Field, field_new
from .rings import Poly, RatFunc, SJet
from .useries import INF_PREC, TPoly, USeries

COMBINATORIC_KINDS = ("L", "curlyL", "gamma", "D", "Gamma")


# -- field / config resolution ---------------------------------------------------


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ConstraintViolated(f"q must be a prime power >= 2, got {q}")
    if q > MAX_Q:
        raise ConstraintViolated(f"q = {q} exceeds the largest supported q = {MAX_Q}")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    e, v = 0, 1
    while v < q:
        e += 1
        v *= p
    if v != q:
        raise ConstraintViolated(f"q = {q} is not a prime power")
    return p, e


def _parse_modulus(text: str, p: int) -> tuple[int, ...]:
    if not text or not text.isdigit():
        raise ConstraintViolated(
            f"modulus must be a digit string (low degree first), got {text!r}")
    digits = tuple(int(ch) for ch in text)
    if any(d >= p for d in digits):
        raise ConstraintViolated(
            f"modulus digits must lie below p = {p}, got {text!r}")
    return digits


class RunConfig:
    """Resolved run parameters: field choice, precision, seed, output format."""

    __slots__ = ("p", "e", "modulus", "uprec", "cutoff", "seed", "fmt", "out")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...] | None,
                 uprec: int, cutoff: int | None, seed: int, fmt: str,
                 out: str | None):
        self.p, self.e, self.modulus = p, e, modulus
        self.uprec, self.cutoff, self.seed = uprec, cutoff, seed
        self.fmt, self.out = fmt, out

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        if args.q is not None:
            if args.p is not None:
                raise ConstraintViolated("give either --q or --p/--e, not both")
            p, e = _factor_prime_power(args.q)
        elif args.p is not None:
            p, e = args.p, args.e
        else:
            raise ConstraintViolated("a field is required: pass --q or --p/--e")
        if e < 1:
            raise ConstraintViolated(f"extension degree must be >= 1, got {e}")
        modulus = _parse_modulus(args.modulus, p) if args.modulus else None
        fmt = "json" if getattr(args, "json", False) else args.format
        uprec = getattr(args, "uprec", 60)
        if uprec < 1:
            raise ConstraintViolated(f"uprec must be positive, got {uprec}")
        return cls(p, e, modulus, uprec, getattr(args, "cutoff", None),
                   getattr(args, "seed", 1729), fmt, getattr(args, "out", None))

    def field(self) -> Field:
        return field_new(self.p, self.e, self.modulus)

    def ctx(self, jet_order: int) -> CarlitzCtx:
        return CarlitzCtx(self.field(), uprec=self.uprec,
                          jet_order=jet_order, cutoff=self.cutoff)

    def to_dict(self) -> dict:
        f = self.field()
        return {
            "p": self.p,
            "e": self.e,
            "q": f.q,
            "modulus": "".join(str(d) for d in f.modulus),
            "uprec": self.uprec,
            "cutoff": self.cutoff,
            "seed": self.seed,
            "format": self.fmt,
        }


# -- serialization ------------------------------------------------------------------


def _prec_out(p):
    return "inf" if p == INF_PREC else p


def _prec_in(v):
    return INF_PREC if v == "inf" else int(v)


def ser_useries(s: USeries) -> dict:
    """Lossless record: min_exp, abs_prec, dense digit-vector coefficients."""
    digits = s.field.digits_t
    return {
        "min_exp": s.min_exp,
        "abs_prec": _prec_out(s.abs_prec),
        "coeffs": [list(digits[i]) for i in s.coeffs],
    }


def parse_useries(field: Field, d: dict) -> USeries:
    coeffs = [field.elem(v).idx for v in d["coeffs"]]
    return USeries(field, d["min_exp"], coeffs, _prec_in(d["abs_prec"]))


def ser_poly(p: Poly) -> dict:
    """Exponent->coefficient map; keys are comma-joined exponent tuples."""
    digits = p.field.digits_t
    return {
        "vars": list(p.vars),
        "terms": {",".join(map(str, e)): list(digits[c])
                  for e, c in p._items()},
    }


def parse_poly(field: Field, d: dict) -> Poly:
    vars = tuple(d["vars"])
    items = [
        (tuple(int(x) for x in key.split(",")), field.elem(v))
        for key, v in d["terms"].items()
    ]
    return Poly.from_items(field, items, vars)


def ser_ratfunc(r: RatFunc) -> dict:
    return {"num": ser_poly(r.num), "den": ser_poly(r.den)}


def ser_sjet(j: SJet) -> dict:
    return {"order": len(j.coeffs), "coeffs": [ser_ratfunc(c) for c in j.coeffs]}


def ser_tpoly(t: TPoly) -> dict:
    # a TPoly is an exact polynomial in t; "t_prec" stays in the record,
    # always null, so the format is unchanged
    return {
        "t_prec": None,
        "coeffs": {str(k): ser_useries(v) for k, v in sorted(t.coeffs.items())},
    }


def parse_tpoly(field: Field, d: dict) -> TPoly:
    if d["t_prec"] is not None:
        raise ConstraintViolated(
            f"a t-polynomial record needs t_prec null, got {d['t_prec']!r}")
    coeffs = {int(k): parse_useries(field, v) for k, v in d["coeffs"].items()}
    return TPoly(field, coeffs)


def ser_coords(c: PeriodCoords) -> dict:
    """Ordered z_1..z_n records tagged with the producing route."""
    return {
        "n": c.n,
        "route": c.route,
        "z": [ser_useries(z) for z in c.z],
    }


def parse_coords(field: Field, d: dict) -> PeriodCoords:
    return PeriodCoords(d["n"], tuple(parse_useries(field, z) for z in d["z"]),
                        d["route"])


# -- output assembly -----------------------------------------------------------------


def _render_json(envelope: dict) -> str:
    """json.dumps(envelope, indent=2, sort_keys=True) + "\n", byte for byte.

    With indent set, json.dumps runs its pure-Python encoder, one generator
    step per token.  This renders the same text in one recursive pass over
    str-keyed dicts and lists.  A list of ints is one join, and its text is
    memoized per indent for this call, so a series' repeated digit vectors
    cost one dict lookup each.  Keys and other scalars go through json.dumps,
    so escaping and number formatting stay json's own.
    """
    out: list[str] = []
    memo: dict[str, dict] = {}
    dumps = json.dumps

    def ints(v, ind: str) -> str:
        texts = memo.setdefault(ind, {})
        key = tuple(v)
        text = texts.get(key)
        if text is None:
            sep = ",\n" + ind + "  "
            text = texts[key] = "[\n" + ind + "  " + sep.join(map(str, v)) + "\n" + ind + "]"
        return text

    def render(obj, ind: str) -> None:
        if isinstance(obj, dict):
            if not obj:
                out.append("{}")
                return
            inner = ind + "  "
            sep = "{\n" + inner
            for k, v in sorted(obj.items()):
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, got {type(k).__name__}")
                out.append(sep + dumps(k) + ": ")
                render(v, inner)
                sep = ",\n" + inner
            out.append("\n" + ind + "}")
        elif isinstance(obj, (list, tuple)):
            if not obj:
                out.append("[]")
                return
            # exact types: True == 1 and 1.0 == 1 would share a memo key
            kinds = set(map(type, obj))
            if kinds == {int}:
                out.append(ints(obj, ind))
                return
            inner = ind + "  "
            if kinds <= {list, tuple} and all(obj) and set(map(
                    type, itertools.chain.from_iterable(obj))) == {int}:
                # a list of digit vectors, the bulk of every series record
                texts = memo.setdefault(inner, {})
                out.append("[\n" + inner + (",\n" + inner).join([
                    texts.get(tuple(v)) or ints(v, inner) for v in obj])
                    + "\n" + ind + "]")
                return
            sep = "[\n" + inner
            for v in obj:
                out.append(sep)
                render(v, inner)
                sep = ",\n" + inner
            out.append("\n" + ind + "]")
        else:
            out.append(dumps(obj))

    render(envelope, "")
    out.append("\n")
    return "".join(out)


def _render_report_csv(cells) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["identity", "params", "pass", "witness"])
    for c in cells:
        params = json.dumps({k: c.params[k] for k in sorted(c.params)},
                            sort_keys=True, separators=(",", ":"))
        w.writerow([c.identity, params, "true" if c.passed else "false",
                    c.witness or ""])
    return buf.getvalue()


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    base = os.environ.get("CARLITZHD_OUT_DIR")
    path = out
    if base and not os.path.isabs(out):
        path = os.path.join(base, out)
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # rewrite in place and cut the file at the new length afterwards:
        # truncating an existing file before the write makes some file
        # systems flush the new data to disk at close (ext4's auto_da_alloc)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", newline="") as fh:
            fh.write(text)
            fh.flush()
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, fh.buffer.tell())
    except OSError as exc:
        raise ConstraintViolated(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit_compute(cfg: RunConfig, command: str, extra_config: dict,
                  results: list, text_lines) -> int:
    """Write the JSON envelope of results, or the text lines; text_lines
    makes them, and runs only for text output (a repr of each value)."""
    if cfg.fmt == "csv":
        raise ConstraintViolated(
            "csv output applies to verify reports; use json or text here")
    if cfg.fmt == "json":
        config = cfg.to_dict()
        config["command"] = command
        config.update(extra_config)
        envelope = {"version": __version__, "config": config, "results": results}
        _write_output(_render_json(envelope), cfg.out)
    else:
        _write_output("".join(line + "\n" for line in text_lines()), cfg.out)
    return 0


# -- compute subcommands ----------------------------------------------------------------


def _cmd_pitilde(cfg: RunConfig, args) -> int:
    ctx = cfg.ctx(0)
    val = pitilde(ctx)
    return _emit_compute(
        cfg, "pitilde", {"cutoff_used": ctx.cutoff},
        [{"name": "pitilde", "value": ser_useries(val)}],
        lambda: [f"pitilde over F_{ctx.q} (uprec={ctx.uprec}, cutoff={ctx.cutoff}):",
                 f"  {val!r}"])


def _cmd_omega(cfg: RunConfig, args) -> int:
    ctx = cfg.ctx(0)
    om = omega_tpoly(ctx)
    return _emit_compute(
        cfg, "omega", {"cutoff_used": ctx.cutoff},
        [{"name": "omega", "value": ser_tpoly(om)}],
        lambda: [f"omega over F_{ctx.q} (uprec={ctx.uprec}, cutoff={ctx.cutoff}):"]
        + [f"  t^{k}: {v!r}" for k, v in sorted(om.coeffs.items())])


def _cmd_atpoly(cfg: RunConfig, args) -> int:
    field = cfg.field()
    alpha, gamma = at_poly(field, args.n)
    return _emit_compute(
        cfg, "atpoly", {"n": args.n},
        [{"name": f"alpha_{args.n}", "value": ser_poly(alpha)},
         {"name": f"Gamma_{args.n}", "value": ser_poly(gamma)}],
        lambda: [f"alpha_{args.n} = {alpha!r}", f"Gamma_{args.n} = {gamma!r}"])


def _cmd_gamma(cfg: RunConfig, args) -> int:
    field = cfg.field()
    val = carlitz_combinatorics(field, args.kind, args.m)
    name = f"{args.kind}_{args.m}"
    return _emit_compute(
        cfg, "gamma", {"kind": args.kind, "m": args.m},
        [{"name": name, "value": ser_poly(val)}],
        lambda: [f"{name} = {val!r}"])


def _cmd_eta(cfg: RunConfig, args) -> int:
    field = cfg.field()
    if args.form == "rational":
        val = eta_rat(field, args.l)
        results = [{"name": f"eta_{args.l}", "value": ser_ratfunc(val)}]

        def lines():
            return [f"eta_{args.l} = {val!r}"]
    else:
        if args.sjet_order is None:
            raise ConstraintViolated("--form sjet needs --sjet-order")
        val = eta_sjet(field, args.l, args.sjet_order)
        results = [{"name": f"eta_{args.l}", "value": ser_sjet(val)}]

        def lines():
            return [f"eta_{args.l} mod s^{args.sjet_order}:"] + [
                f"  s^{k}: {c!r}" for k, c in enumerate(val.coeffs)]
    return _emit_compute(cfg, "eta",
                         {"l": args.l, "form": args.form,
                          "sjet_order": args.sjet_order},
                         results, lines)


def _cmd_bj(cfg: RunConfig, args) -> int:
    field = cfg.field()
    val = b_rat(field, args.j)
    return _emit_compute(
        cfg, "bj", {"j": args.j},
        [{"name": f"b_{args.j}", "value": ser_ratfunc(val)}],
        lambda: [f"b_{args.j} = {val!r}"])


def _cmd_coords(cfg: RunConfig, args) -> int:
    if args.n < 1:
        raise ConstraintViolated(f"tensor power must be >= 1, got {args.n}")
    ctx = cfg.ctx(args.n - 1)
    if args.route == "omega":
        co = z_via_omega(ctx, args.n)
    elif args.route == "at":
        co = z_via_at(ctx, args.n)
    else:
        l = args.l if args.l is not None else minimal_l(ctx.q, args.n)
        co = z_via_eta(ctx, args.n, l)
    return _emit_compute(
        cfg, "coords",
        {"n": args.n, "route": args.route, "l": args.l,
         "cutoff_used": ctx.cutoff},
        [{"name": "coords", "value": ser_coords(co)}],
        lambda: [f"coordinates over F_{ctx.q}, n={co.n}, route={co.route} "
                 f"(uprec={ctx.uprec}, cutoff={ctx.cutoff}):"]
        + [f"  z_{i + 1} = {z!r}" for i, z in enumerate(co.z)])


# -- verify subcommand --------------------------------------------------------------------


def _cmd_verify(cfg: RunConfig, args) -> int:
    if args.n < 1:
        raise ConstraintViolated(f"--n must be >= 1, got {args.n}")
    chosen = list(args.identity or ())
    for name in chosen:
        if name != "lagrange" and name not in VERIFY_SELECTORS:
            raise ConstraintViolated(
                f"unknown identity {name!r}; expected lagrange or one of "
                f"{VERIFY_SELECTORS}")
    run_all = args.all or (not chosen and not args.lagrange)
    suite_names = tuple(n for n in chosen if n != "lagrange")
    run_lagrange = run_all or args.lagrange or "lagrange" in chosen

    cells: list = []
    meta: dict = {}
    if run_all or suite_names:
        jmax = args.jmax if args.jmax is not None else args.n
        ctx = cfg.ctx(max(args.n, jmax))
        rep = verify_suite(
            ctx, "all" if run_all else suite_names, n=args.n, jmax=jmax,
            lmax=args.lmax, sum_order=args.sum_order, t_terms=args.t_terms)
        cells.extend(rep.cells)
        meta.update(rep.meta)
    if run_lagrange:
        lrep = verify_lagrange(cfg.field(), s=args.s, trials=args.trials,
                               seed=cfg.seed, max_degree=args.max_degree)
        cells.extend(lrep.cells)
        meta.setdefault("lagrange", lrep.meta)
    report = Report(cells, meta)

    config = cfg.to_dict()
    config["command"] = "verify"
    config.update({
        "selectors": sorted(set(chosen)) if not run_all else ["all"],
        "n": args.n, "jmax": args.jmax, "lmax": args.lmax,
        "sum_order": args.sum_order, "t_terms": args.t_terms,
        "s": args.s, "trials": args.trials, "max_degree": args.max_degree,
    })
    if cfg.fmt == "json":
        envelope = {
            "version": __version__,
            "config": config,
            "all_passed": report.all_passed,
            "results": [c.to_dict() for c in report.cells],
        }
        _write_output(_render_json(envelope), cfg.out)
    elif cfg.fmt == "csv":
        _write_output(_render_report_csv(report.cells), cfg.out)
    else:
        lines = [repr(c) for c in report.cells]
        good = sum(1 for c in report.cells if c.passed)
        lines.append(f"{good}/{len(report.cells)} cells passed")
        _write_output("".join(line + "\n" for line in lines), cfg.out)
    return 0 if report.all_passed else 1


# -- argument parsing ----------------------------------------------------------------------


def _add_field_args(sp) -> None:
    sp.add_argument("--q", type=int, default=None,
                    help="field size as a prime power (alternative to --p/--e)")
    sp.add_argument("--p", type=int, default=None, help="field characteristic")
    sp.add_argument("--e", type=int, default=1, help="extension degree over F_p")
    sp.add_argument("--modulus", type=str, default=None,
                    help="modulus digit string, low degree first (e.g. 111 for "
                         "1 + x + x^2)")


def _add_output_args(sp) -> None:
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text",
                    help="output format (default text)")
    sp.add_argument("--json", action="store_true",
                    help="shorthand for --format json")
    sp.add_argument("--out", type=str, default=None,
                    help="write output to this file instead of stdout; a "
                         "relative path lands under $CARLITZHD_OUT_DIR if set")


def _add_precision_args(sp) -> None:
    sp.add_argument("--uprec", type=int, default=60,
                    help="absolute u-precision of series outputs (default 60)")
    sp.add_argument("--cutoff", type=int, default=None,
                    help="product cutoff override (default: derived from uprec)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="carlitzhd",
        description="Exact hyperderivative calculus over F_q(theta): period "
                    "series, transfer coefficients, eta products, and the "
                    "identity verification suite.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pitilde", help="the period as a u-Laurent series")
    _add_field_args(sp); _add_precision_args(sp); _add_output_args(sp)
    sp.set_defaults(fn=_cmd_pitilde)

    sp = sub.add_parser("omega", help="the Omega t-polynomial over u-series")
    _add_field_args(sp); _add_precision_args(sp); _add_output_args(sp)
    sp.set_defaults(fn=_cmd_omega)

    sp = sub.add_parser("atpoly", help="alpha_n and the factorial Gamma_n")
    _add_field_args(sp); _add_output_args(sp)
    sp.add_argument("--n", type=int, required=True, help="index n >= 1")
    sp.set_defaults(fn=_cmd_atpoly)

    sp = sub.add_parser("gamma", help="product polynomials: L, curlyL, gamma, D, Gamma")
    _add_field_args(sp); _add_output_args(sp)
    sp.add_argument("--kind", choices=COMBINATORIC_KINDS, default="Gamma",
                    help="which family (default Gamma)")
    sp.add_argument("--m", type=int, required=True, help="index")
    sp.set_defaults(fn=_cmd_gamma)

    sp = sub.add_parser("eta", help="eta_l as a rational function or s-expansion")
    _add_field_args(sp); _add_output_args(sp)
    sp.add_argument("--l", type=int, required=True, help="depth l >= 0")
    sp.add_argument("--form", choices=("rational", "sjet"), default="rational")
    sp.add_argument("--sjet-order", type=int, default=None,
                    help="s-truncation order M (required with --form sjet)")
    sp.set_defaults(fn=_cmd_eta)

    sp = sub.add_parser("bj", help="transfer coefficient b_j")
    _add_field_args(sp); _add_output_args(sp)
    sp.add_argument("--j", type=int, required=True, help="index j >= 0")
    sp.set_defaults(fn=_cmd_bj)

    sp = sub.add_parser("coords", help="period coordinates z_1..z_n of a tensor power")
    _add_field_args(sp); _add_precision_args(sp); _add_output_args(sp)
    sp.add_argument("--n", type=int, required=True, help="tensor power n >= 1")
    sp.add_argument("--route", choices=("omega", "eta", "at"), default="omega")
    sp.add_argument("--l", type=int, default=None,
                    help="eta-route depth (default: smallest valid)")
    sp.set_defaults(fn=_cmd_coords)

    sp = sub.add_parser("verify", help="run identity checks and report cells")
    _add_field_args(sp); _add_precision_args(sp); _add_output_args(sp)
    sp.add_argument("--all", action="store_true", help="run every identity")
    sp.add_argument("--identity", action="append", metavar="NAME",
                    help="run one identity group (repeatable); names: "
                         + ", ".join(VERIFY_SELECTORS + ("lagrange",)))
    sp.add_argument("--lagrange", action="store_true",
                    help="run the alternating interpolation check")
    sp.add_argument("--n", type=int, default=2,
                    help="coordinate/jet range for the suite (default 2)")
    sp.add_argument("--jmax", type=int, default=None,
                    help="largest transfer index (default: --n)")
    sp.add_argument("--lmax", type=int, default=3,
                    help="largest eta depth for quotient cells (default 3)")
    sp.add_argument("--sum-order", type=int, default=32,
                    help="s-truncation for the unit-sum cell (default 32)")
    sp.add_argument("--t-terms", type=int, default=None,
                    help="t-series length for inverse checks (default cutoff+1)")
    sp.add_argument("--s", type=int, default=3,
                    help="interpolation nodes for lagrange (default 3)")
    sp.add_argument("--trials", type=int, default=50,
                    help="random tuples for lagrange (default 50)")
    sp.add_argument("--max-degree", type=int, default=2,
                    help="degree bound for lagrange samples (default 2)")
    sp.add_argument("--seed", type=int, default=1729,
                    help="PRNG seed for randomized trials (default 1729)")
    sp.set_defaults(fn=_cmd_verify)

    return ap


# the argparse tree costs more to build than a small subcommand computes, so
# a process builds it once; parse_args starts each call from a fresh Namespace
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 for --help/--version
        return int(exc.code or 0)
    try:
        cfg = RunConfig.from_args(args)
        return args.fn(cfg, args)
    except PrecisionExhausted as exc:
        print(f"error: precision exhausted: {exc}", file=sys.stderr)
        return 3
    except CarlitzhdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # KeyboardInterrupt and SystemExit pass through
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
