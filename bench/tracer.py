"""Spans around carlitzhd's public callables, recorded from outside the package.

The traced session wraps each callable named in ``TARGETS`` in every
namespace that binds it (carlitzhd and carlitzhd.cli re-bind many of them
by name), keeps one span per call in memory, and aggregates calls, self
time and inclusive time per name.  Self time excludes the time spent in
child spans of any wrapped callable.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _table_cells(tracer, args, out):
    if out in tracer.fields_seen:
        return 0
    tracer.fields_seen.add(out)
    return out.q ** 2


def _term_pairs(tracer, args, out):
    a, b = args[0], args[1]
    return len(a.terms) * len(b.terms) if type(b) is type(a) else 0


def _coeff_pairs(tracer, args, out):
    a, b = args[0], args[1]
    return len(a.coeffs) * len(b.coeffs) if type(b) is type(a) else 0


def _terms(tracer, args, out):
    return len(out.coeffs)


# (module, attribute path, span name, extra counter name, counter)
TARGETS = (
    ("gf", "field_new", "gf.field_new", "table_cells", _table_cells),
    ("rings", "Poly.__mul__", "rings.Poly.mul", "term_pairs", _term_pairs),
    ("rings", "Poly.__pow__", "rings.Poly.pow", None, None),
    ("rings", "Poly.eval_t_at_theta", "rings.Poly.eval_t_at_theta", None, None),
    ("rings", "poly_gcd", "rings.poly_gcd", None, None),
    ("rings", "poly_divexact", "rings.poly_divexact", None, None),
    ("rings", "RatFunc.make", "rings.RatFunc.make", None, None),
    ("rings", "SJet.__mul__", "rings.SJet.mul", None, None),
    ("jets", "d_theta_jet", "jets.d_theta_jet", None, None),
    ("jets", "d_t_jet", "jets.d_t_jet", None, None),
    ("jets", "Jet.__mul__", "jets.Jet.mul", None, None),
    ("jets", "Jet.inverse", "jets.Jet.inverse", None, None),
    ("jets", "Jet.__pow__", "jets.Jet.pow", None, None),
    ("binomials", "binom_mod_p", "binomials.binom_mod_p", None, None),
    ("useries", "USeries.__mul__", "useries.USeries.mul", "coeff_pairs", _coeff_pairs),
    ("useries", "USeries.inverse", "useries.USeries.inverse", "terms", _terms),
    ("useries", "d_theta_useries", "useries.d_theta_useries", None, None),
    ("useries", "hasse_du", "useries.hasse_du", None, None),
    ("useries", "TPoly.__mul__", "useries.TPoly.mul", None, None),
    ("useries", "TPoly.inverse_tseries", "useries.TPoly.inverse_tseries", None, None),
    ("useries", "TPoly.eval_t_at_theta", "useries.TPoly.eval_t_at_theta", None, None),
    *(("carlitz", f, f"carlitz.{f}", None, None) for f in (
        "pitilde", "omega_tpoly", "at_poly", "b_rat", "eta_rat", "z_via_omega",
        "z_via_eta", "z_via_at", "verify_suite", "verify_lagrange")),
    ("cli", "main", "cli.main", None, None),
    *(("cli", f, "cli.ser", None, None) for f in (
        "ser_useries", "ser_poly", "ser_ratfunc", "ser_sjet", "ser_tpoly",
        "ser_coords")),
)

MODULES = ("gf", "binomials", "rings", "jets", "useries", "carlitz", "cli")


class Tracer:
    """Span recorder for one session; ``recording`` off makes wrappers pass through."""

    def __init__(self, session: int):
        self.session = session
        self.recording = True
        self.names: list[str] = []
        self.spans: list = []      # (name index, start, end, parent span or -1)
        self.stats: dict = {}      # name -> {"calls", "self_s", "incl_s", "raised", extra}
        self._stack: list = []     # [span index, time covered by child spans]
        self._depth: dict = {}
        self.fields_seen: set = set()

    def install(self, package) -> None:
        """Wrap every target in each carlitzhd module that binds it."""
        mods = [m for k, m in sys.modules.items()
                if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for modname, path, name, extra, counter in TARGETS:
            owner = getattr(package, modname)
            *cls_path, attr = path.split(".")
            if cls_path:
                cls = getattr(owner, cls_path[0])
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, extra, counter))
                else:
                    wrapped = self._wrap(name, raw, extra, counter)
                for key, val in list(cls.__dict__.items()):
                    if val is raw:
                        setattr(cls, key, wrapped)
            else:
                raw = getattr(owner, attr)
                wrapped = self._wrap(name, raw, extra, counter)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            setattr(mod, key, wrapped)

    def _wrap(self, name: str, fn, extra, counter):
        if name not in self.stats:
            self.stats[name] = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "raised": 0}
            self._depth[name] = 0
            self.names.append(name)
        st = self.stats[name]
        if extra:
            st[extra] = 0
        name_idx = self.names.index(name)
        stack, depth, spans = self._stack, self._depth, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if not self.recording:
                return fn(*args, **kw)
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            outer = depth[name] == 0
            depth[name] += 1
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kw)
                return out
            except BaseException:
                st["raised"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                dur = t1 - t0
                st["calls"] += 1
                st["self_s"] += dur - frame[1]
                if outer:
                    st["incl_s"] += dur
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name_idx, t0, t1, parent)
                if counter and out is not None:
                    st[extra] += counter(self, args, out)

        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"session": self.session, "names": self.names,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
