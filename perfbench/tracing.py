"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the listed public functions of each module with
wrappers at every import site: every ``tropsdp`` module attribute that is
the original function object is rebound, so ``hypergraphs.feasible_point``
is wrapped together with ``lp.feasible_point``.  Span wrappers record
(name, start, end, parent span, input id) in memory; count wrappers (the
Puiseux ring operations, called millions of times) only count.  Nothing is
installed in an untraced run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

SPANS = {
    "cli": ["main"],
    "pencils": ["load_pencil", "metzler_member", "general_member", "metzler_strict_member",
                "decompose"],
    "lp": ["feasible_point", "solve_nonneg"],
    "hypergraphs": ["certify_generic_general", "find_circulation", "farkas_direction",
                    "build_tangent_hypergraph", "perturb_to_interior"],
    "puiseux": ["is_psd"],
    "oracle": ["cross_validate", "evaluate_pencil", "psd_member", "sin_member", "sout_member"],
}
COUNTS = {"pencils": ["stratum_restrict"], "puiseux": ["add", "mul", "PuiseuxPoly.from_terms"]}


def _canonical_system(n_vars, eqs, ges):
    # rows sorted and deduplicated, so a reordered system counts as a repeat
    def rows(rs):
        return tuple(sorted({(tuple(c), d) for c, d in rs}))
    return n_vars, rows(eqs), rows(ges)


def _is_difference_system(eqs, ges):
    for coeffs, _ in list(eqs) + list(ges):
        nz = [c for c in coeffs if c != 0]
        if len(nz) > 2 or (len(nz) == 2 and nz[0] != -nz[1]):
            return False
    return True


class Tracer:
    def __init__(self):
        self.on = False
        self.input_id = -1
        self.spans: list = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counts = defaultdict(int)
        self.extra = defaultdict(int)
        self._systems: set = set()
        self._last_circulation_graph = None
        self._installed: list = []  # (owner, attribute, original) rebound by install

    # -- wrappers ---------------------------------------------------------------------

    def _observe(self, name, args, result):
        x = self.extra
        if name == "lp.feasible_point":
            n_vars, eqs = args[0], args[1]
            ges = args[2] if len(args) > 2 else ()
            key = (self.input_id, _canonical_system(n_vars, eqs, ges))
            if key not in self._systems:
                self._systems.add(key)
                x["lp.distinct"] += 1
            x["lp.difference"] += _is_difference_system(eqs, ges)
            x["lp.feasible"] += result is not None
        elif name == "lp.solve_nonneg":
            rows = args[0]
            x["lp.cells"] += len(rows) * (len(rows[0]) if rows else 0)
        elif name == "hypergraphs.find_circulation":
            self._last_circulation_graph = args[0]
        elif name == "hypergraphs.farkas_direction":
            x["circ.repeat"] += args[0] == self._last_circulation_graph
        elif name == "puiseux.is_psd":
            x["psd.dim"] += args[0].m
        elif name in ("pencils.metzler_member", "pencils.general_member"):
            x["member.calls"] += 1
            x["member.true"] += bool(result)

    def span_wrapper(self, name, fn):
        tracer = self
        observed = name in (
            "lp.feasible_point", "lp.solve_nonneg", "hypergraphs.find_circulation",
            "hypergraphs.farkas_direction", "puiseux.is_psd", "pencils.metzler_member",
            "pencils.general_member",
        )

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack, child = tracer._stack, tracer._child
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                own = dur - child.pop()
                if child:
                    child[-1] += dur
                tracer.spans[idx] = (name, start, end, parent, tracer.input_id)
                agg = tracer.agg[name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
            if observed:
                tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name, fn):
        tracer = self
        counts = self.counts
        if name == "puiseux.mul":
            def wrapper(x, y):
                if tracer.on:
                    counts[name] += 1
                    counts["puiseux.mul.term_pairs"] += len(x.terms) * len(y.terms)
                return fn(x, y)
        else:
            def wrapper(*args, **kwargs):
                if tracer.on:
                    counts[name] += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        import importlib

        mods = {name: importlib.import_module(f"tropsdp.{name}")
                for name in ("cli", "pencils", "lp", "hypergraphs", "puiseux", "oracle")}
        sites = [m for name, m in sys.modules.items()
                 if name == "tropsdp" or name.startswith("tropsdp.")]
        plan = [(layer, f, self.span_wrapper) for layer, fs in SPANS.items() for f in fs]
        plan += [(layer, f, self.count_wrapper) for layer, fs in COUNTS.items() for f in fs]
        for layer, fname, make in plan:
            full = f"{layer}.{fname.split('.')[-1]}"
            if "." in fname:  # a static method, reached through its class
                cls_name, attr = fname.split(".")
                cls = getattr(mods[layer], cls_name)
                orig = vars(cls)[attr]
                self._installed.append((cls, attr, orig))
                setattr(cls, attr, staticmethod(make(full, orig.__func__)))
                continue
            orig = getattr(mods[layer], fname)
            wrapped = make(full, orig)
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is orig:
                        self._installed.append((site, attr, orig))
                        setattr(site, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- results -------------------------------------------------------------------------

    def metrics(self, points: int) -> dict:
        """Metric -> (value, unit); ``points`` is the number of grid points
        the traced calls answered."""
        agg, x, c = self.agg, self.extra, self.counts

        def calls(name):
            return agg[name][0] if name in agg else 0

        def total(name):
            return agg[name][1] if name in agg else 0.0

        def own(name):
            return agg[name][2] if name in agg else 0.0

        def share(num, den):
            return num / den if den else 0.0

        fp = calls("lp.feasible_point")
        out = {
            "cli.main.self_s": (own("cli.main"), "s"),
            "pencils.load_pencil.s": (total("pencils.load_pencil"), "s"),
            "pencils.stratum_restrict.calls": (c["pencils.stratum_restrict"], "count"),
            "pencils.member.true_share": (share(x["member.true"], x["member.calls"]), "ratio"),
            "lp.feasible_point.feasible_share": (share(x["lp.feasible"], fp), "ratio"),
            "lp.feasible_point.distinct_share": (share(x["lp.distinct"], fp), "ratio"),
            "lp.feasible_point.difference_share": (share(x["lp.difference"], fp), "ratio"),
            "lp.solve_nonneg.cells_mean":
                (share(x["lp.cells"], calls("lp.solve_nonneg")), "cells"),
            "hypergraphs.certify_generic_general.self_s":
                (own("hypergraphs.certify_generic_general"), "s"),
            "hypergraphs.circulation_lp.repeat_share":
                (share(x["circ.repeat"], calls("hypergraphs.farkas_direction")), "ratio"),
            "puiseux.is_psd.self_s": (own("puiseux.is_psd"), "s"),
            "puiseux.is_psd.dim_mean": (share(x["psd.dim"], calls("puiseux.is_psd")), "rows"),
            "puiseux.add.calls": (c["puiseux.add"], "count"),
            "puiseux.mul.calls": (c["puiseux.mul"], "count"),
            "puiseux.from_terms.calls": (c["puiseux.from_terms"], "count"),
            "puiseux.mul.terms_mean":
                (share(c["puiseux.mul.term_pairs"], c["puiseux.mul"]), "term_pairs"),
            "oracle.cross_validate.self_s": (own("oracle.cross_validate"), "s"),
            "oracle.sin_member.s": (total("oracle.sin_member"), "s"),
            "oracle.sout_member.s": (total("oracle.sout_member"), "s"),
            "oracle.evaluate_pencil.per_point":
                (share(calls("oracle.evaluate_pencil"), points), "calls/point"),
        }
        for name in ("cli.main", "hypergraphs.certify_generic_general"):
            out[f"{name}.calls"] = (calls(name), "count")
        for name in ("lp.feasible_point", "lp.solve_nonneg", "hypergraphs.find_circulation",
                     "hypergraphs.farkas_direction", "hypergraphs.build_tangent_hypergraph",
                     "hypergraphs.perturb_to_interior", "puiseux.is_psd",
                     "oracle.evaluate_pencil", "oracle.psd_member", "pencils.metzler_member",
                     "pencils.general_member", "pencils.metzler_strict_member",
                     "pencils.decompose"):
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.s"] = (total(name), "s")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
