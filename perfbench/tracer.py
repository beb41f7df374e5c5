"""Outside-in tracer for graphex.

The package has no tracing of its own, so this module wraps its public
functions at every place they are bound: a module that did
``from .sampler import sample_keg`` holds its own reference, and each such
reference is replaced. ``Graphex`` methods, ``SampledGraph.write_csv`` and
``Expr.__call__`` are replaced on their classes, and the kernel callables of
every graphex that ``build`` returns are replaced on the instance.

Each call records a span (name, parent, start, duration) in memory; the
self time of a span is its duration minus the time covered by its direct
children. Layers called hundreds of thousands of times per run (integrand
and kernel evaluations, quadrature panels) are only aggregated, so their
spans are not kept; the parent of a kept span is its nearest kept ancestor.
Counts are read from return values, never from inside the package.
:meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

# span names that are aggregated (calls, self time) but not kept one by one
HOT = frozenset({
    "expr.Expr.call",
    "model.kernel_eval",
    "model.marginal",
    "quadrature.integrate_interval",
    "quadrature.poisson_tail",
    "rng.stream",
})

# every span name the per-layer metrics report, in output order
SPANS = (
    "cli.main",
    "harness.validate_expectations",
    "harness.degdist_experiment",
    "harness.connectivity_experiment",
    "harness.projectivity_test",
    "sampler.sample_keg",
    "sampler.choose_theta_max",
    "sampler.restrict",
    "sampler.sample_planted_degrees",
    "sampler.write_csv",
    "graphstats.degrees",
    "graphstats.largest_component",
    "rng.stream",
    "theory.expected_edges",
    "theory.expected_vertices",
    "theory.expected_degree_count",
    "theory.degree_ccdf",
    "theory.degree_pmf",
    "quadrature.integrate_semiinf",
    "quadrature.integrate_interval",
    "quadrature.poisson_tail",
    "model.build",
    "model.marginal",
    "model.tail_mu",
    "model.w_l1",
    "model.kernel_eval",
    "finiteness.check_local_finiteness",
    "expr.Expr.call",
)

# per-layer metrics besides each span's .calls and .self_s: (name, unit)
COUNTERS = (
    ("sampler.theta_cache_hit_ratio", "ratio"),
    ("sampler.write_csv.bytes", "bytes"),
    ("sampler.edges", "count"),
    ("sampler.vertices", "count"),
    ("sampler.visible_ratio", "ratio"),
    ("quadrature.evaluations", "count"),
    ("quadrature.unconverged", "count"),
    ("harness.self_s", "s"),
    ("trace.wall_s", "s"),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []        # (id, parent id, name, start ns, duration ns)
        self.stats = {}        # name -> [calls, total ns, self ns]
        self.counts = {}       # counter name -> value
        self._stack = []       # open frames: [kept id, name, child ns]
        self._next_id = 0
        self._patches = []

    # -- recording ------------------------------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args, kwargs)`` runs ahead of the span and its result is
        passed on; ``after(result, args, kwargs, parent_name, token)`` runs
        once the span is closed. Time spent in either hook is charged to
        nobody: the parent sees it as child time.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            token = None
            if before is not None:
                h0 = time.perf_counter_ns()
                token = before(args, kwargs)
                if parent is not None:
                    parent[2] += time.perf_counter_ns() - h0
            kept = name not in HOT
            parent_id = parent[0] if parent is not None else None
            span_id = None
            if kept:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span_id if kept else parent_id, name, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - t0
                stack.pop()
                if parent is not None:
                    parent[2] += dur
                st = tracer.stats.get(name)
                if st is None:
                    st = tracer.stats[name] = [0, 0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if kept:
                    tracer.spans.append((span_id, parent_id, name, t0, dur))
            if after is not None:
                h0 = time.perf_counter_ns()
                after(result, args, kwargs, parent[1] if parent is not None else None, token)
                if parent is not None:
                    parent[2] += time.perf_counter_ns() - h0
            return result

        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public graphex function at each place it is bound."""
        from graphex import cli, expr, finiteness, graphstats, harness, model, quadrature
        from graphex import rng, sampler, theory

        self.patch(cli, "main", "cli.main")
        for fn in ("validate_expectations", "degdist_experiment",
                   "connectivity_experiment", "projectivity_test"):
            for owner in (harness, cli):
                self.patch(owner, fn, f"harness.{fn}")
        for owner in (sampler, harness, cli):
            self.patch(owner, "sample_keg", "sampler.sample_keg", after=self._after_sample)
        self.patch(sampler, "choose_theta_max", "sampler.choose_theta_max",
                   before=_theta_cached, after=self._after_theta)
        for owner in (sampler, harness):
            self.patch(owner, "restrict", "sampler.restrict")
        self.patch(sampler, "sample_planted_degrees", "sampler.sample_planted_degrees")
        self.patch(sampler.SampledGraph, "write_csv", "sampler.write_csv",
                   after=self._after_write_csv)
        self.patch(graphstats, "degrees", "graphstats.degrees")
        self.patch(harness, "_degrees", "graphstats.degrees")
        for owner in (graphstats, harness):
            self.patch(owner, "largest_component", "graphstats.largest_component")
        self.patch(rng, "stream", "rng.stream")
        for fn in ("expected_edges", "expected_vertices", "expected_degree_count",
                   "degree_ccdf", "degree_pmf"):
            self.patch(theory, fn, f"theory.{fn}")
        for owner in (quadrature, theory, model, finiteness):
            for fn in ("integrate_semiinf", "integrate_interval", "poisson_tail"):
                if hasattr(owner, fn):
                    after = None if fn == "poisson_tail" else self._after_integral
                    self.patch(owner, fn, f"quadrature.{fn}", after=after)
        self.patch(model, "build", "model.build", after=self._after_build)
        for method in ("marginal", "tail_mu", "w_l1"):
            self.patch(model.Graphex, method, f"model.{method}")
        for owner in (finiteness, cli):
            self.patch(owner, "check_local_finiteness", "finiteness.check_local_finiteness")
        self.patch(expr.Expr, "__call__", "expr.Expr.call")

    # -- counters taken from return values ------------------------------------

    def _after_sample(self, graph, args, kwargs, parent, token):
        prov = graph.provenance
        leaves = int(np.count_nonzero(prov == 1))
        isolated = int(np.count_nonzero(prov == 2))
        self.count("sampler.edges", graph.n_edges)
        self.count("sampler.vertices", graph.n_vertices)
        self.count("visible_latent", graph.n_vertices - leaves - 2 * isolated)
        self.count("latent_expected", graph.nu * graph.theta_max)

    def _after_theta(self, value, args, kwargs, parent, cached_before):
        g, nu, eps = _theta_args(args, kwargs)
        if cached_before:
            self.count("theta_hits")
        elif _theta_key(nu, eps) in g._cache:
            self.count("theta_misses")

    def _after_write_csv(self, result, args, kwargs, parent, token):
        dest = args[1] if len(args) > 1 else kwargs.get("dest")
        if isinstance(dest, (str, os.PathLike)):
            self.count("sampler.write_csv.bytes", os.path.getsize(dest))

    def _after_integral(self, res, args, kwargs, parent, token):
        # a panel inside integrate_semiinf is part of its parent's integral,
        # whose result already includes the panel's evaluations
        if parent == "quadrature.integrate_semiinf":
            return
        self.count("quadrature.evaluations", res.evaluations)
        if not res.converged:
            self.count("quadrature.unconverged")

    def _after_build(self, g, args, kwargs, parent, token):
        for attr in ("w", "diag"):
            fn = getattr(g, attr)
            if fn is not None:
                setattr(g, attr, self.wrap("model.kernel_eval", fn))

    # -- results --------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Every per-layer metric as {name: (value, unit)}."""
        out = {}
        for name in SPANS:
            calls, _, self_ns = self.stats.get(name, (0, 0, 0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_ns / 1e9, "s")
        hits = self.counts.get("theta_hits", 0.0)
        lookups = hits + self.counts.get("theta_misses", 0.0)
        latent = self.counts.get("latent_expected", 0.0)
        harness_ns = sum(self.stats[n][2] for n in self.stats if n.startswith("harness."))
        derived = {
            "sampler.theta_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "sampler.visible_ratio":
                self.counts.get("visible_latent", 0.0) / latent if latent else 0.0,
            "harness.self_s": harness_ns / 1e9,
            "trace.wall_s": wall_s,
        }
        for name, unit in COUNTERS:
            value = derived[name] if name in derived else self.counts.get(name, 0.0)
            out[name] = (value, unit)
        return out

    def write(self, path) -> None:
        """Write the kept spans as JSON lines, then one line of aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, name, t0, dur in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": span_id, "parent": parent_id,
                                     "name": name, "start_ns": t0, "dur_ns": dur}) + "\n")
            fh.write(json.dumps({"run": self.run_id, "aggregate": {
                name: {"calls": c, "total_ns": t, "self_ns": s}
                for name, (c, t, s) in sorted(self.stats.items())},
                "counts": self.counts, "aggregated_only": sorted(HOT)}) + "\n")


def _theta_args(args, kwargs):
    names = ("g", "nu", "eps")
    vals = list(args) + [kwargs[n] for n in names[len(args):]]
    return vals[0], vals[1], vals[2]


def _theta_key(nu, eps):
    # the key choose_theta_max caches its cutoff under
    return ("theta_max", float(nu), float(eps))


def _theta_cached(args, kwargs) -> bool:
    g, nu, eps = _theta_args(args, kwargs)
    return _theta_key(nu, eps) in g._cache
