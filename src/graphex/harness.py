"""Monte Carlo validation harness.

Every experiment runs on one replicate engine, :func:`_replicates`. For each
truncation level nu of a grid it draws R graphs, and replicate ``rep`` at
grid index ``i_nu`` always uses the child seed
``derive_key(seed, i_nu, rep)[0]`` of the one base seed. The graphs are drawn
in blocks of replicates (``sampler._draw``), as many per block as the
expected work of a draw allows. Replicate ``rep`` of a block is, to the bit,
the graph ``sample_keg`` draws at its child seed. So results do not depend
on blocks or scheduling, and the block size and the optional thread pool,
which draws blocks in parallel, change only wall time. The experiment's
measure reduces each block to one value per replicate: counts of registered
statistics, a degree fraction, a largest-component fraction, or an edge
count. Degrees are counted over the block's whole graph, and components come
from one search of it, since no edge joins two replicates. The projectivity
test is the same engine over the two-level grid (2 nu, nu): arm 0 keeps the
edges of its draws at 2 nu whose labels are both in [0, nu], arm 1 draws at
nu directly. Labels are drawn only for arm 0, the one measure that reads
them; they have a stream of their own, so no other number moves.

Reports are frozen dataclasses that share one serializer, :class:`_Record`:
``to_dict`` (JSON) and ``csv_rows`` (flat CSV). Serialising the same report
twice gives byte-identical output.

Statistical conventions: z = (sample mean - theory) / (sd / sqrt(R)) with the
sample sd using ddof=1. Zero sample variance needs care, because the sd
yardstick collapses. Three cases:

* mean equals theory exactly (e.g. a null kernel, theory 0, every draw 0):
  z = 0.
* every draw is 0 but the theory value is positive: the statistics here are
  counts of rare events, so the total over R replicates is approximately
  Poisson with mean R * theory, and the score statistic for observing zero
  is z = -sqrt(R * theory). A tiny expectation (say 1e-6 at R = 500) then
  passes, as it should: zero observations is the overwhelmingly likely
  outcome of a correct sampler, while a wrongly large theory value still
  fails at the same 4-sigma scale.
* every draw equals the same nonzero value that differs from theory:
  z = +-inf (deterministic disagreement).

With the default z threshold of 4 and a few dozen rows, the family-wise
false-alarm probability under correct theory stays below half a percent.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
from scipy.stats import ks_2samp

from . import rng as rngmod
from . import theory
from .graphstats import components
from .graphstats import degrees as _degrees
# not called here, but bound for perfbench's tracer, which wraps these in
# every module that holds them
from .graphstats import largest_component  # noqa: F401
from .model import Graphex
from .sampler import SamplerConfig, _block_size, _draw
from .sampler import restrict, sample_keg  # noqa: F401

__all__ = [
    "ConnectivityReport",
    "DegreeLawReport",
    "HarnessError",
    "ProjectivityReport",
    "StatRow",
    "ValidationReport",
    "connectivity_experiment",
    "degdist_experiment",
    "projectivity_test",
    "validate_expectations",
    "write_csv",
    "write_json",
]

DEFAULT_Z_CRIT = 4.0
DEFAULT_P_FLOOR = 1e-3
DEFAULT_STATS = ("edges", "vertices", "degree_1", "degree_2")
MIN_REPLICATES = 30


class HarnessError(ValueError):
    pass


def _check_reps(reps: int) -> None:
    if not (isinstance(reps, int) and reps >= MIN_REPLICATES):
        raise HarnessError(f"need at least {MIN_REPLICATES} replicates, got {reps!r}")


def _check_verdict_level(value, name: str, ok, what: str) -> None:
    # bool is a subclass of int, but True is no level
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not ok(value):
        raise HarnessError(f"{name} must be {what}, got {value!r}")


def _check_grid(nus) -> tuple[float, ...]:
    grid = tuple(float(v) for v in nus)
    # bool is a subclass of int, but True is no truncation level
    if (not grid or any(isinstance(v, bool) for v in nus)
            or any(not (math.isfinite(v) and v > 0) for v in grid)):
        raise HarnessError(f"the nu grid must be nonempty with positive entries, got {nus!r}")
    return grid


# ---------------------------------------------------------------------------
# The replicate engine
# ---------------------------------------------------------------------------

def _replicates(g: Graphex, grid, reps: int, seed: int, eps: float,
                threads: int | None, measure, labelled=()):
    """Yield (nu, [value of each replicate]) per grid level, with replicate
    seeds addressed as in the module docstring. The replicates are drawn in
    blocks; ``measure(block, i_nu)`` gives the value of each replicate of a
    block. Labels are drawn only at the levels whose indices ``labelled``
    lists."""
    # bool is a subclass of int, but True is no thread count
    if threads is not None and not (isinstance(threads, int) and not isinstance(threads, bool)
                                    and threads >= 1):
        raise HarnessError(f"threads must be None or an integer >= 1, got {threads!r}")
    for i_nu, nu in enumerate(grid):
        cfg = SamplerConfig(nu=nu, seed=seed, eps=eps)
        seeds = rngmod.derive_keys(seed, i_nu, np.arange(reps))[0].tolist()
        size = _block_size(g, cfg)
        chunks = [seeds[i:i + size] for i in range(0, reps, size)]

        def one(chunk, cfg=cfg, i_nu=i_nu):
            return measure(_draw(g, cfg, chunk, labels=i_nu in labelled), i_nu)

        if threads is not None and threads > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(one, chunks))
        else:
            parts = [one(chunk) for chunk in chunks]
        yield nu, [value for part in parts for value in part]


def _degree_table(block):
    """(replicate of each visible vertex, its degree), vertices ascending."""
    ids, deg = _degrees(block.edges)
    return block.replicate_of(ids), deg


def _drop_empty(values: list, nu: float, why: str) -> tuple[list, int]:
    """(values of nonempty graphs, number of empty ones, which measure None)."""
    kept = [v for v in values if v is not None]
    if not kept:
        raise HarnessError(f"every replicate at nu = {nu} produced an empty graph; {why}")
    return kept, len(values) - len(kept)


def _z_score(mean: float, sd: float, se: float, expected: float, reps: int) -> float:
    """z of a replicate mean against theory, by the module docstring's rules."""
    if sd != 0.0:
        return (mean - expected) / se
    if abs(mean - expected) <= 1e-12 * max(1.0, abs(expected)):
        return 0.0
    if mean == 0.0 and expected > 0.0:
        return -math.sqrt(reps * expected)
    return math.copysign(math.inf, mean - expected)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_json(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[name]) for name in fieldnames) + "\n")


class _Record:
    """Serializer of the rows and reports below. ``to_dict``: the dataclass
    fields (``rows`` as a list of dicts), then the ``DERIVED`` properties.
    ``csv_rows``: ``CSV_FIELDS`` and the rows as dicts (or the record itself)."""

    DERIVED: tuple = ()
    CSV_FIELDS: tuple = ()

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = [r.to_dict() for r in value] if f.name == "rows" else value
        for name in self.DERIVED:
            out[name] = getattr(self, name)
        return out

    def csv_rows(self):
        rows = getattr(self, "rows", (self,))
        return self.CSV_FIELDS, [r.to_dict() for r in rows]


def _columns(row_type) -> tuple:
    return tuple(f.name for f in fields(row_type)) + row_type.DERIVED


# ---------------------------------------------------------------------------
# Expectation validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatRow(_Record):
    statistic: str
    nu: float
    replicates: int
    mean: float
    sd: float
    se: float
    theory: float
    z: float
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class ValidationReport(_Record):
    rows: tuple
    z_crit: float
    seed: int
    graphex: dict

    DERIVED = ("all_ok",)
    CSV_FIELDS = _columns(StatRow)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    ok = all_ok


# statistic -> (its count in each replicate of a block, given the block and
# the replicate and degree of each visible vertex; its expectation at nu).
# Theory is looked up on the module at call time.
_STATISTICS = {
    "edges": (lambda block, rep, deg: np.diff(block.edge_start),
              lambda g, nu: theory.expected_edges(g, nu).value),
    "vertices": (lambda block, rep, deg: np.bincount(rep, minlength=block.reps),
                 lambda g, nu: theory.expected_vertices(g, nu).value),
}


def _statistic(name: str):
    """The registry entry of edges, vertices or degree_<k> with k >= 1."""
    if name in _STATISTICS:
        return _STATISTICS[name]
    if name.startswith("degree_"):
        try:
            k = int(name.split("_", 1)[1])
        except ValueError:
            k = 0
        if k >= 1:
            return (lambda block, rep, deg: np.bincount(rep[deg == k], minlength=block.reps),
                    lambda g, nu: theory.expected_degree_count(g, nu, k).value)
    raise HarnessError(f"unknown statistic {name!r}; expected edges, vertices "
                       "or degree_<k> with k >= 1")


def validate_expectations(g: Graphex, nus, reps: int, seed: int,
                          stats=DEFAULT_STATS,
                          eps: float = 1e-3, z_crit: float = DEFAULT_Z_CRIT,
                          threads: int | None = None) -> ValidationReport:
    """Compare replicate means of count statistics against the theory engine.

    All statistics at one nu are read off the same R graphs.
    """
    _check_reps(reps)
    grid = _check_grid(nus)
    parsed = [(name, *_statistic(name)) for name in stats]
    _check_verdict_level(z_crit, "z_crit", lambda z: math.isfinite(z) and z > 0,
                         "a finite number > 0")

    def counts(block, i_nu):
        rep, deg = _degree_table(block)
        table = np.zeros((len(parsed), block.reps))
        for j, (_, count, _) in enumerate(parsed):
            table[j] = count(block, rep, deg)
        return table.T.tolist()

    rows = []
    for nu, samples in _replicates(g, grid, reps, seed, eps, threads, counts):
        samples = np.asarray(samples)
        for j, (label, _, expect) in enumerate(parsed):
            values = samples[:, j]
            mean = float(values.mean())
            sd = float(values.std(ddof=1))
            se = sd / math.sqrt(reps)
            expected = float(expect(g, nu))
            z = _z_score(mean, sd, se, expected, reps)
            rows.append(StatRow(label, nu, reps, mean, sd, se, expected, z,
                                "pass" if abs(z) <= z_crit else "fail"))
    return ValidationReport(tuple(rows), z_crit, seed, dict(g.spec))


# ---------------------------------------------------------------------------
# Degree-law experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeLawRow(_Record):
    nu: float
    k: int
    replicates: int
    rejected: int
    empirical_ccdf: float
    theory_ccdf: float
    empirical_pmf: float
    theory_pmf: float

    DERIVED = ("gap",)

    @property
    def gap(self) -> float:
        return abs(self.empirical_ccdf - self.theory_ccdf)


@dataclass(frozen=True)
class DegreeLawReport(_Record):
    rows: tuple
    seed: int
    graphex: dict

    DERIVED = ("gaps_shrink", "ok")
    CSV_FIELDS = _columns(DegreeLawRow)

    @property
    def gaps_shrink(self) -> bool:
        if len(self.rows) < 2:
            return True
        return self.rows[-1].gap < self.rows[0].gap

    @property
    def ok(self) -> bool:
        return self.gaps_shrink


def degdist_experiment(g: Graphex, nus, reps: int, seed: int, k: int | None = None,
                       beta: float | None = None, eps: float = 1e-3,
                       threads: int | None = None) -> DegreeLawReport:
    """Empirical degree law of a random visible vertex vs. the theory ratio.

    Per graph, the fraction of vertices with degree > k (and exactly k) is
    recorded; fractions are averaged over replicates, so each graph counts
    once regardless of its size. k is fixed, or per-nu as floor(nu^beta).
    Graphs with no visible vertices are excluded and counted as rejected.
    """
    _check_reps(reps)
    grid = _check_grid(nus)
    if (k is None) == (beta is None):
        raise HarnessError("exactly one of k and beta must be given")
    if k is not None and not (isinstance(k, int) and not isinstance(k, bool) and k >= 1):
        raise HarnessError(f"k must be an integer >= 1, got {k!r}")
    if beta is not None and not (0.0 < beta < 1.0):
        raise HarnessError(f"beta must lie in (0, 1), got {beta!r}")
    ks = [k if k is not None else max(1, int(math.floor(nu ** beta))) for nu in grid]

    def fractions(block, i_nu):
        rep, deg = _degree_table(block)
        n, above, at = (np.bincount(r, minlength=block.reps).tolist()
                        for r in (rep, rep[deg > ks[i_nu]], rep[deg == ks[i_nu]]))
        return [(a / v, b / v) if v else None for v, a, b in zip(n, above, at)]

    rows = []
    levels = _replicates(g, grid, reps, seed, eps, threads, fractions)
    for k_nu, (nu, results) in zip(ks, levels):
        kept, rejected = _drop_empty(results, nu, "the degree experiment is undefined")
        arr = np.asarray(kept)
        rows.append(DegreeLawRow(
            nu=nu, k=k_nu, replicates=reps, rejected=rejected,
            empirical_ccdf=float(arr[:, 0].mean()),
            theory_ccdf=theory.degree_ccdf(g, nu, k_nu),
            empirical_pmf=float(arr[:, 1].mean()),
            theory_pmf=theory.degree_pmf(g, nu, k_nu),
        ))
    return DegreeLawReport(tuple(rows), seed, dict(g.spec))


# ---------------------------------------------------------------------------
# Giant-component experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectivityRow(_Record):
    nu: float
    replicates: int
    rejected: int
    mean_fraction: float


@dataclass(frozen=True)
class ConnectivityReport(_Record):
    rows: tuple
    threshold: float
    seed: int
    graphex: dict

    DERIVED = ("nondecreasing", "final_ok", "ok")
    CSV_FIELDS = _columns(ConnectivityRow)

    @property
    def nondecreasing(self) -> bool:
        fractions = [r.mean_fraction for r in self.rows]
        return all(b >= a for a, b in zip(fractions, fractions[1:]))

    @property
    def final_ok(self) -> bool:
        return self.rows[-1].mean_fraction >= self.threshold

    @property
    def ok(self) -> bool:
        return self.nondecreasing and self.final_ok


def connectivity_experiment(g: Graphex, nus, reps: int, seed: int,
                            eps: float = 1e-3, threshold: float = 0.95,
                            threads: int | None = None) -> ConnectivityReport:
    """Mean largest-component fraction across a nu grid. The components of
    a block's replicates come from one search of the block's graph."""
    _check_reps(reps)
    grid = _check_grid(nus)
    _check_verdict_level(threshold, "threshold", lambda t: 0.0 <= t <= 1.0, "in [0, 1]")

    def fraction(block, i_nu):
        ids, component = components(block.edges)
        rep = block.replicate_of(ids)
        largest = np.zeros(block.reps, dtype=np.int64)
        np.maximum.at(largest, rep, np.bincount(component)[component])
        seen = np.bincount(rep, minlength=block.reps)
        return [None if not n else s / v if v else 0.0 for n, s, v in
                zip(np.diff(block.vertex_start).tolist(), largest.tolist(), seen.tolist())]

    rows = []
    for nu, results in _replicates(g, grid, reps, seed, eps, threads, fraction):
        kept, rejected = _drop_empty(results, nu, "is the kernel identically zero?")
        rows.append(ConnectivityRow(nu, reps, rejected, float(np.mean(kept))))
    return ConnectivityReport(tuple(rows), threshold, seed, dict(g.spec))


# ---------------------------------------------------------------------------
# Projectivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectivityReport(_Record):
    nu: float
    replicates: int
    ks_statistic: float
    p_value: float
    p_floor: float
    seed: int
    graphex: dict

    DERIVED = ("ok",)
    CSV_FIELDS = ("nu", "replicates", "ks_statistic", "p_value", "p_floor", "ok")

    @property
    def ok(self) -> bool:
        return self.p_value >= self.p_floor


def projectivity_test(g: Graphex, nu: float, reps: int, seed: int,
                      eps: float = 1e-3, p_floor: float = DEFAULT_P_FLOOR,
                      threads: int | None = None) -> ProjectivityReport:
    """KS test: edge counts of restrict(sample(2 nu), nu) vs. sample(nu).

    Under projectivity the two arms are identically distributed, so a tiny
    p-value flags a restriction or sampling defect. The asymptotic KS
    p-value is used; with integer-valued samples it is conservative.
    """
    _check_reps(reps)
    if isinstance(nu, bool) or not (math.isfinite(nu) and nu > 0):
        raise HarnessError(f"nu must be positive and finite, got {nu!r}")
    _check_verdict_level(p_floor, "p_floor", lambda p: 0.0 < p < 1.0, "in (0, 1)")

    def edge_count(block, i_nu):
        per_replicate = np.diff(block.edge_start)
        if i_nu == 1:
            return per_replicate.tolist()
        # restricted to [0, nu]: the edges whose labels are both <= nu
        labels, edges = block.labels, block.edges
        kept = (labels[edges[:, 0]] <= nu) & (labels[edges[:, 1]] <= nu)
        rep = np.repeat(np.arange(block.reps), per_replicate)
        return np.bincount(rep[kept], minlength=block.reps).tolist()

    arm_a, arm_b = (np.asarray(counts, dtype=float) for _, counts in
                    _replicates(g, (2.0 * nu, nu), reps, seed, eps, threads, edge_count,
                                labelled=(0,)))
    result = ks_2samp(arm_a, arm_b, method="asymp")
    return ProjectivityReport(
        nu=float(nu), replicates=reps, ks_statistic=float(result.statistic),
        p_value=float(result.pvalue), p_floor=p_floor, seed=seed,
        graphex=dict(g.spec),
    )
