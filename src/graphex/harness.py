"""Monte Carlo validation harness.

Every experiment runs on one replicate engine, :func:`_replicates`. For each
truncation level nu of a grid it draws R graphs, and replicate ``rep`` at
grid index ``i_nu`` always uses the child seed
``derive_key(seed, i_nu, rep)[0]`` of the one base seed. The graphs are drawn
in blocks of replicates (``sampler._draw``), as many per block as the
expected work of a draw allows, and on several threads where draws are large
(``_workers``). The caller is one of those threads (``_pooled``): glibc keeps
a thread's heap at its high-water mark, and the caller's heap serves its
later work, so the caller's share of the draws leaves one pool heap fewer
behind. Replicate ``rep`` of a block is, to the bit, the graph
``sample_keg`` draws at its child seed. So results do not depend on blocks
or scheduling, which change only wall time. The experiment's measure
reduces each block to one value per replicate: counts of registered
statistics, a degree fraction, a largest-component fraction, or an edge
count. Degrees are counted over the block's whole graph, and components come
from one search of it, since no edge joins two replicates. The projectivity
test is the same engine over the two-level grid (2 nu, nu): arm 0 keeps the
edges of its draws at 2 nu whose labels are both in [0, nu], arm 1 draws at
nu directly. Labels are drawn only for arm 0, the one measure that reads
them; they have a stream of their own, so no other number moves.

The registry of statistics, ``_STATISTICS``, is the one place that declares
a statistic: its name, its count in each replicate of a block, and its
theory, an ``ExpectationResult``. ``validate_expectations`` and the CLI's
``expect`` and ``validate`` read names, counts and theory from it alone, so a
statistic added there needs no other edit.

Reports are frozen dataclasses that share one serializer, :class:`_Record`:
``to_dict`` (JSON) and ``csv_rows`` (flat CSV). Serialising the same report
twice gives byte-identical output.

SciPy loads on the first KS test, integral or component search, not on import.

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
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import rng as rngmod
from . import theory
from .graphstats import components
from .graphstats import degrees as _degrees
# not called here, but bound for perfbench's tracer, which wraps these in
# every module that holds them
from .graphstats import largest_component  # noqa: F401
from .model import Graphex, _finite, _number
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
    "statistic",
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


# the checks below return what a report stores, as Python numbers, which
# JSON writes whatever scalar type the caller gave
def _check_reps(reps: int) -> int:
    if not (_number(reps, numbers.Integral) and reps >= MIN_REPLICATES):
        raise HarnessError(f"need at least {MIN_REPLICATES} replicates, got {reps!r}")
    return int(reps)


def _check_verdict_level(value, name: str, ok, what: str) -> float:
    if not (_number(value) and ok(value)):
        raise HarnessError(f"{name} must be {what}, got {value!r}")
    return float(value)


def _check_grid(nus) -> tuple[float, ...]:
    try:
        grid = tuple(nus)
    except TypeError:
        grid = ()  # not an iterable: refused below
    # a level is a number, as projectivity's is: not a bool, nor a string
    if not grid or not all(_finite(v) and v > 0 for v in grid):
        raise HarnessError(f"the nu grid must be nonempty with positive entries, got {nus!r}")
    return tuple(float(v) for v in grid)


# ---------------------------------------------------------------------------
# The replicate engine
# ---------------------------------------------------------------------------

# expected work of one draw (``sampler._block_size``) from which a level's
# blocks go to a thread pool. On 2 cores, serial vs. a pool of two (medians
# of 5-9 alternating runs), fast-decay degdist at nu = 1000 (2.0e6) takes
# 3544 -> 1640 ms and at nu = 300 (1.85e5) 394 -> 248 ms; at 8.4e4 the pool
# is level to 25% faster, at 4.8e4 and below level or slower (2.2e4: 49 -> 93)
_POOL_WORK = 1 << 17
# expected work of the draws in flight at once, the caller's among them. A
# pooled draw's peak, with its degrees, holds 19 to 7.5 bytes per unit as the
# draw grows (tracemalloc, fast-decay nu = 255 and 1000: 2.6 and 15.1 MB), so
# this caps a level's draws near 125 MB, 8 at nu = 1000, and near 320 MB for
# draws just over _POOL_WORK
_POOL_BUDGET = 1 << 24


def _workers(work: float, blocks: int) -> int:
    """Threads that draw a level's blocks at once, the caller among them: 1
    unless there are several and a draw's work reaches ``_POOL_WORK``, else
    one per block and core, within budget."""
    if blocks < 2 or work < _POOL_WORK:
        return 1
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(1, min(blocks, cores, int(_POOL_BUDGET // work)))


def _replicates(g: Graphex, grid, reps: int, seed: int, eps: float, measure,
                labelled=()):
    """Yield (nu, [value of each replicate]) per grid level, with replicate
    seeds as in the module docstring. ``measure(block, i_nu)`` gives the
    values of a block's replicates, drawn on ``_workers`` threads, the caller
    among them, which only read ``g._cache``. Labels are drawn only at the
    level indices in ``labelled``."""
    for i_nu, nu in enumerate(grid):
        cfg = SamplerConfig(nu=nu, seed=seed, eps=eps)
        seeds = rngmod.derive_keys(seed, i_nu, np.arange(reps))[0].tolist()
        size, work = _block_size(g, cfg)  # caches the cutoff before any worker runs
        chunks = [seeds[i:i + size] for i in range(0, reps, size)]

        def one(chunk, cfg=cfg, i_nu=i_nu):
            return measure(_draw(g, cfg, chunk, labels=i_nu in labelled), i_nu)

        workers = _workers(work, len(chunks))
        if workers > 1:
            parts = _pooled(one, chunks, workers)
        else:
            parts = [one(chunk) for chunk in chunks]
        yield nu, [value for part in parts for value in part]


def _pooled(one, chunks: list, workers: int) -> list:
    """[one(chunk) for chunk in chunks] on ``workers - 1`` pool threads and
    the caller (the module docstring says why). The pool takes the blocks
    from the front, and the caller, from the back, each one it can still
    cancel, so each runs once. At the first error the blocks still queued
    are cancelled and the error raised."""
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        futures = [pool.submit(one, chunk) for chunk in chunks]
        try:
            own = {}
            # the caller stops once a pool block has raised; and the pool
            # takes blocks in order, so a block the caller cannot cancel
            # leaves none before it to the caller
            for i in reversed(range(len(chunks))):
                if (any(f.done() and f.exception() is not None for f in futures[:i])
                        or not futures[i].cancel()):
                    break
                own[i] = one(chunks[i])
            return [own[i] if i in own else f.result() for i, f in enumerate(futures)]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


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


# name -> (its count in each replicate of a block, given the block and the
# replicate and degree of each visible vertex; its theory at nu). A name
# <family>_<k> declares one statistic per integer k >= 1, written in decimal
# digits without a leading zero, so each statistic has one name; its two
# functions take k last. Theory is looked up on the module at call time.
_STATISTICS = {
    "edges": (lambda block, rep, deg: np.diff(block.edge_start),
              lambda g, nu: theory.expected_edges(g, nu)),
    "vertices": (lambda block, rep, deg: np.bincount(rep, minlength=block.reps),
                 lambda g, nu: theory.expected_vertices(g, nu)),
    "degree_<k>": (lambda block, rep, deg, k: np.bincount(rep[deg == k], minlength=block.reps),
                   lambda g, nu, k: theory.expected_degree_count(g, nu, k)),
}


def statistic(name: str):
    """(count, theory) of a registered statistic, or of a member of a family
    <family>_<k> with its k bound; the family's own name is no statistic."""
    if name in _STATISTICS and not name.endswith("_<k>"):
        return _STATISTICS[name]
    family, _, index = name.partition("_")
    k = int(index) if index.isascii() and index.isdigit() and index[0] != "0" else 0
    entry = _STATISTICS.get(f"{family}_<k>")
    if entry is None or k < 1:
        *names, last = _STATISTICS
        raise HarnessError(f"unknown statistic {name!r}; expected "
                           f"{', '.join(names)} or {last} with k >= 1")
    count, predict = entry
    return (lambda block, rep, deg: count(block, rep, deg, k),
            lambda g, nu: predict(g, nu, k))


def validate_expectations(g: Graphex, nus, reps: int, seed: int,
                          stats=DEFAULT_STATS,
                          eps: float = 1e-3, z_crit: float = DEFAULT_Z_CRIT) -> ValidationReport:
    """Compare replicate means of count statistics against the theory engine.

    All statistics at one nu are read off the same R graphs.
    """
    reps = _check_reps(reps)
    grid = _check_grid(nus)
    parsed = [(name, *statistic(name)) for name in stats]
    z_crit = _check_verdict_level(z_crit, "z_crit", lambda z: _finite(z) and z > 0,
                         "a finite number > 0")

    def counts(block, i_nu):
        rep, deg = _degree_table(block)
        table = np.zeros((len(parsed), block.reps))
        for j, (_, count, _) in enumerate(parsed):
            table[j] = count(block, rep, deg)
        return table.T.tolist()

    rows = []
    for nu, samples in _replicates(g, grid, reps, seed, eps, counts):
        samples = np.asarray(samples)
        for j, (label, _, expect) in enumerate(parsed):
            values = samples[:, j]
            mean = float(values.mean())
            sd = float(values.std(ddof=1))
            se = sd / math.sqrt(reps)
            expected = float(expect(g, nu).value)
            z = _z_score(mean, sd, se, expected, reps)
            rows.append(StatRow(label, nu, reps, mean, sd, se, expected, z,
                                "pass" if abs(z) <= z_crit else "fail"))
    return ValidationReport(tuple(rows), z_crit, int(seed), dict(g.spec))


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
                       beta: float | None = None, eps: float = 1e-3) -> DegreeLawReport:
    """Empirical degree law of a random visible vertex vs. the theory ratio.

    Per graph, the fraction of vertices with degree > k (and exactly k) is
    recorded; fractions are averaged over replicates, so each graph counts
    once regardless of its size. k is fixed, or per-nu as floor(nu^beta).
    Graphs with no visible vertices are excluded and counted as rejected.
    """
    reps = _check_reps(reps)
    grid = _check_grid(nus)
    if (k is None) == (beta is None):
        raise HarnessError("exactly one of k and beta must be given")
    if k is not None and not (_number(k, numbers.Integral) and k >= 1):
        raise HarnessError(f"k must be an integer >= 1, got {k!r}")
    if beta is not None:
        _check_verdict_level(beta, "beta", lambda b: 0.0 < b < 1.0, "in (0, 1)")
    ks = [int(k) if k is not None else max(1, int(math.floor(nu ** beta))) for nu in grid]

    def fractions(block, i_nu):
        rep, deg = _degree_table(block)
        n, above, at = (np.bincount(r, minlength=block.reps).tolist()
                        for r in (rep, rep[deg > ks[i_nu]], rep[deg == ks[i_nu]]))
        return [(a / v, b / v) if v else None for v, a, b in zip(n, above, at)]

    rows = []
    levels = _replicates(g, grid, reps, seed, eps, fractions)
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
    return DegreeLawReport(tuple(rows), int(seed), dict(g.spec))


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
                            eps: float = 1e-3, threshold: float = 0.95) -> ConnectivityReport:
    """Mean largest-component fraction across a nu grid. The components of
    a block's replicates come from one search of the block's graph."""
    reps = _check_reps(reps)
    grid = _check_grid(nus)
    threshold = _check_verdict_level(threshold, "threshold", lambda t: 0.0 <= t <= 1.0,
                                     "in [0, 1]")

    def fraction(block, i_nu):
        ids, component = components(block.edges)
        rep = block.replicate_of(ids)
        largest = np.zeros(block.reps, dtype=np.int64)
        np.maximum.at(largest, rep, np.bincount(component)[component])
        seen = np.bincount(rep, minlength=block.reps)
        return [None if not n else s / v if v else 0.0 for n, s, v in
                zip(np.diff(block.vertex_start).tolist(), largest.tolist(), seen.tolist())]

    rows = []
    for nu, results in _replicates(g, grid, reps, seed, eps, fraction):
        kept, rejected = _drop_empty(results, nu, "is the kernel identically zero?")
        rows.append(ConnectivityRow(nu, reps, rejected, float(np.mean(kept))))
    return ConnectivityReport(tuple(rows), threshold, int(seed), dict(g.spec))


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
                      eps: float = 1e-3, p_floor: float = DEFAULT_P_FLOOR) -> ProjectivityReport:
    """KS test: edge counts of restrict(sample(2 nu), nu) vs. sample(nu).

    Under projectivity the two arms are identically distributed, so a tiny
    p-value flags a restriction or sampling defect. The asymptotic KS
    p-value is used; with integer-valued samples it is conservative.
    """
    reps = _check_reps(reps)
    nu = _check_verdict_level(nu, "nu", lambda v: _finite(v) and v > 0, "positive and finite")
    p_floor = _check_verdict_level(p_floor, "p_floor", lambda p: 0.0 < p < 1.0, "in (0, 1)")

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
                    _replicates(g, (2.0 * nu, nu), reps, seed, eps, edge_count, labelled=(0,)))
    # imported here so that importing graphex does not load SciPy
    from scipy.stats import ks_2samp

    result = ks_2samp(arm_a, arm_b, method="asymp")
    return ProjectivityReport(
        nu=nu, replicates=reps, ks_statistic=float(result.statistic),
        p_value=float(result.pvalue), p_floor=p_floor, seed=int(seed),
        graphex=dict(g.spec),
    )
