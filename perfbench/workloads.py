"""The benchmark's three workloads and the checks on their outputs.

Each workload function runs one round of its operations through a
:class:`Round`, which times every operation, checks its output and counts
failures. Operations go through graphex's module attributes
(``harness.degdist_experiment``, ``cli.main``, ...) so that the tracer's
wrappers see them. The benchmark chooses the inputs; the package receives
only the generated declarations, levels and seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy import integrate, special
from scipy import stats as sps

from graphex import cli, finiteness, harness, model, sampler, theory

FAST = {"family": "fast-decay"}
SLOW = {"family": "slow-decay"}
CONST_SELF = {"family": "constant", "params": {"p": 0.5, "c": 2.0}, "self_edges": True}
CARON_FOX = {"family": "caron-fox"}
CUSTOM = {"family": "custom", "exprs": {"W": "exp(-x-y)"}}

# Statistical gates. A benchmark run makes hundreds of statistical checks
# across seeds, so each gate's false-alarm rate under a correct program must
# be far below one in a thousand: z tests use 5 sigma (about 6e-7 two-sided)
# and p-value floors are 1e-6.
Z_CRIT = 5.0
P_FLOOR = 1e-6
# degdist and connectivity rows are means over 30 or more graphs; their Monte Carlo
# standard errors are below 0.005, so these tolerances sit at 6 sigma or more
DEGREE_LAW_TOL = 0.05
FRACTION_DROP_TOL = 0.02

LARGE_DEGDIST_NUS = (100.0, 1000.0)
LARGE_CONNECTIVITY_NUS = (25.0, 50.0, 100.0, 200.0)
LARGE_DEGDIST_REPS = 30
LARGE_CONNECTIVITY_REPS = 50
LARGE_SAMPLE_NU = 1000.0
# parts that take only a second or two are run more than once per round, so
# that each part measures enough work to be steady
LARGE_SAMPLES = 2

SPARSE_VALIDATE = (("slow-decay", SLOW, 1e-2), ("fast-decay", FAST, 1e-3),
                   ("constant", CONST_SELF, 1e-3))
SPARSE_VALIDATE_NUS = (5.0, 10.0, 20.0)
SPARSE_VALIDATE_REPS = 500
SPARSE_PROJECTIVITY_REPS = 500
SPARSE_PLANTED_REPS = 250
SPARSE_PLANTED_CALLS = 2

TABLE = (("slow-decay", SLOW), ("fast-decay", FAST), ("constant", CONST_SELF))
TABLE_NUS = (10.0, 1e2, 1e3, 1e4)
TABLE_KS = (1, 2, 3, 5, 10)
# (name, declaration, whether the round also takes a cold CLI sample); one
# cold cutoff of each kernel would cost 24 s a round, and both take the same
# nested-quadrature path, so only caron-fox is sampled
BLACKBOX = (("caron-fox", CARON_FOX, True), ("custom", CUSTOM, False))
BLACKBOX_NU = 20.0

# frozen finite-size truth of criterion 04b
SLOW_PMF_1E4_2 = 0.12623356069739336

CSV_HEADER = "u_index,v_index,u_label,v_label,provenance"
PROV_CODES = {"kernel": 0, "star": 1, "isolated": 2}


class Round:
    """One round of a workload: timed operations and their verdicts."""

    def __init__(self, seed: int, out_dir: Path, keep_digest: bool):
        self.seed = seed
        self.out_dir = out_dir
        self.digest = hashlib.sha256() if keep_digest else None
        self.ops = []
        self._pending = []     # (op, check, result) awaiting finish()
        # the package's own verdicts where the gate uses a sounder check;
        # reported, not gated (see README.md)
        self.verdicts = {}

    def run(self, name: str, part: str | None, fn, check=None):
        """Time ``fn()`` and return its result (None if it raised).

        ``check(result)`` lists the problems with the result (none = pass).
        Checks run in :meth:`finish`, after the round's last operation, so
        that neither their time nor their memory is the program's.
        """
        start = time.monotonic()
        try:
            result = fn()
            problems = None
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result, problems = None, ["raised"]
        end = time.monotonic()
        # "s" is replaced by the speed-calibrated time once the run is over
        op = {"op": name, "part": part, "start": start, "end": end, "raw_s": end - start,
              "s": end - start, "ok": problems is None, "problems": problems or []}
        self.ops.append(op)
        if problems is None and check is not None:
            self._pending.append((op, check, result))
        return result

    def finish(self) -> None:
        """Run the deferred checks."""
        for op, check, result in self._pending:
            try:
                problems = list(check(result))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                problems = ["check raised"]
            op["ok"], op["problems"] = not problems, problems
        self._pending = []
        for op in self.ops:
            if op["problems"]:
                print(f"perfbench: {op['op']} (seed {self.seed}) failed: {op['problems']}",
                      file=sys.stderr)

    def emit(self, label: str, data: bytes) -> None:
        """Feed one deterministic output into the round's stream digest."""
        if self.digest is not None:
            self.digest.update(label.encode() + b"\0" + data + b"\0")

    def emit_report(self, label: str, report) -> None:
        # the exact bytes the CLI writes for a report
        if report is not None:
            self.emit(label, (json.dumps(report.to_dict(), sort_keys=True, indent=2)
                              + "\n").encode())

    def path(self, name: str) -> str:
        return str(self.out_dir / name)

    def seconds(self, prefix: str) -> float:
        return sum(op["s"] for op in self.ops if op["op"].startswith(prefix))

    def part_seconds(self, part: str) -> float:
        return sum(op["s"] for op in self.ops if op["part"] == part)

    @property
    def wall(self) -> float:
        return sum(op["s"] for op in self.ops)


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------

def graph_problems(edges, labels, prov_codes, nu, n_vertices, by_prov=None):
    """u <= v, dense indices, provenance counts summing to the edge count,
    labels in [0, nu] and one label per vertex."""
    problems = []
    edges = np.asarray(edges)
    labels = np.asarray(labels, dtype=float)
    if labels.size != n_vertices:
        problems.append(f"{labels.size} labels for {n_vertices} vertices")
    if edges.size:
        u, v = edges[:, 0], edges[:, 1]
        if np.any(u > v):
            problems.append("an edge has u > v")
        ids = edges.ravel()
        if ids.min() < 0 or ids.max() >= n_vertices or \
                np.count_nonzero(np.bincount(ids, minlength=n_vertices)) != n_vertices:
            problems.append("vertex indices are not dense in [0, vertices)")
    elif n_vertices:
        problems.append("vertices without edges")
    if labels.size and (labels.min() < 0.0 or labels.max() > nu):
        problems.append("a label lies outside [0, nu]")
    counts = {name: int(np.count_nonzero(prov_codes == code))
              for name, code in PROV_CODES.items()}
    if sum(counts.values()) != len(edges):
        problems.append("provenance counts do not sum to the edge count")
    if by_prov is not None and counts != by_prov:
        problems.append(f"provenance counts {counts} differ from the metadata {by_prov}")
    return problems


def sampled_graph_problems(graph, nu):
    return graph_problems(graph.edges, graph.labels, graph.provenance, nu, graph.n_vertices)


def cli_sample_problems(code, csv_path, meta_path, nu, seed):
    """Exit code, metadata and every edge-CSV invariant of one CLI sample."""
    if code != 0:
        return [f"exit code {code}"]
    meta = json.loads(Path(meta_path).read_text(encoding="utf-8"))
    problems = []
    if meta["nu"] != nu or meta["seed"] != seed:
        problems.append("metadata nu or seed differ from the request")
    head, _, body = Path(csv_path).read_text(encoding="utf-8").partition("\n")
    if head != CSV_HEADER:
        return problems + [f"unexpected CSV header {head!r}"]
    rows = body.count("\n")
    if rows != meta["edges"]:
        problems.append(f"{rows} CSV rows but {meta['edges']} edges in the metadata")
    for name, code_ in PROV_CODES.items():
        body = body.replace(name, str(code_))
    try:
        cells = np.fromstring(body.rstrip("\n").replace("\n", ","), sep=",") if rows \
            else np.empty(0)
    except ValueError:
        cells = None
    if cells is None or cells.size != 5 * rows:
        return problems + ["malformed CSV rows"]
    cells = cells.reshape(rows, 5)
    edges = cells[:, :2].astype(np.int64)
    n = meta["vertices"]
    labels = np.full(n, np.nan)
    if rows:
        labels[edges[:, 0]] = cells[:, 2]
        labels[edges[:, 1]] = cells[:, 3]
        if not (np.array_equal(labels[edges[:, 0]], cells[:, 2])
                and np.array_equal(labels[edges[:, 1]], cells[:, 3])):
            problems.append("a vertex carries two labels")
    problems += graph_problems(edges, labels, cells[:, 4].astype(np.int64), nu, n,
                               meta["edges_by_provenance"])
    return problems


def cli_sample(rd: Round, decl: dict, nu: float, stem: str, part: str, seed: int) -> None:
    """Run ``graphex sample`` for ``decl`` and check what it wrote."""
    csv_path, meta_path = rd.path(f"{stem}.csv"), rd.path(f"{stem}.json")
    argv = ["sample", "--graphex", json.dumps(decl), "--nu", repr(nu),
            "--seed", str(seed), "--out", csv_path, "--meta-out", meta_path]

    def check(code):
        problems = cli_sample_problems(code, csv_path, meta_path, nu, seed)
        if code == 0:
            for path in (csv_path, meta_path):
                rd.emit(Path(path).name, Path(path).read_bytes())
        return problems

    rd.run(f"cli-sample-{stem}", part, lambda: cli.main(argv), check)


# ---------------------------------------------------------------------------
# large-graphs
# ---------------------------------------------------------------------------

def degdist_problems(report):
    rows = report.rows
    problems = [f"nu={r.nu}: {r.rejected} empty graphs" for r in rows if r.rejected]
    for r in rows:
        if abs(r.empirical_ccdf - r.theory_ccdf) > DEGREE_LAW_TOL or \
                abs(r.empirical_pmf - r.theory_pmf) > DEGREE_LAW_TOL:
            problems.append(f"nu={r.nu}: empirical degree law far from theory")
    # criterion 05: P(D <= nu^beta) approaches beta = 1/2 as nu grows
    gaps = [abs((1.0 - r.empirical_ccdf) - 0.5) for r in rows]
    if not (gaps[1] < gaps[0] and gaps[1] <= 0.08):
        problems.append(f"P(D <= nu^0.5) does not approach 1/2: gaps {gaps}")
    return problems


def connectivity_problems(report):
    fractions = [r.mean_fraction for r in report.rows]
    problems = [f"nu={r.nu}: {r.rejected} empty graphs" for r in report.rows if r.rejected]
    if not report.final_ok:
        problems.append(f"largest-component fraction {fractions[-1]} below the threshold")
    if any(b < a - FRACTION_DROP_TOL for a, b in zip(fractions, fractions[1:])):
        problems.append(f"largest-component fraction falls with nu: {fractions}")
    return problems


def rerun_problems(outputs):
    codes = [c for c, _ in outputs]
    if any(codes):
        return [f"exit codes {codes}"]
    if outputs[0][1] != outputs[1][1] or outputs[2][1] != outputs[3][1]:
        return ["reruns of the same command differ"]
    return []


def large_graphs(rd: Round) -> None:
    s = rd.seed
    g = rd.run("build", None, lambda: model.build(FAST))
    report = rd.run("degdist", "part1",
                    lambda: harness.degdist_experiment(g, LARGE_DEGDIST_NUS, LARGE_DEGDIST_REPS, s,
                                                       beta=0.5),
                    degdist_problems)
    rd.emit_report("degdist", report)
    rd.verdicts["degdist.ok"] = report is not None and report.ok
    report = rd.run("connectivity", "part2",
                    lambda: harness.connectivity_experiment(g, LARGE_CONNECTIVITY_NUS,
                                                            LARGE_CONNECTIVITY_REPS, s,
                                                            threshold=0.95),
                    connectivity_problems)
    rd.emit_report("connectivity", report)
    rd.verdicts["connectivity.ok"] = report is not None and report.ok
    for i in range(LARGE_SAMPLES):
        cli_sample(rd, FAST, LARGE_SAMPLE_NU, f"large-{i}", "part3", s + i)

    # criterion 11: the same command twice gives the same bytes
    decl = json.dumps(FAST)

    def rerun():
        outputs = []
        for tag in ("a", "b"):
            path = rd.path(f"rerun-{tag}.csv")
            code = cli.main(["sample", "--graphex", decl, "--nu", "10", "--seed", str(s),
                             "--out", path])
            outputs.append((code, Path(path).read_bytes()))
        for tag in ("a", "b"):
            path = rd.path(f"rerun-{tag}.json")
            code = cli.main(["validate", "--graphex", decl, "--nus", "3", "--replicates",
                             "30", "--seed", str(s), "--z-crit", str(Z_CRIT), "--out", path])
            outputs.append((code, Path(path).read_bytes()))
        return outputs

    rd.run("rerun", None, rerun, rerun_problems)


def large_graphs_info(rounds):
    degdist = statistics.median(r.seconds("degdist") for r in rounds)
    connectivity = statistics.median(r.seconds("connectivity") for r in rounds)
    return {
        "degdist_reps_per_s": (len(LARGE_DEGDIST_NUS) * LARGE_DEGDIST_REPS / degdist, "1/s"),
        "connectivity_reps_per_s": (len(LARGE_CONNECTIVITY_NUS) * LARGE_CONNECTIVITY_REPS
                                    / connectivity, "1/s"),
        "sample_csv_s": (statistics.median(op["s"] for r in rounds for op in r.ops
                                           if op["op"].startswith("cli-sample-large")), "s"),
    }


# ---------------------------------------------------------------------------
# sparse-clouds
# ---------------------------------------------------------------------------

def validation_problems(report):
    """Rows whose mean misses theory by more than ``Z_CRIT`` standard errors.

    The package's z divides by the sample standard deviation, which a rare
    count understates when it comes in low: 2 degree-2 vertices in 500
    constant-kernel graphs at nu=10, against 11.6 expected, give z = -6.8.
    These counts are Poisson mixtures (variance over mean 1.1-1.2 at 6000
    replicates), so the variance is floored at the expected count, which
    gives z = -2.8 there.
    """
    problems = []
    for r in report.rows:
        se = math.sqrt(max(r.sd * r.sd, abs(r.theory)) / r.replicates)
        z = (r.mean - r.theory) / se if se > 0.0 else 0.0 if r.mean == r.theory else math.inf
        if not abs(z) <= Z_CRIT:
            problems.append(f"{r.statistic} at nu={r.nu}: z = {z:.2f}")
    return problems


def planted_problems(draws, lam, nu):
    """Chi-square test of planted degrees against Poisson(nu * mu(lam)), with
    mu(x) = (1/3)(x+1)^-2 for slow-decay; right-tail cells merged until each
    expects at least 5."""
    reps = draws.size
    kmax = int(draws.max())
    observed = np.bincount(draws, minlength=kmax + 1).astype(float)
    law = sps.poisson(nu * (lam + 1.0) ** -2 / 3.0)
    expected = law.pmf(np.arange(kmax + 1)) * reps
    expected[-1] += law.sf(kmax) * reps
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    _, p = sps.chisquare(observed, expected * observed.sum() / expected.sum())
    return [] if p >= P_FLOOR else [f"lam={lam}: chi-square p = {p:.3g}"]


def sparse_clouds(rd: Round) -> None:
    s = rd.seed
    graphexes = {}
    for family, decl, eps in SPARSE_VALIDATE:
        g = graphexes[family] = rd.run(f"build-{family}", None, lambda d=decl: model.build(d))
        report = rd.run(f"validate-{family}", "part1",
                        lambda: harness.validate_expectations(
                            g, SPARSE_VALIDATE_NUS, SPARSE_VALIDATE_REPS, s, eps=eps,
                            z_crit=Z_CRIT),
                        validation_problems)
        rd.emit_report(f"validate-{family}", report)
        rd.verdicts[f"validate-{family}.all_ok"] = report is not None and report.all_ok

    slow = graphexes["slow-decay"]
    report = rd.run("projectivity", "part2",
                    lambda: harness.projectivity_test(slow, 10.0, SPARSE_PROJECTIVITY_REPS, s,
                                                      eps=1e-2, p_floor=P_FLOOR),
                    lambda rep: [] if rep.ok else [f"KS p = {rep.p_value:.3g}"])
    rd.emit_report("projectivity", report)

    for lam in (0.0, 2.0):
        for i in range(SPARSE_PLANTED_CALLS):
            draws = rd.run(f"planted-{lam:g}-{i}", "part3",
                           lambda lam=lam, i=i: sampler.sample_planted_degrees(
                               slow, 20.0, lam, SPARSE_PLANTED_REPS, s + i, eps=0.05),
                           lambda d, lam=lam: planted_problems(d, lam, 20.0))
            if draws is not None:
                rd.emit(f"planted-{lam:g}-{i}", draws.astype("<i8").tobytes())

    def draw_and_restrict():
        graph = sampler.sample_keg(slow, sampler.SamplerConfig(nu=20.0, seed=s, eps=1e-2))
        return graph, sampler.restrict(graph, 10.0)

    rd.run("draw-restrict", None, draw_and_restrict,
           lambda pair: sampled_graph_problems(pair[0], 20.0)
           + sampled_graph_problems(pair[1], 10.0))


def sparse_clouds_info(rounds):
    validate = statistics.median(r.seconds("validate") for r in rounds)
    projectivity = statistics.median(r.seconds("projectivity") for r in rounds)
    planted = statistics.median(r.seconds("planted") for r in rounds)
    return {
        "validate_reps_per_s": (len(SPARSE_VALIDATE) * len(SPARSE_VALIDATE_NUS)
                                * SPARSE_VALIDATE_REPS / validate, "1/s"),
        "projectivity_reps_per_s": (SPARSE_PROJECTIVITY_REPS / projectivity, "1/s"),
        "planted_draws_per_s": (2 * SPARSE_PLANTED_CALLS * SPARSE_PLANTED_REPS / planted,
                                "1/s"),
    }


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def _pois(k: int, lam: float) -> float:
    if k < 0:
        return 0.0
    return math.exp(k * math.log(lam) - lam - special.gammaln(k + 1))


def table_reference(family: str, stat: str, nu: float, k: int | None) -> float:
    """Closed forms for the analytic table (criteria 01 and 02 and their
    degree-k and constant-kernel counterparts)."""
    if family == "slow-decay":
        r = math.sqrt(nu / 3.0)
        vertices = nu * (math.sqrt(math.pi) * r * math.erf(r) + math.exp(-nu / 3.0) - 1.0)
        edges = nu * nu / 6.0

        def count(k):
            return (nu ** 1.5 * special.gamma(k - 0.5) * special.gammainc(k - 0.5, nu / 3.0)
                    / (2.0 * math.sqrt(3.0) * math.factorial(k)))
    elif family == "fast-decay":
        vertices = nu * (np.euler_gamma + special.exp1(nu) + math.log(nu))
        edges = nu * nu / 2.0

        def count(k):
            return nu / k * special.gammainc(k, nu)
    else:
        # W = 1/2 on [0, 2]^2 with self loops: mu = 1 there, W(x, x) = 1/2
        vertices = 2.0 * nu * (1.0 - 0.5 * math.exp(-nu))
        edges = nu * nu + nu

        def count(k):
            return nu * (_pois(k, nu) + _pois(k - 2, nu))
    if stat == "edges":
        return edges
    if stat == "vertices":
        return vertices
    if stat == "degree_count":
        return count(k)
    if (family, nu, k) == ("slow-decay", 1e4, 2):
        return SLOW_PMF_1E4_2
    if family == "constant":
        # the degree law ignores self loops: Poisson(nu) given visibility
        return _pois(k, nu) / -math.expm1(-nu)
    return count(k) / vertices


def _ein(t):
    """Ein(t) = int_0^t (1 - e^-s) / s ds by its power series, exact to
    rounding on [0, 2] (the largest term there is 2)."""
    n = np.arange(1, 40)
    terms = (-1.0) ** (n + 1) / (n * special.factorial(n))
    return float(np.sum(terms * np.power(t, n)))


def blackbox_reference(name: str, stat: str, nu: float) -> float:
    """custom exp(-x-y) is fast-decay in disguise; caron-fox with g = e^-x has
    mu(x) = Ein(2 e^-x), integrated here over t = 2 e^-x in (0, 2]."""
    if name == "custom":
        return {"edges": nu * nu / 2.0,
                "vertices": nu * (np.euler_gamma + special.exp1(nu) + math.log(nu)),
                "degree_count": -nu * math.expm1(-nu)}[stat]
    if stat == "edges":
        integrand = lambda t: _ein(t) / t  # noqa: E731
        scale = nu * nu / 2.0
    elif stat == "vertices":
        integrand = lambda t: -math.expm1(-nu * _ein(t)) / t  # noqa: E731
        scale = nu
    else:
        integrand = lambda t: nu * _ein(t) * math.exp(-nu * _ein(t)) / t  # noqa: E731
        scale = nu
    value, _ = integrate.quad(integrand, 0.0, 2.0, epsabs=0.0, epsrel=1e-12, limit=200)
    return scale * value


def value_problems(got: float, want: float, scale: float) -> list:
    """Relative 1e-6, with an absolute floor for values that underflow."""
    if abs(got - want) <= 1e-6 * abs(want) + 1e-12 * scale:
        return []
    return [f"value {got!r}, reference {want!r}"]


def _call_theory(stat: str, g, nu: float, k: int | None) -> float:
    if stat == "edges":
        return theory.expected_edges(g, nu).value
    if stat == "vertices":
        return theory.expected_vertices(g, nu).value
    if stat == "degree_count":
        return theory.expected_degree_count(g, nu, k).value
    return theory.degree_pmf(g, nu, k)


def theory_round(rd: Round) -> None:
    table = []
    for family, decl in TABLE:
        g = rd.run(f"build-{family}", None, lambda d=decl: model.build(d))
        for nu in TABLE_NUS:
            calls = [("edges", None), ("vertices", None)]
            calls += [("degree_count", k) for k in TABLE_KS]
            calls += [("degree_pmf", k) for k in TABLE_KS]
            for stat, k in calls:
                want = table_reference(family, stat, nu, k)
                scale = 1.0 if stat == "degree_pmf" else nu
                got = rd.run(f"table-{family}-{stat}", "part1",
                             lambda stat=stat, nu=nu, k=k: _call_theory(stat, g, nu, k),
                             lambda v, want=want, scale=scale: value_problems(v, want, scale))
                table.append([family, stat, nu, k, got])
    rd.emit("table", json.dumps(table).encode())

    nu = BLACKBOX_NU
    for name, decl, sampled in BLACKBOX:
        g = rd.run(f"build-{name}", None, lambda d=decl: model.build(d))
        rd.run(f"check-{name}", "part3", lambda: finiteness.check_local_finiteness(g),
               lambda rep: [] if rep.all_hold else [f"finiteness: {rep.to_dict()}"])
        if sampled:
            cli_sample(rd, decl, nu, name, "part2", rd.seed)
        values = []
        for stat in ("edges", "vertices", "degree_count"):
            got = rd.run(f"expect-{name}-{stat}", "part3",
                         lambda stat=stat: _call_theory(stat, g, nu, 1),
                         lambda v, name=name, stat=stat: value_problems(
                             v, blackbox_reference(name, stat, nu), nu))
            values.append(got)
        rd.emit(f"expect-{name}", json.dumps(values).encode())


def theory_info(rounds):
    table_ms = sorted(1e3 * op["s"] for r in rounds for op in r.ops
                      if op["op"].startswith("table-") and op["part"] == "part1")
    deciles = statistics.quantiles(table_ms, n=10)
    return {
        "expect_ms_p50": (statistics.median(table_ms), "ms"),
        "expect_ms_p90": (deciles[8], "ms"),
        "expect_calls": (len(table_ms), "count"),
        "blackbox_sample_s": (statistics.median(r.seconds("cli-sample") for r in rounds), "s"),
        "blackbox_expect_s": (statistics.median(r.seconds("expect-") for r in rounds), "s"),
        "check_s": (statistics.median(r.seconds("check-") for r in rounds), "s"),
    }


# name -> (round function, informational metrics, declarations built in
# set-up, why the workload is in the benchmark)
WORKLOADS = {
    "large-graphs": (
        large_graphs, large_graphs_info, [FAST],
        "fast-decay draws up to nu=1000 (480k edges): part1 degdist, part2 connectivity, "
        "part3 CLI sample to CSV; sampler dedupe, degrees and union-find dominate"),
    "sparse-clouds": (
        sparse_clouds, sparse_clouds_info, [SLOW, FAST, CONST_SELF],
        "thousands of draws of huge latent clouds with tiny visible graphs: part1 validate, "
        "part2 projectivity, part3 planted degrees"),
    "theory": (
        theory_round, theory_info, [SLOW, FAST, CONST_SELF, CARON_FOX, CUSTOM],
        "quadrature two ways: part1 144 cheap closed-form-marginal calls, part2 a "
        "cold caron-fox CLI sample, part3 checks and expectations of two black-box kernels"),
}
