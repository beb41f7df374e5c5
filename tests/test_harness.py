import json
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from graphex import harness
from graphex.harness import (
    ConnectivityReport,
    DegreeLawReport,
    HarnessError,
    ProjectivityReport,
    ValidationReport,
    connectivity_experiment,
    degdist_experiment,
    projectivity_test,
    statistic,
    validate_expectations,
    write_csv,
    write_json,
)
from graphex.model import SpecError, build, dilate
from graphex.rng import derive_key
from graphex.sampler import (
    SamplerConfig,
    _block_size,
    SamplerError,
    choose_theta_max,
    sample_keg,
    sample_planted_degrees,
)
from graphex.theory import (
    TheoryError,
    degree_ccdf,
    degree_pmf,
    expected_degree_count,
    expected_edges,
)

FAST = build({"family": "fast-decay"})
NULL = build({"family": "custom", "exprs": {"W": "0"}})


# --------------------------------------------------------------------------
# expectation validation
# --------------------------------------------------------------------------

def test_validate_small_run_passes():
    rep = validate_expectations(FAST, (3.0,), 60, seed=101,
                                stats=("edges", "vertices", "degree_1"))
    assert isinstance(rep, ValidationReport)
    assert rep.all_ok
    assert [r.statistic for r in rep.rows] == ["edges", "vertices", "degree_1"]
    for r in rep.rows:
        assert r.replicates == 60 and r.nu == 3.0
        assert abs(r.z) <= 4.0 and r.ok
        assert r.se == pytest.approx(r.sd / np.sqrt(60))


def test_validate_zero_variance_zero_mean():
    # a null kernel never makes an edge: sd = 0 and theory = 0, so z = 0
    rep = validate_expectations(NULL, (2.0,), 30, seed=0,
                                stats=("edges", "vertices"))
    for r in rep.rows:
        assert r.sd == 0.0 and r.mean == 0.0 and r.theory == 0.0
        assert r.z == 0.0 and r.ok
    assert rep.all_ok


def test_validate_report_shape():
    rep = validate_expectations(FAST, (2.0, 3.0), 30, seed=5, stats=("edges",))
    d = rep.to_dict()
    assert set(d) == {"graphex", "seed", "z_crit", "rows", "all_ok"}
    assert d["graphex"]["family"] == "fast-decay"
    assert len(d["rows"]) == 2
    assert set(d["rows"][0]) == {"statistic", "nu", "replicates", "mean", "sd",
                                 "se", "theory", "z", "verdict"}
    assert d["rows"][0]["verdict"] in ("pass", "fail")
    fields, rows = rep.csv_rows()
    assert fields == ValidationReport.CSV_FIELDS
    assert len(rows) == 2


def test_validate_is_deterministic_and_thread_invariant():
    # the thread pool's share of the draws is checked by
    # test_reports_are_the_same_bytes_for_any_thread_count
    a = validate_expectations(FAST, (3.0,), 30, seed=7)
    b = validate_expectations(FAST, (3.0,), 30, seed=7)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    d = validate_expectations(FAST, (3.0,), 30, seed=8)
    assert a.to_dict() != d.to_dict()


def test_validate_argument_errors():
    # a z threshold that is not finite and positive passes or fails every row
    for z_crit in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(HarnessError, match="z_crit"):
            validate_expectations(FAST, (3.0,), 30, seed=0, z_crit=z_crit)
    with pytest.raises(HarnessError):
        validate_expectations(FAST, (3.0,), 29, seed=0)
    with pytest.raises(HarnessError):
        validate_expectations(FAST, (), 30, seed=0)
    with pytest.raises(HarnessError):
        validate_expectations(FAST, (-1.0,), 30, seed=0)
    # a grid that is not an iterable of numbers: the grid's message, not a
    # bare ValueError or TypeError
    for nus in (["a"], None):
        with pytest.raises(HarnessError, match="the nu grid must be nonempty"):
            validate_expectations(FAST, nus, 30, seed=0)
    with pytest.raises(HarnessError):
        validate_expectations(FAST, (3.0,), 30, seed=0, stats=("edges", "degree_0"))
    with pytest.raises(HarnessError):
        validate_expectations(FAST, (3.0,), 30, seed=0, stats=("triangles",))
    with pytest.raises(HarnessError, match="unknown statistic"):
        validate_expectations(FAST, (3.0,), 30, seed=0, stats=("degree_<k>",))


@pytest.mark.parametrize("experiment", [
    validate_expectations, degdist_experiment, connectivity_experiment,
])
@pytest.mark.parametrize("nus", [("3",), (3.0, "100"), "35", (True,), (3.0, None)])
def test_a_grid_level_must_be_a_number(experiment, nus):
    # as projectivity's single level is: "3" once ran at nu = 3.0, and the
    # string "35" as the grid (3.0, 5.0)
    with pytest.raises(HarnessError, match="the nu grid must be nonempty"):
        experiment(FAST, nus, 30, 0)


@pytest.mark.parametrize("name", [
    "degree_1_2", "degree_+2", "degree_ 2", "degree_2 ", "degree_02", "degree_0",
    "degree_-1", "degree_2.0", "degree_\u00b2", "degree_\u0662", "degree_", "degree",
])
def test_degree_names_are_decimal_digits_without_a_leading_zero(name):
    # each degree has one name: "degree_1_2" once counted degree 12 and
    # "degree_+2" degree 2 under a second label
    with pytest.raises(HarnessError, match="unknown statistic"):
        statistic(name)
    with pytest.raises(HarnessError, match="unknown statistic"):
        validate_expectations(FAST, (3.0,), 30, seed=0, stats=("edges", name))


def test_degree_names_count_their_degree():
    rep = validate_expectations(FAST, (3.0,), 30, seed=0,
                                stats=("degree_2", "degree_12", "degree_10"))
    assert [r.statistic for r in rep.rows] == ["degree_2", "degree_12", "degree_10"]
    assert [r.theory for r in rep.rows] == [
        expected_degree_count(FAST, 3.0, k).value for k in (2, 12, 10)]


# --------------------------------------------------------------------------
# degree-law experiment
# --------------------------------------------------------------------------

def test_degdist_fixed_k():
    rep = degdist_experiment(FAST, (5.0, 50.0), 40, seed=202, k=1)
    assert isinstance(rep, DegreeLawReport)
    assert [r.k for r in rep.rows] == [1, 1]
    assert rep.rows[-1].gap < rep.rows[0].gap
    assert rep.gaps_shrink and rep.ok
    d = rep.to_dict()
    assert set(d) == {"graphex", "seed", "rows", "gaps_shrink", "ok"}
    assert set(d["rows"][0]) == {"nu", "k", "replicates", "rejected",
                                 "empirical_ccdf", "theory_ccdf",
                                 "empirical_pmf", "theory_pmf", "gap"}


def test_degdist_beta_mode_scales_k():
    rep = degdist_experiment(FAST, (9.0, 100.0), 40, seed=203, beta=0.5)
    assert [r.k for r in rep.rows] == [3, 10]
    assert rep.ok


def test_degdist_argument_errors():
    with pytest.raises(HarnessError):
        degdist_experiment(FAST, (5.0,), 40, seed=0)  # neither k nor beta
    with pytest.raises(HarnessError):
        degdist_experiment(FAST, (5.0,), 40, seed=0, k=1, beta=0.5)
    with pytest.raises(HarnessError):
        degdist_experiment(FAST, (5.0,), 40, seed=0, k=0)
    with pytest.raises(HarnessError):
        degdist_experiment(FAST, (5.0,), 40, seed=0, beta=1.5)
    with pytest.raises(HarnessError, match="empty"):
        degdist_experiment(NULL, (1.0,), 30, seed=0, k=1)


# bool is a subclass of int, but True is no count, degree, level or budget, and
# a string or None is no level either; each module refuses them with its own
# error
@pytest.mark.parametrize("call, error", [
    (lambda: degdist_experiment(FAST, (3.0,), 30, 0, k=True), HarnessError),
    (lambda: validate_expectations(FAST, (2.0, True), 30, 0), HarnessError),
    (lambda: projectivity_test(FAST, True, 30, 0), HarnessError),
    (lambda: SamplerConfig(nu=2.0, seed=0, eps=True), SamplerError),
    (lambda: SamplerConfig(nu=5.0, seed=1, theta_max=True), SamplerError),
    (lambda: sample_planted_degrees(FAST, 2.0, True, True, 0), SamplerError),
    (lambda: sample_planted_degrees(FAST, 2.0, 1.0, 30, 0, eps=True), SamplerError),
    (lambda: sample_planted_degrees(FAST, 5.0, 1.0, 3, 1, theta_max=True), SamplerError),
    (lambda: choose_theta_max(FAST, True, 1e-3), SamplerError),
    (lambda: expected_degree_count(FAST, 2.0, True), TheoryError),
    (lambda: degree_ccdf(FAST, 2.0, True), TheoryError),
    (lambda: degree_pmf(FAST, 2.0, True), TheoryError),
    (lambda: validate_expectations(FAST, (2.0,), 30, 0, z_crit=True), HarnessError),
    (lambda: projectivity_test(FAST, 2.0, 30, 0, p_floor=True), HarnessError),
    (lambda: connectivity_experiment(FAST, (2.0,), 30, 0, threshold=True), HarnessError),
    (lambda: projectivity_test(FAST, "1", 30, 0), HarnessError),
    (lambda: projectivity_test(FAST, None, 30, 0), HarnessError),
    (lambda: degdist_experiment(FAST, (3.0,), 30, 0, beta="0.5"), HarnessError),
    (lambda: SamplerConfig(nu=5.0, seed=np.bool_(True)), SamplerError),
    (lambda: validate_expectations(FAST, (2.0,), 30, 0, z_crit=np.bool_(True)), HarnessError),
], ids=["degdist-k", "grid-nu", "projectivity-nu", "sampler-eps", "sampler-theta-max",
        "planted-reps", "planted-eps", "planted-theta-max", "cutoff-nu", "degk-k", "ccdf-k",
        "pmf-k", "validate-z-crit", "projectivity-p-floor", "connectivity-threshold",
        "projectivity-nu-text", "projectivity-nu-none", "degdist-beta-text",
        "sampler-seed-numpy-bool", "validate-z-crit-numpy-bool"])
def test_bool_is_refused_as_a_number(call, error):
    with pytest.raises(error):
        call()


def _metadata(cfg):
    return sample_keg(FAST, cfg).metadata()


# (a call given NumPy scalars, the same call given Python numbers)
@pytest.mark.parametrize("numpy_call, python_call", [
    (lambda: _metadata(SamplerConfig(nu=5.0, seed=np.int64(3))),
     lambda: _metadata(SamplerConfig(nu=5.0, seed=3))),
    (lambda: _metadata(SamplerConfig(nu=np.int64(5), seed=np.uint64(3))),
     lambda: _metadata(SamplerConfig(nu=5.0, seed=3))),
    (lambda: _metadata(SamplerConfig(nu=np.float32(5), seed=3, eps=np.float32(0.5))),
     lambda: _metadata(SamplerConfig(nu=5.0, seed=3, eps=float(np.float32(0.5))))),
    (lambda: validate_expectations(FAST, np.array([5, 10]), 30, 0).to_dict(),
     lambda: validate_expectations(FAST, (5.0, 10.0), 30, 0).to_dict()),
    (lambda: validate_expectations(FAST, (5.0,), np.int64(30), np.int64(0),
                                   z_crit=np.float32(4)).to_dict(),
     lambda: validate_expectations(FAST, (5.0,), 30, 0, z_crit=4.0).to_dict()),
    (lambda: degdist_experiment(FAST, (5.0,), 30, np.uint64(0), k=np.int64(1)).to_dict(),
     lambda: degdist_experiment(FAST, (5.0,), 30, 0, k=1).to_dict()),
    (lambda: projectivity_test(FAST, np.float32(2), np.int64(30), 0,
                               p_floor=np.float64(1e-3)).to_dict(),
     lambda: projectivity_test(FAST, 2.0, 30, 0, p_floor=1e-3).to_dict()),
    (lambda: connectivity_experiment(FAST, (np.float32(4),), 30, 0,
                                     threshold=np.float32(0.5)).to_dict(),
     lambda: connectivity_experiment(FAST, (4.0,), 30, 0, threshold=0.5).to_dict()),
    (lambda: expected_edges(FAST, np.int64(5)).to_dict(),
     lambda: expected_edges(FAST, 5.0).to_dict()),
    (lambda: expected_degree_count(FAST, np.float32(5), np.int64(2)).to_dict(),
     lambda: expected_degree_count(FAST, 5.0, 2).to_dict()),
], ids=["sampler-seed", "sampler-nu-int", "sampler-nu-float32", "validate-grid",
        "validate-reps-seed-z-crit", "degdist-k", "projectivity", "connectivity",
        "expected-edges", "expected-degree-count"])
def test_numpy_scalars_are_numbers_and_are_written_as_python_ones(numpy_call, python_call,
                                                                   tmp_path):
    path = tmp_path / "out.json"
    write_json(numpy_call(), path)
    assert json.loads(path.read_text()) == python_call()


# an int too large for a float is no finite level either: each module names
# it in its own error, not in an OverflowError from the float conversion
HUGE = 10**400


@pytest.mark.parametrize("call, error", [
    (lambda: SamplerConfig(nu=HUGE, seed=0), SamplerError),
    (lambda: SamplerConfig(nu=1, seed=0, theta_max=HUGE), SamplerError),
    (lambda: SamplerConfig(nu=1, seed=0, eps=HUGE), SamplerError),
    (lambda: validate_expectations(FAST, (HUGE,), 30, 0), HarnessError),
    (lambda: degdist_experiment(FAST, (HUGE,), 30, 0), HarnessError),
    (lambda: projectivity_test(FAST, HUGE, 30, 0), HarnessError),
    (lambda: validate_expectations(FAST, (2.0,), 30, 0, z_crit=HUGE), HarnessError),
    (lambda: expected_edges(FAST, HUGE), TheoryError),
], ids=["sampler-nu", "sampler-theta-max", "sampler-eps", "validate-grid", "degdist-grid",
        "projectivity-nu", "validate-z-crit", "theory-nu"])
def test_an_int_too_large_for_a_float_is_refused_by_name(call, error):
    with pytest.raises(error, match="got .*10000000000"):
        call()


@pytest.mark.parametrize("spec, name", [
    ({"family": "constant", "params": {"p": 0.5, "c": HUGE}}, "c"),
    ({"family": "graphon-dilation", "params": {"c": HUGE, "grid": [[0.5]]}}, "c"),
    ({"family": "fast-decay", "I": HUGE}, "I"),
])
def test_a_declaration_refuses_an_int_too_large_for_a_float(spec, name):
    with pytest.raises(SpecError, match=f"{name} must be"):
        build(spec)


# --------------------------------------------------------------------------
# connectivity
# --------------------------------------------------------------------------

def test_connectivity_growth():
    rep = connectivity_experiment(FAST, (5.0, 30.0), 30, seed=303, threshold=0.5)
    assert isinstance(rep, ConnectivityReport)
    fr = [r.mean_fraction for r in rep.rows]
    assert fr[0] < fr[1] and all(0.0 < f <= 1.0 for f in fr)
    assert rep.nondecreasing and rep.final_ok and rep.ok
    d = rep.to_dict()
    assert set(d) == {"graphex", "seed", "threshold", "rows", "nondecreasing",
                      "final_ok", "ok"}


def test_connectivity_takes_any_kernel_the_sampler_draws():
    # the complete bipartite block graphon: every visible vertex is in the
    # one component
    block = dilate([[0.0, 1.0], [1.0, 0.0]], 1.0)
    rep = connectivity_experiment(block, (5.0,), 30, seed=0)
    assert rep.rows[0].mean_fraction == 1.0
    # what the sampler cannot draw, its caps refuse
    with pytest.raises(SamplerError, match="max_pair_coins"):
        connectivity_experiment(block, (3e4,), 30, seed=0)


# --------------------------------------------------------------------------
# projectivity
# --------------------------------------------------------------------------

def test_projectivity_passes_for_correct_sampler():
    rep = projectivity_test(FAST, 3.0, 200, seed=404)
    assert isinstance(rep, ProjectivityReport)
    assert 0.0 <= rep.ks_statistic <= 1.0
    assert rep.p_value >= rep.p_floor and rep.ok
    d = rep.to_dict()
    assert set(d) == {"graphex", "seed", "nu", "replicates", "ks_statistic",
                      "p_value", "p_floor", "ok"}


def test_projectivity_argument_errors():
    with pytest.raises(HarnessError):
        projectivity_test(FAST, 0.0, 30, seed=0)
    with pytest.raises(HarnessError):
        projectivity_test(FAST, 3.0, 10, seed=0)
    # a p-value floor outside (0, 1) passes or fails every run
    for p_floor in (math.nan, 0.0, 1.0, 2.0, -0.5):
        with pytest.raises(HarnessError, match="p_floor"):
            projectivity_test(FAST, 3.0, 30, seed=0, p_floor=p_floor)


def test_connectivity_argument_errors():
    # a threshold outside [0, 1] is no fraction; NaN would reach the report,
    # which json then writes as the invalid token NaN
    for threshold in (math.nan, -0.1, 1.5, math.inf):
        with pytest.raises(HarnessError, match="threshold"):
            connectivity_experiment(FAST, (3.0,), 30, seed=0, threshold=threshold)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def test_write_json_and_csv(tmp_path):
    rep = degdist_experiment(FAST, (5.0,), 30, seed=1, k=1)
    jpath = tmp_path / "report.json"
    write_json(rep.to_dict(), jpath)
    with open(jpath, encoding="utf-8") as fh:
        assert json.load(fh) == rep.to_dict()
    # a second write is byte-identical
    first = jpath.read_bytes()
    write_json(rep.to_dict(), jpath)
    assert jpath.read_bytes() == first

    cpath = tmp_path / "report.csv"
    fields, rows = rep.csv_rows()
    write_csv(cpath, fields, rows)
    lines = cpath.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == ",".join(fields)
    assert len(lines) == 1 + len(rows)


# --------------------------------------------------------------------------
# blocks and threads
# --------------------------------------------------------------------------

@pytest.mark.frozen
def test_reports_are_the_same_bytes_for_any_thread_count(monkeypatch):
    # several blocks per level; a pool forced on for every draw, on 1, 2 and 4
    # usable cores and with threads switching often, gives the serial
    # engine's bytes. A pooled level draws on as many threads as cores, the
    # caller among them
    g = build({"family": "fast-decay", "exprs": {"S": "exp(-x)"}, "I": 0.1})
    assert _block_size(g, SamplerConfig(nu=30.0, seed=0))[0] < 20
    drew = {}  # (seed, nu) of a level -> the threads that drew its blocks
    draw = harness._draw

    def traced(g, cfg, seeds, **kwargs):
        drew.setdefault((cfg.seed, cfg.nu), set()).add(threading.get_ident())
        time.sleep(1e-3)  # holds the thread, so that every thread gets a block
        return draw(g, cfg, seeds, **kwargs)

    monkeypatch.setattr(harness, "_draw", traced)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cores in (None, 1, 2, 4):
            monkeypatch.setattr(harness, "_POOL_WORK", math.inf if cores is None else 0.0)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)),
                                raising=False)
            drew.clear()
            reports = (
                validate_expectations(g, (3.0, 30.0), 60, 7),
                degdist_experiment(g, (3.0, 30.0), 60, 8, k=1),
                connectivity_experiment(g, (3.0, 30.0), 60, 9, threshold=0.1),
                projectivity_test(g, 15.0, 60, 10),
            )
            runs[cores] = [json.dumps(r.to_dict(), sort_keys=True) for r in reports]
            assert all(threading.get_ident() in threads for threads in drew.values())
            assert max(map(len, drew.values())) == (cores or 1)
    finally:
        sys.setswitchinterval(interval)
    assert runs[None] == runs[1] == runs[2] == runs[4]


def test_a_failing_pooled_level_stops_drawing(monkeypatch):
    # a measure that raises in the first block of a pooled level: the error
    # comes out, and the blocks still queued are not drawn
    monkeypatch.setattr(harness, "_POOL_WORK", 0.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    g = build({"family": "fast-decay", "exprs": {"S": "exp(-x)"}, "I": 0.1})
    cfg = SamplerConfig(nu=30.0, seed=0)
    size = _block_size(g, cfg)[0]
    reps = 30 * size
    first = derive_key(0, 0, 0)[0]  # replicate 0's seed, in the first block
    drawn = []
    draw = harness._draw

    def counted(g, cfg, seeds, **kwargs):
        drawn.append(seeds[0])
        return draw(g, cfg, seeds, **kwargs)

    def measure(block, i_nu):
        if block.seeds[0] == first:
            raise RuntimeError("a broken measure")
        return [0] * block.reps

    monkeypatch.setattr(harness, "_draw", counted)
    with pytest.raises(RuntimeError, match="a broken measure"):
        list(harness._replicates(g, (30.0,), reps, 0, cfg.eps, measure))
    assert first in drawn
    assert len(drawn) < 30


def test_a_level_is_pooled_only_when_its_draws_are_large(monkeypatch):
    big, budget = harness._POOL_WORK, harness._POOL_BUDGET
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert harness._workers(10 * big, 1) == 1  # one block
    assert harness._workers(big / 2, 30) == 1  # small draws
    assert harness._workers(big, 30) == 3  # one per usable core
    assert harness._workers(big, 2) == 2  # one per block
    assert harness._workers(budget / 2, 30) == 2  # as many as the budget holds
    assert harness._workers(budget, 30) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert harness._workers(big, 30) == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._workers(big, 30) == 1


def test_only_the_largest_benchmark_draws_are_pooled():
    # the levels of the benchmark's degdist, connectivity, validate and
    # projectivity runs: only fast-decay at nu = 1000 draws enough to pool
    const = build({"family": "constant", "params": {"p": 0.5, "c": 2.0}, "self_edges": True})
    slow = build({"family": "slow-decay"})
    levels = [(FAST, 1e-3, nu) for nu in (5.0, 10.0, 20.0, 25.0, 50.0, 100.0, 200.0)]
    levels += [(const, 1e-3, nu) for nu in (5.0, 10.0, 20.0)]
    levels += [(slow, 1e-2, nu) for nu in (5.0, 10.0, 20.0)]
    for g, eps, nu in levels:
        assert _block_size(g, SamplerConfig(nu=nu, seed=0, eps=eps))[1] < harness._POOL_WORK
    assert _block_size(FAST, SamplerConfig(nu=1000.0, seed=0))[1] >= harness._POOL_WORK


def test_a_seed_past_2_64_addresses_its_low_64_bits():
    # the child seeds come from the key derivation, which masks a seed to 64
    # bits
    wide = validate_expectations(FAST, (3.0,), 30, seed=2**64 + 3)
    assert wide.rows == validate_expectations(FAST, (3.0,), 30, seed=3).rows

