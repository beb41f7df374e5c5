"""Cold start: importing graphex, building a declaration, drawing a graph
and integrating load no SciPy module, and neither do the CLI's ``sample``
on each of its engines (full cloud, caron-fox, lazy strata with latent
coordinates, naive) nor its ``expect --stat edges|vertices`` and ``check``,
of a closed-form family and of a custom kernel, whose integrals are nested,
nor the ``check`` of a caron-fox kernel, which integrates its rate factor.

SciPy costs about 0.9 s to import cold, more than a fast-decay ``sample``
needs in all. The package integrates with its own rule, so no step that
only integrates loads SciPy: not a user ``separable`` build, which
integrates its f to get ||f||_1, not the quadrature cutoff of a caron-fox
``sample``, and not an expectation of a custom kernel. Every other SciPy
import sits inside the function that uses it: the Poisson tail
(``quadrature``), the Poisson pmf (``theory``), the component search
(``graphstats``) and the KS test (``harness``). Everything runs in one fresh
interpreter, in order: the steps that must not load SciPy first, then one
call of each deferred import, which must still work and load it.
"""

import json
import math
import pathlib
import subprocess
import sys

import pytest

import graphex
from graphex import theory

SCRIPT = r"""
import json, os, sys
sys.path.insert(0, sys.argv[1])
out_dir = sys.argv[2]


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


loaded = {}
import graphex
import graphex.cli
loaded["import"] = scipy_modules()

from graphex import cli, graphstats, harness, theory
from graphex.model import build
from graphex.sampler import SamplerConfig, sample_keg

DECLS = {
    "slow-decay": {"family": "slow-decay"},
    "fast-decay": {"family": "fast-decay"},
    "constant-self": {"family": "constant", "params": {"p": 0.5, "c": 2.0},
                      "self_edges": True},
    "caron-fox": {"family": "caron-fox"},
    "graphon-dilation": {"family": "graphon-dilation",
                         "params": {"c": 2.0, "grid": [[0.5, 0.2], [0.2, 0.8]]}},
    "custom": {"family": "custom", "exprs": {"W": "exp(-x-y)"}},
    "separable": {"family": "separable", "exprs": {"f": "exp(-x) / (1 + x)"}},
}
built = {}
for name, decl in DECLS.items():
    built[name] = build(decl)
    loaded[f"build {name}"] = scipy_modules()

graph = sample_keg(built["fast-decay"], SamplerConfig(nu=10.0, seed=1))
loaded["sample_keg"] = scipy_modules()

csv = os.path.join(out_dir, "fast.csv")
code = cli.main(["sample", "--graphex", '{"family": "fast-decay"}', "--nu", "10",
                 "--seed", "1", "--out", csv])
loaded["cli sample"] = scipy_modules()
caron_fox_csv = os.path.join(out_dir, "caron-fox.csv")
caron_fox_code = cli.main(["sample", "--graphex", '{"family": "caron-fox"}', "--nu", "20",
                           "--seed", "1", "--out", caron_fox_csv])
loaded["cli sample caron-fox"] = scipy_modules()
# the other two engines: lazy strata, placing the visible points, and the
# naive path of a kernel that does not factorise
lazy_csv, lazy_latent = (os.path.join(out_dir, f"lazy.{kind}.csv") for kind in ("edges", "latent"))
lazy_code = cli.main(["sample", "--graphex", '{"family": "slow-decay"}', "--nu", "20",
                      "--eps", "1e-2", "--seed", "1", "--out", lazy_csv,
                      "--latent-out", lazy_latent])
loaded["cli sample lazy"] = scipy_modules()
naive_csv = os.path.join(out_dir, "naive.csv")
naive_code = cli.main(["sample", "--graphex", json.dumps(DECLS["custom"]), "--nu", "3",
                       "--seed", "1", "--out", naive_csv])
loaded["cli sample naive"] = scipy_modules()
with open(lazy_latent) as fh:
    lazy_rows = fh.read().splitlines()
try:
    cli.main(["--version"])
except SystemExit:
    pass
loaded["cli --version"] = scipy_modules()
expect_codes = []
for stat in ("edges", "vertices"):
    expect_codes.append(cli.main(["expect", "--graphex", '{"family": "slow-decay"}', "--nu",
                                  "10", "--stat", stat, "--out",
                                  os.path.join(out_dir, f"{stat}.json")]))
    loaded[f"cli expect {stat}"] = scipy_modules()
check_code = cli.main(["check", "--graphex", '{"family": "slow-decay"}', "--out",
                       os.path.join(out_dir, "check.json")])
loaded["cli check"] = scipy_modules()
# a caron-fox check reads the majorant ||r||_1^2 of its kernel
caron_fox_check_code = cli.main(["check", "--graphex", '{"family": "caron-fox"}', "--out",
                                 os.path.join(out_dir, "caron-fox-check.json")])
loaded["cli check caron-fox"] = scipy_modules()
# a custom kernel's expectation and check are nested integrals, whose inner
# marginals the graphex memoises
CUSTOM = json.dumps(DECLS["custom"])
custom_codes = [cli.main(["expect", "--graphex", CUSTOM, "--nu", "20", "--stat", "vertices",
                          "--out", os.path.join(out_dir, "custom-vertices.json")])]
loaded["cli expect vertices custom"] = scipy_modules()
custom_codes.append(cli.main(["check", "--graphex", CUSTOM, "--out",
                              os.path.join(out_dir, "custom-check.json")]))
loaded["cli check custom"] = scipy_modules()
with open(os.path.join(out_dir, "custom-vertices.json")) as fh:
    custom_vertices = json.load(fh)

edges_expected = theory.expected_edges(built["custom"], 20.0).value
loaded["expected_edges"] = scipy_modules()
giant = graphstats.largest_component([[0, 1], [1, 2], [5, 6]])
loaded["largest_component"] = scipy_modules()
ks = harness.projectivity_test(built["fast-decay"], 2.0, 30, 0)
loaded["projectivity_test"] = scipy_modules()

print(json.dumps({
    "loaded": loaded, "edges": int(graph.n_edges), "cli_code": code,
    "csv_bytes": os.path.getsize(csv), "caron_fox_code": caron_fox_code,
    "caron_fox_csv_bytes": os.path.getsize(caron_fox_csv), "expected_edges": edges_expected,
    "lazy_code": lazy_code, "naive_code": naive_code,
    "lazy_csv_bytes": os.path.getsize(lazy_csv), "naive_csv_bytes": os.path.getsize(naive_csv),
    "lazy_latent": lazy_rows,
    "largest_component": list(giant), "ks_p_value": ks.p_value,
    "expect_codes": expect_codes, "check_code": check_code, "custom_codes": custom_codes,
    "caron_fox_check_code": caron_fox_check_code,
    "custom_vertices": custom_vertices,
}))
"""

NO_SCIPY_STEPS = [
    "import", "build slow-decay", "build fast-decay", "build constant-self",
    "build caron-fox", "build graphon-dilation", "build custom", "build separable",
    "sample_keg", "cli sample", "cli sample caron-fox", "cli sample lazy", "cli sample naive",
    "cli --version", "cli expect edges",
    "cli expect vertices", "cli check", "cli check caron-fox", "cli expect vertices custom",
    "cli check custom",
    "expected_edges",
]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    src = pathlib.Path(graphex.__file__).resolve().parents[1]
    out_dir = tmp_path_factory.mktemp("cold")
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(src), str(out_dir)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("step", NO_SCIPY_STEPS)
def test_step_loads_no_scipy(cold, step):
    assert cold["loaded"][step] == []


def test_the_scipy_free_steps_did_their_work(cold):
    assert cold["edges"] > 0
    assert cold["cli_code"] == 0
    assert cold["csv_bytes"] > 0
    assert cold["caron_fox_code"] == 0
    assert cold["caron_fox_csv_bytes"] > 0
    assert cold["lazy_code"] == cold["naive_code"] == 0
    assert cold["lazy_csv_bytes"] > 0 and cold["naive_csv_bytes"] > 0
    header, *rows = cold["lazy_latent"]
    assert header == "vertex_index,latent" and rows
    assert all(math.isfinite(float(row.split(",")[1])) for row in rows)
    assert cold["expect_codes"] == [0, 0]
    assert cold["check_code"] == cold["caron_fox_check_code"] == 0
    assert cold["custom_codes"] == [0, 0]
    custom = graphex.build({"family": "custom", "exprs": {"W": "exp(-x-y)"}})
    assert cold["custom_vertices"]["value"] == theory.expected_vertices(custom, 20.0).value
    # ||W||_1 = 1 for W = exp(-x-y), so nu^2 / 2 edges at nu = 20
    assert cold["expected_edges"] == pytest.approx(200.0, rel=1e-8)


def test_deferred_imports_still_load_and_work(cold):
    assert cold["largest_component"] == [3, 3 / 5]
    assert "scipy.sparse.csgraph" in cold["loaded"]["largest_component"]
    assert 0.0 <= cold["ks_p_value"] <= 1.0
    assert "scipy.stats" in cold["loaded"]["projectivity_test"]
