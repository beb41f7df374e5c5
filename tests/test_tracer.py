"""The benchmark's tracer wraps graphex's functions by name at every place
they are bound; a renamed or moved function breaks its traced runs, so this
installs it, traces one draw and puts everything back."""

import importlib.util
from pathlib import Path

from graphex import cli, harness, model, sampler

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_installs_records_a_draw_and_restores():
    originals = (sampler.sample_keg, harness.sample_keg, cli.sample_keg, harness._degrees,
                 sampler.choose_theta_max, model.build)
    tracer = load_tracer().Tracer("test")
    try:
        # a name the tracer cannot find fails here, with what it patched
        # so far put back
        tracer.install()
        g = model.build({"family": "fast-decay"})
        graph = sampler.sample_keg(g, sampler.SamplerConfig(nu=5.0, seed=1))
    finally:
        tracer.restore()
    names = [span[2] for span in tracer.spans]
    assert names.count("sampler.sample_keg") == 1
    assert "sampler.choose_theta_max" in names and "model.build" in names
    assert tracer.counts["sampler.edges"] == graph.n_edges
    assert (sampler.sample_keg, harness.sample_keg, cli.sample_keg, harness._degrees,
            sampler.choose_theta_max, model.build) == originals
