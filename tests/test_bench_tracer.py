"""The benchmark's span tracer still finds every library function it wraps.

perfbench/spans.py wraps private functions by name and reads their argument
positions and return shapes, so a rename or signature change in the package
breaks the traced benchmark run.  This catches that in seconds.
"""

import importlib.util
from pathlib import Path

import numpy as np

import eigensense as es
from eigensense import montecarlo as mc

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_resolves_every_name_and_uninstall_restores_it():
    spans = _load_spans()
    tracer = spans.Tracer()
    spans.instrument(tracer, es)            # AttributeError if a wrapped name is gone
    patches = list(tracer._patches)
    try:
        assert patches
        for module, name, original in patches:
            assert callable(original), name
            assert getattr(module, name) is not original, name

        # One call through each wrapped path, so every counter reads the
        # argument positions and return shapes it expects.
        s = es.Scenario(3, 6, 1, 0.0, 8, 1)
        prior = es.PriorConfig(es.BoundedCount(2), es.ExactNoise(1.0))
        es.run_roc(s, es.BayesDetector(prior))
        y = es.synthesize_observation(s, "H1", 0)
        x = es.gram_eigenvalues(y)
        es.detection_log_ratio(x, es.PriorConfig(es.ExactCount(1), es.ExactNoise(1.0)),
                               precision="extended")
        tracer.request = "grid"
        es.detection_log_ratio(x, es.PriorConfig(es.BoundedCount(2),
                                                 es.NoiseGrid(-5.0, 5.0, 11, "db")))
        tracer.request = None
        stats = np.zeros(1)
        mc._retry_rows_scalar(x.values[None, :], 6, prior, stats, [0])
        es.mc_signal_likelihood_oracle(y, 1, 1.0, 1000, 1)
        es.j_via_bessel(0, 1.0, 1.0)
        metrics = spans.layer_metrics(tracer, [], 0.0, 0.0)
    finally:
        tracer.uninstall()
    for module, name, original in patches:
        assert getattr(module, name) is original, name
    # run_roc draws two 8-trial blocks; synthesize_observation is a 1-trial block.
    blocks = [s for s in tracer.spans if s.name == "_synthesize_block"]
    assert len(blocks) == 3
    assert metrics["synthesis.trials"] == 17
    # One Philox generator per block, however many streams it serves.
    assert metrics["synthesis.streams"] == len(blocks)
    # The assembly and J-kernel helpers are called by the names the tracer
    # wraps, not through a module attribute it cannot see.
    assert metrics["assembly.terms"] > 0
    assert metrics["j_kernel.cutoff_evals_per_integral"] > 0
    # The grid call makes one kernel call for all three J orders (one at
    # m = 1, two at m = 2), returning a (grid point, order, y) table of 11
    # points by 3 orders by 3 eigenvalues, and every integral in it is counted.
    grid_j = [s for s in tracer.spans if s.name == "_log_j_batch" and s.request == "grid"]
    assert (len(grid_j), sum(s.counts["integrals"] for s in grid_j)) == (1, 3 * 11 * 3)
    # Its assembly is one _mimo_batch per source count, and at one spectrum
    # one signed row sum per source count over all 11 grid points, counting
    # the sign array: one row of N = 3 terms per entry of the m x m matrix D
    # and grid point, that is 3 terms at m = 1 and 2 * 2 rows of 3 at m = 2
    # (a row over fewer points is padded by zeros).
    grid_rows = [s for s in tracer.spans if s.name == "_signed_lse_rows" and s.request == "grid"]
    assert (len(grid_rows), sum(s.counts["terms"] for s in grid_rows)) == (2, 11 * (3 + 12))
    assert sum(s.name == "_mimo_batch" and s.request == "grid" for s in tracer.spans) == 2
    assert metrics["escalation.mp_calls"] >= 1
    assert metrics["escalation.rows"] >= 2
    assert metrics["oracle.mc_draws"] == 1000
    assert metrics["bessel.calls"] == 1
