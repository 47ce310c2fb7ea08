"""Start-up cost: `import eigensense` and the detection hot path load neither
scipy nor mpmath; only the oracles and the multiprecision tier do.

pytest itself has scipy loaded, so each check runs in a fresh interpreter,
the only place a module-level import that comes back can be seen.
"""

import textwrap


def _heavy_modules_after(capped_python, body: str) -> set:
    """The scipy and mpmath modules a fresh interpreter holds after
    `import eigensense as es` and body."""
    code = "\n".join([
        "import sys",
        "import eigensense as es",
        textwrap.dedent(body),
        "print(' '.join(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))",
    ])
    proc = capped_python(["-c", code], timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_hot_path_loads_neither_scipy_nor_mpmath(capped_python):
    loaded = _heavy_modules_after(capped_python, """
        import eigensense.cli
        prior = es.PriorConfig(es.ExactCount(2), es.ExactNoise(1.0))
        es.detection_log_ratio(es.EigenSpectrum([5.0, 3.0, 1.0, 0.5], 8), prior)
        es.run_roc(es.Scenario(3, 6, 1, 0.0, 64, 7), es.BayesDetector(prior), n_threads=2)
    """)
    assert not loaded, sorted(loaded)


def test_bessel_oracle_loads_both(capped_python):
    loaded = _heavy_modules_after(capped_python, "es.j_via_bessel(2, 0.3, 3.0)")
    assert {"scipy", "mpmath"} <= loaded
