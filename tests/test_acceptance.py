"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria:
  1. equivalence of the dual evaluation routes and all reductions (random)
  2. fine-grid integrator as day-grid oracle + first-order convergence
  3. synthetic parameter recovery, noiseless and at 1% noise
  4. nested-model quality ordering on classical-generated data
  5. bit-identical artifacts for repeated seeded runs
  6. qualitative loading-dip / supercompensation response
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

import ffdelay as ff
from ffdelay.cli import EXIT_OK, main
from ffdelay.dataio import format_number
from helpers import (
    block_load,
    fixture_params,
    observation_days,
    performance,
    random_kernel,
    random_load,
    random_single_delay,
    random_three_delay,
    recovery_bounds,
    sup_rel_diff,
)


def _write_dataset(tmp_path: Path, days: int = 120):
    w = block_load(days)
    p = performance(w, fixture_params(), days)
    load = tmp_path / "load.csv"
    load.write_text(
        "day,load\n" + "\n".join(f"{d},{format_number(v)}" for d, v in enumerate(w.values)) + "\n"
    )
    perf = tmp_path / "perf.csv"
    perf.write_text(
        "day,performance\n"
        + "\n".join(f"{d},{format_number(p[d])}" for d in observation_days(days))
        + "\n"
    )
    return load, perf


def test_equivalence_suite():
    """Convolution == recursion (1e-9), kernel == mapped three-delay (1e-12),
    reduction chains (1e-12), over 200 random instances, in under 5 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    instances = 200
    for _ in range(instances):
        w = random_load(rng, max_n=365)
        horizon = len(w)

        sd = random_single_delay(rng)
        rec = ff.eval_single_delay_recursive(w, sd, horizon).values
        conv = ff.eval_single_delay_convolution(w, sd, horizon).values
        assert sup_rel_diff(rec, conv) <= 1e-9

        td = random_three_delay(rng)
        rec3 = ff.eval_three_delay_recursive(w, td, horizon).values
        conv3 = ff.eval_three_delay_convolution(w, td, horizon).values
        assert sup_rel_diff(rec3, conv3) <= 1e-9

        kp = random_kernel(rng)
        ker = ff.eval_kernel_recursive(w, kp, horizon).values
        mapped = ff.eval_three_delay_recursive(w, ff.kernel_to_three_delay(kp), horizon).values
        assert sup_rel_diff(ker, mapped) <= 1e-12

        tau = float(rng.uniform(2.0, 60.0))
        cls = ff.eval_classical(w, ff.FirstOrderParams(tau), horizon).values
        sd_inf = ff.eval_single_delay_recursive(
            w, ff.SingleDelayParams(tau, math.inf), horizon
        ).values
        td_inf = ff.eval_three_delay_recursive(
            w, ff.ThreeDelayParams(tau, math.inf, math.inf, math.inf), horizon
        ).values
        ker0 = ff.eval_kernel_recursive(w, ff.KernelParams(tau, 0.0), horizon).values
        for reduced in (sd_inf, td_inf, ker0):
            assert sup_rel_diff(cls, reduced) <= 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"equivalence suite took {elapsed:.2f}s (budget 5s)"
    print(f"\nACCEPTANCE PASS: equivalence suite ({instances} instances, {elapsed:.2f}s)")


def test_oracle_suite():
    """m=1 integrator matches the day-grid recursions (1e-12, 50 instances);
    probe halving ratios land in [0.3, 0.8] for >= 90% of smooth-load probes;
    all in under 10 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(3030)
    for i in range(50):
        w = random_load(rng, max_n=365)
        t = len(w) - 1
        if i % 2 == 0:
            params_s = random_single_delay(rng)
            sol = ff.integrate_single_delay(ff.StepLoad(w), params_s, t, 1)
            ref = ff.eval_single_delay_recursive(w, params_s, t + 1).values
        else:
            params_t = random_three_delay(rng)
            sol = ff.integrate_three_delay(ff.StepLoad(w), params_t, t, 1)
            ref = ff.eval_three_delay_recursive(w, params_t, t + 1).values
        assert sup_rel_diff(sol.day_values(), ref) <= 1e-12

    ratios = []
    for decay, lag in ((2.0, 5.0), (4.0, 9.0), (7.0, math.inf), (3.0, 12.0), (10.0, 30.0)):
        for phase in (0.0, 0.8, 1.7, 2.9):
            vals = [0.0] + [5.0 + 3.0 * math.sin(k / 4.0 + phase) for k in range(1, 31)]
            w = ff.StepLoad(ff.LoadSeries(tuple(vals)))
            probe = ff.convergence_probe(
                w, ff.SingleDelayParams(decay, lag), 30, [1, 2, 4, 8, 16]
            )
            diffs = [d for _, d in probe]
            assert all(b <= a for a, b in zip(diffs, diffs[1:])), "diffs not non-increasing"
            ratios += [b / a for a, b in zip(diffs, diffs[1:]) if a > 0.0]
    in_band = sum(1 for r in ratios if 0.3 <= r <= 0.8)
    assert in_band >= 0.9 * len(ratios), f"{in_band}/{len(ratios)} ratios in [0.3, 0.8]"

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle suite took {elapsed:.2f}s (budget 10s)"
    print(
        f"\nACCEPTANCE PASS: oracle suite (50 m=1 instances, "
        f"{in_band}/{len(ratios)} ratios in band, {elapsed:.2f}s)"
    )


def test_synthetic_recovery(load_120, true_trajectory, clean_observations):
    """20-start fit on 20 noiseless observations of a 120-day block plan:
    R^2 >= 0.9999 and trajectory error <= 1e-3 of the observation range;
    R^2 >= 0.98 with seeded 1% Gaussian noise; each fit under 10 s."""
    bounds = recovery_bounds()
    config = ff.FitConfig(starts=20, seed=20250809)

    started = time.perf_counter()
    clean = ff.fit_variant(load_120, clean_observations, bounds, config)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"multi-start fit took {elapsed:.2f}s (budget 10s)"
    assert clean.r2 >= 0.9999, f"noiseless R^2 = {clean.r2}"
    obs_range = max(clean_observations.values) - min(clean_observations.values)
    max_err = max(abs(a - b) for a, b in zip(clean.predicted, true_trajectory))
    assert max_err <= 1e-3 * obs_range, f"max error {max_err} vs range {obs_range}"

    rng = np.random.default_rng(98765)
    sigma = 0.01 * obs_range
    noisy_obs = ff.ObservationSet(
        tuple((d, y + sigma * rng.standard_normal()) for d, y in clean_observations.entries)
    )
    noisy = ff.fit_variant(load_120, noisy_obs, bounds, config)
    assert noisy.r2 >= 0.98, f"noisy R^2 = {noisy.r2}"

    print(
        f"\nACCEPTANCE PASS: synthetic recovery (noiseless R^2={clean.r2:.6f}, "
        f"max err {max_err / obs_range:.2e} of range, noisy R^2={noisy.r2:.4f}, "
        f"{elapsed:.2f}s)"
    )


def test_nested_model_property(load_120):
    """On noiseless classical-model data, every richer variant's fitted SSE
    is within 1e-9 of (i.e. not worse than) the classical fitted SSE."""
    truth = ff.ModelParams(
        "single_delay", 400.0, 0.15, 0.20,
        ff.SingleDelayParams(40.0), ff.SingleDelayParams(12.0),
    )
    p = performance(load_120, truth, 120)
    obs = ff.ObservationSet(tuple((d, p[d]) for d in observation_days(120)))
    bounds = ff.ParamBounds(
        p0=(200.0, 600.0),
        k1=(0.005, 2.0),
        k2=(0.005, 2.0),
        tau1=(5.0, 150.0),
        tau2=(2.0, 1e12),
        tau3=(2.0, 150.0),
        tau4=(2.0, 1e12),
    )
    results = ff.compare_variants(load_120, obs, bounds, ff.FitConfig(starts=2, seed=11))
    classical_sse = results[0].sse
    for r in results[1:]:
        assert r.sse <= classical_sse + 1e-9, (
            f"{r.variant} SSE {r.sse} vs classical {classical_sse}"
        )
    summary = ", ".join(f"{r.variant}={r.sse:.3g}" for r in results)
    print(f"\nACCEPTANCE PASS: nested-model property ({summary})")


def test_determinism_of_artifacts(tmp_path):
    """`fit` and `compare` write bit-identical artifacts for the same seed."""
    load, perf = _write_dataset(tmp_path)
    config = tmp_path / "config.yaml"
    config.write_text(
        "variant: single_delay\n"
        "fit:\n  starts: 3\n  max_iterations: 800\n"
        "  tolerance: 1.0e-4\n  simplex_tolerance: 1.0e-4\n  seed: 31\n"
        "bounds:\n  p0: [300.0, 700.0]\n  k1: [0.005, 2.0]\n  k2: [0.005, 2.0]\n"
        "  tau1: [5.0, 150.0]\n  tau2: [2.0, 1.0e6]\n"
        "  tau3: [2.0, 150.0]\n  tau4: [2.0, 1.0e6]\n"
    )

    fit_outs = []
    for name in ("fit_a", "fit_b"):
        out = tmp_path / name
        assert main([
            "fit", "--load", str(load), "--perf", str(perf),
            "--config", str(config), "--out", str(out),
        ]) == EXIT_OK
        fit_outs.append(out)
    fit_names = sorted(p.name for p in fit_outs[0].iterdir())
    assert fit_names == ["fit_chart.svg", "load_chart.svg", "params.json", "predictions.csv"]
    for name in fit_names:
        assert (fit_outs[0] / name).read_bytes() == (fit_outs[1] / name).read_bytes(), name

    cmp_outs = []
    for name in ("cmp_a", "cmp_b"):
        out = tmp_path / name
        assert main([
            "compare", "--load", str(load), "--perf", str(perf),
            "--config", str(config), "--out", str(out), "--seed", "55",
        ]) == EXIT_OK
        cmp_outs.append(out)
    assert (cmp_outs[0] / "comparison.csv").read_bytes() == (
        cmp_outs[1] / "comparison.csv"
    ).read_bytes()

    print("\nACCEPTANCE PASS: determinism (fit and compare artifacts bit-identical)")


def test_qualitative_block_response():
    """Under a 14-day load block then rest, p - p0 is negative during loading
    and positive after loading ceases (assimilation vs fatigue)."""
    n = 45
    w = ff.LoadSeries((0.0,) + (100.0,) * 14 + (0.0,) * (n - 15))
    p = performance(w, fixture_params(), n)
    deviations = [v - 500.0 for v in p]
    dip = min(deviations[1:15])
    peak = max(deviations[15:])
    assert dip < 0.0, f"expected below-baseline dip during loading, min dev {dip}"
    assert peak > 0.0, f"expected above-baseline rebound after loading, max dev {peak}"
    # the deviation actually changes sign (not merely touching zero)
    signs = [d for d in deviations if d != 0.0]
    assert any(a < 0 < b for a, b in zip(signs, signs[1:]))
    print(f"\nACCEPTANCE PASS: qualitative block response (dip {dip:.2f}, rebound +{peak:.2f})")
