"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  All tolerances are fixed here, none are calibrated at run
time.  The heavy blow-up sweep (criteria 4 and 5) runs once per session.
"""

import time

import numpy as np
import pytest

from sol_lab.closed_forms import (
    concentration_sweep,
    conformal_pullback,
    extremal_u,
    extremal_weight,
    log_one_plus_s_integral,
    planar_bubble_mass,
    planar_liouville_residual,
    planar_liouville_total_mass,
)
from sol_lab.identity_checks import (
    blowup_infimum,
    kazdan_warner_residual,
    sphere_sharp_constant,
)
from sol_lab.mt_functional import (
    eval_J,
    residual_coeffs,
    troyanov_gap,
)
from sol_lab.singular_geometry import REGULAR_PART, SingularWeight
from sol_lab.sphere_grid import (
    FOUR_PI,
    build_grid,
    normalized_legendre,
)
from sol_lab.subcritical_solver import epsilon_sweep, minimize

from conftest import random_band_limited, zero

NORTH = (0.0, 0.0, 1.0)
SOUTH = (0.0, 0.0, -1.0)


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def blowup_sweep(grid128):
    """Single negative-order blow-up sweep shared by criteria 4 and 5."""
    w = SingularWeight.from_orders([(NORTH, -0.5)])
    t0 = time.monotonic()
    rep = epsilon_sweep(w, grid128, (0.5, 0.2, 0.1, 0.05),
                        max_iterations=4000, init_epsilon=0.01)
    return w, rep, time.monotonic() - t0


def test_criterion_1_onofri_baseline(grid64):
    t0 = time.monotonic()
    w = SingularWeight()
    rng = np.random.default_rng(7)
    worst = np.inf
    for _ in range(20):
        u = grid64.transform.analysis_coeffs(random_band_limited(grid64, rng))
        worst = min(worst, troyanov_gap(u, grid64, w, 0.0))
    worst_family = 0.0
    for t in (1.0, 2.0, 4.0):
        u = conformal_pullback(zero(grid64), grid64, t, 0.0)
        worst_family = max(worst_family, abs(troyanov_gap(u, grid64, w, 0.0)))
    elapsed = time.monotonic() - t0
    ok = worst >= -1e-6 and worst_family < 1e-5 and elapsed < 30.0
    # the family gap is a rounding residual (~6e-15): print the gate, not
    # digits that move with the order of the gap arithmetic
    report(1, ok, f"Onofri baseline: worst sampled gap {worst:.3e} >= -1e-6, "
                  "conformal family |gap| < 1e-5 "
                  f"({elapsed:.1f}s < 30s)")


def test_criterion_2_attained_minimum(grid128):
    lines = []
    ok = True
    for alpha in (-0.25, -0.5):
        w = extremal_weight(alpha)
        exact = 8.0 * np.pi * (1 + alpha) * (np.log1p(alpha) - alpha)
        def J_of(lam=1.0, c=0.0):
            return eval_J(extremal_u(grid128, alpha, lam, c), grid128, w,
                          w.rho_bar)

        J10 = J_of()
        rel = abs(J10 - exact) / abs(exact)
        inv = max(abs(J_of(lam, c) - J10)
                  for lam, c in ((2.0, 3.0), (0.5, -1.0)))
        ok = ok and rel < 0.005 and inv < 1e-3
        lines.append(f"alpha={alpha}: rel {rel:.2e} < 0.5%, "
                     f"invariance {inv:.2e} < 1e-3")
    report(2, ok, "attained minimum: " + "; ".join(lines))


def test_criterion_3_closed_form_consistency(grid128):
    t0 = time.monotonic()
    rng = np.random.default_rng(13)
    worst_neg = 0.0
    for _ in range(10):
        a1 = rng.uniform(-0.99, -0.01)
        w = SingularWeight.from_orders([(NORTH, a1)])
        worst_neg = max(worst_neg, abs(blowup_infimum(w).C
                                       - sphere_sharp_constant(a1).C))
    worst_pair = 0.0
    for _ in range(10):
        a1 = rng.uniform(-0.99, -0.02)
        a2 = rng.uniform(a1 + 0.01, 2.0)
        if abs(a2) < 1e-3:
            a2 = 0.5
        w = SingularWeight.from_orders([(NORTH, a1), (SOUTH, a2)])
        worst_pair = max(worst_pair, abs(
            blowup_infimum(w).C
            - sphere_sharp_constant(a1, a2, antipodal=True).C))
    worst_pos = 0.0
    for a1 in (0.5, 1.0, 2.0):
        w = SingularWeight.from_orders([(NORTH, a1)])
        worst_pos = max(worst_pos, abs(blowup_infimum(w, grid128).C - a1))
    elapsed = time.monotonic() - t0
    ok = (worst_neg < 1e-12 and worst_pair < 1e-12 and worst_pos < 1e-3
          and elapsed < 60.0)
    report(3, ok, f"closed-form consistency: negative branch {worst_neg:.2e} "
                  f"< 1e-12, pairs {worst_pair:.2e} < 1e-12, positive grid "
                  f"branch {worst_pos:.2e} < 1e-3 ({elapsed:.1f}s < 60s)")


def test_criterion_4_blowup_sweep(blowup_sweep):
    w, rep, elapsed = blowup_sweep
    lams = rep.column("lambda")
    increasing = all(b > a for a, b in zip(lams, lams[1:]))
    decay = [abs(v) for v in rep.column("mean_decay")]
    decreasing = all(b < a for a, b in zip(decay, decay[1:]))
    fractions = [e.row()["cap_mass_10t"] / w.rho_bar for e in rep.entries]
    quantized = all(b > a - 0.02 for a, b in zip(fractions, fractions[1:]))
    mass_frac = fractions[-1]
    target = -w.rho_bar * np.log(2.0)
    rel = abs(rep.extrapolated_J - target) / abs(target)
    ok = (increasing and decreasing and abs(mass_frac - 1.0) < 0.15
          and quantized and rel < 0.05 and elapsed < 300.0)
    report(4, ok, f"blow-up sweep: lambda {np.round(lams, 3).tolist()} "
                  f"increasing={increasing}, |t^2 ubar| decreasing="
                  f"{decreasing}, cap mass fraction {mass_frac:.3f} within "
                  f"15% of 1 (trend {np.round(fractions, 3).tolist()} "
                  f"monotone={quantized}), extrapolated J "
                  f"{rep.extrapolated_J:.3f} vs "
                  f"{target:.3f} ({100 * rel:.1f}% < 5%) "
                  f"({elapsed:.0f}s < 300s)")


def test_criterion_5_profile_collapse(blowup_sweep):
    _, rep, _ = blowup_sweep
    errs = rep.column("profile_error")
    ok = all(b < a + 0.02 for a, b in zip(errs, errs[1:]))
    report(5, ok, f"profile collapse: errors {np.round(errs, 3).tolist()} "
                  "decrease monotonically (allowance 0.02)")


def test_criterion_6_kazdan_warner(grid128):
    results = []
    # one-singularity regime, negative order
    w2 = SingularWeight.from_orders([(NORTH, -0.25)])
    rho = w2.rho_bar - 0.3
    st = minimize(zero(grid128), grid128, w2, rho, max_iterations=4000)
    assert st.converged
    r2 = abs(kazdan_warner_residual(st.coeffs, grid128, w2,
                                    rho).poho_residual)
    results.append(("one-singularity", r2, 1e-3))
    # mixed antipodal regime: distinct orders, negative minimum
    w3 = SingularWeight.from_orders([(NORTH, -0.25), (SOUTH, -0.1)])
    rho3 = w3.rho_bar - 0.3
    st3 = minimize(zero(grid128), grid128, w3, rho3, max_iterations=4000)
    assert st3.converged
    r3 = abs(kazdan_warner_residual(st3.coeffs, grid128, w3,
                                    rho3).poho_residual)
    results.append(("mixed-antipodal", r3, 1e-3))
    ok = all(v < tol for _, v, tol in results)
    report(6, ok, "axis identity: " + ", ".join(
        f"{name} residual {v:.2e} < {tol:g}" for name, v, tol in results))


def test_criterion_7_planar_bubble():
    alpha = -0.5
    c_p = 2.0 * np.exp(-0.5)  # c(p) of the single order -1/2 blow-up
    rho_bar = 8.0 * np.pi * (1.0 + alpha)
    mass_err = abs(planar_bubble_mass(c_p, alpha) - 1.0)
    resid = planar_liouville_residual(np.geomspace(1e-3, 10.0, 80),
                                      c_p, alpha).max()
    total_err = abs(planar_liouville_total_mass(c_p, alpha) - rho_bar)
    log_err = abs(log_one_plus_s_integral() - 1.0)
    ok = (mass_err < 1e-8 and resid < 1e-6 and total_err < 1e-7
          and log_err < 1e-10)
    report(7, ok, f"planar bubble: mass error {mass_err:.1e} < 1e-8, "
                  f"equation residual {resid:.1e} < 1e-6, total mass error "
                  f"{total_err:.1e} < 1e-7, log integral error "
                  f"{log_err:.1e} < 1e-10")


def test_criterion_8_upper_bound():
    w = SingularWeight.from_orders([(NORTH, -0.5)])
    records = concentration_sweep(w, [1e-2, 1e-3, 1e-4], NORTH)
    Js = [r["J"] for r in records]
    target = blowup_infimum(w).inf_J
    decreasing = Js[0] > Js[1] > Js[2]
    gap = (Js[-1] - target) / abs(target)
    limit = np.pi * np.exp(-FOUR_PI * w.alpha * REGULAR_PART) / (1 + w.alpha)
    exp_rel = abs(records[-1]["exp_integral"] - limit) / limit
    ok = decreasing and 0.0 <= gap < 0.10 and exp_rel < 0.05
    report(8, ok, f"upper bound: J {np.round(Js, 3).tolist()} decreasing "
                  f"toward {target:.3f} from above (final gap "
                  f"{100 * gap:.2f}% < 10%), exponential integral within "
                  f"{100 * exp_rel:.2f}% < 5% of its limit")


def test_criterion_9_numerical_hygiene(grid64):
    rng = np.random.default_rng(21)
    # gradient versus central differences
    w, rho = SingularWeight(), 8.0 * np.pi - 2.0
    u = random_band_limited(grid64, rng)
    worst_grad = 0.0
    for _ in range(5):
        v = random_band_limited(grid64, rng, amplitude=1.0)
        step = 1e-5
        analysis = grid64.transform.analysis_coeffs
        fd = (eval_J(analysis(u + v * step), grid64, w, rho)
              - eval_J(analysis(u - v * step), grid64, w, rho)) / (2 * step)
        pairing = float(np.sum(
            residual_coeffs(analysis(u), grid64, w, rho).values
            * analysis(v).values))
        worst_grad = max(worst_grad, abs(fd - pairing) / abs(pairing))
    # transform round trip
    f = random_band_limited(grid64, rng)
    c = grid64.transform.analysis_coeffs(f)
    rt = np.abs(grid64.transform.synthesis_values(c) - f).max()
    # quadrature of spherical harmonics up to 2L
    L2 = 2 * grid64.band_limit
    table = normalized_legendre(L2, grid64.t)
    wq = grid64.t_weights / grid64.n_phi
    worst_q = 0.0
    for m in range(L2 + 1):
        amp = np.sqrt(2.0) if m > 0 else 1.0
        cos_sum = wq @ table[m].T * np.sum(np.cos(m * grid64.phi))
        worst_q = max(worst_q, amp * np.abs(
            cos_sum[1 if m == 0 else 0:]).max())
        if m > 0:
            sin_sum = wq @ table[m].T * np.sum(np.sin(m * grid64.phi))
            worst_q = max(worst_q, amp * np.abs(sin_sum).max())
    ok = worst_grad < 1e-5 and rt < 1e-10 and worst_q < 1e-10
    report(9, ok, f"hygiene: gradient vs FD {worst_grad:.2e} < 1e-5, "
                  f"round trip {rt:.2e} < 1e-10, harmonic quadrature "
                  f"{worst_q:.2e} < 1e-10")
