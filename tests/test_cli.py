"""Config validation, experiment dispatch, determinism, exit codes, and
the names perfbench's tracer wraps."""

import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sol_lab
from sol_lab.cli import KINDS, _experiment_schema, main, run, validate
from sol_lab.singular_geometry import SingularWeight


def config_text(**overrides):
    base = {
        "schema_version": 1,
        "grid": {"n_theta": 33, "n_phi": 66},
        "weight": {"points": [{"position": [0, 0, 1], "order": -0.5}]},
        "experiment": {"kind": "constants"},
        "seed": 0,
        "output": {},
    }
    base.update(overrides)
    return json.dumps(base)


class TestValidate:
    def test_well_formed(self):
        config, errors = validate(config_text())
        assert not errors
        assert config["experiment"]["kind"] == "constants"

    def test_json_error_is_line_referenced(self):
        _, errors = validate('{\n  "grid": {,}\n}')
        assert errors and "line 2" in errors[0]

    def test_order_below_minus_one(self):
        text = config_text(weight={"points": [
            {"position": [0, 0, 1], "order": -1.2}]})
        _, errors = validate(text)
        assert any("order must exceed -1" in e for e in errors)

    def test_zero_order(self):
        text = config_text(weight={"points": [
            {"position": [0, 0, 1], "order": 0.0}]})
        _, errors = validate(text)
        assert any("nonzero" in e for e in errors)

    def test_coincident_points(self):
        text = config_text(weight={"points": [
            {"position": [0, 0, 1], "order": -0.5},
            {"position": [0, 0, 1.0000000001], "order": 0.5}]})
        _, errors = validate(text)
        assert any("pairwise distinct" in e for e in errors)

    def test_kw_check_requires_antipodal(self):
        text = config_text(
            weight={"points": [{"position": [1, 0, 0], "order": -0.5},
                               {"position": [0, 0, 1], "order": -0.25}]},
            experiment={"kind": "kw-check"})
        _, errors = validate(text)
        assert any("antipodal" in e for e in errors)

    @pytest.mark.parametrize("delta", [1.0e-6, 5.0e-6])
    def test_kw_check_axis_rule_is_the_integrators(self, tmp_path, delta):
        """kw-check runs a point near the pole in its axis frame, where the
        integrator runs it: its report is its pole twin's, bit for bit."""
        reports = []
        for pos in ([math.sin(delta), 0.0, math.cos(delta)], [0, 0, 1]):
            text = config_text(
                grid={"n_theta": 65, "n_phi": 130},
                weight={"points": [{"position": pos, "order": -0.25}]},
                experiment={"kind": "kw-check", "epsilon": 0.3})
            cfg, out = tmp_path / "c.json", tmp_path / "r.json"
            cfg.write_text(text)
            assert main(["kw-check", "--config", str(cfg),
                         "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text())["summary"])
        assert reports[0] == reports[1]

    def test_kw_check_runs_an_antipodal_pair_in_its_frame(self):
        """An antipodal pair along (1, 1, 1)/sqrt 3, orders -1/4 and -1/10,
        at L = 64: the axis identity holds in its frame with its axis
        twin's residual (the pole first)."""
        summaries = []
        for p in ([1, 1, 1], [0, 0, 1]):
            config, errors = validate(config_text(
                grid={"n_theta": 65, "n_phi": 130},
                weight={"points": [
                    {"position": p, "order": -0.25},
                    {"position": [-x for x in p], "order": -0.1}]},
                experiment={"kind": "kw-check", "epsilon": 0.3}))
            assert not errors
            report = run(config)
            assert report["passed"]
            summaries.append(report["summary"])
        assert summaries[0] == summaries[1]

    def test_unknown_kind(self):
        text = config_text(experiment={"kind": "explode"})
        _, errors = validate(text)
        assert any("experiment.kind" in e for e in errors)

    def test_epsilons_must_decrease(self):
        text = config_text(experiment={"kind": "sweep",
                                       "epsilons": [0.1, 0.2, 0.05]})
        _, errors = validate(text)
        assert any("decreasing" in e for e in errors)

    def test_round_trip(self):
        config, errors = validate(config_text())
        assert not errors
        config2, errors2 = validate(json.dumps(config, sort_keys=True, indent=2))
        assert not errors2
        assert config2 == config

    @pytest.mark.parametrize("kind", KINDS)
    def test_defaults_filled(self, kind):
        """The validated experiment holds every schema key, a missing one
        at its default (verify-extremal takes no weight)."""
        pair = [{"position": [0, 0, 1], "order": -0.5},
                {"position": [0, 0, -1], "order": -0.5}]
        config, errors = validate(config_text(
            weight={"points": [] if kind == "verify-extremal" else pair},
            experiment={"kind": kind}))
        assert not errors
        exp = config["experiment"]
        schema = _experiment_schema(-0.5)[kind]
        assert list(exp) == ["kind", *schema]
        for name, (default, _) in schema.items():
            assert exp[name] == default, name

    def test_readme_example_validates(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"Example config:\s*```json\n(.*?)```", readme,
                            re.S).group(1)
        config, errors = validate(example)
        assert not errors
        assert config["experiment"]["kind"] == "sweep"


class TestRun:
    def test_constants_report(self):
        config, _ = validate(config_text())
        report = run(config)
        assert report["passed"]
        assert report["summary"]["C"] == pytest.approx(np.log(2.0),
                                                       abs=1e-12)
        assert report["summary"]["inf_J"] == pytest.approx(
            -4.0 * np.pi * np.log(2.0), rel=1e-12)

    def test_report_echoes_defaults(self):
        """config.experiment records the values the run used."""
        report = run(validate(config_text())[0])
        assert report["config"]["experiment"] == {"kind": "constants"}
        pair = {"points": [{"position": [0, 0, 1], "order": -0.25},
                           {"position": [0, 0, -1], "order": -0.1}]}
        report = run(validate(config_text(weight=pair, experiment={
            "kind": "kw-check"}))[0])
        assert report["config"]["experiment"] == {
            "kind": "kw-check", "epsilon": 0.3, "max_iterations": 4000}

    @pytest.mark.parametrize("experiment, orders, tolerances", [
        ({"kind": "constants"}, [], {"onofri constant": "ONOFRI_TOL"}),
        ({"kind": "constants"}, [-0.5],
         {"closed-form consistency": "CONSISTENCY_TOL"}),
        ({"kind": "constants"}, [0.5],
         {"closed-form consistency": "GRID_CONSISTENCY_TOL"}),
        ({"kind": "verify-extremal"}, [],
         {"extremal value": "EXTREMAL_REL_TOL",
          "lambda-c invariance": "INVARIANCE_TOL"}),
        ({"kind": "inequality-sample", "samples": 2}, [],
         {"inequality gap floor": "GAP_FLOOR",
          "conformal family equality": "FAMILY_TOL"}),
        ({"kind": "minimize", "epsilon": 0.5}, [-0.5], {}),
        ({"kind": "sweep"}, [-0.5],
         {"lambda strictly increasing": None,
          "t^2 mean decreasing toward 0": None,
          "cap mass fraction at 10 t_eps": "CAP_MASS_REL_TOL",
          "extrapolated J vs blow-up value": "EXTRAPOLATION_REL_TOL",
          "profile collapse monotone": "PROFILE_NOISE"}),
        ({"kind": "kw-check"}, [-0.25, -0.1],
         {"axis identity residual": "RESIDUAL_TOL"}),
        ({"kind": "test-function-sweep"}, [-0.5],
         {"upper bound decreasing": None,
          "upper bound above blow-up value": "UPPER_GAP_TOL",
          "exponential integral limit": "EXP_TOL"}),
    ], ids=["constants-onofri", "constants-negative-order",
            "constants-positive-order", "verify-extremal",
            "inequality-sample", "minimize", "sweep", "kw-check",
            "test-function-sweep"])
    def test_check_tolerances_are_the_constants(self, experiment, orders,
                                                tolerances):
        """A check's threshold is no config key: each check of a small
        run of each kind records its runner's constant as ``tolerance``
        (0 for a check of a strict order, which has no constant)."""
        from sol_lab import cli

        points = [{"position": [0, 0, z], "order": a}
                  for z, a in zip((1, -1), orders)]
        config, errors = validate(config_text(weight={"points": points},
                                              experiment=experiment))
        assert not errors
        checks = {c["name"]: c["tolerance"] for c in run(config)["checks"]}
        assert checks == {name: getattr(cli, const) if const else 0.0
                          for name, const in tolerances.items()}

    def test_profile_collapse_samples_around_the_center(self):
        """A sweep entry's profile samples u at the rule's rings within
        5 t_eps of the concentration point, each at a distance r <= pi, so
        a south-pole sweep has the profile of its mirror image at the north
        pole."""
        from sol_lab.mt_functional import integrator_for
        from sol_lab.sphere_grid import build_grid
        from sol_lab.subcritical_solver import epsilon_sweep

        grid = build_grid(65, 130)
        profiles, t_eps = {}, {}
        for z in (1, -1):
            w = SingularWeight.from_orders([((0.0, 0.0, z), -0.5)])
            diags = [e.diagnostics for e in epsilon_sweep(
                w, grid, (0.5, 0.2, 0.1), max_iterations=4000,
                init_epsilon=0.01).entries]
            profiles[z] = np.concatenate(
                [np.stack([d.profile_radii, d.profile], axis=1)
                 for d in diags])
            t_eps[z] = [d.t_eps for d in diags]
        w = SingularWeight.from_orders([((0.0, 0.0, 1.0), -0.5)])
        rings = np.arccos(integrator_for(grid, w).transform.t)
        assert len(profiles[1]) == sum(np.count_nonzero(rings <= 5.0 * t)
                                       for t in t_eps[1])
        assert np.all(np.concatenate([profiles[1], profiles[-1]])[:, 0]
                      <= np.pi)
        np.testing.assert_allclose(profiles[-1], profiles[1], rtol=0,
                                   atol=1e-12)

    def test_determinism(self):
        """Two runs give one report, with no point and on the two-cap
        layout of the evaluate workload (an antipodal pair, whose samples
        are one stack on the axis rule)."""
        pair = [{"position": [0, 0, 1], "order": -0.5},
                {"position": [0, 0, -1], "order": 0.7}]
        for points in ([], pair):
            config, _ = validate(config_text(
                experiment={"kind": "inequality-sample", "samples": 3},
                weight={"points": points},
                grid={"n_theta": 17, "n_phi": 34},
            ))
            r1, r2 = run(config), run(config)
            r1.pop("wall_clock_s"), r2.pop("wall_clock_s")
            assert json.dumps(r1, sort_keys=True) == \
                json.dumps(r2, sort_keys=True)

    def test_samples_share_transforms(self, monkeypatch, transform_counts):
        """20 samples in stacks of K = 8 make ceil(20 / 8) = 3 stacks, each
        synthesized once on each of the integrator's ring groups (17 at
        L = 32) instead of 20 per-sample passes, none on the grid and no
        analysis (the draws are coefficients), and give the gaps of a
        per-sample troyanov_gap loop with each draw scaled to RMS 0.7 by
        its coefficients."""
        from sol_lab import mt_functional, sphere_grid
        from sol_lab.mt_functional import integrator_for, troyanov_gap
        from sol_lab.singular_geometry import SingularWeight

        grid = {"n_theta": 33, "n_phi": 66}
        orders = [([0, 0, 1], -0.5), ([0, 0, -1], 0.3)]
        g = sphere_grid.build_grid(grid["n_theta"], grid["n_phi"])
        w = SingularWeight.from_orders(orders)
        integ = integrator_for(g, w)
        assert len(integ._ring_groups) == 17
        monkeypatch.setattr(mt_functional, "BATCH_BUDGET",
                            self.budget(8, g.band_limit))
        config, _ = validate(config_text(
            experiment={"kind": "inequality-sample", "samples": 20},
            weight={"points": [{"position": p, "order": a}
                               for p, a in orders]},
            grid=grid, seed=5))
        report = run(config)
        assert transform_counts["synthesis"] == 3 * 17
        assert transform_counts["analysis"] == 0
        rng = np.random.default_rng(5)
        want = []
        for _ in range(20):
            c = sphere_grid.random_band_limited_batch(g, rng, 1).values[:, 0]
            rms = np.sqrt(np.sum(c * c) / (4.0 * np.pi))
            want.append(troyanov_gap(sphere_grid.SHCoefficients(c * (0.7 / rms)),
                                     g, w, 0.0))
        got = [r["gap"] for r in report["records"]]
        assert [r["sample"] for r in report["records"]] == list(range(20))
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12

    @staticmethod
    def budget(fields, band_limit):
        """A BATCH_BUDGET whose stacks take ``fields`` samples at band
        limit L: one Legendre group and 24 (L + 1)^2 bytes a field."""
        from sol_lab import sphere_grid
        return sphere_grid.LEGENDRE_BYTES + fields * 24 * (band_limit + 1) ** 2

    @staticmethod
    def evaluated_stacks(monkeypatch, points, samples, seed):
        """(scaled coefficients, log int h e^u) of each stack of an
        inequality-sample run, and the run's report: the coefficients are
        each draw as sample_gaps scales it in place, the log integral what
        log_exp_integral hands back for the stack."""
        from sol_lab import mt_functional, sphere_grid

        draws, logs = [], []
        draw = sphere_grid.random_band_limited_batch
        log_exp = mt_functional.SingularIntegrator.log_exp_integral

        def drawn(*args):
            draws.append(draw(*args))
            return draws[-1]

        def log_exp_integral(self, coeffs):
            logs.append(log_exp(self, coeffs))
            return logs[-1]

        monkeypatch.setattr(sphere_grid, "random_band_limited_batch", drawn)
        monkeypatch.setattr(mt_functional.SingularIntegrator,
                            "log_exp_integral", log_exp_integral)
        config, _ = validate(config_text(
            experiment={"kind": "inequality-sample", "samples": samples},
            weight={"points": [{"position": p, "order": a}
                               for p, a in points]},
            grid={"n_theta": 33, "n_phi": 66}, seed=seed))
        report = run(config)
        return list(zip(draws, logs, strict=True)), report

    def test_samples_scaled_by_their_coefficients(self, monkeypatch):
        """Two axis caps at L = 32, 7 samples in stacks of at most 3, of
        3, 2 and 2: each sample has RMS 0.7 over the sphere by its
        coefficients, its log int h e^u is formed from those scaled
        coefficients, and each stack is synthesized once on each ring group
        of the block, none on the block as a whole and none on the grid."""
        from sol_lab import mt_functional, sphere_grid
        from sol_lab.sphere_grid import ProductTransform, SHCoefficients

        monkeypatch.setattr(mt_functional, "BATCH_BUDGET",
                            self.budget(3, 32) + 7)
        grids, passes = [], []
        build, synthesis = sphere_grid.build_grid, ProductTransform.synthesis_values

        def build_grid(*args):
            grids.append(build(*args))
            return grids[-1]

        def synthesis_values(self, *args):
            passes.append(self)
            return synthesis(self, *args)

        monkeypatch.setattr(sphere_grid, "build_grid", build_grid)
        monkeypatch.setattr(ProductTransform, "synthesis_values",
                            synthesis_values)
        evaluated, report = self.evaluated_stacks(
            monkeypatch, [([0, 0, 1], -0.5), ([0, 0, -1], 0.3)], 7, 3)
        (grid,) = grids
        _, integ = grid._integrator
        groups = [tr for tr, _ in integ._ring_groups]
        assert len(groups) > 1
        assert passes == groups + groups + groups
        assert [c.values.shape[1] for c, _ in evaluated] == [3, 2, 2]
        for coeffs, log_integral in evaluated:
            for i, c in enumerate(np.moveaxis(coeffs.values, 1, 0)):
                assert np.sqrt(np.sum(c * c) / (4.0 * np.pi)) == \
                    pytest.approx(0.7, rel=1e-14)
                one = integ.density(SHCoefficients(c)).log_integral
                assert abs(log_integral[i] - one) <= 1e-14 * max(1, abs(one))
        assert len(report["records"]) == 7

    def test_samples_do_not_depend_on_the_rule(self, monkeypatch):
        """One seed under two weights whose quadrature rules differ (an
        order -1/2 point alone, and the pair -1/2 / 0.3, whose south caps
        have other nodes) gives the same scaled draws.  Seed
        6's second draw takes its largest |u| on either rule in the south
        cap, so a scale read off the rule's nodes would differ."""
        stacks = [np.concatenate([c.values for c, _ in self.evaluated_stacks(
            monkeypatch, points, 3, 6)[0]], axis=1)
            for points in ([([0, 0, 1], -0.5)],
                           [([0, 0, 1], -0.5), ([0, 0, -1], 0.3)])]
        assert stacks[0].shape[1] == 3
        assert np.array_equal(stacks[0], stacks[1])

    def test_onofri_family(self, tmp_path, monkeypatch):
        """With no singular point the samples are followed by the
        conformal family u_t: one dilation record per t, whose gaps vanish
        to rounding (8.8e-14 at t = 4 on 33 x 66), and a family tolerance
        of 0 fails the check, exit 1."""
        from sol_lab import cli

        cfg, out = tmp_path / "c.json", tmp_path / "r.json"
        cfg.write_text(config_text(weight={"points": []}, experiment={
            "kind": "inequality-sample", "samples": 3}))
        for tol, code in ((1.0e-5, 0), (0.0, 1)):  # FAMILY_TOL, and 0
            monkeypatch.setattr(cli, "FAMILY_TOL", tol)
            assert main(["inequality-sample", "--config", str(cfg),
                         "--out", str(out)]) == code
            report = json.loads(out.read_text())
            family = [r for r in report["records"] if "dilation" in r]
            assert [r["dilation"] for r in family] == [1.0, 2.0, 4.0]
            assert len(report["records"]) == 6
            (check,) = [c for c in report["checks"]
                        if c["name"] == "conformal family equality"]
            assert check["value"] == max(abs(r["gap"]) for r in family)
            assert check["value"] <= 1e-12
            assert check["passed"] is (code == 0)

    def test_every_stack_streams(self, monkeypatch):
        """Two axis caps at L = 64, 20 samples, a budget of 10 fields: both
        stacks take 10 fields and stream the block's Legendre blocks, 31
        orders a group, so no table of every order is ever built, and the
        gaps do not depend on the stacks."""
        from sol_lab import mt_functional, sphere_grid
        from sol_lab.mt_functional import integrator_for
        from sol_lab.singular_geometry import SingularWeight

        orders = [([0, 0, 1], -0.5), ([0, 0, -1], 0.3)]
        integ = integrator_for(sphere_grid.build_grid(65, 130),
                               SingularWeight.from_orders(orders))
        block = integ.transform
        # a Legendre budget of 31 orders a group (32 would fit the table);
        # the default takes the block's every order in one group
        monkeypatch.setattr(sphere_grid, "LEGENDRE_BYTES",
                            31 * 8 * (64 + 4) * block._reps)
        monkeypatch.setattr(mt_functional, "BATCH_BUDGET", self.budget(10, 64))
        sizes, tables = [], []
        draw = sphere_grid.random_band_limited_batch
        table = sphere_grid.normalized_legendre

        def recorded(grid, rng, count, *args):
            sizes.append(count)
            return draw(grid, rng, count, *args)

        def built(band_limit, t, m_max=None, floor=0.0):
            tables.append(m_max)
            return table(band_limit, t, m_max, floor)

        monkeypatch.setattr(sphere_grid, "random_band_limited_batch",
                            recorded)
        monkeypatch.setattr(sphere_grid, "normalized_legendre", built)
        config, _ = validate(config_text(
            experiment={"kind": "inequality-sample", "samples": 20},
            weight={"points": [{"position": p, "order": a}
                               for p, a in orders]},
            grid={"n_theta": 65, "n_phi": 130}, seed=2))
        gaps = [r["gap"] for r in run(config)["records"]]
        assert sizes == [10, 10]
        assert set(tables) <= {0}
        monkeypatch.setattr(mt_functional, "BATCH_BUDGET", self.budget(20, 64))
        sizes.clear()
        assert [r["gap"] for r in run(config)["records"]] == gaps
        assert sizes == [20]

    def test_kw_check_analyses_no_grid_values(self, monkeypatch,
                                              transform_counts):
        """A kw-check solve analyses no grid values: it starts from a zero
        column of coefficients, the identity reads the solver's
        coefficients, and every analysis is a density projection or a
        Hessian product on the axis rule's one transform."""
        from sol_lab import subcritical_solver
        from sol_lab.mt_functional import SingularIntegrator

        projections, products = [], []
        project = SingularIntegrator.density_projection
        hessian = subcritical_solver.hessian_product

        def counted(self, dens):
            projections.append(self.transform)
            return project(self, dens)

        def counted_product(v, dens, proj, integ, rho):
            products.append(integ.transform)
            return hessian(v, dens, proj, integ, rho)

        monkeypatch.setattr(SingularIntegrator, "density_projection", counted)
        monkeypatch.setattr(subcritical_solver, "hessian_product",
                            counted_product)
        config, _ = validate(config_text(
            experiment={"kind": "kw-check", "epsilon": 0.3},
            weight={"points": [{"position": [0, 0, 1], "order": -0.25},
                               {"position": [0, 0, -1], "order": -0.1}]}))
        report = run(config)
        assert report["summary"]["moment"] != 0.0
        # every analysis runs on the axis rule's one transform
        assert len({id(t) for t in projections + products}) == 1
        assert transform_counts["analysis"] == \
            len(projections) + len(products)

    def test_seed_changes_samples(self):
        base = dict(experiment={"kind": "inequality-sample", "samples": 2},
                    weight={"points": []}, grid={"n_theta": 17, "n_phi": 34})
        c1, _ = validate(json.dumps({**base, "seed": 0}))
        c2, _ = validate(json.dumps({**base, "seed": 1}))
        g1 = [r["gap"] for r in run(c1)["records"] if "gap" in r]
        g2 = [r["gap"] for r in run(c2)["records"] if "gap" in r]
        assert g1[0] != g2[0]


def _point(position, order=-0.5):
    return {"weight": {"points": [{"position": position, "order": order}]}}


# json.loads accepts NaN and Infinity; each must be a config error (exit 2),
# neither a traceback nor a silently accepted value
NON_FINITE = {
    "n_theta-inf": ("grid.n_theta",
                    {"grid": {"n_theta": float("inf"), "n_phi": 66}}),
    "n_theta-nan": ("grid.n_theta",
                    {"grid": {"n_theta": float("nan"), "n_phi": 66}}),
    "seed-inf": ("seed", {"seed": float("inf")}),
    "order-nan": ("weight.points[0].order",
                  _point([0, 0, 1], order=float("nan"))),
    "position-nan": ("weight.points[0].position[1]",
                     _point([0, float("nan"), 1])),
    "position-inf": ("weight.points[0].position[2]",
                     _point([0, 0, float("-inf")])),
}


class TestNonFinite:
    @pytest.mark.parametrize("path, override", NON_FINITE.values(),
                             ids=NON_FINITE.keys())
    def test_validate_rejects(self, path, override):
        config, errors = validate(config_text(**override))
        assert config is None
        assert any(e.startswith(f"{path}: expected a finite number")
                   for e in errors), errors

    @pytest.mark.parametrize("path, override", NON_FINITE.values(),
                             ids=NON_FINITE.keys())
    def test_main_exits_2(self, path, override, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(**override))
        assert main(["constants", "--config", str(cfg)]) == 2
        assert f"config error: {path}: expected a finite number" in \
            capsys.readouterr().err


NAN = float("nan")

# numbers the runners read from the experiment section, out of range:
# (kind, experiment fields, expected error); each must exit 2
BAD_NUMBERS = {
    "samples-nan": ("inequality-sample", {"samples": NAN},
                    "experiment.samples: expected a finite number"),
    "constant-nan": ("inequality-sample", {"samples": 2, "constant": NAN},
                     "experiment.constant: expected a finite number"),
    "max_iterations-fraction": ("minimize", {"max_iterations": 2.5},
                                "experiment.max_iterations: expected an "
                                "integer"),
    "epsilon-above-rho_bar": ("minimize", {"epsilon": 20.0},
                              "experiment.epsilon: must be < 12.5664"),
    "epsilons-zero": ("sweep", {"epsilons": [0.5, 0.2, 0.0]},
                      "experiment.epsilons[2]: must be > 0.0"),
    "test-function-epsilons": ("test-function-sweep",
                               {"epsilons": [1e-2, 2.0]},
                               "experiment.epsilons[1]: must be < 1"),
    # keys no runner reads: a deleted option and a misspelled one
    "damping-unknown": ("minimize", {"damping": 0.7},
                        "experiment.damping: unknown key"),
    "tol_factr-unknown": ("minimize", {"tol_factr": 1e-12},
                          "experiment.tol_factr: unknown key"),
    # kw-check always solves below rho_bar: it reads no extremal flag or
    # order
    "use_extremal-kw-check-unknown": ("kw-check", {"use_extremal": True},
                                      "experiment.use_extremal: unknown key"),
    "alpha-kw-check-unknown": ("kw-check", {"alpha": -0.5},
                               "experiment.alpha: unknown key"),
}

# a check's threshold is a constant of its runner, not a key: a config
# that sets one exits 2, its value at the default or not
BAD_NUMBERS.update({
    f"{key}-{kind}-unknown": (kind, {key: value},
                              f"experiment.{key}: unknown key")
    for kind, key, value in (
        ("constants", "consistency_tol", 1e-12),
        ("verify-extremal", "lambda", 1.5),
        ("verify-extremal", "c", 3.0),
        ("verify-extremal", "rel_tol", 0.005),
        ("verify-extremal", "invariance_tol", 1e-3),
        ("inequality-sample", "gap_floor", -1e-6),
        ("inequality-sample", "family_dilations", [1.0, 2.0, 4.0]),
        ("inequality-sample", "family_tol", 1e-5),
        ("minimize", "tol_factor", 1e-6),
        ("sweep", "tol_factor", 1e-6),
        ("kw-check", "tol_factor", 1e-6),
        ("sweep", "cap_mass_rel_tol", 0.15),
        ("sweep", "extrapolation_rel_tol", 0.05),
        ("kw-check", "residual_tol", 1e-3),
        ("test-function-sweep", "upper_gap_tol", 0.10),
        ("test-function-sweep", "exp_tol", 0.05))})

# schedules compare consecutive entries: fewer than two must exit 2; a
# sweep's limit model J_inf + c eps log(1/eps) + d eps has three unknowns,
# so fewer than three must (two once reported their last J as the limit)
BAD_NUMBERS.update({
    f"epsilons-{n}-{kind}": (kind, {"epsilons": [0.5, 0.2][:n]},
                             f"experiment.epsilons: expected at least "
                             f"{fewest} values, got {n}")
    for kind, fewest in (("sweep", 3), ("test-function-sweep", 2))
    for n in range(fewest)})


# a solve from zero (minimize, kw-check) reads no start: its init keys are
# unknown, not defaulted and recorded; a sweep's start is init_epsilon alone
BAD_NUMBERS.update({
    f"{key}-{kind}-unknown": (kind, {key: value},
                              f"experiment.{key}: unknown key")
    for key, value in (("init", "zero"), ("init_epsilon", 0.01))
    for kind in ("minimize", "kw-check")})
BAD_NUMBERS["init-sweep-unknown"] = ("sweep", {"init": "zero"},
                                     "experiment.init: unknown key")


_POINT = {"position": [0, 0, 1], "order": -0.5}

# whole configs with a key outside the schema at each level, or a default
# out of range for the weight: (kind, config fields, expected error)
BAD_CONFIGS = {
    "top-level": ("constants", {"outputs": {}}, "outputs: unknown key"),
    "grid-n_thetta": ("constants", {"grid": {"n_thetta": 129}},
                      "grid.n_thetta: unknown key"),
    "weight-extra": ("constants", {"weight": {"points": [], "k": None}},
                     "weight.k: unknown key"),
    "point-extra": ("constants", {"weight": {"points": [
        {**_POINT, "alpha": -0.5}]}}, "weight.points[0].alpha: unknown key"),
    "K-extra": ("constants", {"weight": {"points": [], "K": {"bas": 2.0}}},
                "weight.K.bas: unknown key"),
    "harmonic-extra": ("constants", {"weight": {"points": [], "K": {
        "harmonics": [{"l": 1, "m": 0, "coeff": 0.1, "n": 2}]}}},
        "weight.K.harmonics[0].n: unknown key"),
    "output-extra": ("constants", {"output": {"trace": "t.csv"}},
                     "output.trace: unknown key"),
    # rho_bar = 8 pi (1 - 0.999) lies below the default epsilon 0.1
    "minimize-default-epsilon": (
        "minimize", _point([0, 0, 1], order=-0.999),
        "experiment.epsilon: must be < 0.0251327, got 0.1"),
    # rho_bar = 8 pi (1 - 0.99) lies below the default schedule's 0.5
    "sweep-default-epsilons": (
        "sweep", _point([0, 0, 1], order=-0.99),
        "experiment.epsilons[0]: must be < 0.251327, got 0.5"),
}


# valid configs whose run a rule of the program refuses: a weight no
# rotation puts on the axis, for a kind that integrates it (axis_frame),
# and a test function's epsilon too large for its point
# (closed_forms.concentration_scales); (kind, config fields, expected error)
NO_AXIS_FRAME = ("weight.points: no rotation puts these 2 singular points "
                 "on the axis")
BAD_BY_RULE = {
    "caps-overlap": ("minimize", {"weight": {"points": [
        {"position": [0, 0, 1], "order": -0.5},
        {"position": [0.1, 0, 1], "order": -0.3}]},
        "experiment": {"kind": "minimize", "epsilon": 0.5}}, NO_AXIS_FRAME),
    "init_epsilon-safe-scale": (
        "sweep", {**_point([0, 0, 1], order=-0.1),
                  "experiment": {"kind": "sweep", "init_epsilon": 0.3}},
        "experiment.init_epsilon: epsilon too large: cap exceeds the safe "
        "scale"),
    # the axis identity holds for K == 1: K = 1 + 0.3 Y_10 read a residual
    # of 1.2e-2 at 65 x 130 and on finer grids, against 2.2e-4 without K
    "kw-check-K": (
        "kw-check", {"weight": {"points": [
            {"position": [0, 0, 1], "order": -0.25},
            {"position": [0, 0, -1], "order": -0.1}],
            "K": {"base": 1, "harmonics": [{"l": 1, "m": 0, "coeff": 0.3}]}},
            "experiment": {"kind": "kw-check"}},
        "weight.K: kw-check: the axis identity holds for K == 1 only"),
    "init_epsilon-reaches-point": (
        "sweep", {"weight": {"points": [
            {"position": [0, 0, 1], "order": -0.5},
            {"position": [0, 0.3, 1], "order": 0.5}]},
            "experiment": {"kind": "sweep", "init_epsilon": 0.5}},
        NO_AXIS_FRAME),
    "test-function-epsilons": (
        "test-function-sweep",
        {**_point([0, 0, 1], order=-0.1),
         "experiment": {"kind": "test-function-sweep",
                        "epsilons": [0.5, 0.3]}},
        "experiment.epsilons[0]: epsilon too large: cap exceeds the safe "
        "scale"),
    # r_eps is 1.1e-197 at 1e-5 (J read nan) and underflows to 0 at 1e-8
    # (a traceback), below R_EPS_MIN
    **{f"test-function-epsilon-{eps:g}": (
        "test-function-sweep",
        {**_point([0, 0, 1], order=-0.99),
         "experiment": {"kind": "test-function-sweep",
                        "epsilons": [1e-4, eps]}},
        "experiment.epsilons[1]: epsilon too small: the cap radius r_eps = "
        f"{r_eps} lies below 2.11e-154")
       for eps, r_eps in ((1e-5, "1.15e-197"), (1e-8, "0"))},
    # verify-extremal runs on its own weight, so a config's weight would
    # go unused (the report echoed it, with the no-weight summary, exit 1)
    "verify-extremal-points": (
        "verify-extremal", {**_point([1, 0, 0], order=0.7),
                            "experiment": {"kind": "verify-extremal"}},
        "weight.points: verify-extremal uses the equal pair of order "
        "experiment.alpha at +-e3"),
    "verify-extremal-K": (
        "verify-extremal", {"weight": {"points": [], "K": {"base": 2}},
                            "experiment": {"kind": "verify-extremal"}},
        "weight.K: verify-extremal uses the equal pair of order "
        "experiment.alpha at +-e3"),
}


# configs that fall between the relations "same point" (1.4e-7 rad),
# "antipodal" and "on the axis" of the singular geometry: (kind, config
# fields, expected error, or None for a run that passes)
POINT_RULES = {
    "minimize-points-5e-9-apart": (
        "minimize", [([0, 0, 1], -0.5), ([5e-9, 0, 1], -0.3)],
        "weight.points[1]: coincides with weight.points[0]"),
    "constants-points-1e-7-apart": (
        "constants", [([0, 0, 1], -0.5), ([1e-7, 0, 1], -0.3)],
        "weight.points[1]: coincides with weight.points[0]"),
    "test-function-sweep-off-axis": (
        "test-function-sweep", [([0, 0, 1], -0.5), ([1, 0, 0], 0.5)],
        "weight.points[1]: radial evaluation needs every singular point on "
        "the axis"),
    "test-function-sweep-positive-pole": (
        "test-function-sweep", [([0, 0, 1], 0.5)],
        "weight.points[0]: test functions concentrate at the north pole"),
    "constants-pair-1e-5-off-antipodal": (
        "constants", [([0, 0, 1], -0.5),
                      ([math.sin(1e-5), 0, -math.cos(1e-5)], 0.3)], None),
    "minimize-pair-1e-5-off-antipodal": (
        "minimize", [([0, 0, 1], -0.5),
                     ([math.sin(1e-5), 0, -math.cos(1e-5)], 0.3)],
        NO_AXIS_FRAME),
    **{f"{kind}-three-points": (
        kind, [([0, 0, 1], -0.5), ([1, 0, 0], 0.5), ([0, 1, 0], 0.3)],
        None if kind == "constants" else
        "weight.points: no rotation puts these 3 singular points on the axis")
       for kind in ("constants", "minimize", "sweep", "kw-check",
                    "inequality-sample")},
}


class TestPointRules:
    @pytest.mark.parametrize("kind, points, message", POINT_RULES.values(),
                             ids=POINT_RULES.keys())
    def test_exit_code(self, kind, points, message, tmp_path, capsys):
        """Two points closer than the same-point rule, a weight the radial
        J cannot evaluate, a singular test-function point and, for the
        kinds that integrate it, a weight no rotation puts on the axis exit
        2 with one line naming the point; a pair 1e-5 rad from antipodal and
        three points run the constants with no closed form."""
        cfg, out = tmp_path / "c.json", tmp_path / "r.json"
        cfg.write_text(config_text(
            weight={"points": [{"position": p, "order": a}
                               for p, a in points]},
            experiment={"kind": kind}))
        code = main([kind, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if message is None:
            assert code == 0
            assert "closed_form_C" not in json.loads(out.read_text())["summary"]
        else:
            assert code == 2
            (line,) = err.splitlines()
            assert line.startswith(f"config error: {message}")

    @settings(max_examples=40, deadline=None)
    @given(delta=st.floats(1.0e-12, 1.0e-3),
           orders=st.sampled_from([(-0.5, -0.3), (-0.5, 0.3), (0.5, 0.2)]))
    def test_near_points_are_refused_or_run(self, delta, orders):
        """Two points delta rad apart: validate refuses them naming
        weight.points[1], or the constants run does not raise."""
        config, errors = validate(config_text(weight={"points": [
            {"position": [0, 0, 1], "order": orders[0]},
            {"position": [math.sin(delta), 0, math.cos(delta)],
             "order": orders[1]}]}))
        if errors:
            assert errors == ["weight.points[1]: coincides with "
                              "weight.points[0]; singular points must be "
                              "pairwise distinct"]
        else:
            assert delta > 1.0e-7
            run(config)


class TestExperimentNumbers:
    @pytest.mark.parametrize("kind, fields, message", BAD_BY_RULE.values(),
                             ids=BAD_BY_RULE.keys())
    def test_refused_by_a_rule_exits_2(self, kind, fields, message, tmp_path,
                                       capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(**fields))
        assert main([kind, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        if message == NO_AXIS_FRAME:  # the rule returns before the others
            assert len(err.splitlines()) == 1

    def test_rules_apply_to_the_kinds_that_use_them(self):
        """A pair that no rotation puts on the axis is no error for the
        closed-form constants, a point too mild for a test function of
        scale 0.3 no error for a sweep that starts from zero
        (``init_epsilon`` null), and a K no error for a minimize."""
        overlap = BAD_BY_RULE["caps-overlap"][1]
        assert not validate(config_text(**{
            **overlap, "experiment": {"kind": "constants"}}))[1]
        scale = BAD_BY_RULE["init_epsilon-safe-scale"][1]
        assert not validate(config_text(**{**scale, "experiment": {
            **scale["experiment"], "init_epsilon": None}}))[1]
        kw = BAD_BY_RULE["kw-check-K"][1]
        assert not validate(config_text(**{
            **kw, "experiment": {"kind": "minimize"}}))[1]

    @pytest.mark.parametrize("kind, fields, message", BAD_NUMBERS.values(),
                             ids=BAD_NUMBERS.keys())
    def test_main_exits_2(self, kind, fields, message, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(experiment={"kind": kind, **fields}))
        assert main([kind, "--config", str(cfg)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, fields, message", BAD_CONFIGS.values(),
                             ids=BAD_CONFIGS.keys())
    def test_bad_config_exits_2(self, kind, fields, message, tmp_path,
                                capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(experiment={"kind": kind}, **fields))
        assert main([kind, "--config", str(cfg)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_large_position_normalizes(self):
        """A finite position of any size normalizes without overflow."""
        config, errors = validate(config_text(**_point([0, 0, 1e200])))
        assert not errors
        assert config["weight"]["points"][0]["position"] == [0.0, 0.0, 1.0]


class TestMainEntry:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(config_text(weight={"points": [
            {"position": [0, 0, 1], "order": -3}]}))
        assert main(["constants", "--config", str(bad)]) == 2
        assert "order must exceed -1" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["constants", "--config",
                     str(tmp_path / "nope.json")]) == 2

    def test_kind_mismatch(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text())
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_pass_run_writes_report(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        out = tmp_path / "report.json"
        cfg.write_text(config_text())
        assert main(["constants", "--config", str(cfg),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"]
        assert "PASS" in capsys.readouterr().out

    def test_tolerance_failure_exit_code(self, tmp_path, monkeypatch):
        from sol_lab import cli

        monkeypatch.setattr(cli, "CONSISTENCY_TOL", 1e-30)
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text())
        assert main(["constants", "--config", str(cfg)]) == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(
            grid={"n_theta": 33, "n_phi": 66},
            experiment={"kind": "minimize", "epsilon": 0.2,
                        "max_iterations": 2}))
        assert main(["minimize", "--config", str(cfg)]) == 3

    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch, capsys):
        """A run that runs out of memory is a numerical failure (exit 3)
        with one line, not a traceback."""
        from sol_lab import cli

        def runner(config, w, grid, report):
            raise MemoryError("Unable to allocate 2.1 GiB")

        monkeypatch.setitem(cli._RUNNERS, "constants", runner)
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text())
        assert main(["constants", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: out of memory (Unable to allocate 2.1 GiB)")

    def test_traces_written(self, tmp_path):
        cfg = tmp_path / "c.json"
        trace = tmp_path / "trace.csv"
        cfg.write_text(config_text(
            grid={"n_theta": 33, "n_phi": 66},
            experiment={"kind": "minimize", "epsilon": 0.5,
                        "max_iterations": 2000},
            output={"traces": str(trace)}))
        assert main(["minimize", "--config", str(cfg)]) == 0
        header, first = trace.read_text().splitlines()[:2]
        assert set(header.split(",")) == {"iteration", "J", "residual",
                                          "lambda", "step", "backtracks",
                                          "cg_iterations"}
        # 17 significant digits on float columns
        j_field = first.split(",")[header.split(",").index("J")]
        assert len(j_field.replace("-", "").replace(".", "")
                   .replace("e", "").lstrip("0")) >= 15

    def test_boolean_trace_cell(self, tmp_path):
        """A sweep's ``under_resolved`` column is a bool, written 0 or 1."""
        cfg, trace = tmp_path / "c.json", tmp_path / "trace.csv"
        cfg.write_text(config_text(experiment={"kind": "sweep"},
                                   output={"traces": str(trace)}))
        assert main(["sweep", "--config", str(cfg)]) in (0, 1)
        header, *rows = trace.read_text().splitlines()
        col = header.split(",").index("under_resolved")
        assert len(rows) == 4
        assert {r.split(",")[col] for r in rows} <= {"0", "1"}

    def test_no_records_no_trace_file(self, tmp_path):
        """A run with no records (constants) writes no trace file."""
        cfg, trace = tmp_path / "c.json", tmp_path / "trace.csv"
        cfg.write_text(config_text(output={"traces": str(trace)}))
        assert main(["constants", "--config", str(cfg)]) == 0
        assert not trace.exists()

    def test_verify_extremal_kind(self, tmp_path, monkeypatch):
        from sol_lab import cli

        monkeypatch.setattr(cli, "EXTREMAL_REL_TOL", 0.01)
        monkeypatch.setattr(cli, "INVARIANCE_TOL", 5e-3)
        cfg = tmp_path / "c.json"
        out = tmp_path / "r.json"
        cfg.write_text(config_text(
            grid={"n_theta": 97, "n_phi": 194},
            weight={"points": []},
            experiment={"kind": "verify-extremal", "alpha": -0.5}))
        assert main(["verify-extremal", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["summary"]["closed_form"] == pytest.approx(
            4 * np.pi * (0.5 - np.log(2.0)))

    def test_verify_extremal_defaults(self, tmp_path):
        """verify-extremal with every experiment key at its default passes
        its own checks: on the default 65 x 130 grid |J(u_{1.5,3}) -
        J(u_{1,0})| reads 3.11e-4 against INVARIANCE_TOL 1e-3."""
        cfg, out = tmp_path / "c.json", tmp_path / "r.json"
        cfg.write_text(json.dumps({"weight": {"points": []},
                                   "experiment": {"kind": "verify-extremal"}}))
        assert main(["verify-extremal", "--config", str(cfg),
                     "--out", str(out)]) == 0
        check = json.loads(out.read_text())["checks"][1]
        assert check["name"] == "lambda-c invariance"
        assert check["value"] == pytest.approx(3.11e-4, rel=0.01)

    def test_verify_extremal_under_resolved_member_fails(self, tmp_path,
                                                         monkeypatch):
        """The lambda = 2 member is under-resolved at L = 64: on 65 x 130
        |J(u_{2,3}) - J(u_{1,0})| reads 1.00013e-3 against 1e-3, so the
        invariance check fails and the run exits 1."""
        from sol_lab import cli

        monkeypatch.setattr(cli, "EXTREMAL_LAMBDA", 2.0)
        cfg, out = tmp_path / "c.json", tmp_path / "r.json"
        cfg.write_text(json.dumps({"weight": {"points": []}, "experiment": {
            "kind": "verify-extremal"}}))
        assert main(["verify-extremal", "--config", str(cfg),
                     "--out", str(out)]) == 1
        extremal, invariance = json.loads(out.read_text())["checks"]
        assert extremal["passed"] and not invariance["passed"]
        assert invariance["value"] == pytest.approx(1.00013e-3, rel=1e-5)

    def test_verify_extremal_past_overflow(self, tmp_path, monkeypatch):
        """c = 800 puts the raw peak of u_{lambda,c} past exp's overflow at
        709.8.  J is shift invariant and the density is formed shifted, so
        the run passes with c = 3's J to 1e-9 (1.9e-11 seen) and the same
        check values."""
        from sol_lab import cli

        reports = []
        for c in (3.0, 800.0):
            monkeypatch.setattr(cli, "EXTREMAL_C", c)
            cfg, out = tmp_path / f"c{c}.json", tmp_path / f"r{c}.json"
            cfg.write_text(config_text(
                grid={"n_theta": 129, "n_phi": 258}, weight={"points": []},
                experiment={"kind": "verify-extremal"}))
            assert main(["verify-extremal", "--config", str(cfg),
                         "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        near, far = (r["summary"]["J_shifted"] for r in reports)
        assert abs(far - near) <= 1e-9
        assert [ch["value"] for ch in reports[1]["checks"]] == pytest.approx(
            [ch["value"] for ch in reports[0]["checks"]], rel=1e-6)

    def test_kw_check_traces_its_solve(self, tmp_path):
        """kw-check solves from zero on the config's weight and passes its
        check (2.2e-4 on 65 x 130); its records are the solve's steps, one
        CSV row each in output.traces."""
        cfg, out, traces = (tmp_path / f for f in ("c.json", "r.json",
                                                   "t.csv"))
        cfg.write_text(config_text(
            grid={"n_theta": 65, "n_phi": 130},
            weight={"points": [{"position": [0, 0, 1], "order": -0.25},
                               {"position": [0, 0, -1], "order": -0.1}]},
            experiment={"kind": "kw-check"},
            output={"report": str(out), "traces": str(traces)}))
        assert main(["kw-check", "--config", str(cfg)]) == 0
        records = json.loads(out.read_text())["records"]
        assert [r["iteration"] for r in records] == list(range(len(records)))
        rows = traces.read_text().splitlines()
        assert rows[0] == ",".join(sorted(records[0]))
        assert len(rows) == len(records) + 1 > 2

    def test_negative_point_on_a_grid_node(self, tmp_path):
        """An off-axis negative-order point on a grid node, (1, 0, 0) on
        the equator ring of an odd Gauss grid, solves in its axis frame and
        exits 0, and its report is written: lambda is the singular point's
        value there, read from the axis, and the summary holds plain JSON
        types."""
        cfg, out = tmp_path / "c.json", tmp_path / "r.json"
        cfg.write_text(config_text(
            grid={"n_theta": 65, "n_phi": 130},
            weight={"points": [{"position": [1, 0, 0], "order": -0.5}]},
            experiment={"kind": "minimize", "epsilon": 0.5}))
        assert main(["minimize", "--config", str(cfg),
                     "--out", str(out)]) == 0
        summary = json.loads(out.read_text())["summary"]
        assert all(type(summary[k]) is bool for k in
                   ("compact_case", "under_resolved"))
        assert all(type(summary[k]) is float for k in ("lambda", "t_eps"))

    @pytest.mark.parametrize("m, width", [(0, 1), (1, 5)])
    def test_smooth_factor_is_coefficients(self, m, width):
        """weight.K is the coefficients of base + harmonics, base in
        a_00: zonal when every harmonic has m = 0, else over every order
        (the ``width`` orders -2..2 at l <= 2)."""
        from sol_lab.cli import _build_weight
        config, _ = validate(config_text(weight={
            "points": [{"position": [0, 0, 1], "order": -0.5}],
            "K": {"base": 1.5, "harmonics": [{"l": 2, "m": m,
                                              "coeff": 0.2}]}}))
        w = _build_weight(config)
        assert w.K.values.shape == ((3, 1) if width == 1 else (6, 2))
        assert w.axis_invariant == (m == 0)
        x = np.array([[0.6, 0.0, 0.8], [0.0, 0.0, -1.0]])
        y2m = {0: np.sqrt(5.0 / (16.0 * np.pi)) * (3.0 * x[:, 2] ** 2 - 1.0),
               1: np.sqrt(15.0 / (4.0 * np.pi)) * x[:, 0] * x[:, 2]}[m]
        assert w.smooth_factor(x) == pytest.approx(1.5 + 0.2 * y2m,
                                                   rel=1e-14)

    def test_negative_smooth_factor_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(
            weight={"points": [],
                    "K": {"base": 0.1,
                          "harmonics": [{"l": 1, "m": 0, "coeff": 3.0}]}}))
        assert main(["constants", "--config", str(cfg)]) == 2
        assert "positive" in capsys.readouterr().err

    def test_smooth_factor_negative_at_a_pole_rejected(self, tmp_path, capsys,
                                                       recwarn):
        """K = 0.488 + Y_10 is +7.2e-4 at the 33-node Gauss ring nearest
        -e3 and -6.0e-4 at -e3, where the cap rings of the integrated
        weight crowd: it is a config error (exit 2) with one keyed line,
        not a nan residual (exit 3) after a log of a negative K."""
        text = config_text(
            weight={"points": [{"position": [0, 0, 1], "order": -0.5}],
                    "K": {"base": 0.488,
                          "harmonics": [{"l": 1, "m": 0, "coeff": 1.0}]}},
            experiment={"kind": "minimize", "epsilon": 0.5})
        assert validate(text)[1] == [
            "weight.K: the smooth factor must be positive on the sphere"]
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["minimize", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: weight.K: the smooth factor must be "
                       "positive on the sphere\n")
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_smooth_factor_negative_between_coarse_rings_rejected(
            self, tmp_path, capsys, recwarn):
        """K = 0.8174 + Y_40,0 dips to -0.206 near the poles between the
        rings of a Gauss grid at K's band limit (its least node value is
        +0.50 on 41 rings): a grid twice as fine in each direction finds
        it, so the config is an error (exit 2) with one keyed line, not a
        nan residual (exit 3)."""
        text = config_text(
            grid={"n_theta": 65, "n_phi": 130},
            weight={"points": [{"position": [0, 0, 1], "order": -0.5}],
                    "K": {"base": 0.8174,
                          "harmonics": [{"l": 40, "m": 0, "coeff": 1.0}]}},
            experiment={"kind": "minimize"})
        assert validate(text)[1] == [
            "weight.K: the smooth factor must be positive on the sphere"]
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["minimize", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: weight.K: the smooth factor must be positive on "
            "the sphere\n")
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_log_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOL_LAB_LOG", "info")
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text())
        assert main(["constants", "--config", str(cfg)]) == 0

    def test_test_function_sweep_kind(self, tmp_path):
        cfg = tmp_path / "c.json"
        out = tmp_path / "r.json"
        cfg.write_text(config_text(
            experiment={"kind": "test-function-sweep",
                        "epsilons": [1e-2, 1e-3]}))
        assert main(["test-function-sweep", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["summary"]["target"] == pytest.approx(
            -4.0 * np.pi * np.log(2.0), rel=1e-12)

    def test_regular_case_sweep_passes(self, tmp_path, monkeypatch):
        """No singular point, K = 1 + 0.3 Y_10, on 129 x 258: J(rho_bar -
        eps) nears its blow-up value like eps log(1/eps), the sweep's model,
        so all five checks pass.  u peaks at the north pole, between the
        Gauss rings, and each entry's lambda is read there."""
        from sol_lab import subcritical_solver
        from sol_lab.sphere_grid import axis_values

        sweep, sweeps = subcritical_solver.epsilon_sweep, []

        def recorded(*args, **kwargs):
            sweeps.append(sweep(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(subcritical_solver, "epsilon_sweep", recorded)
        cfg, out = tmp_path / "c.json", tmp_path / "r.json"
        cfg.write_text(config_text(
            grid={"n_theta": 129, "n_phi": 258},
            weight={"points": [], "K": {"base": 1, "harmonics": [
                {"l": 1, "m": 0, "coeff": 0.3}]}},
            experiment={"kind": "sweep", "epsilons": [2, 1, 0.5, 0.2, 0.1],
                        "init_epsilon": None}))
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert len(rep["checks"]) == 5
        assert all(c["passed"] for c in rep["checks"])
        # the three compact entries have no profile; the last two fall
        # from 0.693 to 0.269
        assert rep["checks"][-1]["value"] == pytest.approx(-0.42467,
                                                           abs=1e-5)
        for e in sweeps[0].entries:
            north = axis_values(e.state.coeffs)[0]
            assert e.diagnostics.lambda_eps >= north
            assert np.array_equal(e.diagnostics.p_eps, [0.0, 0.0, 1.0])

    def test_test_function_sweep_near_order_minus_one(self, tmp_path):
        """At alpha = -0.9 the radial J is right at every default epsilon,
        so all three checks pass (J read -5.7359, -5.5081 and -5.5723, not
        decreasing, when an adaptive quad missed the bubble), and J(1e-4)
        is a 25-digit oracle's -5.7755272319137 to 1e-6."""
        cfg, out = tmp_path / "c.json", tmp_path / "r.json"
        cfg.write_text(config_text(
            weight={"points": [{"position": [0, 0, 1], "order": -0.9}]},
            experiment={"kind": "test-function-sweep"}))
        assert main(["test-function-sweep", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert [c["passed"] for c in rep["checks"]] == [True] * 3
        assert abs(rep["records"][-1]["J"] - -5.775527231913668) < 1e-6

    def test_test_function_sweep_at_order_minus_0_99_reports(self, tmp_path):
        """alpha = -0.99 puts the bubble at r ~ eps^50: the run reports,
        whatever its checks read, with no traceback (an OverflowError
        escaped an adaptive quad's Python-float integrand)."""
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(
            weight={"points": [{"position": [0, 0, 1], "order": -0.99}]},
            experiment={"kind": "test-function-sweep"},
            output={"report": str(tmp_path / "r.json")}))
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sol_lab.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        run_ = subprocess.run(
            [sys.executable, "-m", "sol_lab.cli", "test-function-sweep",
             "--config", str(cfg)], env=env, capture_output=True, text=True,
            timeout=120)
        assert run_.returncode in (0, 1)
        assert "Traceback" not in run_.stderr
        records = json.loads((tmp_path / "r.json").read_text())["records"]
        assert all(np.isfinite(r["J"]) for r in records)

    def test_test_function_sweep_rejects_smooth_factor(self, tmp_path,
                                                       capsys):
        """The radial J of the test functions holds for K == 1 only, so a
        smooth factor is a config error (exit 2), found by validate."""
        text = config_text(
            weight={"points": [{"position": [0, 0, 1], "order": -0.5}],
                    "K": {"base": 2.0}},
            experiment={"kind": "test-function-sweep",
                        "epsilons": [1e-2, 1e-3]})
        _, errors = validate(text)
        assert [e for e in errors if e.startswith("weight.K:")] == errors
        assert errors and "K == 1" in errors[0]
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["test-function-sweep", "--config", str(cfg)]) == 2
        assert "weight.K" in capsys.readouterr().err

    def test_nonexistence_rejects_non_antipodal_pair(self):
        """Sharp-constant requests for tilted pairs carry no closed form."""
        from sol_lab.identity_checks import RegimeError, sphere_sharp_constant
        with pytest.raises(RegimeError):
            sphere_sharp_constant(-0.5, 0.5, antipodal=False)


# config faults that exit 2 naming their JSON path: (kind, the config's
# text, the error's start)
CONTRACT = {
    "n_theta-string": ("constants", config_text(
        grid={"n_theta": "65", "n_phi": 66}),
        "grid.n_theta: expected a number, got str"),
    "n_theta-1": ("constants", config_text(grid={"n_theta": 1, "n_phi": 66}),
                  "grid.n_theta: must be >= 2, got 1"),
    "points-number": ("constants", config_text(weight={"points": 3}),
                      "weight.points: expected a list"),
    "grid-list": ("constants", config_text(grid=[]),
                  "grid: expected an object"),
    "position-2-vector": ("constants", config_text(**_point([0, 1])),
                          "weight.points[0].position: expected a 3-vector"),
    "position-zero": ("constants", config_text(**_point([0, 0, 0])),
                      "weight.points[0].position: zero vector"),
    "harmonic-m-above-l": ("constants", config_text(weight={
        "points": [], "K": {"harmonics": [{"l": 1, "m": 2, "coeff": 0.1}]}}),
        "weight.K.harmonics[0]: |m| must not exceed l"),
    "top-level-list": ("constants", "[]", "top level: expected a JSON object"),
    "schema-version-2": ("constants", config_text(schema_version=2),
                         "schema_version: expected 1, got 2"),
    "schema-version-string": ("constants", config_text(schema_version="1"),
                              "schema_version: expected 1, got '1'"),
    # True and 1.0 equal 1 in Python, but neither is the integer 1
    "schema-version-true": ("constants", config_text(schema_version=True),
                            "schema_version: expected 1, got True"),
    "schema-version-float": ("constants", config_text(schema_version=1.0),
                             "schema_version: expected 1, got 1.0"),
    # output paths are strings: a list raised a TypeError after the run,
    # and a number was taken for a file descriptor and written into
    "report-list": ("constants", config_text(output={"report": ["r.json"]}),
                    "output.report: expected a file path in a directory "
                    "that exists, got ['r.json']"),
    "report-number": ("constants", config_text(output={"report": 2}),
                      "output.report: expected a file path in a directory "
                      "that exists, got 2"),
    "traces-number": ("constants", config_text(output={"traces": 1}),
                      "output.traces: expected a file path in a directory "
                      "that exists, got 1"),
    "experiment-number": ("constants", config_text(experiment=3),
                          "experiment: expected an object"),
    # profile collapse is a check of the sweep, not a kind of its own
    "profile-collapse-kind": ("sweep", config_text(
        experiment={"kind": "profile-collapse"}),
        f"experiment.kind: expected one of {', '.join(KINDS)}; "
        "got 'profile-collapse'"),
    "kw-check-no-point": ("kw-check", config_text(
        weight={"points": []}, experiment={"kind": "kw-check"}),
        "weight.points: kw-check: the axis identity needs"),
}


# the weights every kind runs on at 17 x 34 in ``test_no_exception_escapes``:
# no point (Onofri's sphere), a constant K, an order whose blow-up value
# is 0 and one near -1, a positive order on the axis and off it, the two
# antipodal pairs and a pair whose compact states have t_eps = 3.3e241 rad;
# verify-extremal runs on its own pair, with no weight
ESCAPE_WEIGHTS = {
    "no-point": {"points": []},
    "K-1": {"points": [], "K": {"base": 1}},
    "K-2": {"points": [], "K": {"base": 2}},
    "order-1e-300": _point([0, 0, 1], order=-1e-300)["weight"],
    "order-0.999": _point([0, 0, 1], order=-0.999)["weight"],
    "positive-on-axis": _point([0, 0, 1], order=0.5)["weight"],
    "positive-off-axis": _point([0.3, 0.5, 0.81], order=0.5)["weight"],
    "equal-pair": {"points": [{"position": [0, 0, 1], "order": -0.5},
                              {"position": [0, 0, -1], "order": -0.5}]},
    "mixed-pair": {"points": [{"position": [0, 0, 1], "order": -0.5},
                              {"position": [0, 0, -1], "order": 0.3}]},
    "pair-0.99-5": {"points": [{"position": [0, 0, 1], "order": -0.99},
                               {"position": [0, 0, -1], "order": 5}]},
}


def _scaled_experiments(weight):
    """The solving kinds at epsilons scaled to the weight's rho_bar, which
    the defaults exceed near order -1: minimize and kw-check at rho_bar / 3,
    sweep at rho_bar (1/2, 1/4, 1/8) from zero."""
    rho_bar = SingularWeight.from_orders(
        [(p["position"], p["order"]) for p in weight["points"]]).rho_bar
    return {
        "minimize": {"kind": "minimize", "epsilon": rho_bar / 3.0},
        "kw-check": {"kind": "kw-check", "epsilon": rho_bar / 3.0},
        "sweep": {"kind": "sweep", "init_epsilon": None,
                  "epsilons": [rho_bar / 2.0, rho_bar / 4.0, rho_bar / 8.0]},
    }


ESCAPE_CASES = {
    **{f"{kind}-{name}": (kind, weight, {"kind": kind}) for kind in KINDS
       for name, weight in (ESCAPE_WEIGHTS.items()
                            if kind != "verify-extremal"
                            else [("no-weight", {"points": []})])},
    **{f"{kind}-rho_bar-scaled-{name}": (kind, weight, experiment)
       for name, weight in ESCAPE_WEIGHTS.items()
       for kind, experiment in _scaled_experiments(weight).items()}}


@pytest.mark.parametrize("kind, weight, experiment", ESCAPE_CASES.values(),
                         ids=ESCAPE_CASES.keys())
def test_no_exception_escapes(kind, weight, experiment, tmp_path, capsys):
    """Every kind on every weight of ESCAPE_WEIGHTS, with its default
    experiment and, for the solving kinds, at epsilons scaled to rho_bar,
    returns an exit code of ``main`` and raises nothing (no floating-point
    warning either), and a run that reaches its checks (exit 0 or 1)
    writes its report."""
    cfg, out = tmp_path / "c.json", tmp_path / "r.json"
    cfg.write_text(config_text(grid={"n_theta": 17, "n_phi": 34},
                               weight=weight, experiment=experiment))
    code = main([kind, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1, 2, 3)
    assert out.exists() == (code in (0, 1))


@pytest.mark.parametrize("name", ESCAPE_WEIGHTS)
def test_scaled_sweeps_are_valid(name):
    """Each sweep of ``_scaled_experiments``, which starts from zero
    (``init_epsilon`` null), is a valid config, so that
    ``test_no_exception_escapes`` runs it to its checks, not to exit 2."""
    weight = ESCAPE_WEIGHTS[name]
    assert validate(config_text(
        grid={"n_theta": 17, "n_phi": 34}, weight=weight,
        experiment=_scaled_experiments(weight)["sweep"]))[1] == []


@pytest.mark.parametrize("weight", ["no-point", "order-1e-300"])
def test_sweep_without_blowup_fails_its_checks(weight, tmp_path, capsys):
    """With no point, or one of order -1e-300, the blow-up value is 0
    (inf J_8pi = 0 on the plain sphere, attained by the constants): the
    sweep's "extrapolated J vs blow-up value" reads inf and fails, and the
    run writes its report and exits 1 (a ZeroDivisionError traceback
    once)."""
    cfg, out = tmp_path / "c.json", tmp_path / "r.json"
    cfg.write_text(config_text(grid={"n_theta": 17, "n_phi": 34},
                               weight=ESCAPE_WEIGHTS[weight],
                               experiment={"kind": "sweep"}))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["summary"]["blowup_target"] == 0.0
    check, = (c for c in report["checks"]
              if c["name"] == "extrapolated J vs blow-up value")
    assert check["value"] == math.inf and not check["passed"]


class TestConfigContract:
    @pytest.mark.parametrize("kind, text, message", CONTRACT.values(),
                             ids=CONTRACT.keys())
    def test_exits_2_naming_the_path(self, kind, text, message, tmp_path,
                                     capsys):
        """Wrong types, out-of-range numbers, malformed vectors, a
        harmonic with |m| > l, a wrong top level, schema version or kind and a
        kw-check with no singular point each exit 2 with a config error
        that starts with its JSON path, and no traceback."""
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main([kind, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"config error: {message}" in err, err

    @pytest.mark.parametrize("key", ["report", "traces", "--out"])
    def test_output_in_a_missing_directory_exits_2_before_the_run(
            self, key, tmp_path, capsys, monkeypatch):
        """An output path (output.report, output.traces or --out) in a
        directory that does not exist is a config error, found before the
        run: it raised FileNotFoundError after the whole run, exit 1."""
        import sol_lab.cli as cli

        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("ran"))
        cfg, missing = tmp_path / "c.json", str(tmp_path / "no" / "r.json")
        flag = ["--out", missing] if key == "--out" else []
        cfg.write_text(config_text(output={} if flag else {key: missing}))
        assert main(["constants", "--config", str(cfg), *flag]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == (f"config error: {'' if flag else 'output.'}{key}: "
                       "expected a file path in a directory that exists, "
                       f"got {missing!r}\n")

    def test_config_seed_decides_the_draws(self, tmp_path, capsys):
        """The config's ``seed`` is the one seed: seed 1 run twice gives one
        set of gaps and seed 0 another; the CLI has no ``--seed``, so the
        flag is argparse's usage error (exit 2), with no traceback."""
        cfg, out = tmp_path / "c.json", tmp_path / "r.json"

        def gaps(seed):
            cfg.write_text(config_text(
                weight={"points": []}, grid={"n_theta": 17, "n_phi": 34},
                experiment={"kind": "inequality-sample", "samples": 3},
                seed=seed))
            assert main(["inequality-sample", "--config", str(cfg),
                         "--out", str(out)]) == 0
            return [r["gap"] for r in json.loads(out.read_text())["records"]
                    if "sample" in r]

        seeded = gaps(1)
        assert len(seeded) == 3
        assert seeded == gaps(1)
        assert seeded != gaps(0)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["inequality-sample", "--config", str(cfg), "--seed", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --seed 1" in err
        assert "Traceback" not in err

    def test_constants_positive_antipodal_pair_has_no_closed_form(
            self, tmp_path):
        """An antipodal pair of positive orders has no sharp closed form:
        the constants run passes and reports closed_form_C null, with the
        RegimeError's message as its note and no consistency check."""
        from sol_lab.identity_checks import RegimeError, sphere_sharp_constant
        with pytest.raises(RegimeError) as exc:
            sphere_sharp_constant(0.3, 0.5, antipodal=True)
        cfg, out = tmp_path / "c.json", tmp_path / "r.json"
        cfg.write_text(config_text(weight={"points": [
            {"position": [0, 0, 1], "order": 0.5},
            {"position": [0, 0, -1], "order": 0.3}]}))
        assert main(["constants", "--config", str(cfg), "--out",
                     str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["summary"]["closed_form_C"] is None
        assert report["summary"]["notes"] == str(exc.value)
        assert all(c["name"] != "closed-form consistency"
                   for c in report["checks"])


def fresh_interpreter(script, **env):
    """Stdout lines of ``script`` run in a new interpreter that imports
    sol_lab from this source tree, with ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sol_lab.__file__)))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout.splitlines()


# (kind, points, experiment) of each benchmark kind but the sweep
BENCHMARK_KINDS = [
    ("kw-check", [([0, 0, 1], -0.25), ([0, 0, -1], -0.1)], {"epsilon": 0.3}),
    ("inequality-sample", [([0, 0, 1], -0.5), ([0, 0, -1], 0.5)],
     {"samples": 3}),
    ("verify-extremal", [], {}),
]


def scipy_modules_after(kind, cfg):
    """The scipy modules loaded by one in-process ``kind`` run of ``cfg``
    (its exit code is not checked)."""
    return fresh_interpreter(
        "import sys\n"
        "import sol_lab.cli as cli\n"
        f"code = cli.main([{kind!r}, '--config', {str(cfg)!r}])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )[-1]


class TestThreads:
    def test_threads_flag_overrides_environment(self, tmp_path):
        """numpy stays unloaded until main() has set the BLAS variables."""
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text())
        out = fresh_interpreter(
            "import os, sys\n"
            "import sol_lab.cli as cli\n"
            "print('numpy' in sys.modules)\n"
            f"code = cli.main(['constants', '--config', {str(cfg)!r}, "
            "'--threads', '3'])\n"
            "print(code, os.environ['OPENBLAS_NUM_THREADS'])\n",
            OPENBLAS_NUM_THREADS="1")
        assert out[0] == "False"
        assert out[-1] == "0 3"

    def test_threads_sets_the_blas_variables(self, tmp_path, monkeypatch):
        """--threads 2 exports 2 to each BLAS variable, in process."""
        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for name in names:  # monkeypatch restores each after the test
            monkeypatch.setenv(name, "1")
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text())
        assert main(["constants", "--config", str(cfg), "--threads", "2"]) == 0
        assert [os.environ[name] for name in names] == ["2", "2", "2"]

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_2(self, threads, tmp_path, capsys):
        """--threads counts BLAS threads: below 1 is argparse's usage
        error (exit 2), where it ran and exported the count."""
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text())
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--config", str(cfg), "--threads", threads])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --threads: must be >= 1, got {threads}" in err

    def test_sweep_leaves_scipy_optimize_unloaded(self, tmp_path):
        """A sweep run, the blow-up fit included, imports no scipy
        module: scipy.optimize alone costs about 0.4 s cold.  (This coarse
        grid fails the blow-up check, exit code 1, but reports.)"""
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(
            grid={"n_theta": 17, "n_phi": 34},
            experiment={"kind": "sweep", "epsilons": [0.5, 0.3, 0.2, 0.1]},
            output={"report": str(tmp_path / "r.json")}))
        assert scipy_modules_after("sweep", cfg) == "[]"
        report = json.loads((tmp_path / "r.json").read_text())
        assert np.isfinite(report["summary"]["extrapolated_J"])

    def test_test_function_sweep_leaves_scipy_unloaded(self, tmp_path):
        """The radial J integrates on numpy Gauss-Jacobi panels
        (``mt_functional.radial_rule``): a test-function sweep imports no
        scipy module, where scipy.integrate took about 0.6 s cold."""
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(
            experiment={"kind": "test-function-sweep"},
            output={"report": str(tmp_path / "r.json")}))
        assert scipy_modules_after("test-function-sweep", cfg) == "[]"
        assert json.loads((tmp_path / "r.json").read_text())["passed"]

    @pytest.mark.parametrize("kind, points, experiment", BENCHMARK_KINDS,
                             ids=[kind for kind, *_ in BENCHMARK_KINDS])
    def test_benchmark_kinds_leave_scipy_unloaded(self, tmp_path, kind,
                                                  points, experiment):
        """The benchmark's other kinds import no scipy module either:
        cold, scipy.integrate takes about 0.6 s, scipy.optimize 0.4 s and
        scipy.linalg 0.2 s, more than a seed-0 ``solve`` op."""
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(
            weight={"points": [{"position": p, "order": a}
                               for p, a in points]},
            experiment={"kind": kind, **experiment},
            output={"report": str(tmp_path / "r.json")}))
        assert scipy_modules_after(kind, cfg) == "[]"
        assert json.loads((tmp_path / "r.json").read_text())["summary"]

    def test_one_op_of_every_benchmark_kind_leaves_scipy_unloaded(
            self, tmp_path):
        """One kw-check, sweep, inequality-sample and verify-extremal op
        on small configs, one after another in one interpreter, as a
        benchmark process runs its ops, leave scipy out of sys.modules:
        importing scipy.linalg alone takes 0.2-0.3 s, more than a seed-0
        ``solve`` op, so a cold op that imported it would pay that.  (The
        coarse sweep fails its blow-up check, exit code 1, but reports.)"""
        kinds = [*BENCHMARK_KINDS, (
            "sweep", [([0, 0, 1], -0.5)],
            {"epsilons": [0.5, 0.3, 0.2, 0.1]})]
        script = ["import sys", "import sol_lab.cli as cli"]
        for kind, points, experiment in kinds:
            cfg, out = tmp_path / f"{kind}.json", tmp_path / f"{kind}.out"
            cfg.write_text(config_text(
                grid={"n_theta": 17, "n_phi": 34},
                weight={"points": [{"position": p, "order": a}
                                   for p, a in points]},
                experiment={"kind": kind, **experiment},
                output={"report": str(out)}))
            script.append(f"cli.main([{kind!r}, '--config', {str(cfg)!r}])")
        script.append("print('scipy' in sys.modules)")
        assert fresh_interpreter("\n".join(script))[-1] == "False"
        for kind, *_ in kinds:
            assert json.loads((tmp_path / f"{kind}.out").read_text())[
                "summary"]


class TestChecksCanFail:
    """Checks fed, through their CLI runners, an input on which each must
    fail and one on which each passes.  The sweep checks read a stubbed
    ``epsilon_sweep``: its rows, whose J the report extrapolates, are the
    runners' only input besides the closed-form target.  The test-function
    checks read a stubbed ``concentration_sweep`` beside their closed
    forms; the constants, extremal, conformal-family and axis-identity
    checks read a stubbed ``blowup_infimum``, ``eval_J``, ``troyanov_gap``
    and ``kazdan_warner_residual``."""

    @staticmethod
    def run_checks(**overrides):
        """{name: check} of a run of ``config_text(**overrides)``."""
        config, errors = validate(config_text(**overrides))
        assert not errors
        return {c["name"]: c for c in run(config)["checks"]}

    @pytest.mark.parametrize("points, name, tol", [
        ([], "onofri constant", 1e-9),
        ([{"position": [0, 0, 1], "order": -0.5}],
         "closed-form consistency", 1e-12),
    ])
    def test_constants_checks_fail(self, points, name, tol, monkeypatch):
        """A blow-up value whose C lies 10 tol from its closed form (0 for
        the Onofri weight, log 2 at order -1/2) fails the constants run's
        one check; the value itself passes."""
        from sol_lab import identity_checks

        real = identity_checks.blowup_infimum
        for shift, passed in ((0.0, True), (10.0 * tol, False)):
            def blowup_infimum(w, grid=None, _shift=shift):
                rep = real(w, grid)
                rep.C += _shift
                return rep

            monkeypatch.setattr(identity_checks, "blowup_infimum",
                                blowup_infimum)
            checks = self.run_checks(weight={"points": points})
            assert list(checks) == [name]
            assert checks[name]["passed"] == passed
            assert checks[name]["value"] == pytest.approx(shift, abs=tol)

    @pytest.mark.parametrize("rel, shift, fails", [
        (0.0, 0.0, None),
        (0.01, 0.0, "extremal value"),
        (0.0, 2e-3, "lambda-c invariance"),
    ])
    def test_verify_extremal_checks_fail(self, rel, shift, fails,
                                         monkeypatch):
        """A stubbed ``eval_J`` that reads J(u_{1,0}) 1 % from the closed
        form (tolerance 0.5 %) fails "extremal value" alone, and one that
        reads J(u_{lambda,c}) 2e-3 from J(u_{1,0}) (tolerance 1e-3) fails
        "lambda-c invariance" alone; the closed form twice passes both."""
        from sol_lab import mt_functional
        from sol_lab.identity_checks import sphere_sharp_constant

        exact = sphere_sharp_constant(-0.5, -0.5, antipodal=True).inf_J
        values = iter((exact * (1.0 + rel), exact * (1.0 + rel) + shift))
        monkeypatch.setattr(mt_functional, "eval_J",
                            lambda coeffs, grid, w, rho: next(values))
        checks = self.run_checks(weight={"points": []},
                                 experiment={"kind": "verify-extremal"})
        assert sorted(checks) == ["extremal value", "lambda-c invariance"]
        assert [n for n, c in checks.items() if not c["passed"]] == \
            ([fails] if fails else [])
        assert checks["extremal value"]["value"] == pytest.approx(
            rel, abs=1e-15)
        assert checks["lambda-c invariance"]["value"] == pytest.approx(
            shift, abs=1e-12)

    def test_conformal_family_check_fails(self, monkeypatch):
        """With no singular point, a ``troyanov_gap`` stubbed 1e-4 above
        its own value (tolerance 1e-5) fails "conformal family equality"
        and leaves "inequality gap floor" passing; the real gap passes
        both."""
        from sol_lab import mt_functional

        real = mt_functional.troyanov_gap
        for offset, passed in ((0.0, True), (1e-4, False)):
            monkeypatch.setattr(
                mt_functional, "troyanov_gap",
                lambda c, grid, w, C, _o=offset: real(c, grid, w, C) + _o)
            checks = self.run_checks(
                weight={"points": []},
                experiment={"kind": "inequality-sample", "samples": 2})
            assert checks["inequality gap floor"]["passed"]
            family = checks["conformal family equality"]
            assert family["passed"] == passed
            assert (family["value"] <= 1e-5) == passed

    @pytest.mark.xfail(
        strict=True,
        reason="FOUND: a sweep's verdict depends on the overall scale of K. "
               "Under K -> cK, J_rho only shifts by -rho log c and the "
               "minimizers are the same, yet at 33 x 66, order -1/2, K = 1 "
               "fails 'extrapolated J vs blow-up value' (10.0 %) and K = 1e3 "
               "passes it (0.91 %): the check divides by |target|, and "
               "lambda_eps, t_eps and the 10 t_eps cap move with log c")
    def test_sweep_verdict_ignores_the_scale_of_K(self):
        """A sweep on K = 1 and on K = 1e3, the default schedule at order
        -1/2 on the north pole, passes and fails the same checks: J_inf -
        target reads 0.87387 on both."""
        verdicts = [[(name, c["passed"]) for name, c in self.run_checks(
            weight={"points": [{"position": [0, 0, 1], "order": -0.5}],
                    "K": {"base": base, "harmonics": []}},
            experiment={"kind": "sweep"}).items()] for base in (1.0, 1e3)]
        assert verdicts[0] == verdicts[1]

    def test_axis_identity_check_fails(self, monkeypatch):
        """A stubbed ``kazdan_warner_residual`` whose residual is 1e-2
        (tolerance 1e-3) on a small solve fails "axis identity residual",
        and one of 1e-4 passes; the summary is the report's fields, its
        orders a list, and the solve's rho."""
        from sol_lab import identity_checks

        for residual, passed in ((1e-4, True), (-1e-2, False)):
            rep = identity_checks.KazdanWarnerReport(
                moment=0.25, poho_residual=residual, prefactor=0.5,
                orders=(-0.25, -0.1))
            monkeypatch.setattr(identity_checks, "kazdan_warner_residual",
                                lambda coeffs, grid, rho, w, _r=rep: _r)
            config, errors = validate(config_text(
                weight={"points": [{"position": [0, 0, 1], "order": -0.25},
                                   {"position": [0, 0, -1], "order": -0.1}]},
                experiment={"kind": "kw-check"}))
            assert not errors
            report = run(config)
            check, = report["checks"]
            assert check["name"] == "axis identity residual"
            assert check["passed"] == passed
            assert check["value"] == abs(residual)
            assert report["summary"] == {
                "moment": 0.25, "poho_residual": residual, "prefactor": 0.5,
                "orders": [-0.25, -0.1],
                "rho": pytest.approx(6.0 * np.pi - 0.3, abs=1e-12)}

    def test_axis_identity_check_fails_on_a_real_field(self):
        """With no stub: the mixed pair (-1/4, -1/10) at rho_bar - 0.3 on
        129 x 258 passes the kw-check run's RESIDUAL_TOL (2.7e-5 on the
        converged solve), and the same identity on u = 0 reads 0.134 and
        would fail it."""
        from sol_lab.cli import RESIDUAL_TOL
        from sol_lab.identity_checks import kazdan_warner_residual
        from sol_lab.singular_geometry import SingularWeight
        from sol_lab.sphere_grid import SHCoefficients, build_grid

        config, errors = validate(config_text(
            grid={"n_theta": 129, "n_phi": 258},
            weight={"points": [{"position": [0, 0, 1], "order": -0.25},
                               {"position": [0, 0, -1], "order": -0.1}]},
            experiment={"kind": "kw-check"}))
        assert not errors
        report = run(config)
        check, = report["checks"]
        assert check["passed"] and check["value"] < 1e-4
        grid = build_grid(129, 258)
        w = SingularWeight.from_orders([((0.0, 0.0, 1.0), -0.25),
                                        ((0.0, 0.0, -1.0), -0.1)])
        rep = kazdan_warner_residual(SHCoefficients(np.zeros((129, 1))),
                                     grid, w, report["summary"]["rho"])
        assert abs(rep.poho_residual) == pytest.approx(0.134, abs=1e-3)
        assert abs(rep.poho_residual) > RESIDUAL_TOL == check["tolerance"]

    def test_solve_stopped_short_exits_3(self, tmp_path, capsys):
        """A run's solves have converged or the run exits 3, so a report
        carries no "converged" check: ``minimize``, ``kw-check`` and
        ``sweep`` cut at one Newton step on 33 x 66 print one numerical
        failure that names the step and write no report, and a
        ``minimize`` capped at exactly the steps it takes exits 0."""
        def main_on(experiment):
            cfg, out = tmp_path / "c.json", tmp_path / "r.json"
            out.unlink(missing_ok=True)
            cfg.write_text(config_text(experiment=experiment))
            code = main([experiment["kind"], "--config", str(cfg),
                         "--out", str(out)])
            return code, capsys.readouterr().err, out

        for kind in ("minimize", "kw-check", "sweep"):
            code, err, out = main_on({"kind": kind, "max_iterations": 1})
            assert code == 3, kind
            assert err.startswith("numerical failure: ") and "after 1 " in err
            assert "Traceback" not in err and not out.exists()
        code, _, out = main_on({"kind": "minimize"})
        summary = json.loads(out.read_text())["summary"]
        assert code == 0 and "converged" not in summary
        code, _, out = main_on({"kind": "minimize",
                                "max_iterations": summary["iterations"]})
        assert code == 0
        assert json.loads(out.read_text())["summary"] == summary

    @pytest.mark.parametrize("kind", ["minimize", "sweep"])
    def test_stalled_solve_says_it_stalled(self, kind, tmp_path, capsys,
                                           monkeypatch):
        """Every candidate J stubbed to inf: the first line search uses up
        its BACKTRACK_MAX halvings, and the run exits 3 with a numerical
        failure that names the stall, not the iteration cap, and writes no
        report."""
        from sol_lab import subcritical_solver

        real, calls = subcritical_solver.eval_J_coeffs, []

        def eval_J_coeffs(*args):  # the start's J, then no candidate's
            calls.append(args)
            return real(*args) if len(calls) == 1 else np.inf

        monkeypatch.setattr(subcritical_solver, "eval_J_coeffs",
                            eval_J_coeffs)
        cfg, out = tmp_path / "c.json", tmp_path / "r.json"
        cfg.write_text(config_text(experiment={"kind": kind}))
        code = main([kind, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3 and not out.exists()
        assert len(calls) == 1 + subcritical_solver.BACKTRACK_MAX
        assert err.startswith("numerical failure: ")
        assert "after 0 iterations" in err
        assert "the line search stalled: 40 step halvings did not lower J" \
            in err

    @staticmethod
    def checks(monkeypatch, kind, rows, rel_J):
        """{name: check} of a ``kind`` run (the default weight, order -1/2
        at the north pole, on 33 x 66) whose sweep has these rows and an
        extrapolated J at relative distance ``rel_J`` from the target."""
        from sol_lab import subcritical_solver
        from sol_lab.identity_checks import blowup_infimum
        from sol_lab.singular_geometry import SingularWeight
        from sol_lab.sphere_grid import build_grid

        w = SingularWeight.from_orders([((0.0, 0.0, 1.0), -0.5)])
        target = blowup_infimum(w, build_grid(33, 66)).inf_J

        # entries as read: rows, whose constant J the limit model
        # extrapolates to itself
        J = target * (1.0 + rel_J)

        def epsilon_sweep(*args, **kwargs):
            return subcritical_solver.SweepReport(
                [SimpleNamespace(row=lambda r=dict(r, epsilon=0.5**i, J=J): r)
                 for i, r in enumerate(rows)])

        monkeypatch.setattr(subcritical_solver, "epsilon_sweep",
                            epsilon_sweep)
        config, errors = validate(config_text(experiment={"kind": kind}))
        assert not errors
        report = run(config)
        assert report["summary"]["blowup_target"] == target
        return {c["name"]: c for c in report["checks"]}

    @staticmethod
    def rows(cap_mass_fraction, profile_errors):
        rho_bar = 4.0 * np.pi
        return [{"lambda": 1.0 + i, "mean_decay": 0.3 - 0.1 * i,
                 "cap_mass_10t": rho_bar * (cap_mass_fraction if i == 2
                                            else 1.0),
                 "profile_error": e} for i, e in enumerate(profile_errors)]

    def test_sweep_checks_fail_on_a_failing_sweep(self, monkeypatch):
        """An extrapolated J 6 % off the blow-up value (tolerance 5 %) and
        a last cap holding 80 % of rho_bar (tolerance 15 %) fail; 4.4 %
        (the seed-0 sweep's distance) and the whole mass pass."""
        passing = self.checks(monkeypatch, "sweep",
                              self.rows(1.0, (0.3, 0.2, 0.1)), 0.044)
        failing = self.checks(monkeypatch, "sweep",
                              self.rows(0.8, (0.3, 0.2, 0.1)), 0.06)
        for name in ("extrapolated J vs blow-up value",
                     "cap mass fraction at 10 t_eps"):
            assert passing[name]["passed"] and not failing[name]["passed"]
        assert failing["extrapolated J vs blow-up value"]["value"] == \
            pytest.approx(0.06, rel=1e-12)
        assert failing["cap mass fraction at 10 t_eps"]["value"] == \
            pytest.approx(0.2, rel=1e-12)

    def test_profile_collapse_fails_on_a_growing_profile_error(
            self, monkeypatch):
        """A profile error that grows by 0.1 between entries (allowance
        0.02) fails the sweep's "profile collapse monotone"; one that falls
        passes.  Compact entries have no profile (NaN) and are skipped, so
        a NaN before two falling errors passes, and with fewer than two
        errors left there is no check."""
        name = "profile collapse monotone"
        for errors, value in (((0.3, 0.2, 0.1), -0.1),
                              ((0.1, 0.2, 0.3), 0.1),
                              ((np.nan, 0.69, 0.27), -0.42)):
            check = self.checks(monkeypatch, "sweep",
                                self.rows(1.0, errors), 0.0)[name]
            assert check["passed"] == (value < 0.0)
            assert check["tolerance"] == 0.02
            assert check["value"] == pytest.approx(value)
        checks = self.checks(monkeypatch, "sweep",
                             self.rows(1.0, (np.nan, np.nan, 0.1)), 0.0)
        assert len(checks) == 4 and name not in checks

    def test_sweep_monotonicity_checks_fail(self, monkeypatch):
        """A lambda that falls between entries fails "lambda strictly
        increasing", and a |mean_decay| that grows fails "t^2 mean
        decreasing toward 0"; each passes the other's rows and both pass
        rows that rise in lambda and fall in |mean_decay|."""
        lam = "lambda strictly increasing"
        decay = "t^2 mean decreasing toward 0"
        rows = self.rows(1.0, (0.3, 0.2, 0.1))
        falling = [dict(r, **{"lambda": 3.0 - i}) for i, r in enumerate(rows)]
        growing = [dict(r, mean_decay=-0.1 - 0.1 * i)
                   for i, r in enumerate(rows)]
        passing = self.checks(monkeypatch, "sweep", rows, 0.0)
        assert passing[lam]["passed"] and passing[decay]["passed"]
        assert passing[lam]["value"] == 1.0
        assert passing[decay]["value"] == pytest.approx(-0.1, rel=1e-12)
        failing = self.checks(monkeypatch, "sweep", falling, 0.0)
        assert not failing[lam]["passed"] and failing[decay]["passed"]
        assert failing[lam]["value"] == -1.0
        failing = self.checks(monkeypatch, "sweep", growing, 0.0)
        assert failing[lam]["passed"] and not failing[decay]["passed"]
        assert failing[decay]["value"] == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("gaps, exp_rel, fails", [
        ((0.09, 0.07, 0.05), 0.01, None),
        ((0.05, 0.07, 0.06), 0.01, "upper bound decreasing"),
        ((0.09, 0.05, -0.01), 0.01, "upper bound above blow-up value"),
        ((0.09, 0.07, 0.05), 0.1, "exponential integral limit"),
    ])
    def test_test_function_checks_fail(self, gaps, exp_rel, fails,
                                       monkeypatch):
        """A stubbed ``concentration_sweep`` whose J lies ``gaps`` (relative)
        above the blow-up value at each epsilon and whose last exponential
        integral lies ``exp_rel`` from its limit: a J that rises between
        epsilons, a last J below the blow-up value and an integral 10 %
        from its limit (tolerance 5 %) each fail their own check alone."""
        from sol_lab import closed_forms
        from sol_lab.identity_checks import blowup_infimum
        from sol_lab.singular_geometry import SingularWeight

        w = SingularWeight.from_orders([((0.0, 0.0, 1.0), -0.5)])
        target = blowup_infimum(w).inf_J
        limit = np.pi * w.bubble_constant(np.array([0.0, 0.0, 1.0])) / 0.5

        def concentration_sweep(weight, epsilons, point):
            return [{"epsilon": eps, "J": target + abs(target) * gap,
                     "exp_integral": limit * (1.0 + exp_rel)}
                    for eps, gap in zip(epsilons, gaps)]

        monkeypatch.setattr(closed_forms, "concentration_sweep",
                            concentration_sweep)
        config, errors = validate(config_text(
            experiment={"kind": "test-function-sweep"}))
        assert not errors and len(config["experiment"]["epsilons"]) == 3
        report = run(config)
        checks = {c["name"]: c for c in report["checks"]}
        assert sorted(checks) == ["exponential integral limit",
                                  "upper bound above blow-up value",
                                  "upper bound decreasing"]
        assert [name for name, c in checks.items() if not c["passed"]] == \
            ([fails] if fails else [])
        assert checks["upper bound decreasing"]["value"] == pytest.approx(
            abs(target) * max(b - a for a, b in zip(gaps, gaps[1:])),
            rel=1e-9)
        assert checks["upper bound above blow-up value"]["value"] == \
            pytest.approx(gaps[-1], rel=1e-9)
        assert checks["exponential integral limit"]["value"] == \
            pytest.approx(exp_rel, rel=1e-9)

    def test_inequality_gap_floor_fails_below_the_sharp_constant(self):
        """On 33 x 66, orders -1/2 north and 0.3 south, 3 seed-0 samples:
        at the sharp constant (0.9931) the worst gap reads 2.5554 and the
        check passes; at that constant less 3 it reads -0.4446 and fails."""
        from sol_lab.identity_checks import sphere_sharp_constant

        sharp = sphere_sharp_constant(-0.5, 0.3, antipodal=True).C
        assert sharp == pytest.approx(0.9931471805599452, rel=1e-12)
        weight = {"points": [{"position": [0, 0, 1], "order": -0.5},
                             {"position": [0, 0, -1], "order": 0.3}]}
        for constant, worst, passed in ((sharp, 2.555383279227758, True),
                                        (sharp - 3.0, -0.444616720772242,
                                         False)):
            config, errors = validate(config_text(
                weight=weight, experiment={"kind": "inequality-sample",
                                           "samples": 3,
                                           "constant": constant}))
            assert not errors
            report = run(config)
            check, = report["checks"]
            assert check["name"] == "inequality gap floor"
            assert check["value"] == report["summary"]["worst_gap"]
            assert check["value"] == pytest.approx(worst, abs=1e-9)
            assert check["passed"] == passed == report["passed"]

    @pytest.mark.xfail(
        strict=True,
        reason="FOUND: the sweep check 'cap mass fraction at 10 t_eps' "
               "cannot fail when 10 t_eps >= pi - 0.2: every seed-0 sweep "
               "entry has t_eps >= 0.49, so diagnose reports the "
               "whole-sphere mass rho and the check reads eps / rho_bar")
    def test_cap_mass_check_can_fail_on_the_seed0_sweep(self):
        """perfbench's seed-0 sweep config (L = 128, order -1/2 at the
        north pole, init_epsilon 0.011377687406100193) measures the cap
        mass in a cap smaller than the sphere at some entry, so that a
        state whose mass is not concentrated there fails the check."""
        config, errors = validate(config_text(
            grid={"n_theta": 129, "n_phi": 258},
            experiment={"kind": "sweep", "epsilons": [0.5, 0.2, 0.1, 0.05],
                        "init_epsilon": 0.011377687406100193}))
        assert not errors
        report = run(config)
        assert report["passed"]
        assert any(10.0 * r["t_eps"] < np.pi - 0.2
                   for r in report["records"])


def tracer_layers() -> dict:
    """``LAYERS`` of ``perfbench/tracer.py``, read from its source: the
    tracer is neither imported nor run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    value, = (node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
    return ast.literal_eval(value)


class TestTracerNames:
    def test_every_layer_resolves(self):
        """Every (module, attribute path) that the tracer wraps is where it
        looks it up, in its owner's ``__dict__``: a renamed layer fails
        here, not only in the traced benchmark run."""
        layers = tracer_layers()
        assert "mt_functional.integrator_build" in layers
        for targets in layers.values():
            for module, path in targets:
                owner = importlib.import_module(f"sol_lab.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                assert attr in vars(owner), f"{module}.{path}"

    def test_integrator_blocks(self):
        """The tracer counts composite nodes from an integrator's
        ``blocks``: the one-transform tuple."""
        from sol_lab.mt_functional import SingularIntegrator, integrator_for
        from sol_lab.singular_geometry import SingularWeight
        from sol_lab.sphere_grid import build_grid
        assert isinstance(vars(SingularIntegrator)["blocks"], property)
        integ = integrator_for(build_grid(17, 34), SingularWeight.from_orders(
            [((0.0, 0.0, 1.0), -0.5)]))
        assert integ.blocks == (integ.transform,)


class TestBenchTool:
    def test_reads_no_private_name(self):
        """``tools/bench.py`` imports no ``_``-prefixed name of ``sol_lab``
        and reads no ``_``-prefixed attribute (dunders aside), so that it
        times one tree's ``src/`` as well as another's."""
        path = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def private(name):
            return name.startswith("_") and not (
                name.startswith("__") and name.endswith("__"))

        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").split(".")[0] == "sol_lab":
                names = node.module.split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [part for a in node.names
                         if a.name.split(".")[0] == "sol_lab"
                         for part in a.name.split(".")]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{node.lineno} {n}" for n in names if private(n)]
        assert found == []
