"""Config validation, experiment dispatch, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sol_lab
from sol_lab.cli import main, run, serialize, validate


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
            weight={"points": [{"position": [1, 0, 0], "order": -0.5}]},
            experiment={"kind": "kw-check"})
        _, errors = validate(text)
        assert any("antipodal" in e for e in errors)

    def test_unknown_kind(self):
        text = config_text(experiment={"kind": "explode"})
        _, errors = validate(text)
        assert any("experiment.kind" in e for e in errors)

    def test_epsilons_must_decrease(self):
        text = config_text(experiment={"kind": "sweep",
                                       "epsilons": [0.1, 0.2]})
        _, errors = validate(text)
        assert any("decreasing" in e for e in errors)

    def test_round_trip(self):
        config, errors = validate(config_text())
        assert not errors
        config2, errors2 = validate(serialize(config))
        assert not errors2
        assert config2 == config


class TestRun:
    def test_constants_report(self):
        config, _ = validate(config_text())
        report = run(config)
        assert report["passed"]
        assert report["summary"]["C"] == pytest.approx(np.log(2.0),
                                                       abs=1e-12)
        assert report["summary"]["inf_J"] == pytest.approx(
            -4.0 * np.pi * np.log(2.0), rel=1e-12)

    def test_determinism(self):
        config, _ = validate(config_text(
            experiment={"kind": "inequality-sample", "samples": 3},
            weight={"points": []},
            grid={"n_theta": 17, "n_phi": 34},
        ))
        r1, r2 = run(config), run(config)
        r1.pop("wall_clock_s"), r2.pop("wall_clock_s")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_samples_share_transforms(self, monkeypatch, transform_counts):
        """20 samples in stacks of K = 8 make ceil(20 / 8) = 3 syntheses
        per integrator block (and per grid draw) instead of 20, analyse
        nothing (the draws are coefficients), and give the gaps of a
        per-sample troyanov_gap loop."""
        from sol_lab import sphere_grid
        from sol_lab.mt_functional import integrator_for, troyanov_gap
        from sol_lab.singular_geometry import SingularWeight

        grid = {"n_theta": 33, "n_phi": 66}
        monkeypatch.setattr(sphere_grid, "BATCH_BUDGET", 8 * 8 * 33 * 66)
        orders = [([0, 0, 1], -0.5), ([0, 0, -1], 0.3)]
        config, _ = validate(config_text(
            experiment={"kind": "inequality-sample", "samples": 20},
            weight={"points": [{"position": p, "order": a}
                               for p, a in orders]},
            grid=grid, seed=5))
        report = run(config)
        g = sphere_grid.build_grid(grid["n_theta"], grid["n_phi"])
        assert sphere_grid.batch_size(g) == 8
        w = SingularWeight.from_orders(orders)
        assert len(integrator_for(g, w).blocks) == 1
        assert transform_counts["synthesis"] == 3 * 2
        assert transform_counts["analysis"] == 0
        rng = np.random.default_rng(5)
        want = [troyanov_gap(sphere_grid.random_band_limited(g, rng), w, 0.0)
                for _ in range(20)]
        got = [r["gap"] for r in report["records"]]
        assert [r["sample"] for r in report["records"]] == list(range(20))
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12

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
    "gap_floor-nan": ("inequality-sample", {"samples": 2, "gap_floor": NAN},
                      "experiment.gap_floor: expected a finite number"),
    "max_iterations-fraction": ("minimize", {"max_iterations": 2.5},
                                "experiment.max_iterations: expected an "
                                "integer"),
    "damping-zero": ("minimize", {"damping": 0.0},
                     "experiment.damping: must be > 0.0"),
    "epsilon-above-rho_bar": ("minimize", {"epsilon": 20.0},
                              "experiment.epsilon: must be < 12.5664"),
    "epsilons-zero": ("sweep", {"epsilons": [0.5, 0.0]},
                      "experiment.epsilons[1]: must be > 0.0"),
    "residual_tol-nan": ("kw-check", {"epsilon": 0.5, "residual_tol": NAN},
                         "experiment.residual_tol: expected a finite number"),
    "lambda-negative": ("verify-extremal", {"lambda": -1.0},
                        "experiment.lambda: must be > 0.0"),
    "test-function-epsilons": ("test-function-sweep",
                               {"epsilons": [1e-2, 2.0]},
                               "experiment.epsilons[1]: must be < 1"),
}

# schedules compare consecutive entries: fewer than two must exit 2
BAD_NUMBERS.update({
    f"epsilons-{n}-{kind}": (kind, {"epsilons": [0.1][:n]},
                             f"experiment.epsilons: expected at least 2 "
                             f"values, got {n}")
    for kind in ("sweep", "profile-collapse", "test-function-sweep")
    for n in (0, 1)})


# strings and flags the runners read, out of their sets; each must exit 2
BAD_CHOICES = {
    f"init-{kind}": (kind, {"init": "test_function"},
                     "experiment.init: expected one of zero, test-function; "
                     "got 'test_function'")
    for kind in ("minimize", "sweep", "kw-check", "profile-collapse")
}
BAD_CHOICES["use_extremal-string"] = (
    "kw-check", {"use_extremal": "no"},
    "experiment.use_extremal: expected true or false, got 'no'")


class TestExperimentNumbers:
    @pytest.mark.parametrize("kind, fields, message", BAD_NUMBERS.values(),
                             ids=BAD_NUMBERS.keys())
    def test_main_exits_2(self, kind, fields, message, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(experiment={"kind": kind, **fields}))
        assert main([kind, "--config", str(cfg)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, fields, message", BAD_CHOICES.values(),
                             ids=BAD_CHOICES.keys())
    def test_bad_choice_exits_2(self, kind, fields, message, tmp_path,
                                capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(
            weight={"points": [{"position": [0, 0, 1], "order": -0.5},
                               {"position": [0, 0, -1], "order": -0.5}]},
            experiment={"kind": kind, **fields}))
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

    def test_tolerance_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(
            experiment={"kind": "constants", "consistency_tol": 1e-30}))
        assert main(["constants", "--config", str(cfg)]) == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(
            grid={"n_theta": 33, "n_phi": 66},
            experiment={"kind": "minimize", "epsilon": 0.2,
                        "max_iterations": 2}))
        assert main(["minimize", "--config", str(cfg)]) == 3

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
                                          "lambda"}
        # 17 significant digits on float columns
        j_field = first.split(",")[header.split(",").index("J")]
        assert len(j_field.replace("-", "").replace(".", "")
                   .replace("e", "").lstrip("0")) >= 15

    def test_verify_extremal_kind(self, tmp_path):
        cfg = tmp_path / "c.json"
        out = tmp_path / "r.json"
        cfg.write_text(config_text(
            grid={"n_theta": 97, "n_phi": 194},
            weight={"points": []},
            experiment={"kind": "verify-extremal", "alpha": -0.5,
                        "rel_tol": 0.01, "invariance_tol": 5e-3}))
        assert main(["verify-extremal", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["summary"]["closed_form"] == pytest.approx(
            4 * np.pi * (0.5 - np.log(2.0)))

    def test_kw_check_extremal_kind(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(
            grid={"n_theta": 65, "n_phi": 130},
            weight={"points": [{"position": [0, 0, 1], "order": -0.5},
                               {"position": [0, 0, -1], "order": -0.5}]},
            experiment={"kind": "kw-check", "use_extremal": True,
                        "alpha": -0.5}))
        assert main(["kw-check", "--config", str(cfg)]) == 0

    def test_negative_smooth_factor_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text(
            weight={"points": [],
                    "K": {"base": 0.1,
                          "harmonics": [{"l": 1, "m": 0, "coeff": 3.0}]}}))
        assert main(["constants", "--config", str(cfg)]) == 2
        assert "positive" in capsys.readouterr().err

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

    def test_nonexistence_rejects_non_antipodal_pair(self):
        """Sharp-constant requests for tilted pairs carry no closed form."""
        from sol_lab.identity_checks import RegimeError, sphere_sharp_constant
        with pytest.raises(RegimeError):
            sphere_sharp_constant(-0.5, 0.5, antipodal=False)


class TestThreads:
    def test_threads_flag_overrides_environment(self, tmp_path):
        """numpy stays unloaded until main() has set the BLAS variables."""
        cfg = tmp_path / "c.json"
        cfg.write_text(config_text())
        script = (
            "import os, sys\n"
            "import sol_lab.cli as cli\n"
            "print('numpy' in sys.modules)\n"
            f"code = cli.main(['constants', '--config', {str(cfg)!r}, "
            "'--threads', '3'])\n"
            "print(code, os.environ['OPENBLAS_NUM_THREADS'])\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sol_lab.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout.splitlines()
        assert out[0] == "False"
        assert out[-1] == "0 3"
