import argparse
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from firmlp import certify, cli, dynamics, feasibility
from firmlp.cli import main


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def certify_config(alpha=0.2):
    return {
        "p": 3.0,
        "dim": 6,
        "seed": 1,
        "operator": {"kind": "truncate", "k": 2},
        "property": "alpha_firm",
        "alpha": alpha,
        "samples": 3000,
    }


TWO_SWAPS = {
    "kind": "compose",
    "ops": [
        {"kind": "averaged", "alpha": 0.5, "inner": {"kind": "swap", "i": 1, "j": 2}},
        {"kind": "averaged", "alpha": 0.5, "inner": {"kind": "swap", "i": 0, "j": 1}},
    ],
}


def semigroup_config(operator, schedule=(8, 16, 32)):
    return {
        "p": 3.0,
        "dim": 4,
        "operator": operator,
        "t": 1.0,
        "schedule": list(schedule),
        "x": [1.0, 0.0, 0.0, 0.0],
    }


def resolvent_config(operator, lambdas, x):
    return {"p": 3.0, "dim": len(x), "operator": operator, "lambdas": lambdas, "x": x}


def feasibility_config(**extra):
    doc = {
        "p": 3.0,
        "dim": 4,
        "isometries": [
            {"kind": "swap", "i": 0, "j": 1},
            {"kind": "swap", "i": 1, "j": 2},
        ],
        "x0": [1.0, 0.0, 0.0, 0.0],
        "mode": "alternating",
        "n_fejer": 5,
        "seed": 0,
    }
    doc.update(extra)
    return doc


def swap_matrix(i, j, dim=4):
    perm = list(range(dim))
    perm[i], perm[j] = j, i
    return np.eye(dim)[perm]


class TestCertifyCommand:
    def test_truncation_passes(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", certify_config())
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "certify_report.json").read_text())
        assert report["passed"] is True
        assert abs(report["estimated_min_alpha"] - 0.2) < 1e-6

    def test_low_alpha_fails_with_witness(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", certify_config(alpha=0.199))
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "certify_report.json").read_text())
        assert report["passed"] is False
        assert report["witness"] is not None
        assert len(report["witness"]["x"]) == 6

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["certify", "--config", str(path), "--out", str(tmp_path)]) == 1

    def test_unknown_keys_rejected(self, tmp_path):
        doc = certify_config()
        doc["surprise"] = 1
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_missing_required_key(self, tmp_path):
        doc = certify_config()
        del doc["operator"]
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_bruck_property(self, tmp_path):
        doc = {
            "p": 2.0,
            "dim": 3,
            "seed": 2,
            "operator": {"kind": "resolvent", "lam": 1.0, "inner": {"kind": "scale", "factor": -1.0}},
            "property": "bruck",
            "samples": 1000,
        }
        cfg = write_config(tmp_path, "b.json", doc)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_null_samples_exit1_names_key(self, tmp_path, capsys):
        doc = certify_config()
        doc["samples"] = None
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "'samples'" in capsys.readouterr().err


    def test_bad_w_grid_exit1_names_key(self, tmp_path, capsys):
        doc = certify_config()
        doc.update(property="bruck", w_grid=["a"])
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "'w_grid'" in capsys.readouterr().err

    @pytest.mark.parametrize("prop", ["alpha_firm", "quasi_alpha_firm"])
    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, float("nan")])
    def test_alpha_outside_unit_interval_exit1(self, tmp_path, capsys, prop, alpha):
        # a swap is an isometry: no alpha in (0, 1) holds, and none outside
        # it is a firm constant at all
        doc = certify_config(alpha)
        doc.update(operator={"kind": "swap", "i": 0, "j": 1}, property=prop, samples=200)
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_exit1(self, tmp_path, capsys, tol):
        doc = certify_config()
        doc["tol"] = tol
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "tol must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("low", float("nan")), ("high", float("inf"))])
    def test_non_finite_sampler_bound_exit1(self, tmp_path, capsys, field, value):
        doc = certify_config()
        doc["sampler"] = {field: value}
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert f"sampler {field} must be finite" in capsys.readouterr().err

    def test_inverted_sampler_bounds_exit1(self, tmp_path, capsys):
        doc = certify_config()
        doc["sampler"] = {"low": 5.0, "high": -5.0}
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "sampler low must not exceed high" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflow_is_numeric_exit3(self, tmp_path, capsys):
        # every sample maps to Inf: the run, not the config, is at fault
        doc = {"p": 3, "dim": 2, "operator": {"kind": "scale", "factor": 1e307},
               "property": "nonexpansive", "samples": 100}
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numeric failure" in capsys.readouterr().err


class TestConfigVectors:
    @pytest.mark.parametrize("command, doc, key", [
        ("iterate", {"p": 2.0, "dim": 2, "operator": {"kind": "scale", "factor": 0.5}}, "x0"),
        ("resolvent", resolvent_config({"kind": "scale", "factor": -1.0}, [1.0], [0.0, 0.0]), "x"),
        ("semigroup", semigroup_config({"kind": "scale", "factor": -1.0}), "x"),
        ("feasibility", feasibility_config(), "x0"),
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_vector_exit1_names_key(self, tmp_path, capsys, command, doc, key, bad):
        doc = dict(doc)
        doc[key] = [bad] + [0.0] * (doc["dim"] - 1)
        cfg = write_config(tmp_path, "v.json", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, key, value", [
        ("resolvent", resolvent_config({"kind": "scale", "factor": -1.0}, [1.0], [3.0, 0.0]),
         "tol", 1e-12),
        ("semigroup", semigroup_config({"kind": "scale", "factor": -1.0}), "tol", 1e-8),
        ("certify", certify_config(), "fix_sampler", {}),
    ])
    def test_removed_keys_rejected(self, tmp_path, capsys, command, doc, key, value):
        # these values are constants of the library, not settings of a run
        doc = dict(doc, **{key: value})
        cfg = write_config(tmp_path, "k.json", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


class TestIterateCommand:
    def test_projection_instance(self, tmp_path):
        doc = {
            "p": 3.0,
            "dim": 4,
            "operator": {
                "kind": "compose",
                "ops": [
                    {"kind": "averaged", "alpha": 0.5, "inner": {"kind": "swap", "i": 1, "j": 2}},
                    {"kind": "averaged", "alpha": 0.5, "inner": {"kind": "swap", "i": 0, "j": 1}},
                ],
            },
            "x0": [1.0, 0.0, 0.0, 0.0],
            "n_fejer": 3,
            "track_fix_projections": True,
        }
        cfg = write_config(tmp_path, "i.json", doc)
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is True
        assert np.allclose(summary["limit"], [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-8)
        assert summary["fejer_nonincreasing"] is True
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("n,x_1,x_2,x_3,x_4,step_norm")
        assert len(lines) == summary["iterations"] + 2

    def test_identity_single_row(self, tmp_path):
        doc = {
            "p": 2.0,
            "dim": 2,
            "operator": {"kind": "scale", "factor": 1.0},
            "x0": [1.0, 2.0],
        }
        cfg = write_config(tmp_path, "i.json", doc)
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2  # header plus the single iterate

    def test_expansive_divergence_exit3(self, tmp_path):
        doc = {
            "p": 2.0,
            "dim": 2,
            "operator": {"kind": "scale", "factor": 2.0},
            "x0": [1.0, 0.0],
        }
        cfg = write_config(tmp_path, "i.json", doc)
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 3
        # partial output still written
        assert (tmp_path / "trajectory.csv").exists()

    def test_resolvent_failure_writes_partial_run_exit3(self, tmp_path):
        # the README promises the partial artifact on every numeric failure;
        # here T itself raises on its first step, since lam/(1+lam) rounds to 1
        doc = {
            "p": 3.0,
            "dim": 2,
            "operator": {"kind": "resolvent", "lam": 1e17,
                         "inner": {"kind": "activation", "name": "tanh"}},
            "x0": [1.0, 0.0],
        }
        cfg = write_config(tmp_path, "i.json", doc)
        out = tmp_path / "out"
        assert main(["iterate", "--config", cfg, "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert "rounds to 1" in summary["error"]
        assert summary["iterations"] == 0 and summary["converged"] is False
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2  # header plus x0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_is_numeric_exit3(self, tmp_path):
        doc = {
            "p": 3.0,
            "dim": 2,
            "operator": {"kind": "scale", "factor": 1e300},
            "x0": [1e10, 0.0],
        }
        cfg = write_config(tmp_path, "i.json", doc)
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 3
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["stop_reason"] == "divergence"
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2  # header plus x0; the overflowed step is not kept

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_summary_is_strict_json(self, tmp_path):
        doc = {
            "p": 3.0,
            "dim": 2,
            "operator": {"kind": "scale", "factor": 1e300},
            "x0": [1e10, 0.0],
        }
        cfg = write_config(tmp_path, "i.json", doc)
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 3

        def reject(name):
            raise ValueError(f"{name} is not RFC 8259 JSON")

        summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
        assert summary["final_step_norm"] is None

    @pytest.mark.parametrize("step_tol", [float("inf"), float("nan"), 0.0])
    def test_bad_step_tol_exit1_names_field(self, tmp_path, capsys, step_tol):
        doc = {
            "p": 2.0,
            "dim": 2,
            "operator": {"kind": "scale", "factor": 0.5},
            "x0": [1.0, 0.0],
            "stop": {"step_tol": step_tol},
        }
        cfg = write_config(tmp_path, "i.json", doc)
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "step_tol must be finite and > 0" in capsys.readouterr().err

    def test_nan_weight_exit1(self, tmp_path, capsys):
        doc = {
            "p": 3.0,
            "dim": 2,
            "operator": {
                "kind": "convex_combo",
                "ops": [{"kind": "scale", "factor": 0.5}, {"kind": "swap", "i": 0, "j": 1}],
                "weights": [float("nan"), 1.0],
            },
            "x0": [1.0, 0.0],
        }
        cfg = write_config(tmp_path, "i.json", doc)
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "weights must be nonnegative" in capsys.readouterr().err

    def test_affine_without_matrix_exit1_names_key(self, tmp_path, capsys):
        doc = {"p": 2.0, "dim": 2, "operator": {"kind": "affine"}, "x0": [1.0, 0.0]}
        cfg = write_config(tmp_path, "i.json", doc)
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "'W'" in capsys.readouterr().err


class TestScaleFreeVerdicts:
    """The stop, membership and Fejer verdicts of a run do not depend on
    the size of its start."""

    def test_fejer_verdict_tiny_start(self, tmp_path):
        # |1.5^n x_0| grows 7.6-fold away from the fixed point 0
        for s in (1e-150, 1.0):
            doc = {
                "p": 2.0, "dim": 2, "operator": {"kind": "scale", "factor": 1.5},
                "x0": [s, 0.0], "n_fejer": 1, "stop": {"max_iter": 5},
            }
            cfg = write_config(tmp_path, "i.json", doc)
            assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 0
            summary = json.loads((tmp_path / "summary.json").read_text())
            assert summary["iterations"] == 5
            assert summary["fejer_nonincreasing"] is False, s

    def test_feasibility_at_every_scale(self, tmp_path):
        for s in (1e-150, 1e-20, 1.0, 1e150):
            cfg = write_config(tmp_path, "f.json", feasibility_config(x0=[s, 0.0, 0.0, 0.0]))
            assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 0
            summary = json.loads((tmp_path / "feasibility.json").read_text())
            assert summary["converged"] and summary["iterations"] == 17
            assert summary["limit"] == pytest.approx([s / 3, s / 3, s / 3, 0.0], rel=1e-9, abs=0.0)
            loose = feasibility_config(x0=[s, 0.0, 0.0, 0.0], stop={"step_tol": 0.1})
            cfg = write_config(tmp_path, "f.json", loose)
            assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 3


class TestResolventCommand:
    def test_closed_form_values(self, tmp_path):
        doc = {
            "p": 2.0,
            "dim": 2,
            "operator": {"kind": "scale", "factor": -1.0},
            "lambdas": [0.1, 1.0, 10.0],
            "x": [3.0, 0.0],
        }
        cfg = write_config(tmp_path, "r.json", doc)
        assert main(["resolvent", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = json.loads((tmp_path / "resolvent.json").read_text())
        for row in out["results"]:
            expect = 3.0 / (1.0 + 2.0 * row["lam"])
            assert abs(row["value"][0] - expect) < 1e-10

    def test_operator_wider_than_dim_exit1(self, tmp_path):
        doc = {
            "p": 2.0,
            "dim": 2,
            "operator": {"kind": "swap", "i": 0, "j": 5},
            "lambdas": [1.0],
            "x": [1.0, 0.0],
        }
        cfg = write_config(tmp_path, "r.json", doc)
        assert main(["resolvent", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_large_vector_stops_at_rounding_floor(self, tmp_path):
        # the step stalls near ulp(1e6/3) > tol; the value is still x/3
        doc = {
            "p": 3.0,
            "dim": 2,
            "operator": {"kind": "scale", "factor": -1.0},
            "lambdas": [1.0],
            "x": [1e6, 0.0],
        }
        cfg = write_config(tmp_path, "r.json", doc)
        assert main(["resolvent", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = json.loads((tmp_path / "resolvent.json").read_text())
        assert out["results"][0]["value"] == pytest.approx([1e6 / 3.0, 0.0], rel=1e-12, abs=1e-12)


    def test_nonlinear_inner_large_input_exit0(self, tmp_path):
        # F(y) = -relu(y) at x = (1e110, 0): the value is x/3
        operator = {"kind": "compose", "ops": [
            {"kind": "scale", "factor": -1.0}, {"kind": "activation", "name": "relu"},
        ]}
        cfg = write_config(tmp_path, "r.json", resolvent_config(operator, [1.0], [1e110, 0.0]))
        assert main(["resolvent", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = json.loads((tmp_path / "resolvent.json").read_text())
        assert out["results"][0]["value"] == pytest.approx([1e110 / 3.0, 0.0], rel=1e-10, abs=0.0)

    def test_non_finite_iterate_exit3(self, tmp_path, capsys):
        # an uncertified expansive inner overflows on its first step
        operator = {"kind": "scale", "factor": 40.0}
        cfg = write_config(tmp_path, "r.json", resolvent_config(operator, [9.0], [1e307, 1e307]))
        with pytest.warns(UserWarning, match="certificate"), np.errstate(over="ignore"):
            assert main(["resolvent", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_huge_lam_closed_form_exit0(self, tmp_path):
        doc = resolvent_config({"kind": "scale", "factor": -1.0}, [1e17], [3.0, 0.0])
        cfg = write_config(tmp_path, "r.json", doc)
        assert main(["resolvent", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = json.loads((tmp_path / "resolvent.json").read_text())
        assert out["results"][0]["value"] == pytest.approx([3.0 / (1.0 + 2e17), 0.0], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("operator, x", [
        ({"kind": "activation", "name": "tanh"}, [3.0, 0.0]),
        (TWO_SWAPS, [1.0, 0.0, 0.0, 0.0]),
    ], ids=["tanh", "two_swaps"])
    def test_huge_lam_exit3(self, tmp_path, capsys, operator, x):
        cfg = write_config(tmp_path, "r.json", resolvent_config(operator, [1e17], x))
        assert main(["resolvent", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_failure_keeps_earlier_rows_exit3(self, tmp_path, capsys):
        # lam = 1 succeeds; at lam = 1e17 the iteration cannot contract
        operator = {"kind": "compose", "ops": [
            {"kind": "scale", "factor": -1.0}, {"kind": "activation", "name": "tanh"},
        ]}
        cfg = write_config(tmp_path, "r.json", resolvent_config(operator, [1.0, 1e17], [3.0, 0.0]))
        assert main(["resolvent", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numeric failure" in capsys.readouterr().err
        out = json.loads((tmp_path / "resolvent.json").read_text())
        assert "rounds to 1" in out["error"]
        [row] = out["results"]
        y = np.asarray(row["value"])
        assert row["lam"] == 1.0
        assert y + (y + np.tanh(y)) == pytest.approx([3.0, 0.0], rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("key, value, message", [
        ("lambdas", [float("nan")], "lam must be finite"),
        ("lambdas", [float("inf")], "lam must be finite"),
    ])
    def test_bad_number_exit1_names_field(self, tmp_path, capsys, key, value, message):
        doc = resolvent_config({"kind": "activation", "name": "tanh"}, [1.0], [3.0, 0.0])
        doc[key] = value
        cfg = write_config(tmp_path, "r.json", doc)
        assert main(["resolvent", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    def test_nan_lam_in_operator_exit1(self, tmp_path, capsys):
        operator = {"kind": "resolvent", "lam": float("nan"), "inner": {"kind": "scale", "factor": -1.0}}
        cfg = write_config(tmp_path, "r.json", resolvent_config(operator, [1.0], [3.0, 0.0]))
        assert main(["resolvent", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "lam must be finite" in capsys.readouterr().err


class TestSemigroupCommand:
    def config(self, tmp_path, schedule=(8, 16, 32, 64, 128, 256, 512, 1024), t=1.0, **extra):
        doc = {
            "p": 2.0,
            "dim": 2,
            "operator": {"kind": "scale", "factor": -1.0},
            "t": t,
            "schedule": list(schedule),
            "x": [1.0, 0.0],
        } | extra
        return write_config(tmp_path, "s.json", doc)

    def test_error_halving(self, tmp_path):
        cfg = self.config(tmp_path)
        assert main(["semigroup", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "semigroup.csv").read_text().splitlines()[1:]
        errs = [float(line.split(",")[-1]) for line in lines]
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        assert all(0.4 <= r <= 0.6 for r in ratios)

    def test_t_zero_identity_row(self, tmp_path):
        cfg = self.config(tmp_path, schedule=(4,), t=0.0)
        assert main(["semigroup", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "semigroup.csv").read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[2]) == 1.0

    def test_single_product(self, tmp_path):
        cfg = self.config(tmp_path, schedule=(1,))
        assert main(["semigroup", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "semigroup.csv").read_text().splitlines()
        assert float(lines[1].split(",")[2]) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_t_zero_lists_every_schedule_entry(self, tmp_path):
        cfg = self.config(tmp_path, schedule=(4, 8, 16), t=0.0)
        assert main(["semigroup", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "semigroup.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        assert [row[0] for row in rows] == ["4", "8", "16"]
        assert all(float(row[2]) == 1.0 for row in rows)
        summary = json.loads((tmp_path / "semigroup.json").read_text())
        assert summary["schedule"] == [4, 8, 16]
        assert summary["cauchy_ok"] is True

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_empty_schedule_exit1(self, tmp_path, t):
        cfg = self.config(tmp_path, schedule=(), t=t)
        assert main(["semigroup", "--config", cfg, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_t_exit1(self, tmp_path, capsys, t):
        cfg = self.config(tmp_path, t=t)
        assert main(["semigroup", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "semigroup t must be finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:resolvent of an operator without:UserWarning")
    def test_t_zero_expansive_scale_exit0(self, tmp_path):
        # at t = 0 every product, the near-identity one included, is Id exactly
        cfg = self.config(tmp_path, schedule=(8,), t=0.0,
                          operator={"kind": "scale", "factor": 1e10})
        assert main(["semigroup", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "semigroup.csv").exists()
        summary = json.loads((tmp_path / "semigroup.json").read_text())
        axioms = summary["axiom_checks"]
        assert axioms["identity_at_zero"] == 0.0 == axioms["identity_at_zero_bound"]

    def test_numeric_failure_writes_files_exit3(self, tmp_path, capsys):
        # t/n = 1.25e16 at n = 8: lam/(1+lam) rounds to 1 in the first product
        cfg = self.config(tmp_path, schedule=(8, 16), t=1e17, p=3.0,
                          operator={"kind": "activation", "name": "tanh"})
        assert main(["semigroup", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numeric failure" in capsys.readouterr().err
        lines = (tmp_path / "semigroup.csv").read_text().splitlines()
        assert lines == ["n,t,x_1,x_2,diff,closed_form_error"]
        summary = json.loads((tmp_path / "semigroup.json").read_text())
        assert "rounds to 1" in summary["error"]
        assert summary["cauchy_ok"] is False and summary["schedule"] == []


class TestFeasibilityCommand:
    def test_alternating(self, tmp_path):
        cfg = write_config(tmp_path, "f.json", feasibility_config())
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "feasibility.json").read_text())
        assert np.allclose(summary["limit"], [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-8)
        assert max(summary["membership_residuals"]) <= 1e-8
        assert summary["fejer_nonincreasing"] is True

    def test_averaged_mode(self, tmp_path):
        cfg = write_config(
            tmp_path, "f.json", feasibility_config(mode="averaged", weights=[0.3, 0.7])
        )
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "feasibility.json").read_text())
        assert np.allclose(summary["limit"], [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-8)

    def test_contradictory_images_exit2(self, tmp_path):
        # x -> (x_1, x_0, x_2, 2 - x_3) pins x_3 at 1, and the second swap
        # with 4 - x_3 pins it at 2
        doc = feasibility_config()
        for k, (i, j, offset) in enumerate([(0, 1, 2.0), (1, 2, 4.0)]):
            W = swap_matrix(i, j)
            W[3, 3] = -1.0
            doc["isometries"][k] = {"kind": "affine", "W": W.tolist(), "b": [0.0, 0.0, 0.0, offset]}
        cfg = write_config(tmp_path, "f.json", doc)
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_bad_isometry_exit2(self, tmp_path):
        for isometry in (
            {"kind": "scale", "factor": 0.5},
            {"kind": "activation", "name": "tanh"},  # not affine
            {"kind": "affine", "W": [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                                     [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]},  # a 3-cycle
            {"kind": "affine", "W": np.diag([1e300, 1.0, 1.0, 1.0]).tolist()},
        ):
            doc = feasibility_config()
            doc["isometries"][0] = isometry
            cfg = write_config(tmp_path, "f.json", doc)
            assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_signed_permutation_with_declared_image(self, tmp_path):
        # x -> (x_1, x_0, x_2, 2 - x_3) fixes {x_0 = x_1, x_3 = 1}
        doc = feasibility_config()
        doc["isometries"][0] = {
            "kind": "affine",
            "W": [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0]],
            "b": [0.0, 0.0, 0.0, 2.0],
        }
        cfg = write_config(tmp_path, "f.json", doc)
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "feasibility.json").read_text())
        assert np.allclose(summary["limit"], [1 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-8)

    def test_isometry_wider_than_dim_exit1(self, tmp_path, capsys):
        doc = feasibility_config()
        doc["isometries"][0] = {"kind": "swap", "i": 0, "j": 5}
        cfg = write_config(tmp_path, "f.json", doc)
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "requires dim >= 6, got 4" in capsys.readouterr().err

    def test_nonconvergence_writes_summary_exit3(self, tmp_path):
        cfg = write_config(tmp_path, "f.json", feasibility_config(stop={"max_iter": 3}))
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert (tmp_path / "feasibility.csv").exists()
        summary = json.loads((tmp_path / "feasibility.json").read_text())
        assert "error" in summary
        assert summary["iterations"] == 3


    def test_p2_reflection_image_is_derived(self, tmp_path):
        # W = 2J/3 - I on x_0..x_2 fixes {x_0 = x_1 = x_2}, a set no swap spells
        W = np.eye(4)
        W[:3, :3] = 2.0 / 3.0 - np.eye(3)
        doc = feasibility_config(p=2.0)
        doc["isometries"] = [{"kind": "affine", "W": W.tolist()}, {"kind": "swap", "i": 2, "j": 3}]
        cfg = write_config(tmp_path, "f.json", doc)
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "feasibility.json").read_text())
        assert np.allclose(summary["limit"], [0.25] * 4, atol=1e-8)

    def test_declared_image_key_exit1(self, tmp_path, capsys):
        # an image is derived, never declared: this one, {x_0 = x_2}, is wrong
        doc = feasibility_config(x0=[1.0, 0.0, 0.0, 5.0])
        doc["isometries"][0]["image"] = {"kind": "affine_equal", "groups": [[0, 2]]}
        cfg = write_config(tmp_path, "f.json", doc)
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "'image'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stop, code", [({}, 0), ({"max_iter": 3}, 3)])
    def test_matrix_written_instance_matches_swaps(self, tmp_path, stop, code):
        # the same two swaps as affine matrices: the same bytes, P_Fix columns included
        swaps = feasibility_config(stop=stop)
        matrices = dict(swaps, isometries=[
            {"kind": "affine", "W": swap_matrix(i, j).tolist()} for i, j in [(0, 1), (1, 2)]])
        outputs = []
        for name, doc in (("swaps", swaps), ("matrices", matrices)):
            cfg = write_config(tmp_path, f"{name}.json", doc)
            assert main(["feasibility", "--config", cfg, "--out", str(tmp_path / name)]) == code
            outputs.append([(tmp_path / name / f).read_bytes()
                            for f in ("feasibility.csv", "feasibility.json")])
        assert outputs[0] == outputs[1]
        assert b"proj_x_1" in outputs[0][0].splitlines()[0]


class TestLibraryDefaults:
    """A key a config leaves out takes the library's default, whatever it is."""

    def test_certify_samples(self, tmp_path, monkeypatch):
        monkeypatch.setattr(certify.certify_alpha_firm, "__defaults__", (123, certify.DEFAULT_TOL))
        doc = certify_config()
        del doc["samples"]
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "certify_report.json").read_text())["samples"] == 123

    def test_feasibility_monitors(self, tmp_path, monkeypatch):
        monkeypatch.setattr(feasibility.alternating_projections, "__defaults__", (2, 0))
        doc = feasibility_config()
        del doc["n_fejer"], doc["seed"]
        cfg = write_config(tmp_path, "f.json", doc)
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "feasibility.json").read_text())
        assert len(summary["fejer_final_distances"]) == 2

    def test_iterate_monitors(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dynamics.MonitorConfig.__init__, "__defaults__", (None, 2, 0, True))
        doc = {"p": 3.0, "dim": 4, "operator": TWO_SWAPS, "x0": [1.0, 0.0, 0.0, 0.0]}
        cfg = write_config(tmp_path, "i.json", doc)
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["fejer_final_distances"]) == 2
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert "proj_x_1" in header


class TestPackagedConfigs:
    def test_every_config_runs(self, tmp_path):
        scripts = Path(__file__).resolve().parents[1] / "scripts"
        spec = importlib.util.spec_from_file_location(
            "run_experiments", scripts / "run_experiments.py"
        )
        runner = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(runner)
        configs = sorted(f.name for f in (scripts / "configs").glob("*.json"))
        assert configs == sorted(runner.COMMANDS)
        for name in configs:
            argv = [runner.COMMANDS[name], "--config", str(scripts / "configs" / name)]
            assert main(argv + ["--out", str(tmp_path)]) == 0, name


class TestDeterminism:
    @pytest.mark.parametrize(
        "command, builder",
        [
            ("certify", lambda: certify_config()),
            ("feasibility", lambda: feasibility_config()),
            ("resolvent", lambda: resolvent_config(TWO_SWAPS, [0.1, 1.0, 10.0], [1.0, 0.0, 0.0, 0.0])),
            ("semigroup", lambda: semigroup_config(TWO_SWAPS)),
            ("semigroup", lambda: semigroup_config({"kind": "activation", "name": "tanh"})),
        ],
    )
    def test_byte_identical_outputs(self, tmp_path, command, builder):
        cfg = write_config(tmp_path, "cfg.json", builder())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main([command, "--config", cfg, "--out", str(out1)]) == main(
            [command, "--config", cfg, "--out", str(out2)]
        )
        files1 = sorted(f.name for f in out1.iterdir())
        files2 = sorted(f.name for f in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestDocumentKeys:
    """Operator and set documents are read by their kinds' field
    declarations: every level rejects an undeclared key, and every
    malformed value exits 1 naming its key."""

    def iterate_config(self, operator, x0=(1.0, 0.0)):
        return {"p": 3.0, "dim": len(x0), "operator": operator, "x0": list(x0)}

    @pytest.mark.parametrize("operator, key", [
        ({"kind": "scale", "factor": 0.5, "bogus": 1}, "bogus"),
        ({"kind": "affine", "W": [[0.5, 0.0], [0.0, 0.5]], "B": [1.0, 0.0]}, "B"),
        ({"kind": "averaged", "alpha": 0.5,
          "inner": {"kind": "swap", "i": 0, "j": 1, "k": 2}}, "k"),
        ({"kind": "compose", "ops": [{"kind": "truncate", "k": 1, "dim": 2}]}, "dim"),
        ({"kind": "contractive_projection", "isometry": {"kind": "swap", "i": 0, "j": 1}},
         "contractive_projection"),
        ({"kind": "activation", "name": "identity"}, "identity"),
    ])
    def test_undeclared_operator_key_exit1(self, tmp_path, capsys, operator, key):
        cfg = write_config(tmp_path, "i.json", self.iterate_config(operator))
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [["x"], {"a": 1}, None, 3])
    def test_non_string_kind_exit1(self, tmp_path, capsys, kind):
        cfg = write_config(tmp_path, "i.json", self.iterate_config({"kind": kind}))
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "unknown operator kind" in capsys.readouterr().err

    def affine_2i(self, flag):
        return {"kind": "affine", "W": [[2.0, 0.0], [0.0, 2.0]], "guarantee_nonexpansive": flag}

    def test_guarantee_true_rescales(self, tmp_path):
        cfg = write_config(tmp_path, "i.json", self.iterate_config(self.affine_2i(True)))
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["iterations"] == 0 and summary["converged"] is True

    def test_guarantee_false_keeps_map(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "i.json", self.iterate_config(self.affine_2i(False)))
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "divergence" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["no", 1, 0, None, [True]])
    def test_guarantee_non_boolean_exit1(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path, "i.json", self.iterate_config(self.affine_2i(flag)))
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "'guarantee_nonexpansive'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["no", 0])
    def test_track_fix_projections_non_boolean_exit1(self, tmp_path, capsys, flag):
        doc = self.iterate_config({"kind": "scale", "factor": 0.5})
        doc["track_fix_projections"] = flag
        cfg = write_config(tmp_path, "i.json", doc)
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "'track_fix_projections'" in capsys.readouterr().err


class TestEmptyInstance:
    @pytest.mark.parametrize("mode", ["averaged", "alternating"])
    def test_empty_isometry_list_exit1(self, tmp_path, capsys, mode):
        cfg = write_config(tmp_path, "f.json", feasibility_config(isometries=[], mode=mode))
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "'isometries'" in capsys.readouterr().err


class TestRemovedOverrides:
    @pytest.mark.parametrize("flag, value", [("--p", "2"), ("--dim", "3")])
    def test_space_overrides_are_usage_errors(self, tmp_path, flag, value):
        cfg = write_config(tmp_path, "c.json", certify_config())
        assert main(["certify", "--config", cfg, "--out", str(tmp_path), flag, value]) == 1
        assert not (tmp_path / "certify_report.json").exists()


class TestStrictConfigValues:
    """Config integers are integral numbers in range, list entries included;
    each rejection exits 1 naming its key (TestConfigTables covers the JSON
    type of every key)."""

    @pytest.mark.parametrize("command, doc, key, value", [
        ("certify", certify_config(), "seed", -1),
        ("semigroup", semigroup_config({"kind": "scale", "factor": -1.0}), "schedule", [8.9, 16]),
        ("feasibility", feasibility_config(), "n_fejer", -3),
        ("iterate", {"p": 3.0, "dim": 4, "operator": TWO_SWAPS, "x0": [1.0, 0.0, 0.0, 0.0]},
         "n_fejer", -3),
    ])
    def test_rejected_naming_key(self, tmp_path, capsys, command, doc, key, value):
        cfg = write_config(tmp_path, "c.json", dict(doc, **{key: value}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_override_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", certify_config())
        assert main(["certify", "--config", cfg, "--out", str(tmp_path), "--seed", "-1"]) == 1
        assert "'seed'" in capsys.readouterr().err

    def test_integral_number_is_an_integer(self, tmp_path):
        doc = dict(certify_config(), samples=1e3, dim=6.0)
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "certify_report.json").read_text())
        assert report["samples"] == 1000


class TestOutputPaths:
    @pytest.mark.parametrize("command, doc, key", [
        ("certify", certify_config(), "report"),
        ("resolvent", resolvent_config({"kind": "scale", "factor": -1.0}, [1.0], [3.0, 0.0]),
         "report"),
        ("semigroup", semigroup_config({"kind": "scale", "factor": -1.0}), "csv"),
        ("feasibility", feasibility_config(), "summary"),
    ])
    def test_empty_output_name_exit1_names_key(self, tmp_path, capsys, command, doc, key):
        cfg = write_config(tmp_path, "c.json", dict(doc, **{key: ""}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_a_file_exit1_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", certify_config())
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err

    def test_output_is_a_directory_exit1_names_path(self, tmp_path, capsys):
        taken = tmp_path / "out" / "feasibility.json"
        taken.mkdir(parents=True)
        cfg = write_config(tmp_path, "f.json", feasibility_config())
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert str(taken) in capsys.readouterr().err



# A valid config per subcommand, and for each JSON type the values of another
# type; a reader's JSON type is that of the first probe it takes.
VALID_CONFIGS = {
    "certify": lambda: dict(certify_config(), samples=100),
    "iterate": lambda: {"p": 2.0, "dim": 2, "operator": {"kind": "scale", "factor": 0.5},
                        "x0": [1.0, 0.0]},
    "resolvent": lambda: resolvent_config({"kind": "scale", "factor": -1.0}, [1.0], [3.0, 0.0]),
    "semigroup": lambda: semigroup_config({"kind": "scale", "factor": -1.0}),
    "feasibility": lambda: feasibility_config(),
}
PROBES = [([], "list"), ({}, "object"), ("a", "string"), (True, "boolean"), (1.5, "number"),
          (3, "integer")]
WRONG_VALUES = {
    "number": [True, "1"],
    "integer": [2.5, True, "3"],
    "string": [5, True],
    "boolean": [1, "true"],
    "list": [5, "ab"],
    "object": [5, [], "ab"],
}
NULLABLE = {"w_grid", "min_norm"}  # null there stands for the library's default


def reader_json_type(read):
    if isinstance(read, dict):  # a nested document's table
        return "object"
    for sample, kind in PROBES:
        try:
            read(sample)
        except (TypeError, ValueError):
            continue
        return kind
    raise AssertionError(f"{read} takes no probe")


def key_paths(keys, prefix=()):
    for key, read in keys.items():
        yield prefix + (key,), read
        if isinstance(read, dict):
            yield from key_paths(read, prefix + (key,))


def wrong_type_cases():
    for command, (_, keys, _, _) in cli._COMMANDS.items():
        for path, read in key_paths(keys):
            values = WRONG_VALUES[reader_json_type(read)]
            for value in values + ([] if path[-1] in NULLABLE else [None]):
                name = f"{command}-{'.'.join(path)}-{json.dumps(value)}"
                yield pytest.param(command, path, value, id=name)


class TestConfigTables:
    """Derived from the reader tables in ``cli._COMMANDS``: each declared key,
    nested ones included, set to a value of the wrong JSON type exits 1
    naming the key, so a key added later is covered without an edit here."""

    def test_every_command_has_a_valid_config(self, tmp_path):
        assert set(VALID_CONFIGS) == set(cli._COMMANDS)
        for command, build in VALID_CONFIGS.items():
            cfg = write_config(tmp_path, "c.json", build())
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0

    @pytest.mark.parametrize("command, path, value", list(wrong_type_cases()))
    def test_wrong_json_type_exit1_names_key(self, tmp_path, capsys, command, path, value):
        doc = VALID_CONFIGS[command]()
        target = doc
        for key in path[:-1]:
            target = target.setdefault(key, {})
        target[path[-1]] = value
        cfg = write_config(tmp_path, "c.json", doc)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert f"'{path[-1]}'" in capsys.readouterr().err
        assert not out.exists()


class TestRunPath:
    """Every subcommand runs through one parser, built once, and iterate and
    feasibility hand their solves to one trajectory writer."""

    def test_help_exits0_listing_commands(self, capsys):
        assert main(["--help"]) == 0
        usage = capsys.readouterr().out
        assert all(command in usage for command in cli._COMMANDS)

    @pytest.mark.parametrize("command", [[], ["frobnicate"]], ids=["missing", "unknown"])
    def test_missing_or_unknown_command_exit1(self, tmp_path, command):
        cfg = write_config(tmp_path, "c.json", certify_config())
        assert main(command + ["--config", cfg, "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "certify_report.json").exists()

    def test_options_before_command(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", certify_config())
        assert main(["--out", str(tmp_path), "--config", cfg, "--seed", "1", "certify"]) == 0
        assert json.loads((tmp_path / "certify_report.json").read_text())["passed"] is True

    def test_main_builds_no_parser(self, tmp_path, monkeypatch):
        built, construct = [], argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            construct(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cfg = write_config(tmp_path, "f.json", feasibility_config())
        for _ in range(2):
            assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert built == []

    @pytest.mark.parametrize("operator", [
        {"kind": "scale", "factor": 2.0},
        {"kind": "resolvent", "lam": 1e17, "inner": {"kind": "activation", "name": "tanh"}},
    ], ids=["divergence", "resolvent"])
    def test_failures_write_the_same_summary_keys(self, tmp_path, operator):
        cfg = write_config(tmp_path, "f.json", feasibility_config(stop={"max_iter": 3}))
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path / "f")]) == 3
        doc = {"p": 3.0, "dim": 2, "operator": operator, "x0": [1.0, 0.0], "n_fejer": 2}
        cfg = write_config(tmp_path, "i.json", doc)
        assert main(["iterate", "--config", cfg, "--out", str(tmp_path / "i")]) == 3
        feasible = json.loads((tmp_path / "f" / "feasibility.json").read_text())
        iterate = json.loads((tmp_path / "i" / "summary.json").read_text())
        assert "error" in feasible and "fejer_final_distances" in feasible
        assert feasible.keys() == iterate.keys()
