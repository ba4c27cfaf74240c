"""Config loading, document validation, and end-to-end runner behavior."""

import json
from pathlib import Path

import pytest

from symptower import cli
from symptower.cli import ConfigError, load_run_config, main, validate_spec
from symptower.moser import LeftValidityRegionError

SPECS = Path(__file__).resolve().parent.parent / "specs"


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def quick_moser_config(tmp_path: Path, **doc_overrides) -> Path:
    field_doc = {
        "field": {"kind": "quadratic", "l": 1, "epsilon": 0.05, "seed": 11, "radius": 1.0},
        "base_point": [0.0, 0.0],
        "r_start": 0.4,
        "residual_tol": 1e-3,
    }
    field_doc.update(doc_overrides)
    write_json(tmp_path / "field.json", field_doc)
    return write_json(
        tmp_path / "run.json",
        {
            "command": "moser",
            "input": "field.json",
            "tolerances": {"dt": 0.02},
            "seed": 3,
            "formats": ["csv", "json", "text"],
        },
    )


class TestLoadRunConfig:
    def test_bundled_shrink_config(self):
        cfg = load_run_config(SPECS / "shrink.json")
        assert cfg.command == "shrink"
        assert cfg.input == (SPECS / "experiment_counterexample.json").resolve()
        assert cfg.tolerances == {"cond_cap": 1000000.0}
        assert cfg.seed == 0
        assert cfg.formats == ("csv", "json", "text")

    def test_cli_arguments_win(self, tmp_path):
        cfg = load_run_config(
            SPECS / "shrink.json",
            seed=9,
            output=str(tmp_path),
            formats=["json"],
        )
        assert cfg.seed == 9
        assert cfg.output == tmp_path
        assert cfg.formats == ("json",)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"input": "x.json", "verbose": True})
        with pytest.raises(ConfigError, match="unknown config key 'verbose'"):
            load_run_config(path, command="shrink")

    def test_nonpositive_tolerance_rejected(self, tmp_path):
        path = write_json(
            tmp_path / "c.json",
            {"input": "x.json", "tolerances": {"cond_cap": 0.0}},
        )
        with pytest.raises(ConfigError, match="cond_cap: must be strictly positive"):
            load_run_config(path, command="shrink")

    def test_dt_capped_at_one(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"input": "x.json", "tolerances": {"dt": 2.0}})
        with pytest.raises(ConfigError, match="dt"):
            load_run_config(path, command="moser")

    def test_command_mismatch(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"command": "moser", "input": "x.json"})
        with pytest.raises(ConfigError, match="names command 'moser'"):
            load_run_config(path, command="shrink")

    def test_missing_input(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"seed": 1})
        with pytest.raises(ConfigError, match="input: required"):
            load_run_config(path, command="shrink")

    def test_negative_cli_seed(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"input": "x.json"})
        with pytest.raises(ConfigError, match="seed"):
            load_run_config(path, command="shrink", seed=-1)

    def test_trajectories_only_for_moser(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"input": "x.json"})
        with pytest.raises(ConfigError, match="dump-trajectories"):
            load_run_config(path, command="shrink", dump_trajectories=True)

    def test_all_errors_reported_at_once(self, tmp_path):
        path = write_json(
            tmp_path / "c.json",
            {"input": "x.json", "seed": -4, "formats": ["yaml"]},
        )
        with pytest.raises(ConfigError) as exc:
            load_run_config(path, command="shrink")
        assert len(exc.value.errors) == 2


class TestValidateSpec:
    @pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")))
    def test_bundled_specs_are_clean(self, name):
        report = validate_spec(SPECS / name)
        assert report.ok, report.errors

    def test_syntax_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"tower": \n nope}')
        report = validate_spec(path)
        assert not report.ok
        assert "line 2" in report.errors[0]

    def test_non_skew_form_named_with_defect(self, tmp_path):
        doc = {
            "tower": {
                "kind": "explicit",
                "levels": [{"dim": 2}, {"dim": 2}],
                "bondings": [[[1.0, 0.0], [0.0, 1.0]]],
                "forms": [
                    [[0.0, -1.0], [1.0, 0.0]],
                    [[0.0, 1.0], [1.0, 0.0]],
                ],
            }
        }
        report = validate_spec(write_json(tmp_path / "t.json", doc))
        assert any("tower.forms[1]" in e and "symmetry defect" in e for e in report.errors)

    def test_bonding_shape_names_level_pair(self, tmp_path):
        doc = {
            "tower": {
                "kind": "explicit",
                "levels": [{"dim": 2}, {"dim": 4}],
                "bondings": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
                "forms": [
                    [[0.0, -1.0], [1.0, 0.0]],
                    [
                        [0.0, -1.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, -1.0],
                        [0.0, 0.0, 1.0, 0.0],
                    ],
                ],
            }
        }
        report = validate_spec(write_json(tmp_path / "t.json", doc))
        assert any("mapping level 1 -> level 0" in e for e in report.errors)

    def test_unrecognized_document(self, tmp_path):
        report = validate_spec(write_json(tmp_path / "t.json", {"widget": 1}))
        assert any("unrecognized document" in e for e in report.errors)

    def test_unreadable_file(self, tmp_path):
        report = validate_spec(tmp_path / "absent.json")
        assert not report.ok
        assert "cannot read" in report.errors[0]

    def test_runconfig_documents_validate_too(self, tmp_path):
        doc = {"command": "moser", "input": "x.json", "tolerances": {"dt": -1}}
        report = validate_spec(write_json(tmp_path / "c.json", doc))
        assert any("dt" in e for e in report.errors)


class TestRunner:
    def test_check_tower_bundled(self, tmp_path):
        rc = main(
            ["check-tower", "--config", str(SPECS / "check_tower.json"), "--output", str(tmp_path)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == "1"
        assert report["passed"] is True
        assert report["report"]["compatible"] is True
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "bonding,ok,ker_dim,pullback_residual,transversality_defect,dense_range"

    def test_incompatible_tower_fails(self, tmp_path):
        doc = {
            "tower": {
                "kind": "explicit",
                "levels": [{"dim": 2}, {"dim": 4}],
                "bondings": [[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]],
                "forms": [
                    [[0.0, -1.0], [1.0, 0.0]],
                    [
                        [0.0, -2.0, 0.0, 0.0],
                        [2.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, -1.0],
                        [0.0, 0.0, 1.0, 0.0],
                    ],
                ],
            }
        }
        write_json(tmp_path / "t.json", doc)
        cfg = write_json(tmp_path / "run.json", {"command": "check-tower", "input": "t.json"})
        rc = main(["check-tower", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False

    def test_moser_quick_run(self, tmp_path):
        cfg = quick_moser_config(tmp_path)
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        body = report["report"]
        assert body["pullback_residual"] <= 1e-3
        assert body["fixed_point_error"] <= 1e-8
        assert body["steps"] == 50

    def test_moser_residual_gate_fails(self, tmp_path):
        cfg = quick_moser_config(tmp_path, residual_tol=1e-30)
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1

    def test_moser_trajectory_dump(self, tmp_path):
        cfg = quick_moser_config(tmp_path)
        rc = main(
            [
                "moser",
                "--config",
                str(cfg),
                "--output",
                str(tmp_path / "out"),
                "--dump-trajectories",
            ]
        )
        assert rc == 0
        lines = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
        assert lines[0] == "seed,step,x0,x1"
        # Every recorded trajectory spans all integration steps.
        assert (len(lines) - 1) % 51 == 0

    def test_moser_pipeline_error_serialized(self, tmp_path):
        write_json(
            tmp_path / "field.json",
            {
                "field": {"kind": "marsden", "d": 2, "a": [1.0, 0.0], "s_eigs": [1.0, 1e-8]},
                "base_point": [1.0, 0.0, 0.0, 0.0],
                "r_start": 0.1,
            },
        )
        cfg = write_json(tmp_path / "run.json", {"command": "moser", "input": "field.json"})
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "exceeds the validity radius" in report["report"]["error"]["message"]

    def test_left_validity_region_fields_serialized(self, tmp_path, monkeypatch):
        def leaves_region(doc, cfg):
            raise LeftValidityRegionError(0.5, [1.0, -2.0], 3e-9)

        monkeypatch.setitem(cli._PIPELINES, "moser", leaves_region)
        cfg = quick_moser_config(tmp_path)
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        error = report["report"]["error"]
        assert error == {
            "type": "LeftValidityRegionError",
            "message": "left validity region at t=0.5 (sigma_min=3.000e-09)",
            "t": 0.5,
            "x": [1.0, -2.0],
            "sigma_min": 3e-9,
        }

    def test_shrink_honours_sing_tol(self, tmp_path):
        write_json(
            tmp_path / "exp.json",
            {"experiment": {"kind": "counterexample", "d": 2}, "n_max": 2,
             "expect_uniform": False},
        )
        radii = {}
        for sing_tol in (1e-8, 1e-3):
            cfg = write_json(
                tmp_path / "run.json",
                {"command": "shrink", "input": "exp.json", "tolerances": {"sing_tol": sing_tol}},
            )
            out = tmp_path / ("out-%g" % sing_tol)
            assert main(["shrink", "--config", str(cfg), "--output", str(out)]) == 0
            rows = json.loads((out / "report.json").read_text())["report"]["rows"]
            radii[sing_tol] = [row["r_validity"] for row in rows]
        # The relative floor 1e-3 binds before the condition cap 1e6 does.
        assert all(lo < hi for lo, hi in zip(radii[1e-3], radii[1e-8]))

    def test_shrink_small_is_deterministic(self, tmp_path):
        write_json(
            tmp_path / "exp.json",
            {"experiment": {"kind": "counterexample", "d": 2}, "n_max": 2,
             "expect_uniform": False},
        )
        cfg = write_json(tmp_path / "run.json", {"command": "shrink", "input": "exp.json"})
        rc_a = main(["shrink", "--config", str(cfg), "--output", str(tmp_path / "a")])
        rc_b = main(["shrink", "--config", str(cfg), "--output", str(tmp_path / "b")])
        assert rc_a == rc_b == 0
        for name in ("report.json", "report.csv", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        lines = (tmp_path / "a" / "report.csv").read_text().splitlines()
        assert lines[0] == "n,dim,r_validity,bound,cond_at_base"
        assert len(lines) == 3

    def test_shrink_expectation_can_fail(self, tmp_path):
        write_json(
            tmp_path / "exp.json",
            {"experiment": {"kind": "counterexample", "d": 2}, "n_max": 2,
             "expect_uniform": True},
        )
        cfg = write_json(tmp_path / "run.json", {"command": "shrink", "input": "exp.json"})
        rc = main(["shrink", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 1

    def test_product_control_requires_product(self, tmp_path):
        write_json(
            tmp_path / "exp.json",
            {"experiment": {"kind": "counterexample", "d": 2}, "n_max": 2},
        )
        cfg = write_json(
            tmp_path / "run.json", {"command": "product-control", "input": "exp.json"}
        )
        rc = main(["product-control", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 2

    def test_loop_check_small(self, tmp_path):
        write_json(tmp_path / "loop.json", {"loop": {"m": 1, "modes": 2, "orders": [0, 2]}})
        cfg = write_json(tmp_path / "run.json", {"command": "loop-check", "input": "loop.json"})
        rc = main(["loop-check", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert lines[0] == "level,order,kappa,pullback_residual"

    def test_wrong_document_for_command(self, tmp_path):
        write_json(tmp_path / "loop.json", {"loop": {"m": 1, "modes": 1, "orders": [0]}})
        cfg = write_json(tmp_path / "run.json", {"command": "moser", "input": "loop.json"})
        rc = main(["moser", "--config", str(cfg), "--output", str(tmp_path / "out")])
        assert rc == 2

    def test_missing_config_file(self, tmp_path):
        rc = main(["shrink", "--config", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_format_subset(self, tmp_path):
        cfg = quick_moser_config(tmp_path)
        rc = main(
            [
                "moser",
                "--config",
                str(cfg),
                "--output",
                str(tmp_path / "out"),
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert not (tmp_path / "out" / "report.json").exists()
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_validate_subcommand(self, capsys):
        rc = main(["validate", "--config", str(SPECS / "tower_loop.json")])
        assert rc == 0
        assert "0 errors" in capsys.readouterr().out

    def test_validate_subcommand_rejects(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"widget": 1})
        rc = main(["validate", "--config", str(path)])
        assert rc == 2
        out = capsys.readouterr().out
        assert "unrecognized document" in out
        assert "1 errors" in out
