"""Configuration parsing, pipeline dispatch, report emission, exit codes."""

import json

import numpy as np
import pytest

from hardycover.cli import Report, emit_report, main, parse_config, run_pipeline
from hardycover.induction import matrix_to_json


def isometry_config(**overrides):
    cfg = {"mode": "isometry", "rho1": 0.6, "n": 3, "alpha": 0.7, "signs": [1, -1]}
    cfg.update(overrides)
    return cfg


class TestParseConfig:
    def test_minimal_isometry_fills_defaults(self):
        cfg = parse_config(json.dumps(isometry_config()))
        assert cfg.mode == "isometry"
        assert cfg.params["samples"] == 1024
        assert cfg.params["degree"] == 8
        assert cfg.params["trials"] == 20
        assert cfg.params["seed"] == 0
        assert cfg.params["m"] == 1
        assert cfg.params["tolerance"] == 1e-9

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            parse_config('{"mode": "bogus"}')

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate key"):
            parse_config('{"mode": "isometry", "rho1": 0.6, "rho1": 0.7}')

    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="rho_one"):
            parse_config(json.dumps(isometry_config(rho_one=0.5)))

    def test_missing_required_field_named(self):
        cfg = isometry_config()
        del cfg["rho1"]
        with pytest.raises(ValueError, match="rho1"):
            parse_config(json.dumps(cfg))

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            parse_config(json.dumps(isometry_config(tolerance=-1.0)))
        with pytest.raises(ValueError, match="signs"):
            parse_config(json.dumps(isometry_config(signs=[2, 1])))
        with pytest.raises(ValueError, match="rho1"):
            parse_config(json.dumps(isometry_config(rho1=1.5)))

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_config("[1, 2]")

    @pytest.mark.parametrize(
        "mode_fields, field",
        [
            ({"mode": "verify", "n": 3, "alpha": 0.7, "signs": [1, -1]}, "tolerance"),
            ({"mode": "verify", "n": 3, "alpha": 0.7, "signs": [1, -1]}, "seed"),
            ({"mode": "induce", "s": 0, "k": 2, "covering": {}, "chi1": {}}, "tolerance"),
            ({"mode": "induce", "s": 0, "k": 2, "covering": {}, "chi1": {}}, "seed"),
            ({"mode": "group", "s": 0, "k": 2}, "seed"),
        ],
    )
    def test_fields_without_effect_rejected(self, mode_fields, field):
        with pytest.raises(ValueError, match=f"unknown field.*{field}"):
            parse_config(json.dumps({**mode_fields, field: 1e-30 if field == "tolerance" else 1}))

    def test_bool_for_number_rejected(self):
        verify = {"mode": "verify", "n": 3, "alpha": 0.7, "signs": [1, -1]}
        for field, value in (("n", True), ("m", True), ("alpha", False), ("signs", [True, -1])):
            with pytest.raises(ValueError, match=f"field {field!r}"):
                parse_config(json.dumps({**verify, field: value}))
        with pytest.raises(ValueError, match="field 'seed'"):
            parse_config(json.dumps(isometry_config(seed=True)))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_rejected(self, constant, tmp_path, capsys):
        text = f'{{"mode": "isometry", "rho1": 0.6, "n": 3, "alpha": {constant}, "signs": [1, -1]}}'
        with pytest.raises(ValueError, match="field 'alpha'"):
            parse_config(text)
        nested = f'{{"mode": "verify", "n": 3, "alpha": 0.7, "signs": [1, {constant}]}}'
        with pytest.raises(ValueError, match="field 'signs'"):
            parse_config(nested)
        config = tmp_path / "nan.json"
        config.write_text(text)
        assert main(["isometry", "--config", str(config)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_underflowing_radius_rejected(self):
        with pytest.raises(ValueError, match="field 'rho1'.*underflows"):
            parse_config(json.dumps(isometry_config(rho1=0.01, n=200)))
        parse_config(json.dumps(isometry_config(rho1=0.01, n=150)))


class TestVerifyMode:
    def test_torus_fixture_all_pass(self):
        cfg = parse_config('{"mode": "verify", "n": 3, "alpha": 0.7, "signs": [1, -1]}')
        report = run_pipeline(cfg)
        assert report.passed
        assert all(c.passed for c in report.checks)
        names = {c.name for c in report.checks}
        assert any(name.startswith("pairing-symmetry") for name in names)
        assert any(name.startswith("signature-route-equality") for name in names)


class TestInduceMode:
    def torus_config(self, u2_phase=0.0):
        scalar = lambda z: matrix_to_json(np.array([[z]], dtype=complex))
        return {
            "mode": "induce",
            "s": 0,
            "k": 2,
            "covering": {"n": 3, "perms": {"A1": [2, 3, 1], "B1": [1, 2, 3]}},
            "chi1": {
                "m": 1,
                "images": {
                    "A1@3": scalar(np.exp(0.4j)),
                    "B1@1": scalar(np.exp(1.0j)),
                    "B1@2": scalar(np.exp(1.0j + u2_phase * 1j)),
                    "B1@3": scalar(np.exp(1.0j)),
                },
            },
        }

    def test_valid_covering_induces(self):
        report = run_pipeline(parse_config(json.dumps(self.torus_config())))
        assert report.passed
        induced = report.extras["induced"]
        assert induced["n"] == 3
        assert induced["block_structure"]["A1"] == [[1, 2], [2, 3], [3, 1]]
        assert report.extras["transversal"] == ["1", "A1", "A1 A1"]

    def test_inconsistent_chi1_names_relator(self):
        report = run_pipeline(parse_config(json.dumps(self.torus_config(u2_phase=0.5))))
        assert not report.passed
        assert "B1@2 B1@1^-1 has residual" in report.error
        assert [c.name for c in report.checks if not c.passed] == ["chi1:relator[0]", "chi1:relator[1]"]

    def test_chi1_relators_rewritten_once(self, monkeypatch):
        from hardycover import induction

        calls = []
        original = induction.subgroup_relators
        monkeypatch.setattr(
            induction, "subgroup_relators", lambda *args: calls.append(1) or original(*args)
        )
        report = run_pipeline(parse_config(json.dumps(self.torus_config())))
        assert report.passed
        assert len(calls) == 1

    def test_invalid_covering_reported_not_raised(self):
        cfg_doc = self.torus_config()
        cfg_doc["covering"]["perms"] = {"A1": [2, 1, 3], "B1": [2, 3, 1]}
        report = run_pipeline(parse_config(json.dumps(cfg_doc)))
        assert not report.passed
        assert "not a covering" in report.error


class TestGroupMode:
    def test_double_presentation_emitted(self):
        cfg = parse_config('{"mode": "group", "s": 1, "k": 1, "double": true}')
        report = run_pipeline(cfg)
        assert report.passed
        assert report.extras["presentation"]["genus"] == 2


class TestIsometryMode:
    def quick(self, **overrides):
        overrides.setdefault("samples", 256)
        overrides.setdefault("trials", 3)
        return parse_config(json.dumps(isometry_config(**overrides)))

    def test_quick_run_passes(self):
        report = run_pipeline(self.quick())
        assert report.passed
        names = {c.name for c in report.checks}
        assert {
            "closed-form[S1]",
            "closed-form[S2]",
            "isometry-residual[max]",
            "convergence-monotone",
            "convergence-final",
        } <= names
        assert max(report.extras["per_trial_residuals"]) < 1e-9
        assert [row[0] for row in report.extras["convergence"]] == [64, 128, 256]


class TestEmission:
    def test_json_byte_stable(self):
        cfg = parse_config(json.dumps(isometry_config(samples=128, trials=2)))
        first = emit_report(run_pipeline(cfg), fmt="json")
        second = emit_report(run_pipeline(cfg), fmt="json")
        assert first == second
        doc = json.loads(first)
        assert doc["passed"] is True
        assert "hardycover" in doc["versions"]

    def test_seed_changes_document(self):
        cfg0 = parse_config(json.dumps(isometry_config(samples=128, trials=2, seed=0)))
        cfg1 = parse_config(json.dumps(isometry_config(samples=128, trials=2, seed=1)))
        assert emit_report(run_pipeline(cfg0), fmt="json") != emit_report(
            run_pipeline(cfg1), fmt="json"
        )

    def test_text_rendering(self):
        cfg = parse_config('{"mode": "verify", "n": 2, "alpha": 0.1, "signs": [1, 1]}')
        text = emit_report(run_pipeline(cfg), fmt="text")
        assert "passed: True" in text
        assert "elapsed" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit_report(Report(config={}), fmt="yaml")

    def test_writes_file(self, tmp_path):
        cfg = parse_config('{"mode": "group", "s": 0, "k": 2}')
        out = tmp_path / "report.json"
        emit_report(run_pipeline(cfg), fmt="json", path=str(out))
        assert json.loads(out.read_text())["passed"] is True


class TestMain:
    def test_group_subcommand(self, capsys):
        code = main(["group", "--genus", "0", "--boundary", "2", "--double"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["extras"]["presentation"]["generators"] == ["A1", "B1"]

    def test_isometry_subcommand_with_overrides(self, tmp_path, capsys):
        config = tmp_path / "iso.json"
        config.write_text(json.dumps(isometry_config(trials=2)))
        out = tmp_path / "report.json"
        code = main([
            "isometry", "--config", str(config),
            "--samples", "128", "--seed", "3",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["samples"] == 128
        assert doc["config"]["seed"] == 3

    def test_failing_pipeline_exits_one(self, tmp_path):
        config = tmp_path / "bad.json"
        doc = TestInduceMode().torus_config(u2_phase=0.5)
        config.write_text(json.dumps(doc))
        assert main(["induce", "--config", str(config)]) == 1

    def test_bad_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "bogus.json"
        config.write_text('{"mode": "bogus"}')
        assert main(["verify", "--config", str(config)]) == 2

    def test_unwritable_path_exits_one(self, tmp_path, capsys):
        config = tmp_path / "v.json"
        config.write_text('{"mode": "verify", "n": 1, "alpha": 0.0, "signs": [1, 1]}')
        code = main([
            "verify", "--config", str(config),
            "--out", str(tmp_path / "missing-dir" / "x.json"),
        ])
        assert code == 1
        assert "I/O error" in capsys.readouterr().err
