"""Configuration parsing, pipeline dispatch, report emission, exit codes."""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardycover import (
    MatrixRep,
    SignatureData,
    double_group,
    induce_representation,
    schreier_transversal,
    surface_group,
)
from hardycover.covering import covering_from_json
from hardycover import cli
from hardycover.cli import (
    DENSE_EXPORT_ENTRIES,
    ISOMETRY_GRID_ENTRIES,
    PRESENTATION_GENERATORS,
    VERIFY_BLOCK_ENTRIES,
    Report,
    emit_report,
    main,
    parse_config,
    run_pipeline,
)
from hardycover.induction import BlockMonomial, Check, matrix_to_json, rep_to_json

from helpers import random_induce_config


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

    def test_oversized_int_for_isometry_alpha_refused(self, tmp_path, capsys):
        # 10**400 is a valid JSON number but no float: refused at parse, exit 2, no traceback
        with pytest.raises(ValueError, match="invalid value for field 'alpha'"):
            parse_config(json.dumps(isometry_config(alpha=10**400)))
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(isometry_config(alpha=-(10**400))))
        assert main(["isometry", "--config", str(config)]) == 2
        assert "field 'alpha'" in capsys.readouterr().err

    def test_oversized_int_for_verify_alpha_refused(self):
        with pytest.raises(ValueError, match="invalid value for field 'alpha'"):
            parse_config(json.dumps({"mode": "verify", "n": 3, "alpha": 10**400, "signs": [1, -1]}))
        # the largest float and an int of the same value are numbers
        largest = int(sys.float_info.max)
        parse_config(json.dumps({"mode": "verify", "n": 3, "alpha": largest, "signs": [1, -1]}))

    def test_underflowing_radius_rejected(self):
        with pytest.raises(ValueError, match="field 'rho1'.*underflows"):
            parse_config(json.dumps(isometry_config(rho1=0.01, n=200)))
        # n=150 does not underflow, but its inner-circle samples overflow in the pairing
        with pytest.raises(ValueError, match="field 'rho1'.*overflows"):
            parse_config(json.dumps(isometry_config(rho1=0.01, n=150)))

    def test_overflowing_samples_rejected(self, tmp_path, capsys):
        doc = isometry_config(rho1=0.01, n=150, degree=8, samples=64)
        with pytest.raises(ValueError, match="field 'rho1'.*n=150, degree=8.*overflows"):
            parse_config(json.dumps(doc))
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps(doc))
        assert main(["isometry", "--config", str(config), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert "rho1" in captured.err and captured.out == ""
        # a smaller sheet count keeps the samples finite
        parse_config(json.dumps(isometry_config(rho1=0.01, n=100, degree=8, samples=64)))

    @pytest.mark.parametrize(
        "n, samples, m, accepted",
        [(4, 2**18, 1, True), (1, 2**20, 1, True), (1, 2**20 + 1, 1, False), (3, 2**18, 2, False)],
    )
    def test_isometry_grid_budget(self, n, samples, m, accepted):
        # parse_config only: a refused size must not allocate anything
        doc = isometry_config(n=n, samples=samples, m=m)
        assert (n * samples * m <= ISOMETRY_GRID_ENTRIES) is accepted
        if accepted:
            parse_config(json.dumps(doc))
        else:
            with pytest.raises(ValueError, match="fields 'n', 'samples' and 'm'.*budget"):
                parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "n, degree, m, accepted",
        [(3, 8, 1, True), (1, 511, 1, True), (1, 512, 1, False), (3, 8, 25, True), (3, 8, 26, False)],
    )
    def test_isometry_gram_budget(self, n, degree, m, accepted):
        # the Gram check pushes (2 degree + 1) m basis sections forward on n N angles, m values
        # each, N the least power of two from 2 degree + 2
        doc = isometry_config(n=n, degree=degree, m=m, samples=2048)
        entries = (2 * degree + 1) * m * n * (1 << (2 * degree + 1).bit_length()) * m
        assert (entries <= ISOMETRY_GRID_ENTRIES) is accepted
        if accepted:
            parse_config(json.dumps(doc))
        else:
            with pytest.raises(ValueError, match="fields 'degree', 'n' and 'm'.*budget"):
                parse_config(json.dumps(doc))

    def test_underflowing_gram_scale_rejected(self):
        # c = alpha / (2 pi) = 200: the inner circle's Gram scales 2 pi 0.1**(2c + 2 degree + 1) underflow
        doc = isometry_config(rho1=0.1, alpha=400 * math.pi)
        with pytest.raises(ValueError, match="field 'rho1'.*alpha=.*underflows"):
            parse_config(json.dumps(doc))
        report = run_pipeline(parse_config(json.dumps(isometry_config(rho1=0.1, alpha=200 * math.pi))))
        assert report.passed

    @pytest.mark.parametrize("samples", [100, 96, 1000, 2**18 - 1])
    def test_samples_not_a_power_of_two_refused(self, samples, tmp_path, capsys):
        with pytest.raises(ValueError, match=f"field 'samples': {samples} is not a power of two"):
            parse_config(json.dumps(isometry_config(samples=samples)))
        # the command-line override is checked the same way
        config = tmp_path / "iso.json"
        config.write_text(json.dumps(isometry_config()))
        assert main(["isometry", "--config", str(config), "--samples", str(samples)]) == 2
        assert "'samples'" in capsys.readouterr().err

    @pytest.mark.parametrize("degree, samples", [(8, 16), (31, 32), (40, 64), (1, 2)])
    def test_undersampled_config_refused(self, degree, samples):
        with pytest.raises(ValueError, match="fields 'samples' and 'degree'.*undersample"):
            parse_config(json.dumps(isometry_config(degree=degree, samples=samples)))
        parse_config(json.dumps(isometry_config(degree=degree, samples=2 * samples)))

    @pytest.mark.parametrize(
        "n, m, accepted",
        [(2**16, 1, True), (1024, 8, True), (1, 256, True), (2**16 + 1, 1, False), (1025, 8, False), (1, 257, False)],
    )
    def test_verify_block_budget(self, n, m, accepted):
        # parse_config only: a refused size must not allocate anything
        doc = {"mode": "verify", "n": n, "m": m, "alpha": 0.7, "signs": [1, -1]}
        assert (n * m * m <= VERIFY_BLOCK_ENTRIES) is accepted
        if accepted:
            parse_config(json.dumps(doc))
        else:
            with pytest.raises(ValueError, match="fields 'n' and 'm'.*budget"):
                parse_config(json.dumps(doc))

    @pytest.mark.parametrize("mode", ["group", "induce"])
    @pytest.mark.parametrize("s, k", [(2**13, 1), (0, 2**14 + 1), (10**9, 1), (2**13 - 1, 3)])
    def test_generator_budget(self, mode, s, k):
        # parse_config only, refused before the covering or chi1 is looked at
        doc = {"mode": mode, "s": s, "k": k}
        if mode == "induce":
            doc.update(TestInduceConfig().one_sheet(), s=s, k=k)
        assert 2 * s + k > PRESENTATION_GENERATORS
        with pytest.raises(ValueError, match="fields 's' and 'k'.*budget"):
            parse_config(json.dumps(doc))

    def test_every_documented_config_accepted(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 3
        for block in blocks:
            parse_config(block)
        parse_config(json.dumps(isometry_config(samples=2048, seed=0)))


class TestInduceConfig:
    def one_sheet(self):
        identity = [[[1.0, 0.0]]]
        return {
            "mode": "induce", "s": 0, "k": 2,
            "covering": {"n": 1, "perms": {"A1": [1], "B1": [1]}},
            "chi1": {"m": 1, "images": {"A1@1": identity, "B1@1": identity}},
        }

    def with_value(self, path, value):
        doc = self.one_sheet()
        *parents, last = path.split(".")
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        return json.dumps(doc)

    def test_one_sheet_cover_induces(self):
        assert run_pipeline(parse_config(json.dumps(self.one_sheet()))).passed

    @pytest.mark.parametrize("m", [True, 1.9, "1", 0])
    def test_chi1_rank_must_be_positive_int(self, m):
        with pytest.raises(ValueError, match="field 'chi1.m'"):
            parse_config(self.with_value("chi1.m", m))

    @pytest.mark.parametrize(
        "path, value",
        [
            ("chi1.images", [[[[1.0, 0.0]]]]),
            ("chi1.images.A1@1", [[1.0, 0.0]]),
            ("chi1.images.A1@1", [[[1.0, 0.0], [0.0, 0.0]]]),
            ("chi1.images.A1@1", [[[1.0, 0.0]], [[0.0, 0.0]]]),
            ("chi1.images.A1@1", [[[1.0, 0.0, 0.0]]]),
            ("chi1.images.A1@1", [[[True, 0.0]]]),
            ("chi1.images.A1@1", [[["1", 0.0]]]),
            ("covering.n", "1"),
            ("covering.n", True),
            ("covering.n", 0),
            ("covering.perms", [[1], [1]]),
            ("covering.perms.A1", [True]),
            ("covering.perms.A1", [1.0]),
            ("covering.perms.A1", 1),
        ],
    )
    def test_bad_nested_value_named_by_path(self, path, value):
        with pytest.raises(ValueError, match=f"invalid value for field '{re.escape(path)}'"):
            parse_config(self.with_value(path, value))

    @pytest.mark.parametrize(
        "value, message",
        [
            ([[1.0, 0.0]], "': [[1.0, 0.0]] is not an 1x1 list of [re, im] pairs"),
            ([[[1.0, 0.0], [0.0, 0.0]]], "': [[[1.0, 0.0], [0.0, 0.0]]] is not an 1x1 list of [re, im] pairs"),
            ([[[1.0, 0.0, 0.0]]], "': [[[1.0, 0.0, 0.0]]] is not an 1x1 list of [re, im] pairs"),
            ([[[True, 0.0]]], "': [[[True, 0.0]]] is not an 1x1 list of [re, im] pairs"),
            ([[["1", 0.0]]], "': [[['1', 0.0]]] is not an 1x1 list of [re, im] pairs"),
            ([[[None, 0.0]]], "': [[[None, 0.0]]] is not an 1x1 list of [re, im] pairs"),
            ("1", "': '1' is not an 1x1 list of [re, im] pairs"),
            ([[[float("nan"), 0.0]]], "[0][0]': [nan, 0.0] is not finite as a float"),
            ([[[0.0, float("-inf")]]], "[0][0]': [0.0, -inf] is not finite as a float"),
            ([[[1, 10**400]]], f"[0][0]': [1, {10**400}] is not finite as a float"),
        ],
        ids=[
            "pair", "two-entries", "three-parts", "bool", "string", "null", "string-image", "nan", "minus-inf",
            "huge-int",
        ],
    )
    def test_chi1_image_refusal_names_the_image(self, value, message):
        # the array step refuses, then the scan names the first image it refuses, in config order;
        # a layout or type refused names the image as the per-image check did, a value its entry
        doc = self.one_sheet()
        doc["chi1"]["images"] = {"B1@1": [[[1.0, 0.0]]], "A1@1": value, "Z@1": value}
        with pytest.raises(ValueError) as err:
            parse_config(json.dumps(doc))
        assert str(err.value) == f"invalid value for field 'chi1.images.A1@1{message}"

    def test_oversized_int_in_chi1_entry_refused(self):
        with pytest.raises(ValueError, match=re.escape("field 'chi1.images.A1@1[0][0]'")):
            parse_config(self.with_value("chi1.images.A1@1", [[[10**400, 0]]]))
        # an int that is a float is accepted, and becomes that float
        cfg = parse_config(self.with_value("chi1.images.A1@1", [[[2**53 + 1, 0]]]))
        assert cfg.chi1_images[0, 0, 0] == float(2**53 + 1)

    def test_chi1_images_converted_once_at_parse(self):
        doc = self.one_sheet()
        doc["chi1"]["images"] = {"B1@1": [[[-0.0, 1]]], "A1@1": [[[1, -0.0]]]}
        cfg = parse_config(json.dumps(doc))
        assert cfg.chi1_images.shape == (2, 1, 1) and cfg.chi1_images.dtype == complex
        parts = cfg.chi1_images.view(float).ravel()
        assert parts.tolist() == [-0.0, 1.0, 1.0, -0.0]
        assert np.signbit(parts).tolist() == [True, False, False, True]
        assert cfg.echo()["chi1"] == doc["chi1"]  # the echo is the config as given

    @pytest.mark.parametrize("n, m, accepted", [(362, 2, True), (725, 1, False), (363, 2, False)])
    def test_dense_export_budget(self, n, m, accepted):
        # two images of rank n m: 2 * 724**2 entries fit in DENSE_EXPORT_ENTRIES = 2**20, 2 * 725**2 do not
        doc = self.one_sheet()
        doc["covering"] = {"n": n, "perms": {"A1": list(range(1, n + 1)), "B1": list(range(1, n + 1))}}
        doc["chi1"] = {"m": m, "images": {}}
        assert (2 * (n * m) ** 2 <= DENSE_EXPORT_ENTRIES) is accepted
        if accepted:
            parse_config(json.dumps(doc))
        else:
            with pytest.raises(ValueError, match="fields 'covering.n' and 'chi1.m'"):
                parse_config(json.dumps(doc))

    def test_missing_and_unknown_nested_fields_named(self):
        doc = self.one_sheet()
        del doc["covering"]["n"]
        with pytest.raises(ValueError, match="missing required field 'covering.n'"):
            parse_config(json.dumps(doc))
        with pytest.raises(ValueError, match=r"unknown field.*'chi1.rank'"):
            parse_config(self.with_value("chi1.rank", 1))


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
        from hardycover import covering

        # the rewriting entry point, behind Transversal.relator_rows and subgroup_relators
        calls = []
        original = covering._rewrite_relators
        monkeypatch.setattr(
            covering, "_rewrite_relators", lambda *args: calls.append(1) or original(*args)
        )
        report = run_pipeline(parse_config(json.dumps(self.torus_config())))
        assert report.passed
        assert len(calls) == 1

    def test_missing_label_refused_as_before(self):
        doc = self.torus_config()
        del doc["chi1"]["images"]["B1@2"]
        doc["chi1"]["images"]["B1@9"] = [[[1.0, 0.0]]]  # a label outside the alphabet does not stand in
        report = run_pipeline(parse_config(json.dumps(doc)))
        assert report.error == "ValueError: no image supplied for generator(s) ['B1@2']"
        assert report.checks == [] and "induced" not in report.extras

    def test_bulk_path_builds_nothing_per_image(self, monkeypatch):
        from hardycover import groups, induction

        counts = {"BlockMonomial": 0, "Word": 0}

        def counted(cls):
            original = cls.__post_init__

            def post_init(self):
                counts[cls.__name__] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", post_init)

        counted(induction.BlockMonomial)
        counted(groups.Word)
        seen = []
        for n in (16, 64):
            config = random_induce_config(seed=5, n=n)
            cfg = parse_config(json.dumps(config))
            counts.update(BlockMonomial=0, Word=0)
            report = run_pipeline(cfg)
            emit_report(report, fmt="json")
            assert report.passed
            seen.append((len(config["chi1"]["images"]), dict(counts)))
        (small, few), (large, many) = seen
        assert large >= 190 > small
        # chi1 is stacked with no BlockMonomial per image, and the extras are written with no Word
        assert few == many and many["BlockMonomial"] <= 2 and many["Word"] <= 2

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
        names = [c.name for c in report.checks]
        assert names[-5:] == [
            "isometry-gram[0]",
            "isometry-gram[1]",
            "isometry-residual[max]",
            "convergence-monotone",
            "convergence-final",
        ]
        # the pipeline's own checks come first, as in verify mode
        assert "signature-route-equality[1]" in names[:-5] and "pairing-symmetry[A1]" in names[:-5]
        assert max(report.extras["per_trial_residuals"]) < 1e-9
        assert [row[0] for row in report.extras["convergence"]] == [64, 128, 256]

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"degree": 20},
            {"degree": 40, "samples": 128},
            {"rho1": 0.3},
            {"rho1": 0.95, "n": 7, "degree": 30},
        ],
        ids=["readme", "degree-20", "degree-40-samples-128", "rho1-0.3", "rho1-0.95-n7-degree-30"],
    )
    def test_gram_residual_at_rounding_level(self, overrides):
        # degree 20, degree 40 at 128 samples and rho1 0.3 failed the absolute trial
        # residuals (1.9e-6, 2.1e3, 8.6e-7) and, at rho1 0.3, convergence-monotone (5.9e-7)
        report = run_pipeline(parse_config(json.dumps(isometry_config(**overrides))))
        assert report.passed, report.to_text()
        checks = {c.name: c for c in report.checks}
        assert checks["isometry-gram[0]"].residual <= 1e-13
        assert checks["isometry-gram[1]"].residual <= 1e-13
        assert checks["isometry-residual[max]"].residual <= 1e-13

    def test_pipeline_checks_show_their_block(self, monkeypatch):
        # selfadjoint and unitary to 1e-12, but the transported symmetry conditions miss it
        doc = isometry_config(n=2, alpha=0.0, samples=128, trials=2)
        cfg = parse_config(json.dumps(doc))
        sig = SignatureData(J_list=(np.array([[-1.0 - 4e-13]]), -np.eye(1)))
        monkeypatch.setattr(cli, "_signature_from_params", lambda p: sig)
        report = run_pipeline(cfg)
        assert report.error is None and not report.passed
        failing = [c for c in report.checks if not c.passed]
        names = [c.name for c in failing]
        assert "pairing-symmetry[A1]" in names and "signature-route-equality[1]" in names
        assert all(c.block is not None and c.residual > c.tolerance for c in failing)
        text = report.to_text()
        for c in failing:
            assert f"[FAIL] {c.name}: residual {c.residual:.3e} (tolerance 1.0e-12) at block {c.block}, " in text
        # the isometry itself still holds to rounding
        assert all(c.passed for c in report.checks if c.name.startswith(("isometry", "convergence")))

    @pytest.mark.parametrize(
        "degree, samples, counts",
        [
            (8, 1024, [64, 128, 256, 512, 1024]),
            (31, 128, [64, 128]),
            (8, 32, [32]),
            (32, 128, [128]),
            (40, 128, [128]),
            (63, 512, [128, 256, 512]),
            (64, 256, [256]),
        ],
    )
    def test_convergence_table_starts_where_sampling_is_valid(self, degree, samples, counts):
        # the rows are the doublings of 64 from the first that samples the degree, up to samples
        report = run_pipeline(self.quick(degree=degree, samples=samples, trials=1, rho1=0.95))
        assert report.error is None
        assert [row[0] for row in report.extras["convergence"]] == counts
        assert counts[0] >= 2 * degree + 2


def dense_induced_export(config):
    """The dense induced images of an ``induce`` config, block by block from chi1.

    Block ``(k, perm[k])`` of generator ``X`` is chi1's image of ``X@k``; an
    edge without a Schreier generator is a tree edge and carries ``I``.
    """
    n, m = config["covering"]["n"], config["chi1"]["m"]
    chi1 = config["chi1"]["images"]
    out = {}
    for label, perm in config["covering"]["perms"].items():
        dense = np.zeros((n * m, n * m), dtype=complex)
        for k, j in enumerate(perm, start=1):
            pairs = chi1.get(f"{label}@{k}")
            block = np.eye(m) if pairs is None else np.array([[complex(*x) for x in row] for row in pairs])
            dense[(k - 1) * m : k * m, (j - 1) * m : j * m] = block
        out[label] = matrix_to_json(dense)
    return out


class TestEmission:
    def test_json_byte_stable(self):
        cfg = parse_config(json.dumps(isometry_config(samples=128, trials=2)))
        first = emit_report(run_pipeline(cfg), fmt="json")
        second = emit_report(run_pipeline(cfg), fmt="json")
        assert first == second
        doc = json.loads(first)
        assert doc["passed"] is True
        assert "hardycover" in doc["versions"]

    @pytest.mark.parametrize(
        "config",
        [
            {"mode": "verify", "n": 128, "m": 1, "alpha": 0.7, "signs": [1, -1]},
            {"mode": "verify", "n": 32, "m": 8, "alpha": 0.7, "signs": [1, -1]},
            TestInduceConfig().one_sheet(),
            TestInduceMode().torus_config(),
        ],
        ids=["verify-n128-m1", "verify-n32-m8", "induce-one-sheet", "induce-torus-3"],
    )
    def test_json_byte_stable_in_verify_and_induce(self, config):
        cfg = parse_config(json.dumps(config))
        first = emit_report(run_pipeline(cfg), fmt="json")
        assert json.loads(first)["passed"] is True
        assert emit_report(run_pipeline(cfg), fmt="json") == first
        if config["mode"] == "induce":
            exported = json.loads(first)["extras"]["induced"]["images"]
            assert exported == dense_induced_export(config)


    def test_seed_changes_document(self):
        cfg0 = parse_config(json.dumps(isometry_config(samples=128, trials=2, seed=0)))
        cfg1 = parse_config(json.dumps(isometry_config(samples=128, trials=2, seed=1)))
        assert emit_report(run_pipeline(cfg0), fmt="json") != emit_report(
            run_pipeline(cfg1), fmt="json"
        )
        # the trials' gaps are read from the Gram gap, one per trial
        cfg3 = parse_config(json.dumps(isometry_config(samples=128, trials=3, seed=0)))
        doc0, doc3 = (json.loads(emit_report(run_pipeline(cfg), fmt="json")) for cfg in (cfg0, cfg3))
        assert len(doc0["extras"]["per_trial_residuals"]) == 2 and len(doc3["extras"]["per_trial_residuals"]) == 3

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


def dense_dumps(report):
    """The JSON report as ``json.dumps`` writes it with every image as its ``matrix_to_json`` lists."""
    dense = lambda mat: matrix_to_json(mat.dense())
    return json.dumps(report.to_json_doc(), sort_keys=True, indent=2, default=dense) + "\n"


def induced_along(config):
    """chi2 and the covering of an ``induce`` config, built as the pipeline builds them."""
    presentation = (double_group if config.get("double", True) else surface_group)(config["s"], config["k"])
    cov = covering_from_json(presentation, config["covering"])
    trans = schreier_transversal(cov)
    # entry by entry, independent of the one-array converter
    images = {
        lbl: np.array([[complex(*x) for x in row] for row in mat])
        for lbl, mat in config["chi1"]["images"].items()
    }
    chi1 = MatrixRep(presentation=trans, m=config["chi1"]["m"], images=images)
    return induce_representation(cov, trans, chi1), cov


# +0.0 and -0.0, the smallest subnormal, values printed with an exponent, and integer values
REPORTED_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, -0.1, 3.0, -2.0]) | st.floats(
    allow_nan=False, allow_infinity=False
)
JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


# the numbers of an array: reported floats, and ints a float cannot hold
ARRAY_NUMBERS = REPORTED_FLOATS | st.integers(2**53 + 1, 2**80) | st.integers(-(2**80), -(2**53) - 1)
ESCAPED_KEYS = ['a"b', "back\\slash", "caf\u00e9", "\u2603", "tab\tnew\nline", "", "A1@3"]


ARRAY_SHAPES = st.integers(1, 4).flatmap(lambda depth: st.lists(st.integers(1, 3), min_size=depth, max_size=depth))


@st.composite
def arrays_of(draw, shape):
    """A nested list (some levels tuples) of numbers of the given shape."""
    array = draw(st.lists(ARRAY_NUMBERS, min_size=math.prod(shape), max_size=math.prod(shape)))
    for size in reversed(shape[1:]):
        kind = draw(st.sampled_from([list, tuple]))
        array = [kind(array[i : i + size]) for i in range(0, len(array), size)]
    return array


def written_whole(value):
    """Whether ``_array_json`` takes ``value`` (a non-empty list or dict), and if so, the text it writes."""
    out = []
    if isinstance(value, dict):
        keys = sorted(value)
        taken = cli._array_json(keys, [value[key] for key in keys], "", out)
    else:
        taken = cli._array_json(None, value, "", out)
    return taken and "".join(out)


def chi1_variant(kind):
    """The torus-3 ``induce`` config with its chi1 written another way; every check still passes."""
    config = TestInduceMode().torus_config()
    images = config["chi1"]["images"]
    if kind == "int-parts":
        images.update({"A1@3": [[[0, 1]]], "B1@1": [[[-1, 0]]], "B1@2": [[[-1, 0]]], "B1@3": [[[-1, 0]]]})
    elif kind == "negative-zero":
        minus_one = [[[-1.0, -0.0]]]
        images.update({"A1@3": [[[-0.0, 1.0]]], "B1@1": minus_one, "B1@2": minus_one, "B1@3": [[[-1, -0.0]]]})
    elif kind == "labels-reordered":
        config["chi1"]["images"] = dict(sorted(images.items(), reverse=True))
    elif kind == "label-outside-alphabet":
        images["Z@7"] = [[[0.5, 0.0]]]
    return config


class TestJsonWriter:
    """The JSON report is ``json.dumps(doc, sort_keys=True, indent=2)`` of the dense document, byte for byte."""

    @pytest.mark.parametrize(
        "config",
        [
            TestInduceConfig().one_sheet(),
            TestInduceMode().torus_config(),
            random_induce_config(seed=5),
            TestInduceMode().torus_config(u2_phase=0.5),
            chi1_variant("int-parts"),
            chi1_variant("negative-zero"),
            chi1_variant("labels-reordered"),
            chi1_variant("label-outside-alphabet"),
            {"mode": "verify", "n": 3, "alpha": 0.7, "signs": [1, -1]},
            isometry_config(samples=128, trials=2),
        ],
        ids=[
            "induce-one-sheet", "induce-torus-3", "induce-64-sheets", "induce-failing", "induce-int-parts",
            "induce-negative-zero", "induce-labels-reordered", "induce-label-outside-alphabet",
            "verify", "isometry",
        ],
    )
    def test_report_is_dumps_of_the_dense_document(self, config):
        report = run_pipeline(parse_config(json.dumps(config)))
        text = emit_report(report, fmt="json")
        assert text == dense_dumps(report)
        if report.passed and config["mode"] == "induce":
            chi2, cov = induced_along(config)
            # compared as text, so the sign of every zero counts
            expected = json.dumps(rep_to_json(chi2, cov), sort_keys=True)
            assert json.dumps(json.loads(text)["extras"]["induced"], sort_keys=True) == expected
            echo = json.dumps(json.loads(text)["config"]["chi1"], sort_keys=True)
            assert echo == json.dumps(config["chi1"], sort_keys=True)
        elif config["mode"] == "induce":
            assert "induced" not in report.extras

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_block_monomials(self, data):
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        perm = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        parts = data.draw(st.lists(REPORTED_FLOATS, min_size=2 * n * m * m, max_size=2 * n * m * m))
        mat = BlockMonomial(np.array(perm), np.array(parts).view(complex).reshape(n, m, m))
        # -0.0 survives in the complex blocks, in either part
        assert np.signbit(mat.blocks.view(float)).ravel().tolist() == np.signbit(parts).tolist()
        report = Report(config={"mode": "induce"}, extras={"images": {"X": mat, "nested": [[mat]]}})
        assert emit_report(report, fmt="json") == dense_dumps(report)

    @settings(max_examples=60, deadline=None)
    @given(doc=JSON_DOCUMENTS)
    def test_drawn_documents(self, doc):
        report = Report(config={"mode": "group"}, extras={"drawn": doc})
        assert emit_report(report, fmt="json") == dense_dumps(report)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_drawn_arrays_written_whole(self, data):
        array = data.draw(arrays_of(data.draw(ARRAY_SHAPES)))
        assert written_whole(array) == json.dumps(array, sort_keys=True, indent=2)
        report = Report(config={"mode": "group"}, extras={"array": array, "nested": {"deeper": [array]}})
        assert emit_report(report, fmt="json") == dense_dumps(report)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_dicts_of_arrays_written_whole(self, data):
        shape = data.draw(ARRAY_SHAPES.filter(lambda shape: len(shape) < 4))
        keys = data.draw(st.lists(st.sampled_from(ESCAPED_KEYS) | st.text(max_size=4), min_size=1, unique=True))
        arrays = {key: data.draw(arrays_of(shape)) for key in keys}
        assert written_whole(arrays) == json.dumps(arrays, sort_keys=True, indent=2)
        report = Report(config={"mode": "group", "images": arrays}, extras={"list": [arrays, arrays]})
        assert emit_report(report, fmt="json") == dense_dumps(report)

    def test_escaped_keys_written_whole(self):
        arrays = {key: [[i, -0.0], [float("nan"), 1e16]] for i, key in enumerate(ESCAPED_KEYS)}
        assert written_whole(arrays) == json.dumps(arrays, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            [[1, 2], [3]],
            [[[1.0], [2.0]], [[3.0]]],
            [[], []],
            [[1], []],
            [[[]]],
            [[1, 2], 3],
            [1, [2]],
            [True, False],
            [[1, True]],
            [1, None],
            ["1", 2],
            [["a"]],
            [{"a": 1}],
            [[{"a": [1]}]],
            {"a": 1, "b": 2.0},
            {"a": []},
            {"a": [1], "b": []},
            {"a": [1], "b": [[1]]},
            {"a": [1, 2], "b": [1]},
            {"a": [1, 2], "b": 3},
            {"a": [False]},
            {"a": ["x"]},
            {"a": {"b": [1]}},
        ],
    )
    def test_other_content_takes_the_generic_path(self, value):
        assert written_whole(value) is False
        report = Report(config={"mode": "group"}, extras={"value": value, "empty": [], "empty_dict": {}})
        assert emit_report(report, fmt="json") == dense_dumps(report)

    def test_report_arrays_written_whole(self, monkeypatch):
        written = []
        original = cli._array_json
        monkeypatch.setattr(cli, "_array_json", lambda *args: original(*args) and not written.append(args[1]))
        for config in (TestInduceMode().torus_config(), isometry_config(samples=128, trials=2)):
            report = run_pipeline(parse_config(json.dumps(config)))
            assert emit_report(report, fmt="json") == dense_dumps(report)
        chi1, perms = TestInduceMode().torus_config()["chi1"]["images"], {"A1": [2, 3, 1], "B1": [1, 2, 3]}
        assert [chi1[key] for key in sorted(chi1)] in written
        assert [perms[key] for key in sorted(perms)] in written
        assert [1, -1] in written and report.extras["convergence"] in written
        assert report.extras["per_trial_residuals"] in written

    @settings(max_examples=60, deadline=None)
    @given(
        checks=st.lists(
            st.builds(
                Check,
                st.sampled_from(ESCAPED_KEYS) | st.text(),
                st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324]),
                st.floats(allow_nan=False) | st.sampled_from([1e-12, float("inf")]),
            ),
            max_size=5,
        )
    )
    def test_drawn_check_lists(self, checks):
        report = Report(config={"mode": "group"}, checks=checks)
        assert emit_report(report, fmt="json") == dense_dumps(report)

    def test_non_finite_residuals_and_escaped_names(self):
        names = ['relator["0"]', "back\\slash", "caf\u00e9[\u2603]", "%s %d", "a, b"]
        residuals = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300]
        checks = [Check(name, residual, 1e-12) for name, residual in zip(names, residuals)]
        report = Report(config={"mode": "verify"}, checks=checks)
        text = emit_report(report, fmt="json")
        assert text == dense_dumps(report)
        assert '"residual": NaN' in text and '"residual": -Infinity' in text and '"residual": -0.0' in text

    def test_induce_builds_each_reported_check_once(self, monkeypatch):
        made = []
        original = Check.__post_init__
        monkeypatch.setattr(Check, "__post_init__", lambda self: made.append(self.name) or original(self))
        cfg = parse_config(json.dumps(TestInduceMode().torus_config()))
        report = run_pipeline(cfg)
        emit_report(report, fmt="json")
        assert report.passed and len(report.checks) == 10
        assert sorted(made) == sorted(c.name for c in report.checks)

    def test_text_names_block_and_excess_of_a_failing_check(self):
        moved = BlockMonomial(np.array([0, 2, 1]), np.ones((3, 1, 1)))
        check = Check.exact("relator[0]", BlockMonomial.identity(3, 1).compare(moved))
        report = Report(config={"mode": "induce"}, checks=[check, Check("unitarity", 0.0, 1e-12, (1, 1))])
        lines = emit_report(report, fmt="text").splitlines()
        assert lines[1] == (
            "  [FAIL] relator[0]: residual 1.000e+00 (tolerance 1.0e-12) at block (2, 2), "
            "1e+12 times its tolerance"
        )
        assert lines[2] == "  [ok  ] unitarity: residual 0.000e+00 (tolerance 1.0e-12) at block (1, 1)"
        assert "block" not in emit_report(report, fmt="json")


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

    def test_induce_report_file_is_the_emitted_text(self, tmp_path):
        text = json.dumps(random_induce_config(seed=5))
        config = tmp_path / "induce.json"
        config.write_text(text)
        out = tmp_path / "induced.json"
        code = main(["induce", "--config", str(config), "--format", "json", "--out", str(out)])
        assert code == 0
        expected = emit_report(run_pipeline(parse_config(text)), fmt="json")
        assert out.read_bytes() == expected.encode("utf-8")

    def test_unwritable_path_exits_one(self, tmp_path, capsys):
        config = tmp_path / "v.json"
        config.write_text('{"mode": "verify", "n": 1, "alpha": 0.0, "signs": [1, 1]}')
        code = main([
            "verify", "--config", str(config),
            "--out", str(tmp_path / "missing-dir" / "x.json"),
        ])
        assert code == 1
        assert "I/O error" in capsys.readouterr().err
