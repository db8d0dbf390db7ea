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
from hardycover.induction import BlockMonomial, Check, CheckReport

from helpers import (
    assert_chi1_rows_read_off_chi2,
    assert_same_text,
    compare,
    count_calls,
    identity,
    matrix_to_json,
    random_induce_config,
    reference_isometry_report,
)


def documented_configs():
    """The JSON config examples of README.md, as text."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(r"```json\n(.*?)```", readme, flags=re.S)


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
        with pytest.raises(ValueError, match="fields 'rho1', 'n', 'degree' and 'alpha': rho1=0.01, n=150.*overflows"):
            parse_config(json.dumps(isometry_config(rho1=0.01, n=150)))

    def test_overflowing_samples_rejected(self, tmp_path, capsys):
        doc = isometry_config(rho1=0.01, n=150, degree=8, samples=64)
        with pytest.raises(ValueError, match="fields 'rho1', 'n', 'degree' and 'alpha': .*n=150, degree=8.*overflows"):
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

    @pytest.mark.parametrize(
        "trials, degree, m, accepted",
        [(20, 8, 1, True), (30840, 8, 1, True), (30841, 8, 1, False), (15420, 8, 2, True), (15421, 8, 2, False),
         (104857, 2, 1, True), (104858, 2, 1, False), (10**7, 2, 1, False)],
    )
    def test_isometry_draw_budget(self, monkeypatch, trials, degree, m, accepted):
        # the run draws every trial at once, (trials, 2, 2, 2 degree + 1, m) normals: 10**7 trials at degree 2
        # would be 1.6 GB; a refusal comes before any work, so the cover and the run are never reached
        doc = isometry_config(trials=trials, degree=degree, m=m, samples=64)
        entries = trials * 2 * (2 * degree + 1) * m
        assert (entries <= ISOMETRY_GRID_ENTRIES) is accepted
        if accepted:
            assert parse_config(json.dumps(doc)).params["trials"] == trials
            return
        for name in ("make_annulus_cover", "verify_isometry", "_check_sample_count"):
            monkeypatch.setattr(cli, name, None)
        message = (f"invalid values for fields 'trials', 'degree' and 'm': trials={trials}, degree={degree}, m={m} "
                   f"give {entries} coefficient entries to draw, over the budget of {ISOMETRY_GRID_ENTRIES}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "config, field, value, rule",
        [
            ({"mode": "group", "s": 0, "k": 2}, "s", -1, "an integer, 0 or more"),
            ({"mode": "induce", "s": 0, "k": 2, "covering": {}, "chi1": {}}, "k", 0, "an integer, 1 or more"),
            ({"mode": "verify", "n": 3, "alpha": 0.7, "signs": [1, -1]}, "signs", [1], "two signs, each 1 or -1"),
            (isometry_config(), "tolerance", 0, "a finite number above 0"),
            (None, "covering.n", 0, "an integer, 1 or more"),  # None: the one-sheet induce config
            (None, "chi1.images", [], "an object"),
        ],
        ids=["group", "induce", "verify", "isometry", "covering", "chi1"],
    )
    def test_field_refusal_states_the_rule(self, config, field, value, rule):
        # one per field table; the prefix the earlier messages had is kept
        *parents, last = field.split(".")
        target = config = json.loads(json.dumps(config or TestInduceConfig().one_sheet()))
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ValueError) as refused:
            parse_config(json.dumps(config))
        assert str(refused.value) == f"invalid value for field {field!r}: {value!r} ({rule})"

    def test_every_validator_states_its_rule(self):
        tables = [schema for _, schema, _ in cli._MODES.values()] + [cli._COVERING_FIELDS, cli._CHI1_FIELDS]
        validators = {validator for table in tables for _, _, validator in table.values()}
        assert len(validators) == 8 and all(type(v.rule) is str and v.rule for v in validators)
        assert parse_config(json.dumps(isometry_config())).params["rho1"] == 0.6
        with pytest.raises(ValueError, match=re.escape("1.5 (a number strictly between 0 and 1)")):
            parse_config(json.dumps(isometry_config(rho1=1.5)))

    def test_underflowing_gram_scale_rejected(self):
        # c = alpha / (2 pi) = 200: the inner circle's Gram scales 2 pi 0.1**(2c + 2 degree + 1) underflow
        doc = isometry_config(rho1=0.1, alpha=400 * math.pi)
        with pytest.raises(ValueError, match="fields 'rho1', 'n', 'degree' and 'alpha': rho1=0.1, .*alpha=.*underflows"):
            parse_config(json.dumps(doc))
        report = run_pipeline(parse_config(json.dumps(isometry_config(rho1=0.1, alpha=200 * math.pi))))
        assert report.passed

    @pytest.mark.parametrize("alpha, terms", [(1e308, "1e-7.06e+306"), (-1e308, "1e7.06e+306"), (-1e300, "1e7.06e+298")])
    def test_huge_alpha_refusal_names_every_field_briefly(self, alpha, terms):
        # alpha, not rho1, puts the pairing out of range: the four fields of the bound are named, the
        # terms' decimal exponents are printed to three digits rather than in full, and only the side that
        # fails is named (both bounds print alike at this alpha, so naming both said one bound twice):
        # a large positive alpha underflows the pairing, a large negative one overflows it
        with pytest.raises(ValueError) as refused:
            parse_config(json.dumps(isometry_config(alpha=alpha)))
        message = str(refused.value)
        assert message.startswith(f"invalid values for fields 'rho1', 'n', 'degree' and 'alpha': rho1=0.6, n=3, degree=8, alpha={alpha!r} ")
        side = f"as small as {terms}, so the pairing underflows"
        if alpha < 0:
            side = f"as large as {terms}, so the pairing overflows"
        assert message.endswith(f"give inner-circle pairing terms {side}") and len(message) < 300
        assert ("overflows" in message) != ("underflows" in message)

    def test_pairing_range_refusal_names_both_sides_when_both_fail(self):
        # a tiny rho1 at a high degree: the largest terms overflow and the least Gram scale underflows
        with pytest.raises(ValueError) as refused:
            parse_config(json.dumps(isometry_config(rho1=1e-7, n=2, degree=40, samples=128)))
        message = str(refused.value)
        sides = r"terms as small as 1e-\d+ and as large as 1e\d+, so the pairing underflows and overflows$"
        assert re.search(sides, message)

    @pytest.mark.parametrize("samples", [100, 96, 1000, 2**18 - 1])
    def test_samples_not_a_power_of_two_refused(self, samples, tmp_path, capsys):
        with pytest.raises(ValueError, match=f"field 'samples': {samples} is not a power of two"):
            parse_config(json.dumps(isometry_config(samples=samples)))
        # the command line reads the same refusal from the config file
        config = tmp_path / "iso.json"
        config.write_text(json.dumps(isometry_config(samples=samples)))
        assert main(["isometry", "--config", str(config)]) == 2
        assert f"field 'samples': {samples} is not a power of two" in capsys.readouterr().err

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
        blocks = documented_configs()
        assert len(blocks) == 3
        for block in blocks:
            parse_config(block)
        parse_config(json.dumps(isometry_config(samples=2048, seed=0)))


class TestInduceConfig:
    def one_sheet(self):
        one = [[[1.0, 0.0]]]
        return {
            "mode": "induce", "s": 0, "k": 2,
            "covering": {"n": 1, "perms": {"A1": [1], "B1": [1]}},
            "chi1": {"m": 1, "images": {"A1@1": one, "B1@1": one}},
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

    @pytest.mark.parametrize("m", [True, 1.9, 1.0, "1", 0])
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
            ([[1.0, 0.0]], "': [[1.0, 0.0]] is not a list of [re, im] pairs of shape 1x1"),
            ([[[1.0, 0.0], [0.0, 0.0]]], "': [[[1.0, 0.0], [0.0, 0.0]]] is not a list of [re, im] pairs of shape 1x1"),
            ([[[1.0, 0.0, 0.0]]], "': [[[1.0, 0.0, 0.0]]] is not a list of [re, im] pairs of shape 1x1"),
            ([[[True, 0.0]]], "': [[[True, 0.0]]] is not a list of [re, im] pairs of shape 1x1"),
            ([[["1", 0.0]]], "': [[['1', 0.0]]] is not a list of [re, im] pairs of shape 1x1"),
            ([[[None, 0.0]]], "': [[[None, 0.0]]] is not a list of [re, im] pairs of shape 1x1"),
            ("1", "': '1' is not a list of [re, im] pairs of shape 1x1"),
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
        assert cfg._built.images["A1@1"].blocks[0, 0, 0] == float(2**53 + 1)

    def test_chi1_images_converted_once_at_parse(self):
        doc = self.one_sheet()
        doc["chi1"]["images"] = {"B1@1": [[[-0.0, 1]]], "A1@1": [[[1, -0.0]]]}
        cfg = parse_config(json.dumps(doc))
        array = cfg.params["chi1"]["images"].blocks[:, 0]  # the echo's stack, in the config's label order
        assert array.shape == (2, 1, 1) and array.dtype == complex
        parts = array.view(float).ravel()
        assert parts.tolist() == [-0.0, 1.0, 1.0, -0.0]
        assert np.signbit(parts).tolist() == [True, False, False, True]
        assert cfg.echo()["chi1"] == doc["chi1"]  # the echo is the config as given
        # chi1 is stacked from the same array, in the transversal's label order
        chi1 = cfg._built
        assert chi1.presentation.alphabet == ("A1@1", "B1@1")
        stacked = np.stack([chi1.images[label].blocks[0] for label in ("B1@1", "A1@1")])
        assert stacked.view(float).ravel().tobytes() == parts.tobytes()

    @pytest.mark.parametrize("n, m, accepted", [(362, 2, True), (725, 1, False), (363, 2, False)])
    def test_dense_export_budget(self, n, m, accepted):
        # two images of rank n m: 2 * 724**2 entries fit in DENSE_EXPORT_ENTRIES = 2**20, 2 * 725**2 do not
        # an n-cycle and the identity: the Schreier labels are A1@n and every B1@k
        doc = self.one_sheet()
        doc["covering"] = {"n": n, "perms": {"A1": [*range(2, n + 1), 1], "B1": list(range(1, n + 1))}}
        eye = [[[float(i == j), 0.0] for j in range(m)] for i in range(m)]
        doc["chi1"] = {"m": m, "images": {label: eye for label in [f"A1@{n}", *(f"B1@{k}" for k in range(1, n + 1))]}}
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
        assert sorted(induced) == ["images", "m", "n"] and (induced["n"], induced["m"]) == (3, 1)
        # block row k of chi2(A1) holds its block in column sigma_A1(k): 1 -> 2 -> 3 -> 1
        assert induced["images"]["A1"].perm.tolist() == [1, 2, 0]
        assert report.extras["transversal"] == ["1", "A1", "A1 A1"]

    def test_inconsistent_chi1_names_relator(self):
        report = run_pipeline(parse_config(json.dumps(self.torus_config(u2_phase=0.5))))
        assert not report.passed
        assert "B1@2 B1@1^-1 has residual" in report.error
        assert [c.name for c in report.checks if not c.passed] == ["chi1:relator[0]", "chi1:relator[1]"]

    def test_chi1_relators_rewritten_once(self, monkeypatch):
        from hardycover import covering

        # the rewriting entry point, behind Transversal.relator_rows and subgroup_relators: chi1's rows are
        # read off chi2's fold, so only a refusal, which names the rewritten relators, rewrites them
        calls = count_calls(monkeypatch, covering, "_rewrite_relators")
        report = run_pipeline(parse_config(json.dumps(self.torus_config())))
        assert report.passed and sum(name.startswith("chi1:") for name in report.table.names) == 4 + 3
        assert len(calls) == 0
        report = run_pipeline(parse_config(json.dumps(self.torus_config(u2_phase=0.5))))
        assert "rewritten relator B1@2 B1@1^-1 has residual" in report.error
        assert len(calls) == 1

    def test_missing_label_refused_as_before(self):
        # refused at parse, with the labels the covering's transversal has
        doc = self.torus_config()
        del doc["chi1"]["images"]["B1@2"]
        doc["chi1"]["images"]["B1@9"] = [[[1.0, 0.0]]]  # a label outside the alphabet does not stand in
        with pytest.raises(ValueError) as refused:
            parse_config(json.dumps(doc))
        assert str(refused.value) == (
            "invalid value for field 'chi1.images': missing labels ['B1@2'], unknown labels ['B1@9']; "
            "the Schreier labels are ['B1@1', 'B1@2', 'A1@3', 'B1@3']"
        )

    def test_unknown_label_refused(self):
        doc = self.torus_config()
        doc["chi1"]["images"]["bogus"] = [[[5, 0]]]
        with pytest.raises(ValueError, match=re.escape("'chi1.images': missing labels [], unknown labels ['bogus']")):
            parse_config(json.dumps(doc))

    FAULTS = {
        "non-bijective-row": ("covering.perms.A1", lambda doc: doc["covering"]["perms"].update(A1=[2, 2, 1])),
        "disconnected": ("covering.perms", lambda doc: doc["covering"]["perms"].update(A1=[2, 1, 3])),
        "missing-generator": ("covering.perms", lambda doc: doc["covering"]["perms"].pop("B1")),
        "extra-generator": ("covering.perms", lambda doc: doc["covering"]["perms"].update(C1=[1, 2, 3])),
        "rows-of-different-lengths": ("covering.perms", lambda doc: doc["covering"]["perms"].update(B1=[1, 2])),
        "sheet-count-disagrees": ("covering.n", lambda doc: doc["covering"].update(n=4)),
        "extra-label": ("chi1.images", lambda doc: doc["chi1"]["images"].update({"A1@1": [[[1.0, 0.0]]]})),
        "missing-label": ("chi1.images", lambda doc: doc["chi1"]["images"].pop("A1@3")),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    def test_structural_fault_refused_at_parse(self, fault, tmp_path, capsys):
        # each of these ran into the pipeline and exited 1, naming no field
        field, corrupt = self.FAULTS[fault]
        doc = self.torus_config()
        corrupt(doc)
        config, out = tmp_path / "induce.json", tmp_path / "induced.json"
        config.write_text(json.dumps(doc))
        assert main(["induce", "--config", str(config), "--format", "json", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: invalid value for field '{field}': ")
        assert captured.out == "" and not out.exists()
        if field == "chi1.images":
            assert "the Schreier labels are ['B1@1', 'B1@2', 'A1@3', 'B1@3']" in captured.err

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
        # each table of images is written whole: one call for the echoed chi1, one for chi2's images
        writer, tables = cli._images_json, []
        counting = lambda images, *args: tables.append(images) or writer(images, *args)
        monkeypatch.setattr(cli, "_images_json", counting)
        seen = []
        for n in (16, 64):
            config = random_induce_config(seed=5, n=n)
            cfg = parse_config(json.dumps(config))
            counts.update(BlockMonomial=0, Word=0)
            tables.clear()
            report = run_pipeline(cfg)
            emit_report(report, fmt="json")
            assert report.passed
            echo, induced = report.config["chi1"]["images"], report.extras["induced"]["images"]
            assert len(tables) == 2 and tables[0] is echo and tables[1] is induced
            seen.append((len(config["chi1"]["images"]), dict(counts)))
        (small, few), (large, many) = seen
        assert large >= 190 > small
        # chi1 and chi2 are stacked and written with no BlockMonomial made, and the extras with no Word
        assert few == many and many["BlockMonomial"] == 0 and many["Word"] <= 2

    def test_invalid_covering_reported_not_raised(self, tmp_path, capsys):
        # reported at parse, by the covering reader's field and message, with exit 2 and no traceback
        cfg_doc = self.torus_config()
        cfg_doc["covering"]["perms"] = {"A1": [2, 1, 3], "B1": [2, 3, 1]}
        config = tmp_path / "induce.json"
        config.write_text(json.dumps(cfg_doc))
        assert main(["induce", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "invalid value for field 'covering.perms': not a covering of this surface: relator" in err


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

    def test_kernel_calls_independent_of_trials(self, monkeypatch):
        # the trials reach verify_isometry as one coefficient array: the Laurent basis and the Cauchy kernels
        # are sampled and pushed forward as often for 20 trials as for 1, and no trial is sampled on its own
        from hardycover import hardy

        counts = []
        for trials in (1, 20):
            with monkeypatch.context() as patch:
                calls = [count_calls(patch, hardy, name) for name in ("_uniform_values", "_pushforward")]
                report = run_pipeline(self.quick(samples=128, trials=trials))
            assert report.passed and len(report.extras["per_trial_residuals"]) == trials
            counts.append([len(record) for record in calls])
        assert counts[0] == counts[1] and min(counts[0]) > 0


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
        assert_same_text(emit_report(run_pipeline(cfg), fmt="json"), first)
        if config["mode"] == "induce":
            exported = json.loads(first)["extras"]["induced"]["images"]
            expected = json.dumps(dense_induced_export(config), sort_keys=True)
            assert_same_text(json.dumps(exported, sort_keys=True), expected)


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

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"m": 2},
            {"degree": 20},
            {"degree": 40, "samples": 128},
            {"rho1": 0.3},
            {"rho1": 0.95, "n": 7, "degree": 30},
            {"n": 1},
            *({"degree": 8, "samples": 1024, "trials": 20, "seed": seed} for seed in (1, 2, 3, 97, 1234)),
        ],
        ids=["readme", "m-2", "degree-20", "degree-40-samples-128", "rho1-0.3", "rho1-0.95-n7-degree-30", "n-1",
             *(f"bench-seed-{seed}" for seed in (1, 2, 3, 97, 1234))],
    )
    def test_isometry_report_matches_the_per_section_per_count_path(self, overrides):
        # one trial draw and one kernel grid per circle give the report of the path that
        # draws each section and samples the kernels at each count on its own, byte for byte
        config = isometry_config(**overrides)
        assert emit_report(run_pipeline(parse_config(json.dumps(config))), "json") == reference_isometry_report(config)

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


def strict_json(text):
    """``json.loads`` of a report that refuses ``NaN``, ``Infinity`` and ``-Infinity``."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def row_dicts(rows):
    """``(name, residual, tolerance, ...)`` rows as the JSON report's check dicts."""
    return [{"name": r[0], "passed": r[1] < r[2], "residual": r[1], "tolerance": r[2]} for r in rows]


def dense_dumps(report):
    """The JSON report as ``json.dumps`` writes it, every table of images as its labels -> images dict,
    every image as its ``matrix_to_json`` lists and the check table as the dicts of its ``Check`` rows."""

    def default(value):
        if isinstance(value, CheckReport):
            return row_dicts([(c.name, c.residual, c.tolerance) for c in value.checks])
        if isinstance(value, cli._Images):
            return dict(value)
        return matrix_to_json(value.dense())

    return json.dumps(report.to_json_doc(), sort_keys=True, default=default) + "\n"


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
# the last three are, or end in, the writer's first hole tokens as json quotes them
ESCAPED_KEYS = ['a"b', "back\\slash", "caf\u00e9", "\u2603", "tab\tnew\nline", "", "A1@3", "\x00", "\x00\x00", '"\x00']


def images_table(images):
    """A dict of block-monomials of one block shape as a report's table of images."""
    mats = list(images.values())
    n, m = (mats[0].n, mats[0].m) if mats else (0, 0)
    perms = np.array([mat.perm for mat in mats], dtype=np.intp).reshape(len(mats), n)
    return cli._Images(images, perms, np.array([mat.blocks for mat in mats], dtype=complex).reshape(len(mats), n, m, m))


# one image: sheet 0 holds its block in column 1, sheet 1 in column 0; and a table of it alone
IMAGE = BlockMonomial(np.array([1, 0]), (np.arange(8.0) - 0.5j).reshape(2, 2, 2))
IMAGES = images_table({"I": IMAGE})
ARRAY_SHAPES = st.integers(1, 4).flatmap(lambda depth: st.lists(st.integers(1, 3), min_size=depth, max_size=depth))


@st.composite
def arrays_of(draw, shape):
    """A nested list (some levels tuples) of numbers of the given shape."""
    array = draw(st.lists(ARRAY_NUMBERS, min_size=math.prod(shape), max_size=math.prod(shape)))
    for size in reversed(shape[1:]):
        kind = draw(st.sampled_from([list, tuple]))
        array = [kind(array[i : i + size]) for i in range(0, len(array), size)]
    return array


CHECK_NAMES = st.sampled_from(ESCAPED_KEYS + ['relator["0"]', "%s %d", "a, b"]) | st.text(max_size=6)
RESIDUALS = st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-05]) | st.floats()
TOLERANCES = st.sampled_from([1e-12, 1e-9, float("inf")]) | st.floats(allow_nan=False)


@st.composite
def check_tables(draw):
    """A check table joined from stacked segments and single rows, some prefixed, with its rows as drawn.

    A stacked segment is built from its columns, one tolerance and a sheet block per row, as a
    comparison builds it; single rows have any tolerance and a block, which may be missing or
    hold degrees 0 or below, as the Gram checks' do.
    """
    table, rows = CheckReport.rows([]), []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            k, tolerance = draw(st.integers(0, 5)), draw(TOLERANCES)
            column = lambda values: draw(st.lists(values, min_size=k, max_size=k))
            names, residuals = column(CHECK_NAMES), column(RESIDUALS)
            blocks = column(st.tuples(st.integers(1, 9), st.integers(1, 9)))
            segment_rows = list(zip(names, residuals, [tolerance] * k, blocks))
            segment = CheckReport(names, residuals, [tolerance] * k, blocks)
        else:
            block = st.none() | st.tuples(st.integers(-3, 3), st.integers(-3, 3))
            segment_rows = draw(st.lists(st.tuples(CHECK_NAMES, RESIDUALS, TOLERANCES, block), max_size=4))
            segment = CheckReport.rows(segment_rows)
        if draw(st.booleans()):
            prefix = draw(CHECK_NAMES)
            segment, segment_rows = segment.prefixed(prefix), [(prefix + name, *row) for name, *row in segment_rows]
        table, rows = table + segment, rows + segment_rows
    return table, rows


CHI1_VARIANTS = [
    "int-parts", "negative-zero", "labels-reordered", "label-outside-alphabet", "shared-value", "signed-zeros",
    "big-int", "overflowing",
]


def chi1_variant(kind):
    """The torus-3 ``induce`` config with its chi1 written another way.

    Every check still passes, except that an image for a label outside the
    alphabet is refused at parse and an image far from unitary fails.
    """
    config = TestInduceMode().torus_config()
    images = config["chi1"]["images"]
    if kind == "shared-value":
        images["A1@3"] = images["B1@1"]
    elif kind == "signed-zeros":
        one = [[[1.0, -0.0]]]
        images.update({"A1@3": [[[-1.0, 0.0]]], "B1@1": one, "B1@2": [[[1, -0.0]]], "B1@3": one})
    elif kind == "big-int":
        images["A1@3"] = [[[2**53 + 1, 0]]]
    elif kind == "overflowing":
        images["A1@3"] = [[[1e308, -1e308]]]
    elif kind == "int-parts":
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
    """The JSON report is ``json.dumps(doc, sort_keys=True)`` of the dense document, byte for byte."""

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
            chi1_variant("shared-value"),
            chi1_variant("signed-zeros"),
            chi1_variant("big-int"),
            # numpy's warnings do not raise in the CLI, so only the run's own error state stops these overflows
            pytest.param(chi1_variant("overflowing"), marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
            # a finite entry whose products overflow, once written with "residual": Infinity
            pytest.param(
                json.loads(TestInduceConfig().with_value("chi1.images.A1@1", [[[1e300, 0]]])),
                marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),
            ),
            {"mode": "verify", "n": 3, "alpha": 0.7, "signs": [1, -1]},
            isometry_config(samples=128, trials=2),
        ],
        ids=[
            "induce-one-sheet", "induce-torus-3", "induce-64-sheets", "induce-failing", "induce-int-parts",
            "induce-negative-zero", "induce-labels-reordered", "induce-shared-value", "induce-signed-zeros", "induce-big-int", "induce-overflowing",
            "induce-entry-1e300", "verify", "isometry",
        ],
    )
    def test_report_is_dumps_of_the_dense_document(self, config):
        cfg = parse_config(json.dumps(config))
        report = run_pipeline(cfg)
        text = emit_report(report, fmt="json")
        assert_same_text(text, dense_dumps(report))
        # strict JSON: no NaN or Infinity, even where a product overflowed
        assert strict_json(text)["error"] == report.error
        if config["mode"] != "induce":
            return
        # the echo is the config as given, compared as text, so ints and the sign of every zero count
        echo = json.dumps(json.loads(text)["config"]["chi1"], sort_keys=True)
        assert echo == json.dumps(config["chi1"], sort_keys=True)
        if report.passed:
            chi2, cov = induced_along(config)
            dense = lambda mat: matrix_to_json(mat.dense())
            induced = {"images": dict(chi2.images), "m": config["chi1"]["m"], "n": cov.n}
            expected = json.dumps(induced, sort_keys=True, default=dense)
            assert_same_text(json.dumps(json.loads(text)["extras"]["induced"], sort_keys=True), expected)
        else:
            assert "induced" not in report.extras

    def test_edge_values_of_the_float_table(self):
        # an int echoed as given, while the array holds its float
        cfg = parse_config(json.dumps(chi1_variant("big-int")))
        text = emit_report(run_pipeline(cfg), fmt="json")
        assert cfg._built.images["A1@3"].blocks[0, 0, 0] == float(2**53 + 1) == 2**53
        assert '"A1@3": [[[9007199254740993, 0]]]' in text
        # one value under all four labels, in the echo and in the blocks of chi2 off the tree edges
        text = emit_report(run_pipeline(parse_config(json.dumps(chi1_variant("shared-value")))), fmt="json")
        assert text.count("[0.5403023058681398, 0.8414709848078965]") == 4 + 4
        # 0.0 and -0.0 in one report, each where it was
        text = emit_report(run_pipeline(parse_config(json.dumps(chi1_variant("signed-zeros")))), fmt="json")
        assert '"A1@3": [[[-1.0, 0.0]]]' in text and '"B1@1": [[[1.0, -0.0]]]' in text
        assert '"B1@2": [[[1, -0.0]]]' in text
        # residuals that would overflow: the run stops at the overflow, whatever the caller's numpy error
        # state, and the report holds no NaN or Infinity
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_pipeline(parse_config(json.dumps(chi1_variant("overflowing"))))
        text = emit_report(report, fmt="json")
        assert not report.passed and report.error.startswith("FloatingPointError: overflow encountered in ")
        assert np.isfinite(report.table.residuals).all()
        assert "NaN" not in text and "Infinity" not in text

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_drawn_block_monomials(self, data):
        # a table of g images over n sheets of rank m, under escaped labels in any order; each image is
        # its block-monomial, or if it has a part given as an int, its dense matrix as given
        g, n, m = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4)), data.draw(st.integers(0, 3))
        keys = st.sampled_from(ESCAPED_KEYS) | st.text(max_size=4)
        labels = data.draw(st.lists(keys, min_size=g, max_size=g, unique=True))
        perms = np.array([data.draw(st.permutations(range(n))) for _ in labels], dtype=np.intp).reshape(g, n)
        size = 2 * n * m * m  # parts per image
        parts = data.draw(st.lists(ARRAY_NUMBERS | st.integers(-2, 2), min_size=g * size, max_size=g * size))
        blocks = np.array(parts, dtype=float).view(complex).reshape(g, n, m, m)
        ints = {i: v for i, v in enumerate(parts) if type(v) is int}
        images = {}
        for i, label in enumerate(labels):
            own = parts[i * size : (i + 1) * size]
            if any(type(v) is int for v in own):
                dense = [[[0.0, 0.0] for _ in range(n * m)] for _ in range(n * m)]
                for at, (k, r, c) in enumerate(np.ndindex(n, m, m)):
                    dense[k * m + r][perms[i, k] * m + c] = own[2 * at : 2 * at + 2]
                images[label] = dense
            else:
                images[label] = BlockMonomial(perms[i], blocks[i])
                # -0.0 survives in the complex blocks, in either part
                assert np.signbit(images[label].blocks.view(float)).ravel().tolist() == np.signbit(own).tolist()
        table = cli._Images(images, perms, blocks, ints)
        report = Report(config={"mode": "induce"}, extras={"images": table, "nested": {"Y": table}})
        assert emit_report(report, fmt="json") == dense_dumps(report)

    def test_images_without_entries(self):
        # no sheets, and sheets of rank 0: both are the empty matrix; and a table without images
        for mat in (BlockMonomial(np.zeros(0), np.zeros((0, 0, 0))), BlockMonomial(np.zeros(3), np.zeros((3, 0, 0)))):
            table = images_table({"X": mat, "Y": mat})
            report = Report(config={"mode": "induce"}, extras={"images": table, "nested": {"Y": table}})
            assert emit_report(report, fmt="json") == dense_dumps(report)
            assert '"images": {"X": [], "Y": []}' in emit_report(report, fmt="json")
        report = Report(config={"mode": "induce"}, extras={"images": images_table({}), "nested": {}})
        assert emit_report(report, fmt="json") == dense_dumps(report)
        assert '"extras": {"images": {}, "nested": {}}' in emit_report(report, fmt="json")

    @settings(max_examples=60, deadline=None)
    @given(doc=JSON_DOCUMENTS)
    def test_drawn_documents(self, doc):
        report = Report(config={"mode": "group"}, extras={"drawn": doc})
        assert emit_report(report, fmt="json") == dense_dumps(report)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_drawn_arrays_written_whole(self, data):
        # next to an image, so the array is written by a call of its own
        array = data.draw(arrays_of(data.draw(ARRAY_SHAPES)))
        report = Report(config={"mode": "group"}, extras={"array": array, "nested": {"deeper": [array]}, "X": IMAGES})
        assert emit_report(report, fmt="json") == dense_dumps(report)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_dicts_of_arrays_written_whole(self, data):
        shape = data.draw(ARRAY_SHAPES.filter(lambda shape: len(shape) < 4))
        keys = data.draw(st.lists(st.sampled_from(ESCAPED_KEYS) | st.text(max_size=4), min_size=1, unique=True))
        arrays = {key: data.draw(arrays_of(shape)) for key in keys}
        images = images_table({key: IMAGE for key in keys})
        report = Report(config={"mode": "group", "images": arrays}, extras={"list": [arrays, arrays], "images": images})
        assert emit_report(report, fmt="json") == dense_dumps(report)

    def test_escaped_keys_written_whole(self):
        arrays = {key: [[i, -0.0], [float("nan"), 1e16]] for i, key in enumerate(ESCAPED_KEYS)}
        images = images_table(dict.fromkeys(ESCAPED_KEYS, IMAGE))
        report = Report(config={"mode": "group"}, extras={"arrays": arrays, "images": images})
        text = emit_report(report, fmt="json")
        assert text == dense_dumps(report)
        # the labels of a table of images are written one by one
        assert '"tab\\tnew\\nline": [[[0.0, 0.0], [0.0, 0.0], [0.0, -0.5]' in text and '"caf\\u00e9": [[' in text

    def test_text_like_a_hole_written_as_text(self):
        # strings that are, or end in, the quoted hole token, as keys and values next to a table of images and
        # the check table: each is written as json writes it, and the tables land in their own holes
        nuls = ["\x00", "\x00\x00", '"\x00']
        table = CheckReport.rows([(name, 0.5, 1.0, None) for name in nuls])
        extras = {"nuls": nuls, "keys": dict.fromkeys(nuls, "\x00"), "images": images_table(dict.fromkeys(nuls, IMAGE))}
        report = Report(config={"mode": "group", "\x00": '"\x00'}, table=table, extras=extras)
        text = emit_report(report, fmt="json")
        assert text == dense_dumps(report)
        doc = strict_json(text)
        assert doc["extras"]["nuls"] == nuls and [check["name"] for check in doc["checks"]] == nuls

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
        for extras in ({"value": value}, {"value": value, "X": IMAGES}, {"value": {"in": value, "X": IMAGES}}):
            report = Report(config={"mode": "group"}, extras={**extras, "empty": [], "empty_dict": {}})
            assert emit_report(report, fmt="json") == dense_dumps(report)

    def test_other_types_refused_as_by_json(self):
        for bad in ({1, 2}, b"bytes", object()):
            with pytest.raises(TypeError) as by_json:
                json.dumps(bad)
            for extras in ({"X": IMAGES, "bad": bad}, {"X": {"Y": IMAGES, "bad": [bad]}}, {"bad": [bad]}):
                with pytest.raises(TypeError, match=f"^{by_json.value}$"):
                    emit_report(Report(config={"mode": "group"}, extras=extras), fmt="json")
        # a table is written wherever json meets it, in a list too
        rows = CheckReport.rows([("a", 0.5, 1.0, None)])
        for extras in ({"X": [IMAGES]}, {"X": IMAGES, "list": [[IMAGES]]}, {"table": [CheckReport.rows([]), rows]}):
            report = Report(config={"mode": "group"}, extras=extras)
            assert emit_report(report, fmt="json") == dense_dumps(report)
        # an image is written only in a table: json refuses a bare block-monomial
        with pytest.raises(TypeError) as by_json:
            json.dumps(IMAGE)
        for extras in ({"X": IMAGE}, {"X": {"Y": IMAGE}}, {"X": IMAGES, "Y": IMAGE}, {"X": {"I": IMAGES, "Y": IMAGE}}):
            with pytest.raises(TypeError, match=f"^{by_json.value}$"):
                emit_report(Report(config={"mode": "group"}, extras=extras), fmt="json")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_drawn_reports_sharing_values(self, data):
        # the echoed chi1 images, an image and the check columns draw from one pool, so they share floats
        pool = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e16, 0.1])
        m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        pair = st.lists(pool | st.sampled_from([0, 1, -1, 2**53 + 1]), min_size=2, max_size=2)
        square = st.lists(st.lists(pair, min_size=m, max_size=m), min_size=m, max_size=m)
        labels = data.draw(st.lists(st.sampled_from(ESCAPED_KEYS) | st.text(max_size=4), max_size=4, unique=True))
        images = {label: data.draw(square) for label in labels}
        # the echo as parse makes it: the images as given, over the array they are converted to
        array, ints = cli.matrices_from_json(list(images.values()), (m, m), labels)
        config = {"mode": "induce", "chi1": {"m": m, "images": images}}
        echo = {**config, "chi1": {"m": m, "images": cli._Images(images, np.zeros((len(array), 1), np.intp), array[:, None], ints)}}
        parts = data.draw(st.lists(pool, min_size=2 * n * m * m, max_size=2 * n * m * m))
        perm = data.draw(st.permutations(range(n)))
        image = BlockMonomial(np.array(perm), np.array(parts).view(complex).reshape(n, m, m))
        k = data.draw(st.integers(0, 4))
        column = lambda values: data.draw(st.lists(values, min_size=k, max_size=k))
        table = CheckReport(column(CHECK_NAMES), column(pool | st.sampled_from([float("nan"), float("inf")])),
                            column(pool), np.ones((k, 2)))
        report = Report(config=echo, table=table,
                        extras={"images": images_table({"X": image, "Y": image})})
        text = emit_report(report, fmt="json")
        assert text == dense_dumps(report)
        echo = json.dumps(json.loads(text)["config"]["chi1"], sort_keys=True)
        assert echo == json.dumps(config["chi1"], sort_keys=True)

    def test_report_arrays_written_whole(self, monkeypatch):
        # a report is one call of the C encoder over its document, each table a hole, and one more for the check
        # table's columns; a report with images makes one float table too, of the distinct floats of the images
        # and the echoed chi1 images, made again by each report written
        written, dumps = [], json.dumps
        spellings = count_calls(monkeypatch, cli, "_spellings")

        def emitted(report):
            written.clear()
            with monkeypatch.context() as patch:
                patch.setattr(json, "dumps", lambda value, **kw: written.append(value) or dumps(value, **kw))
                return emit_report(report, fmt="json")

        def floats_in(value):
            if isinstance(value, dict):
                return sum(map(floats_in, value.values()))
            return sum(map(floats_in, value)) if isinstance(value, (list, tuple)) else type(value) is float

        distinct = lambda *arrays: np.unique(np.concatenate([a.view(float).ravel() for a in arrays]).view(np.int64))
        report = run_pipeline(parse_config(json.dumps(isometry_config(samples=128, trials=2))))
        assert emitted(report) == dense_dumps(report)
        columns = report.table.residuals.tolist() + report.table.tolerances.tolist()
        assert written == [report.to_json_doc(), columns] and spellings == []
        cfg = parse_config(json.dumps(random_induce_config(seed=5)))
        report = run_pipeline(cfg)
        images = report.extras["induced"]["images"].values()
        count = len(distinct(cfg.params["chi1"]["images"].blocks, *(image.blocks for image in images)))
        columns = report.table.residuals.tolist() + report.table.tolerances.tolist()
        for _ in range(2):
            assert emitted(report) == dense_dumps(report)
            doc, table, checks = written
            assert doc == report.to_json_doc() and checks == columns
            assert floats_in(table) == count == 1545  # of the 3592 image entries the report spells
        assert len(spellings) == 2

    def test_image_free_reports_are_one_dumps(self, monkeypatch):
        # verify, isometry and group reports hold no table of images: they make no float table
        configs = [{"mode": "verify", "n": 3, "alpha": 0.7, "signs": [1, -1]}, isometry_config(samples=128, trials=2),
                   {"mode": "group", "s": 1, "k": 2, "double": True}]
        reports = [run_pipeline(parse_config(json.dumps(config))) for config in configs]
        spellings = count_calls(monkeypatch, cli, "_spellings")
        images = count_calls(monkeypatch, cli, "_images_json")
        for report in reports:
            assert report.passed and emit_report(report, fmt="json") == dense_dumps(report)
        assert spellings == images == []

    def test_induce_report_is_one_line(self):
        text = emit_report(run_pipeline(parse_config(json.dumps(random_induce_config(seed=5)))), fmt="json")
        assert text.count("\n") == 1 and text.endswith("\n")

    def test_documented_reports_are_strict_json(self):
        for block in documented_configs():
            report = run_pipeline(parse_config(block))
            assert report.passed
            assert strict_json(emit_report(report, fmt="json"))["passed"] is True

    @settings(max_examples=100, deadline=None)
    @given(drawn=check_tables())
    def test_drawn_check_lists(self, drawn):
        table, rows = drawn
        report = Report(config={"mode": "group"}, table=table)
        expected = json.dumps({**report.to_json_doc(), "checks": row_dicts(rows)}, sort_keys=True) + "\n"
        assert emit_report(report, fmt="json") == expected
        # the rows read back off the table, NaN and -0.0 included, and its pass verdict
        assert repr([(c.name, c.residual, c.tolerance, c.block) for c in table.checks]) == repr(rows)
        assert report.passed == all(r[1] < r[2] for r in rows)

    def test_non_finite_residuals_and_escaped_names(self):
        names = ['relator["0"]', "back\\slash", "caf\u00e9[\u2603]", "%s %d", "a, b", "tab\tnew\nline", ""]
        residuals = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-05]
        tolerances = [1e-12, 1e-9, float("inf"), -0.0, 0.0, 1e-12, 1e-9]
        stacked = CheckReport(names, residuals, tolerances, np.ones((7, 2)))
        rows = [("single", float("nan"), 0.0, None), ("zero-block", 1e-16, 1e-12, (0, 0))]
        report = Report(config={"mode": "verify"}, table=stacked.prefixed("p:") + CheckReport.rows(rows))
        text = emit_report(report, fmt="json")
        drawn = [("p:" + name, *row) for name, *row in zip(names, residuals, tolerances)] + rows
        assert text == json.dumps({**report.to_json_doc(), "checks": row_dicts(drawn)}, sort_keys=True) + "\n"
        assert text == dense_dumps(report)
        assert '"residual": NaN' in text and '"residual": -Infinity' in text and '"residual": -0.0' in text
        assert '"tolerance": -0.0' in text and '"tolerance": 0.0' in text and '"tolerance": Infinity' in text
        # a Gram check's block of degrees (0, 0) is a block, not its absence
        assert report.checks[-1].block == (0, 0) and report.checks[-2].block is None

    def test_induce_report_written_without_check_rows(self, monkeypatch):
        # the 262 checks of the 64-sheet report are written from the table's columns; reading them makes the rows
        made = count_calls(monkeypatch, Check, "__post_init__")
        report = run_pipeline(parse_config(json.dumps(random_induce_config(seed=5))))
        emit_report(report, fmt="json")
        assert report.passed and made == []
        assert len(report.checks) == 262 and len(made) == 262

    @pytest.mark.parametrize("n", [1, 128])
    def test_each_representation_folded_once(self, monkeypatch, n):
        # counted, not timed: verify and isometry fold chi_X1 (checks and tau words), chi2 (checks and the
        # symmetry words; chi1's checks are read off it) and chi1 (G2's tree words); induce folds chi2 alone,
        # over a presentation parsed for the op, and builds no symmetry words, not even over a double
        from hardycover import induction

        folds = count_calls(monkeypatch, induction.MatrixRep, "_fold")
        products = count_calls(monkeypatch, induction, "_product")
        symmetry_words = count_calls(monkeypatch, induction, "_symmetry_words")
        stacked = count_calls(monkeypatch, induction.MatrixRep, "_stacked")
        verify = {"mode": "verify", "n": n, "alpha": 0.7, "signs": [1, -1]}
        induce = [random_induce_config(seed=5, n=n, double=double) for double in (False, True)]
        for config in (verify, isometry_config(n=n, samples=128, trials=2), *induce):
            for record in (folds, products, symmetry_words, stacked):
                record.clear()
            report = run_pipeline(parse_config(json.dumps(config)))
            assert report.passed
            # a table is stacked, adjoints computed, for chi1 at parse and chi2 in induce; for chi_X1 and chi2
            # in verify and isometry, where chi1's is gathered from chi_X1's and no chi_S is made (4 before)
            assert len(stacked) == 2
            if config["mode"] == "induce":
                assert len(folds) == 1 and len(symmetry_words) == 0
            else:
                # 3 products in each torus fold, 9 outside the folds, 1 in G2's; on one sheet G2's tree
                # words are all empty, so their fold makes none
                assert len(folds) == 3 and len(products) == (15 if n == 1 else 16)

    @pytest.mark.parametrize("kind", CHI1_VARIANTS)
    def test_chi1_variant_rows_read_off_chi2(self, kind):
        # chi1 as the induce mode runs it: built at parse, from the images as converted there
        config = chi1_variant(kind)
        if kind == "label-outside-alphabet":  # refused before there is a chi1
            with pytest.raises(ValueError, match=re.escape("'chi1.images': missing labels [], unknown labels ['Z@7']")):
                parse_config(json.dumps(config))
            return
        chi1 = parse_config(json.dumps(config))._built
        assert_chi1_rows_read_off_chi2(chi1.presentation.covering, chi1.presentation, chi1)

    def test_text_names_block_and_excess_of_a_failing_check(self):
        moved = BlockMonomial(np.array([0, 2, 1]), np.ones((3, 1, 1)))
        residual, block = compare(identity(3, 1), moved)
        rows = [("relator[0]", residual, 1e-12, block), ("unitarity", 0.0, 1e-12, (1, 1))]
        report = Report(config={"mode": "induce"}, table=CheckReport.rows(rows))
        lines = emit_report(report, fmt="text").splitlines()
        assert lines[1] == (
            "  [FAIL] relator[0]: residual 1.000e+00 (tolerance 1.0e-12) at block (2, 2), "
            "1e+12 times its tolerance"
        )
        assert lines[2] == "  [ok  ] unitarity: residual 0.000e+00 (tolerance 1.0e-12) at block (1, 1)"
        assert "block" not in emit_report(report, fmt="json")

    def test_text_gives_no_excess_over_a_tolerance_that_is_not_positive(self):
        rows = [("zero", 1.0, 0.0, None), ("minus-zero", 1.0, -0.0, (1, 1)), ("negative", 0.0, -1.0, None)]
        rows.append(("positive", 2.0, 1.0, None))
        lines = emit_report(Report(config={"mode": "verify"}, table=CheckReport.rows(rows)), fmt="text").splitlines()
        assert lines[1:5] == [
            "  [FAIL] zero: residual 1.000e+00 (tolerance 0.0e+00)",
            "  [FAIL] minus-zero: residual 1.000e+00 (tolerance -0.0e+00) at block (1, 1)",
            "  [FAIL] negative: residual 0.000e+00 (tolerance -1.0e+00)",
            "  [FAIL] positive: residual 2.000e+00 (tolerance 1.0e+00), 2 times its tolerance",
        ]


class TestMain:
    def test_group_subcommand(self, tmp_path, capsys):
        # a config file like every other mode's; the report is JSON unless --format says otherwise
        config = tmp_path / "group.json"
        config.write_text('{"mode": "group", "s": 0, "k": 2, "double": true}')
        code = main(["group", "--config", str(config)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["extras"]["presentation"]["generators"] == ["A1", "B1"]

    def test_isometry_subcommand_with_overrides(self, tmp_path, capsys):
        # the command line overrides no config field: samples and seed are read from the config only
        config = tmp_path / "iso.json"
        config.write_text(json.dumps(isometry_config(trials=2, samples=128, seed=3)))
        for flag in ("--samples", "--degree", "--seed"):
            with pytest.raises(SystemExit) as refused:
                main(["isometry", "--config", str(config), flag, "64"])
            assert refused.value.code == 2 and f"unrecognized arguments: {flag} 64" in capsys.readouterr().err
        out = tmp_path / "report.json"
        assert main(["isometry", "--config", str(config), "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["samples"] == 128
        assert doc["config"]["seed"] == 3

    def test_config_of_another_mode_refused(self, tmp_path, capsys):
        config = tmp_path / "iso.json"
        config.write_text(json.dumps(isometry_config()))
        assert main(["verify", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert "mode 'isometry' is not the subcommand 'verify'" in captured.err and captured.out == ""
        # a config that is no JSON object is refused the same way, whatever the subcommand
        config.write_text("[1, 2]")
        assert main(["isometry", "--config", str(config)]) == 2
        assert "configuration must be a JSON object" in capsys.readouterr().err

    def test_config_read_once_and_never_dumped(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "verify.json"
        config.write_text('{"mode": "verify", "n": 3, "alpha": 0.7, "signs": [1, -1]}')
        opened = []
        monkeypatch.setattr(cli, "open", lambda *args, **kw: opened.append(args[0]) or open(*args, **kw), raising=False)
        monkeypatch.setattr(json, "dumps", lambda *args, **kw: pytest.fail("json.dumps called"))
        assert main(["verify", "--config", str(config), "--format", "text"]) == 0
        assert opened == [str(config)] and "passed: True" in capsys.readouterr().out

    def test_failing_pipeline_exits_one(self, tmp_path):
        config = tmp_path / "bad.json"
        doc = TestInduceMode().torus_config(u2_phase=0.5)
        config.write_text(json.dumps(doc))
        assert main(["induce", "--config", str(config)]) == 1

    def test_deeply_nested_config_exits_two(self, tmp_path, capsys):
        # nested past what json.loads can read: refused as a config, with no traceback and no report
        config, out = tmp_path / "deep.json", tmp_path / "report.json"
        config.write_text('{"mode": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["group", "--config", str(config), "--format", "json", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "configuration error: configuration nested too deeply to read\n"
        assert captured.out == "" and not out.exists()

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
