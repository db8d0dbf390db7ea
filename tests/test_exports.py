"""The public names of each layer and of the package."""

import importlib
import inspect
import json
import re
import shlex
import types
import warnings
from pathlib import Path

import pytest

import hardycover

LAYERS = ("groups", "covering", "induction", "cyclic", "hardy", "cli")

# each name is called by a mode, by the benchmark or by a test oracle
EXPORTS = {
    "groups": [
        "InvalidSurfaceError", "Word", "GroupPresentation", "DoubledPresentation", "surface_group", "double_group",
        "apply_involution", "boundary_loop", "mirror_monodromy", "presentation_to_json", "word_to_json",
    ],
    "covering": [
        "CoveringAction", "Transversal", "build_covering", "identity_covering", "coset_of", "sigma",
        "schreier_transversal", "schreier_walk", "schreier_rewrite", "expand_schreier_word", "subgroup_relators",
        "compose_coverings", "covering_from_json",
    ],
    "induction": [
        "TOL_EXACT", "BlockMonomial", "Check", "CheckReport", "MatrixRep", "SignatureData", "ExtensionError",
        "check_representation", "extend_to_double", "induce_representation", "build_G2", "build_J2_diagonal",
        "pairing_signature_matrices", "verify_symmetry_conditions",
    ],
    "cyclic": [
        "cyclic_cover", "annulus_surface_rep", "annulus_double_rep", "boundary_subgroup_rep", "CyclicPipeline",
        "annulus_pipeline",
    ],
    "hardy": ["AnnulusCovering", "make_annulus_cover", "IsometryResult", "verify_isometry"],
    "cli": ["RunConfig", "Report", "parse_config", "run_pipeline", "emit_report", "main"],
}


@pytest.mark.parametrize("layer", LAYERS)
def test_exported_names_are_pinned(layer):
    assert importlib.import_module(f"hardycover.{layer}").__all__ == EXPORTS[layer]


def test_options_no_caller_sets_stay_gone():
    from hardycover import Check, CheckReport, Transversal, cli, hardy, induction

    parameters = lambda f: list(inspect.signature(f).parameters)
    # the JSON reader sits beside the writer; the algebra layer builds no JSON
    assert parameters(cli.matrices_from_json) == ["mats", "shape", "names"]
    assert not hasattr(induction, "matrices_from_json") and not hasattr(induction, "rep_to_json")
    # one JSON writer: the report's json.dumps, each table written into its hole; the dispatch, the
    # key-run writer and the rows made for image-free reports are gone
    assert [name for name in ("_held", "_written", "_json", "_WRITERS", "_check_rows") if hasattr(cli, name)] == []
    # one analytic path: verify_isometry takes every section as one coefficient array, and the per-section
    # API that no mode ran is gone from the layer and the package
    assert parameters(hardy.verify_isometry) == ["cov", "alpha", "sig", "coeffs", "samples", "rng"]
    retired = ("SectionSpec", "BoundarySection", "random_section", "section_values", "sample_section",
               "pushforward_section", "indefinite_inner_product", "_component_radius")
    assert [name for name in retired if hasattr(hardy, name) or hasattr(hardycover, name)] == []
    assert not hasattr(Transversal, "edge_to_generator") and not hasattr(CheckReport, "to_json")
    # a check table is written from its columns: no row has a JSON form, and there is one report type
    assert not hasattr(Check, "to_json") and not hasattr(Check, "exact") and not hasattr(induction, "_StackedReport")
    # one way in: every subcommand reads a config file and takes only the report's format and path
    (subcommands,) = [action.choices for action in cli.build_parser()._actions if action.dest == "command"]
    options = {name: [a.option_strings[-1] for a in cmd._actions if a.dest != "help"] for name, cmd in subcommands.items()}
    assert options == dict.fromkeys(("group", "induce", "verify", "isometry"), ["--config", "--format", "--out"])
    assert not hasattr(cli.RunConfig, "chi1_images")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    mod = importlib.import_module(f"hardycover.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_re_exports_only_layer_names():
    exported = set().union(*(importlib.import_module(f"hardycover.{layer}").__all__ for layer in LAYERS))
    names = [name for name in hardycover.__all__ if not isinstance(getattr(hardycover, name), types.ModuleType)]
    assert [name for name in names if name not in exported] == []
    for name in names:
        layer = importlib.import_module(getattr(hardycover, name).__module__)
        assert getattr(layer, name) is getattr(hardycover, name)


def test_readme_tour_runs():
    # README's one python block, with warnings as errors, so the documented example cannot rot
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (tour,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(tour, "README.md", "exec"), namespace)
    # the values the tour's comments give
    result = namespace["result"]
    assert result.counts == (64, 128, 256, 512, 1024) and result.pipeline.report.passed
    assert max(gap for gap, _ in result.gram) < 1e-14 and result.trials.shape == (1,) and result.trials[0] < 1e-16
    assert result.convergence[0] == pytest.approx(0.22, abs=0.01) and result.convergence[-1] < 1e-14


def test_readme_command_lines_and_configs_run(tmp_path):
    # README's command lines parse as given, and each of its JSON configs runs and passes from a file
    from hardycover import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (commands,) = [block for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S) if "\nhardycover " in block]
    lines = [shlex.split(line) for line in commands.splitlines() if line.startswith("hardycover ")]
    assert {line[1] for line in lines} == {"group", "induce", "verify", "isometry"}
    for line in lines:
        cli.build_parser().parse_args(line[1:])
    # the JSON blocks, and the group config the command lines write
    configs = re.findall(r"```json\n(.*?)```", readme, flags=re.S) + re.findall(r"^echo '(.*)' >", commands, flags=re.M)
    assert len(configs) == 4
    for i, text in enumerate(configs):
        config, out = tmp_path / f"config{i}.json", tmp_path / f"report{i}.json"
        config.write_text(text)
        assert cli.main([json.loads(text)["mode"], "--config", str(config), "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True
