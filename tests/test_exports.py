"""The public names of each layer and of the package."""

import dataclasses
import importlib
import inspect
import types

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
    "hardy": [
        "AnnulusCovering", "SectionSpec", "BoundarySection", "make_annulus_cover", "random_section",
        "section_values", "sample_section", "pushforward_section", "indefinite_inner_product", "IsometryResult",
        "verify_isometry",
    ],
    "cli": ["RunConfig", "Report", "parse_config", "run_pipeline", "emit_report", "main"],
}


@pytest.mark.parametrize("layer", LAYERS)
def test_exported_names_are_pinned(layer):
    assert importlib.import_module(f"hardycover.{layer}").__all__ == EXPORTS[layer]


def test_options_no_caller_sets_stay_gone():
    from hardycover import BoundarySection, Check, CheckReport, Transversal, cli, induction, pushforward_section

    parameters = lambda f: list(inspect.signature(f).parameters)
    # the JSON reader sits beside the writer; the algebra layer builds no JSON
    assert parameters(cli.matrices_from_json) == ["mats", "shape", "names"]
    assert not hasattr(induction, "matrices_from_json") and not hasattr(induction, "rep_to_json")
    # a report's values with a writer of their own: one table of images type, one check table type
    assert list(cli._WRITERS) == [cli._Images, CheckReport]
    assert parameters(pushforward_section) == ["cov", "spec", "component", "n_samples"]
    assert [f.name for f in dataclasses.fields(BoundarySection)] == ["component", "radius", "samples"]
    assert not hasattr(Transversal, "edge_to_generator") and not hasattr(CheckReport, "to_json")
    # a check table is written from its columns: no row has a JSON form, and there is one report type
    assert not hasattr(Check, "to_json") and not hasattr(Check, "exact") and not hasattr(induction, "_StackedReport")


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
