"""Seeded workload inputs are deterministic and valid, and each output check can fail."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

import checks
import workloads
from common import WORKLOADS
from hardycover import cli, covering, groups


def _emit(wl) -> str:
    return cli.emit_report(cli.run_pipeline(cli.parse_config(wl.config_text)), "json")


@pytest.fixture(scope="module")
def induce():
    wl = workloads.make("induce-export", 11)
    return wl, json.loads(_emit(wl))


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(name):
    a, b = workloads.make(name, 5), workloads.make(name, 5)
    assert a.config_text == b.config_text
    assert a.config_text != workloads.make(name, 6).config_text
    cfg = cli.parse_config(a.config_text)
    assert cfg.mode == a.mode
    assert a.sizes["config_bytes"] == len(a.config_text)


@pytest.mark.parametrize("name", ["cyclic-verify", "dense-verify"])
def test_verify_reports_pass_the_output_check(name):
    wl = workloads.make(name, 3)
    assert checks.check_report(_emit(wl), wl) == []


def test_random_cover_is_a_transitive_covering_with_consistent_chi1(induce):
    wl, doc = induce
    config = json.loads(wl.config_text)
    surface = groups.surface_group(1, 2)
    cov = covering.covering_from_json(surface, config["covering"])
    assert cov.n == workloads.INDUCE_SHEETS
    trans = covering.schreier_transversal(cov)
    # the generator labels the program derives are exactly the ones supplied
    assert sorted(trans.alphabet) == sorted(config["chi1"]["images"])
    # chi1 on each Schreier generator is rho of its defining word
    rho = dict(zip(workloads.SURFACE_ALPHABET, wl.cover.rho))
    for label, word in zip(trans.alphabet, trans.defining_words):
        expected = np.eye(workloads.INDUCE_RANK, dtype=complex)
        for gen, exp in word.letters:
            mat = rho[surface.alphabet[gen]]
            expected = expected @ (mat if exp > 0 else mat.conj().T)
        got = checks._matrix(config["chi1"]["images"][label], workloads.INDUCE_RANK)
        assert np.allclose(got, expected, atol=1e-13)
    assert doc["passed"] and doc["error"] is None
    assert len(doc["checks"]) == wl.min_checks


def test_induce_report_passes_the_output_check(induce):
    wl, doc = induce
    assert checks.check_report(json.dumps(doc), wl) == []


def _corruptions():
    def error(doc):
        doc["error"] = "boom"

    def not_passed(doc):
        doc["passed"] = False

    def failing_check(doc):
        doc["checks"][0]["passed"] = False

    def dropped_checks(doc):
        del doc["checks"][-1]

    def wrong_mode(doc):
        doc["config"]["mode"] = "verify"

    def swapped_images(doc):
        images = doc["extras"]["induced"]["images"]
        images["A'1"], images["B'1"] = images["B'1"], images["A'1"]

    def rephased_block(doc):
        image = doc["extras"]["induced"]["images"]["A1"]
        for row in image:
            for entry in row:
                entry[0], entry[1] = -entry[1], entry[0]  # times i

    def wrong_rank(doc):
        doc["extras"]["induced"]["m"] = 1

    def missing_image(doc):
        del doc["extras"]["induced"]["images"]["A0"]

    return [error, not_passed, failing_check, dropped_checks, wrong_mode,
            swapped_images, rephased_block, wrong_rank, missing_image]


@pytest.mark.parametrize("corrupt", _corruptions(), ids=lambda f: f.__name__)
def test_each_output_check_fails_on_a_corrupted_report(induce, corrupt):
    wl, doc = induce
    broken = copy.deepcopy(doc)
    corrupt(broken)
    assert checks.check_report(json.dumps(broken), wl) != []


def test_unparsable_report_fails():
    wl = workloads.make("cyclic-verify", 1)
    assert checks.check_report("{not json", wl) != []


def test_character_check_reads_the_whole_cover(induce):
    wl, _ = induce
    words = checks.character_words(wl)
    assert words == checks.character_words(wl)
    # the subgroup words fix sheet 1, so their traces are nonzero
    assert all(checks._fixed_sheets(wl.cover.perms, w) >= 1 for w in words[-checks.SUBGROUP_WORDS:])
