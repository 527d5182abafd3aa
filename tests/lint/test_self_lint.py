"""Tier-1 gate: the shipped tree is model-compliant and engine-safe.

This is the regression property the lint subsystem exists for: every
``NodeAlgorithm`` in ``src/repro`` obeys R1-R5 and every engine-layer
module obeys S1-S5, as checked by the same configuration CI uses
(``[tool.repro.lint]`` in pyproject.toml plus the committed baseline).
Any new algorithm that cheats — instance state, private simulator
access, ambient randomness, oversized payloads — and any new engine
hazard — unfrozen shared-memory attachment, fork-captured state, silent
downcast — turns this test red with a file:line finding.
"""

from __future__ import annotations

import dataclasses
import os

import repro
from repro.lint import apply_baseline, lint_paths, load_baseline, load_config

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))
PYPROJECT = os.path.join(REPO_ROOT, "pyproject.toml")
BASELINE = os.path.join(REPO_ROOT, ".repro-lint-baseline.json")
SRC_REPRO = os.path.dirname(repro.__file__)


def _relativized(findings):
    return [
        dataclasses.replace(
            f, path=os.path.relpath(f.path, REPO_ROOT).replace(os.sep, "/")
        )
        for f in findings
    ]


def test_pyproject_config_is_present():
    assert os.path.isfile(PYPROJECT)
    config = load_config(PYPROJECT)
    assert config.paths == ("src/repro",)
    assert config.disable == ()
    assert config.select == ()


def test_src_repro_is_model_compliant():
    config = load_config(PYPROJECT)
    findings = _relativized(lint_paths([SRC_REPRO], config=config))
    baseline = load_baseline(BASELINE)
    new, grandfathered = apply_baseline(findings, baseline)
    rendered = "\n".join(f.render() for f in new)
    assert new == [], f"non-baselined findings:\n{rendered}"
    # The committed baseline must not rot: every grandfathered entry
    # still matches a real finding (otherwise prune the baseline), and
    # nothing is grandfathered — justified narrowings carry an inline
    # lint-ignore with their range argument instead.
    assert baseline.stale_entries() == []
    assert grandfathered == []


def test_both_rule_families_ran_on_the_tree():
    # Guard against the S-family silently deconfiguring: the safety scope
    # must cover the engine layers the differential tests lean on.
    config = load_config(PYPROJECT)
    for module in (
        "repro.mpc.runtime",
        "repro.mpc.engines",
        "repro.mis.bulk",
        "repro.mis.csr",
        "repro.core.bounded_arb",
        "repro.graphs.csr",
    ):
        assert config.in_safety_scope(module), module
    assert not config.in_safety_scope("repro.congest.simulator")


def test_self_lint_actually_saw_the_node_programs():
    # Guard against the lint pass silently checking nothing: the tree
    # contains a known population of algorithm modules.
    from repro.lint.config import DEFAULT_CONFIG
    from repro.lint.engine import build_model, iter_python_files

    algorithm_classes = set()
    for path in iter_python_files([SRC_REPRO]):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        model = build_model(source, path, DEFAULT_CONFIG)
        algorithm_classes |= model.algorithm_classes
    # The seed tree ships at least these node programs.
    assert {
        "PhasedMISNodeProgram",
        "BoundedArbNodeProgram",
        "LinialMISProgram",
        "IsraeliItaiMatching",
        "LeaderElectionBFS",
        "ConvergecastCount",
        "GhaffariMIS",
        "LubyAMIS",
        "LubyBMIS",
        "MetivierMIS",
    } <= algorithm_classes


def test_fault_modules_are_in_determinism_scope():
    # The fault-injection layer promises seed-deterministic fault traces,
    # which only holds if R3 (no ambient randomness/clocks) is enforced on
    # its modules the same as on the algorithms it perturbs.
    config = load_config(PYPROJECT)
    for module in (
        "repro.congest.faults",
        "repro.congest.simulator",
        "repro.congest.asynchronous",
        "repro.core.repair",
        "repro.mis.faulted",
    ):
        assert config.in_determinism_scope(module), module
