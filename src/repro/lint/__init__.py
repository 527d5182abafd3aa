"""CONGEST model-compliance static analysis (``repro lint``).

The paper's guarantees are statements about the CONGEST model: one
O(log n)-bit message per edge per round, decisions computed from purely
local state, randomness drawn from seeded per-(node, round) streams.
This package turns those contracts — previously prose in docstrings and
runtime assertions — into an AST-based linter that checks every
:class:`~repro.congest.algorithm.NodeAlgorithm` in the tree:

==== =======================================================================
R1   statelessness: no ``self.*`` writes in node-program methods
R2   locality: only the public ``NodeContext`` surface; no simulator access
R3   determinism: no ambient RNGs/clocks; randomness via :mod:`repro.rng`
R4   bandwidth: payloads codable by ``bits_of_payload`` and O(log n)-sized
R5   no shared mutable class attributes or default arguments
==== =======================================================================

A second family guards the *engines* rather than the model: the columnar
CSR kernels and the sharded MPC runtime reproduce the same seeded random
process bit for bit, and the S-rules make the silent
ways that can break (shared-array races, fork-captured state, integer
overflow at n=10^7, pickled RNG state, mistyped event kinds) statically
visible (see :mod:`repro.lint.safety`):

==== =======================================================================
S1   shared-memory write safety: frozen attachments, read-only workers
S2   fork/pool safety: no live state across the pool boundary
S3   dtype/overflow safety: int64 index data, no silent downcasts
S4   RNG boundary discipline: seeds cross the pool, state does not
S5   obs-event taxonomy: emitted kinds exist in the ObsEvent schema
==== =======================================================================

The whole run is *project-wide*: every module is parsed first, a symbol
table and call graph are built (:mod:`repro.lint.project`), and only
then do the rules run — which lets R2/R3 follow helper calls across
modules and lets the S-rules know which functions execute inside pool
workers.

Findings can be silenced per line with ``# repro: lint-ignore[R1]``
(multiple rules: ``# repro: lint-ignore[R3, S2]``; bare
``# repro: lint-ignore`` silences all rules), grandfathered in a
committed baseline file (:mod:`repro.lint.baseline`), and configured
project-wide via ``[tool.repro.lint]`` in ``pyproject.toml``.  Run it as
``python -m repro.lint`` or ``python -m repro lint``; the tier-1 suite
self-lints ``src/repro`` so compliance is a regression-tested property.
"""

from repro.lint.baseline import (
    Baseline,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.config import DEFAULT_CONFIG, LintConfig, load_config
from repro.lint.engine import (
    Finding,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.project import ProjectModel, build_project
from repro.lint.report import render_json, render_text
from repro.lint.sarif import render_sarif

__all__ = [
    "DEFAULT_CONFIG",
    "LintConfig",
    "load_config",
    "Finding",
    "lint_file",
    "lint_paths",
    "lint_source",
    "Baseline",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
    "ProjectModel",
    "build_project",
    "render_json",
    "render_text",
    "render_sarif",
]
