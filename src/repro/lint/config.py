"""Configuration for the CONGEST model-compliance linter.

Settings live in ``[tool.repro.lint]`` of ``pyproject.toml``.  All keys
are optional; the defaults lint ``src/repro`` with every rule enabled::

    [tool.repro.lint]
    paths = ["src/repro"]
    exclude = ["src/repro/_version.py"]
    disable = []                # e.g. ["R4"]
    determinism-packages = ["repro.mis", "repro.core", "repro.matching", "repro.congest"]
    algorithm-base-classes = ["NodeAlgorithm", "PhasedMISNodeProgram"]

``tomllib`` only exists on Python >= 3.11 and this project supports 3.9,
so :func:`load_config` falls back to a minimal TOML-subset reader that
understands exactly what the lint table needs: one ``[table]`` header,
``key = "string"`` and ``key = ["array", "of", "strings"]`` (possibly
spanning lines), and ``#`` comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

__all__ = ["LintConfig", "load_config", "DEFAULT_CONFIG"]

#: Attributes of :class:`~repro.congest.algorithm.NodeContext` a node
#: program may legitimately touch (the public surface; R2 flags the rest).
PUBLIC_CONTEXT_SURFACE: Tuple[str, ...] = (
    "send",
    "broadcast",
    "halt",
    "state",
    "neighbors",
    "node",
    "n",
    "seed",
    "round_index",
    "degree",
    "halted",
    "output",
)

#: ``numpy.random`` attributes that are *not* module-level RNG: explicitly
#: keyed constructors the seeded helpers in :mod:`repro.rng` are built on.
KEYED_NUMPY_RANDOM: Tuple[str, ...] = (
    "Generator",
    "Philox",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
)


def _in_package_scope(module_name: str, packages: Tuple[str, ...]) -> bool:
    for package in packages:
        if package == "*":
            return True
        if module_name == package or module_name.startswith(package + "."):
            return True
    return False


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter settings (defaults + pyproject overrides)."""

    paths: Tuple[str, ...] = ("src/repro",)
    exclude: Tuple[str, ...] = ()
    disable: Tuple[str, ...] = ()
    #: When non-empty, only these rules run (``--select`` on the CLI).
    select: Tuple[str, ...] = ()
    determinism_packages: Tuple[str, ...] = (
        "repro.mis",
        "repro.core",
        "repro.matching",
        "repro.congest",
    )
    #: Modules the S-family engine-safety rules apply to: the layers whose
    #: correctness the bit-identity differential tests lean on.
    safety_packages: Tuple[str, ...] = (
        "repro.mpc",
        "repro.mis.csr",
        "repro.core.bounded_arb",
        "repro.graphs.csr",
    )
    #: Packages sanctioned to hold wall clocks / ambient state: calls from
    #: determinism-scope modules into these are not followed by the
    #: interprocedural R3 pass (the obs layer stamps timestamps by design,
    #: the sweep/mpc runtimes sleep between retries by design).
    clock_exempt_packages: Tuple[str, ...] = (
        "repro.obs",
        "repro.analysis",
        "repro.mpc",
        "repro.lint",
    )
    algorithm_base_classes: Tuple[str, ...] = (
        "NodeAlgorithm",
        "PhasedMISNodeProgram",
    )
    public_context_surface: Tuple[str, ...] = PUBLIC_CONTEXT_SURFACE
    keyed_numpy_random: Tuple[str, ...] = KEYED_NUMPY_RANDOM

    def rule_enabled(self, rule: str) -> bool:
        if self.select:
            return rule in self.select and rule not in self.disable
        return rule not in self.disable

    def in_determinism_scope(self, module_name: str) -> bool:
        """Whether R3 applies to ``module_name`` (dotted path).

        A ``"*"`` entry puts every module in scope (used by tests linting
        synthetic sources outside the package tree).
        """
        return _in_package_scope(module_name, self.determinism_packages)

    def in_safety_scope(self, module_name: str) -> bool:
        """Whether the S-family engine-safety rules apply to ``module_name``."""
        return _in_package_scope(module_name, self.safety_packages)

    def is_clock_exempt(self, module_name: str) -> bool:
        """Whether interprocedural R3 stops at ``module_name``'s boundary."""
        return _in_package_scope(module_name, self.clock_exempt_packages)


DEFAULT_CONFIG = LintConfig()

_TABLE_RE = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*$")
_KEY_RE = re.compile(r"^\s*(?P<key>[A-Za-z0-9_.-]+)\s*=\s*(?P<value>.*)$")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"|\'([^\']*)\'')


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment that is not inside a string literal."""
    out, in_str, quote = [], False, ""
    for ch in line:
        if in_str:
            out.append(ch)
            if ch == quote:
                in_str = False
        elif ch in "\"'":
            in_str, quote = True, ch
            out.append(ch)
        elif ch == "#":
            break
        else:
            out.append(ch)
    return "".join(out)


def _parse_strings(text: str) -> List[str]:
    return [
        (m.group(1) if m.group(1) is not None else m.group(2))
        for m in _STRING_RE.finditer(text)
    ]


def _read_lint_table(text: str) -> Dict[str, object]:
    """Extract ``[tool.repro.lint]`` with the minimal TOML-subset reader."""
    values: Dict[str, object] = {}
    lines = text.splitlines()
    in_table = False
    i = 0
    while i < len(lines):
        raw = _strip_comment(lines[i])
        i += 1
        table = _TABLE_RE.match(raw)
        if table:
            in_table = table.group("name").strip() == "tool.repro.lint"
            continue
        if not in_table or not raw.strip():
            continue
        kv = _KEY_RE.match(raw)
        if not kv:
            continue
        key, value = kv.group("key"), kv.group("value").strip()
        if value.startswith("["):
            # Accumulate until the closing bracket (arrays may span lines).
            while "]" not in value and i < len(lines):
                value += " " + _strip_comment(lines[i]).strip()
                i += 1
            values[key] = _parse_strings(value)
        else:
            strings = _parse_strings(value)
            values[key] = strings[0] if strings else value
    return values


def _load_table(pyproject_path: str) -> Dict[str, object]:
    with open(pyproject_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        import tomllib  # Python >= 3.11

        data = tomllib.loads(text)
        table = data.get("tool", {}).get("repro", {}).get("lint", {})
        return dict(table)
    except ModuleNotFoundError:
        return _read_lint_table(text)


def load_config(pyproject_path: Optional[str]) -> LintConfig:
    """Build a :class:`LintConfig` from ``pyproject.toml`` (or defaults).

    Unknown keys are ignored so configs stay forward-compatible; dashes in
    keys map to underscores in :class:`LintConfig` fields.
    """
    if pyproject_path is None:
        return DEFAULT_CONFIG
    table = _load_table(pyproject_path)
    overrides: Dict[str, Tuple[str, ...]] = {}
    for key, value in table.items():
        fieldname = key.replace("-", "_")
        if fieldname not in LintConfig.__dataclass_fields__:
            continue
        if isinstance(value, str):
            value = [value]
        overrides[fieldname] = tuple(str(v) for v in value)
    return replace(DEFAULT_CONFIG, **overrides)
