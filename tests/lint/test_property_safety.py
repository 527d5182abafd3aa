"""Property-based tests: the S-family on *generated* engine modules.

Hypothesis synthesizes engine-layer modules — pool dispatch, shared
memory attachments, dtype-annotated array code — with randomized
identifiers and a randomized set of planted violations, then checks the
same three invariants the R-family property tests pin:

* every planted violation produces a finding of the right rule;
* a ``# repro: lint-ignore[RULE]`` on the violating line silences
  exactly that finding;
* modules synthesized without violations lint clean (no false
  positives on clean engine code).
"""

from __future__ import annotations

import keyword

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import lint_source
from repro.lint.config import LintConfig

pytestmark = pytest.mark.property

CFG = LintConfig(safety_packages=("*",), determinism_packages=())

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: not keyword.iskeyword(s)
    and s not in {"np", "pool", "shm", "seed", "task", "arr", "idx", "rng"}
)


def render_module(name: str, body_lines, extra_top=()):
    """An engine-ish module: numpy import, a pool task, a dispatcher."""
    lines = ["import numpy as np", ""]
    lines.extend(extra_top)
    lines.append("")
    lines.append("def task(seed, n):")
    lines.append("    return seed + n")
    lines.append("")
    lines.append(f"def {name}_dispatch(pool, shm, seed, n):")
    lines.extend(f"    {line}" for line in body_lines)
    lines.append("    pool.submit(task, seed, n)")
    return "\n".join(lines) + "\n"


#: violation factories: identifier -> (body line(s), top-level line(s),
#: expected rule)
VIOLATIONS = (
    # S1: unfrozen attachment
    lambda name: (
        [f"{name} = np.ndarray((n,), dtype=np.int64, buffer=shm.buf)"],
        [],
        "S1",
    ),
    # S2: module-level live resource
    lambda name: ([], [f"{name} = open('{name}.txt')"], "S2"),
    # S3: mixed-width arithmetic
    lambda name: (
        [
            f"{name}_a = np.zeros(n, dtype=np.int32)",
            f"{name}_b = np.zeros(n, dtype=np.int64)",
            f"{name}_c = {name}_a + {name}_b",
        ],
        [],
        "S3",
    ),
    # S3: narrowing downcast
    lambda name: (
        [
            f"{name}_w = np.zeros(n, dtype=np.int64)",
            f"{name}_n = {name}_w.astype(np.int16)",
        ],
        [],
        "S3",
    ),
    # S4: generator state shipped to the pool
    lambda name: (
        [
            f"{name}_rng = np.random.default_rng(seed)",
            f"pool.submit(task, {name}_rng, n)",
        ],
        [],
        "S4",
    ),
)

CLEAN_LINES = (
    lambda name: [
        f"{name} = np.ndarray((n,), dtype=np.int64, buffer=shm.buf)",
        f"{name}.flags.writeable = False",
    ],
    lambda name: [
        f"{name}_a = np.zeros(n, dtype=np.int64)",
        f"{name}_b = np.zeros(n, dtype=np.int64)",
        f"{name}_c = {name}_a + {name}_b",
    ],
    lambda name: [
        f"{name}_idx = np.arange(n, dtype=np.int64)",
        f"{name}_g = np.zeros(n, dtype=np.int64)[{name}_idx]",
    ],
    lambda name: [f"{name}_w = np.zeros(n, dtype=np.int32).astype(np.int64)"],
    lambda name: [f"pool.submit(task, seed, n)"],
)


def lint(source: str):
    return lint_source(source, path="gen.py", config=CFG, module_name="gen")


@settings(max_examples=40, deadline=None)
@given(
    name=identifiers,
    clean_picks=st.lists(
        st.sampled_from(CLEAN_LINES), min_size=1, max_size=3
    ),
)
def test_clean_engine_modules_lint_clean(name, clean_picks):
    body = []
    for i, pick in enumerate(clean_picks):
        body.extend(pick(f"{name}{i}"))
    findings = lint(render_module(name, body))
    assert findings == [], [f.render() for f in findings]


@settings(max_examples=40, deadline=None)
@given(
    name=identifiers,
    violation=st.sampled_from(VIOLATIONS),
    clean_pick=st.sampled_from(CLEAN_LINES),
)
def test_planted_violations_are_caught(name, violation, clean_pick):
    bad_body, bad_top, rule = violation(name)
    body = clean_pick(f"{name}x") + bad_body
    findings = lint(render_module(name, body, extra_top=bad_top))
    assert rule in {f.rule for f in findings}, (
        rule,
        [f.render() for f in findings],
    )


@settings(max_examples=40, deadline=None)
@given(name=identifiers, violation=st.sampled_from(VIOLATIONS))
def test_lint_ignore_silences_exactly_the_planted_rule(name, violation):
    bad_body, bad_top, rule = violation(name)
    body = [
        line + f"  # repro: lint-ignore[{rule}]" for line in bad_body
    ]
    top = [line + f"  # repro: lint-ignore[{rule}]" for line in bad_top]
    findings = lint(render_module(name, body, extra_top=top))
    assert rule not in {f.rule for f in findings}, [
        f.render() for f in findings
    ]
