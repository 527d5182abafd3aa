"""Property-based tests: the linter on *generated* algorithm sources.

Hypothesis synthesizes node programs with randomized identifiers and a
randomized mix of injected violations, then checks three invariants:

* every injected violation produces a finding of the right rule;
* adding a ``# repro: lint-ignore[RULE]`` on the violating line silences
  exactly that finding;
* programs synthesized without violations lint clean.
"""

from __future__ import annotations

import keyword

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import lint_source
from repro.lint.config import PUBLIC_CONTEXT_SURFACE, LintConfig

pytestmark = pytest.mark.property

CFG = LintConfig(determinism_packages=("*",))

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: not keyword.iskeyword(s)
    and s not in PUBLIC_CONTEXT_SURFACE
    and s not in {"self", "ctx", "inbox"}
)


def render_program(class_name: str, body_lines):
    lines = [
        "from repro.congest.algorithm import NodeAlgorithm",
        "",
        "",
        f"class {class_name.capitalize()}(NodeAlgorithm):",
        "    def on_round(self, ctx, inbox):",
    ]
    lines.extend(f"        {line}" for line in body_lines)
    return "\n".join(lines) + "\n"


#: violation factories: identifier -> (source line, expected rule)
VIOLATIONS = (
    lambda name: (f"self.{name} = len(inbox)", "R1"),
    lambda name: (f"self.{name} += 1", "R1"),
    lambda name: (f"{name} = ctx._outbox", "R2"),
    lambda name: (f"{name} = ctx.{name}_backdoor", "R2"),
    lambda name: ("ctx.broadcast(tuple(ctx.neighbors))", "R4"),
    lambda name: (f'ctx.send(0, ({name!r}, b"x"))', "R4"),
    lambda name: (f"ctx.send(0, [{name} for {name} in ctx.neighbors])", "R4"),
)

CLEAN_LINES = (
    lambda name: f"ctx.state[{name!r}] = len(inbox)",
    lambda name: f"ctx.send(0, ({name!r}, ctx.node, ctx.degree()))",
    lambda name: f"{name} = ctx.round_index + ctx.n",
    lambda name: "ctx.broadcast(('deg', len(ctx.neighbors)))",
    lambda name: "ctx.halt(('done', ctx.node))",
)


@given(
    class_name=identifiers,
    names=st.lists(identifiers, min_size=1, max_size=4, unique=True),
    picks=st.lists(
        st.integers(min_value=0, max_value=len(VIOLATIONS) - 1),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_injected_violations_all_fire(class_name, names, picks):
    body, expected = [], []
    for i, pick in enumerate(picks):
        line, rule = VIOLATIONS[pick](names[i % len(names)])
        body.append(line)
        expected.append((len(body) + 5, rule))  # header is 5 lines
    source = render_program(class_name, body)
    findings = lint_source(source, path="gen.py", config=CFG)
    found = {(f.line, f.rule) for f in findings}
    for line_rule in expected:
        assert line_rule in found, f"missing {line_rule} in:\n{source}"


@given(
    class_name=identifiers,
    name=identifiers,
    pick=st.integers(min_value=0, max_value=len(VIOLATIONS) - 1),
)
@settings(max_examples=60, deadline=None)
def test_suppression_silences_each_rule(class_name, name, pick):
    line, rule = VIOLATIONS[pick](name)
    suppressed = render_program(
        class_name, [f"{line}  # repro: lint-ignore[{rule}]"]
    )
    findings = lint_source(suppressed, path="gen.py", config=CFG)
    assert [f for f in findings if f.rule == rule] == [], suppressed


@given(
    class_name=identifiers,
    names=st.lists(identifiers, min_size=1, max_size=5, unique=True),
    picks=st.lists(
        st.integers(min_value=0, max_value=len(CLEAN_LINES) - 1),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=60, deadline=None)
def test_compliant_generated_programs_lint_clean(class_name, names, picks):
    body = [CLEAN_LINES[pick](names[i % len(names)]) for i, pick in enumerate(picks)]
    source = render_program(class_name, body)
    findings = lint_source(source, path="gen.py", config=CFG)
    assert findings == [], f"false positives in:\n{source}"
