"""README's library quick start runs, and each value it prints is the
library's: every `expr  # label: number` line evaluates to that number."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
LABELLED = re.compile(r"^(?P<expr>\S.*?)\s+#[^:\n]*:\s*(?P<number>[-+]?[0-9][0-9.eE+-]*)$")


def _quick_start():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_numbers_are_current():
    block = _quick_start()
    namespace = {}
    exec(block, namespace)
    lines = [m for m in map(LABELLED.match, block.splitlines()) if m]
    assert len(lines) == 3, [m.group(0) for m in lines]
    for m in lines:
        assert repr(eval(m.group("expr"), namespace)) == m.group("number"), m.group(0)
