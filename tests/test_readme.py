import re
from fractions import Fraction as F
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section):
    """The first ```python block after the heading ## section of the README."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n## {section}\n"):]
    return re.search(r"```python\n(.*?)```", after, re.S).group(1)


def test_the_library_use_example_runs_and_its_comments_hold():
    block = _python_block("Library use")
    for comment in ("# three strata", "# {(1/2, 0)}", "# slopes (1, 0), mults (2, 2)",
                    "# (True, None)"):
        assert comment in block
    ns = {}
    exec(compile(block, str(README), "exec"), ns)
    assert len(ns["ks"].elements) == 3
    assert {e.nu.coords for e in ns["second"]} == {(F(1, 2), F(0))}
    assert (ns["profile"].slopes, ns["profile"].mults) == ((1, 0), (2, 2))
    assert ns["check_uniqueness"](ns["dd"], 1) == (True, None)
