"""docs/fuzzing.md's oracle table must track ``ORACLE_NAMES``."""

import re
from pathlib import Path

from repro.fuzz.oracles import ORACLE_NAMES

DOC = Path(__file__).resolve().parents[2] / "docs" / "fuzzing.md"


def test_every_oracle_is_documented():
    text = DOC.read_text()
    section = text.split("## The oracle stack", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    # Same names, in the order the oracles run.
    assert documented == list(ORACLE_NAMES), (
        f"documented {documented} != ORACLE_NAMES {list(ORACLE_NAMES)}"
    )
