"""Package surface: the exported names are the ones README documents."""

import re
from pathlib import Path

import thetadim

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def test_every_exported_name_is_documented_in_readme_library():
    section = _library_section()
    undocumented = [
        name for name in thetadim.__all__ if not re.search(rf"`{name}\b", section)
    ]
    assert undocumented == []

