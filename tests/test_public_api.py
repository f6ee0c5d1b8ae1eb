"""README's "Public API" list names exactly what `import cuspcal` exports."""

import re
import types
from pathlib import Path

import cuspcal

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_the_public_names():
    section = README.read_text().split("## Public API", 1)[1].split("\n## ", 1)[0]
    bullets = section.split("\n* ")[1:]
    listed = {name for bullet in bullets if not bullet.startswith("`cuspcal.errors`")
              for name in re.findall(r"`(\w+)`", bullet)}
    exported = {name for name in dir(cuspcal) if not name.startswith("_")
                and not isinstance(getattr(cuspcal, name), types.ModuleType)}
    assert listed == exported
