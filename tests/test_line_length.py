"""Every line of the package and of its tests fits in 100 characters."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MAX_LINE = 100


@pytest.mark.parametrize("folder", ["src/coevonet", "tests"])
def test_every_line_fits_in_100_characters(folder):
    long_lines = [f"{path.relative_to(ROOT)}:{number} ({len(line)})"
                  for path in sorted((ROOT / folder).glob("*.py"))
                  for number, line in enumerate(path.read_text().splitlines(), start=1)
                  if len(line) > MAX_LINE]
    assert long_lines == []
