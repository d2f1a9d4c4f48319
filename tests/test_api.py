"""The package's public surface."""

import re
from pathlib import Path

import mflq

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve():
    """Every name in mflq.__all__ exists, so a deleted function cannot stay exported."""
    assert len(set(mflq.__all__)) == len(mflq.__all__)
    missing = [name for name in mflq.__all__ if not hasattr(mflq, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    """README's "Library" example runs as written, so a name it uses cannot
    be deleted or renamed without the docs."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    assert block is not None, "README's Library section has no python block"
    exec(compile(block.group(1), f"{README}:Library", "exec"), {})
    mean, vs, value = capsys.readouterr().out.split()
    assert vs == "vs"
    assert abs(float(mean) - float(value)) < 1e-2 * float(value)
