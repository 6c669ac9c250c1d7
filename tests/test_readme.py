"""README.md's fenced python blocks run as written, so the documented API
cannot drift from the package."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    # Each block runs in a fresh namespace; relative paths land in tmp_path.
    monkeypatch.chdir(tmp_path)
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), {"__name__": "__readme__"})
