"""The README's library example runs as written, and its configs are valid."""

import re
from pathlib import Path

from graphdyn.cli import _MODES, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    triangle = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= triangle <= 1.0


def test_readme_ini_blocks_parse_for_their_mode():
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for text in blocks:
        # a block's mode is its first section that names a run mode
        mode = next(m for m in re.findall(r"^\[(\w+)\]", text, flags=re.M) if m in _MODES)
        assert parse_config(text, mode).mode == mode
