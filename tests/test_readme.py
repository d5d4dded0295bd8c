"""The README's python examples run as written."""

from __future__ import annotations

import re
import socket
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    # an example writes only into tmp_path and opens no connection
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(socket, "socket", None)
    code = compile(BLOCKS[index], f"README.md python block {index + 1}", "exec")
    exec(code, {"__name__": "__readme__"})
