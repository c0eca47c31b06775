"""The README's `python` blocks run as written, in order, on the synthetic
data written as the data.csv and preds.csv that they read."""

import os
import re

from test_cli import write_synth

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.MULTILINE | re.DOTALL)


def test_the_readme_python_blocks_run(tmp_path, monkeypatch):
    write_synth(tmp_path, n=300)
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
