"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    quick_start = text.index("## Library quick start")
    assert blocks and blocks[0] in text[quick_start:]
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the quick start prints the residual and bits, then the certificate's verdict and rho
    assert capsys.readouterr().out.splitlines()[1].startswith("True ")
