import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(capsys):
    # every ```python block of the README runs as it stands, so the library
    # example cannot drift from the package's signatures again
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "RESULT: all mandatory checks passed" in capsys.readouterr().out
