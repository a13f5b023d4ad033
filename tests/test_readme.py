import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    # the library example must run against the current API
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out
