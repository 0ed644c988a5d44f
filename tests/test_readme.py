"""README's *Library* example runs as written."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _library_block() -> str:
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    # the example reads "sphere.tri"; census_t1_0001 is the one-tetrahedron
    # 3-sphere, so a name the README documents but the package no longer
    # has fails here, not only in the text
    code = _library_block()
    assert 'open("sphere.tri")' in code
    corpus = ROOT / "perfbench" / "corpus" / "census_t1_0001.tri"
    (tmp_path / "sphere.tri").write_text(corpus.read_text())
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert capsys.readouterr().out
    # no Z/2 classes beyond zero on a sphere: its part is the whole sum
    assert scope["part"] == scope["value"]
