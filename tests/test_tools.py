import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("bench_pair", TOOLS / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment keeps its line


class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        text = """a string
that is not a docstring"""
        return os.sep + text

    def one_liner(self): """Docstring on the def line."""
'''


def test_src_lines_counts_code_lines(tmp_path):
    package = tmp_path / "src" / "sketchlab"
    package.mkdir(parents=True)
    (package / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    # import, class, def, two lines of text, return, one-liner def
    assert bench_pair.code_lines(FIXTURE) == 7
    assert bench_pair.src_lines(tmp_path) == {
        "modules": {"fixture.py": 18}, "total": 18,
        "code_modules": {"fixture.py": 7}, "code_total": 7,
    }
