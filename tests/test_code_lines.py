"""``code_lines.py`` counts code lines: no blanks, comments or docstrings."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Code lines are marked "# code"; every other line must not count.
FIXTURE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    import math  # code

    # A comment-only line.
    MESSAGE = """a string that is  # code
    not a docstring"""  # code


    class Point:  # code
        """Class docstring."""

        x: float = 0.0  # code

        def norm(self,  # code
                 scale=1.0):  # code
            """Function docstring,

            over three lines."""
            "a second string statement"  # code
            return math.hypot(  # code
                self.x, scale)  # code


    async def wait():  # code
        \'\'\'Async docstring.\'\'\'
        return [  # code
            1,  # code

            2,  # code
        ]  # code
    ''')


def run(*paths):
    return subprocess.run([sys.executable, str(ROOT / "code_lines.py"), *map(str, paths)],
                          capture_output=True, text=True, check=False)


def test_counts_code_lines_of_each_file_and_the_total(tmp_path):
    expected = FIXTURE.count("# code")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n\nX = 1\n')
    (tmp_path / "pkg" / "notes.txt").write_text("X = 1\n")
    result = run(tmp_path / "pkg")
    assert result.returncode == 0, result.stderr
    assert [line.split() for line in result.stdout.splitlines()] == [
        [str(expected), str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        [str(expected + 1), "total"],
    ]


def test_a_file_argument_is_counted_and_no_argument_is_an_error(tmp_path):
    path = tmp_path / "one.py"
    path.write_text("# comment\n\ndef f():\n    return 1\n")
    assert run(path).stdout.split() == ["2", str(path), "2", "total"]
    assert run().returncode == 2
