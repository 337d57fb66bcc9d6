"""The README's examples run and print what the README says they print."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

from eigenframe import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _fenced(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def _comments(source):
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def test_python_blocks_show_their_values():
    # each expression line's comment is the repr of its value, alone or
    # followed by a comma and prose; the blocks share one namespace, in order
    blocks = _fenced("python")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        comments = _comments(block)
        checked = 0
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                comment = comments[stmt.end_lineno]
                assert comment == repr(value) or comment.startswith(repr(value) + ","), comment
                checked += 1
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
        assert checked


def test_command_line_examples_print_what_they_show(capsys):
    # a shown output ending in "..." is a prefix of the real one
    examples = re.findall(r"^\$ (eigenframe .*)\n((?:(?!```).+\n)*)", README, re.M)
    assert [cmd.split()[1] for cmd, _ in examples] == ["check-uc", "vc", "survey"]
    for cmd, shown in examples:
        assert cli.main(shlex.split(cmd)[1:]) == 0
        out = capsys.readouterr().out
        if shown.endswith("...\n"):
            assert out.startswith(shown[: -len("...\n")]), cmd
        else:
            assert out == shown, cmd
