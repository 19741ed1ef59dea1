"""The package's size budget: at most 1,527 code lines in ``src/phenomnn/*.py``.

Every line of a module is one of four kinds: a docstring line (any line of a
module, class or function docstring, as ``ast`` finds them), a code line
(any other line holding a token, a line of a multi-line string included), a
comment line (a comment alone) or a blank line.
"""

import ast
import glob
import io
import os
import tokenize

CODE_BUDGET = 1527
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "phenomnn")
_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def code_and_docstring_lines(source: str) -> tuple[int, int]:
    """The code lines and the docstring lines of one module's ``source``."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - doc), len(doc)


def test_the_counter_sorts_each_line_into_one_kind():
    source = '''"""Module doc,
on two lines."""

# a comment
import os  # a comment after code


def f():
    """One line."""
    s = """a multi-line string
that is code"""
    return s
'''
    assert code_and_docstring_lines(source) == (5, 3)


def test_src_stays_within_its_code_budget():
    code = doc = 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as f:
            c, d = code_and_docstring_lines(f.read())
        code, doc = code + c, doc + d
    assert code <= CODE_BUDGET, f"src/phenomnn has {code} code lines (budget {CODE_BUDGET}) and {doc} docstring lines"
