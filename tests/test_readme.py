"""README.md as the contract: it names every export, every CLI flag and every
subject a route can be Unresolved about, each as code (an inline span or a
fenced block), and keeps the section titles the tests and ROADMAP cite."""

import ast
import re
from pathlib import Path

import pytest

from dysonprop import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dysonprop"
README = (ROOT / "README.md").read_text()


def _code(text: str) -> list[str]:
    """The fenced blocks and inline code spans of markdown ``text``, each with
    its runs of whitespace as one space: a span may break across lines."""
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    spans = fence.findall(text) + re.findall(r"`([^`]+)`", fence.sub("", text))
    return [" ".join(span.split()) for span in spans]


CODE = _code(README)


def _missing(names, pattern) -> list[str]:
    """The names that no code of README matches through ``pattern(name)``."""
    return [name for name in names
            if not any(re.search(pattern(name), span) for span in CODE)]


def _exports() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _flags() -> list[str]:
    return sorted({flag for _, _, flags in cli._COMMANDS.values() for flag, _, _ in flags}
                  | {"--format", "--out"})


def _unresolved_subjects() -> list[str]:
    """The literal first argument of every Unresolved(...) call under src/."""
    subjects = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Unresolved" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                subjects.add(node.args[0].value)
    return sorted(subjects)


def test_readme_names_every_export():
    names = _exports()
    assert "EigenDecomposition" in names and len(names) > 30
    assert _missing(names, lambda name: rf"\b{re.escape(name)}\b") == []


def test_readme_names_every_cli_flag():
    # --t must not be found inside --tol, nor --E inside --eps
    flags = _flags()
    assert "--fwd-points" in flags and "--out" in flags
    assert _missing(flags, lambda flag: rf"(?<![\w-]){re.escape(flag)}(?![\w-])") == []


def test_readme_names_every_unresolved_subject():
    # spelled as the code spells it: "Gauss-Legendre rule" with a hyphen
    subjects = _unresolved_subjects()
    assert "exp(-i t E)" in subjects and len(subjects) >= 12
    assert _missing(subjects, lambda subject: rf"^{re.escape(subject)}$") == []


def _cited_titles() -> set[str]:
    """Every README section title that a test, a module or ROADMAP.md cites: the
    word README, a comma and the title in double quotes."""
    texts = [p.read_text() for p in (*ROOT.glob("tests/*.py"), *SRC.glob("*.py"))]
    texts.append((ROOT / "ROADMAP.md").read_text())
    return {" ".join(title.split()) for text in texts
            for title in re.findall(r'README,\s+"([^"]+)"', text)}


@pytest.mark.parametrize("title", sorted(_cited_titles()))
def test_readme_keeps_every_cited_section_title(title):
    assert re.search(rf"^#+ {re.escape(title)}$", README, re.M), title
