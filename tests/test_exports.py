"""Every name the package exports has a reader outside the tests."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vngrid"


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _readers():
    """Texts that count as readers: the package modules other than
    ``__init__`` (each line but a ``def`` or ``class`` line, which defines
    rather than reads), every file under ``perfbench/``, and README's
    "Library sketch" section (its code and its "Key objects" text)."""
    texts = [(path.read_text(), True) for path in PACKAGE.glob("*.py")
             if path.name != "__init__.py"]
    texts += [(path.read_text(), False)
              for path in (ROOT / "perfbench").glob("*") if path.is_file()]
    readme = (ROOT / "README.md").read_text()
    texts.append((readme[readme.index("## Library sketch"):], False))
    return texts


def _reads(name, text, skip_definitions):
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    return any(word.search(line) and not (skip_definitions
                                          and definition.match(line))
               for line in text.splitlines())


def test_every_export_has_a_reader_outside_the_tests():
    readers = _readers()
    names = _exported_names()
    assert "tdse_adaptive" in names and "models" in names
    unread = [name for name in names
              if not any(_reads(name, text, skip) for text, skip in readers)]
    assert not unread, f"exported for the tests only: {unread}"
