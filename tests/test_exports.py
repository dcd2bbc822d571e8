"""Every name the package exports, and every function, class and method it
defines, has a reader outside the tests."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vngrid"


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _outside_texts():
    """Every file under ``perfbench/``, and README's "Library sketch"
    section (its code and its "Key objects" text)."""
    texts = [path.read_text()
             for path in (ROOT / "perfbench").glob("*") if path.is_file()]
    readme = (ROOT / "README.md").read_text()
    texts.append(readme[readme.index("## Library sketch"):])
    return texts


def _readers():
    """Texts that count as readers: the package modules other than
    ``__init__`` (each line but a ``def`` or ``class`` line, which defines
    rather than reads), and :func:`_outside_texts`."""
    texts = [(path.read_text(), True) for path in PACKAGE.glob("*.py")
             if path.name != "__init__.py"]
    return texts + [(text, False) for text in _outside_texts()]


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


def test_every_definition_has_a_reader_outside_the_tests():
    # a definition is read by a name, an attribute or an import in the
    # package's code, or is named in perfbench/ or the Library sketch;
    # dunder methods are called by the language and count as read
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced.update(alias.name.rpartition(".")[2]
                                  for alias in node.names)
    assert "ReducedHamiltonian" in defined and "_contract" in defined
    texts = _outside_texts()
    unread = [f"{name} ({where})" for name, where in sorted(defined.items())
              if not (name.startswith("__") and name.endswith("__"))
              and name not in referenced
              and not any(_reads(name, text, False) for text in texts)]
    assert not unread, f"defined but never read: {unread}"
