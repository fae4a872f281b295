"""Module boundaries of the library, read from its source."""

import ast
from pathlib import Path

import affinechar

SRC = Path(affinechar.__file__).parent


def private_imports(src: Path) -> list[str]:
    """Every `from ... import _name` in the modules of src."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} {a.name}"
                          for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    assert private_imports(SRC) == []
