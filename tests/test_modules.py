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


def root_system_calls(src: Path) -> list[str]:
    """Every call of root_system or RootSystem in the modules of src."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if name in ("root_system", "RootSystem"):
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_cli_and_rootdata_build_a_root_system():
    # every library function takes the RootSystem its caller built; none
    # names an algebra from a colour count
    calls = root_system_calls(SRC)
    assert any(c.startswith("cli.py:") for c in calls)
    assert [c for c in calls
            if not c.startswith(("cli.py:", "rootdata.py:"))] == []
