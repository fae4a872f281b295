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


def calls_of(src: Path, names: tuple[str, ...]) -> list[str]:
    """Every call of a function or method named in names in the modules of
    src."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if name in names:
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_cli_and_rootdata_build_a_root_system():
    # every library function takes the RootSystem its caller built; none
    # names an algebra from a colour count
    calls = calls_of(SRC, ("root_system", "RootSystem"))
    assert any(c.startswith("cli.py:") for c in calls)
    assert [c for c in calls
            if not c.startswith(("cli.py:", "rootdata.py:"))] == []


def test_only_cli_holds_the_weyl_size_limit():
    # one home for the limit: cli checks |W| before it builds the algebra,
    # and no library function checks it again
    calls = calls_of(SRC, ("check_weyl_order",))
    assert calls and all(c.startswith("cli.py:") for c in calls)
