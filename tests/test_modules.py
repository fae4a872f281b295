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


def readers_of(src: Path, attr: str) -> list[str]:
    """Every function or class body in the modules of src that reads the
    attribute `attr`, as module:Class.function."""
    found = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr \
                    and isinstance(child.ctx, ast.Load):
                found.add(f"{path.name}:{'.'.join(scope)}")
            visit(child, path, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path, ())
    return sorted(found)


def test_one_home_for_a_simple_reflection():
    # s_i is written once: the root closure, the orbit walk and the
    # reduction to the dominant chamber all step through RootSystem.reflect,
    # the one reader of the Cartan columns in _nbrs (_derive assigns them)
    assert readers_of(SRC, "_nbrs") == ["rootdata.py:RootSystem.reflect"]
    defined = [node.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)]
    assert "reflect" in defined and "reflect_offset" not in defined


def test_one_term_view_of_a_sliced_series():
    # CharSlices flattens its terms in terms() alone, and every diff of two
    # series is series.first_diff on term dicts
    tree = ast.parse((SRC / "series.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "CharSlices")
    methods = {node.name for node in cls.body
               if isinstance(node, ast.FunctionDef)}
    assert "terms" in methods
    assert methods.isdisjoint({"first_diff", "coeff", "restrict", "slice_dim",
                               "rebase"})
    diffs = [path.name for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef)
             and node.name == "first_diff"]
    assert diffs == ["series.py"]


def names_in(node) -> set[str]:
    """Every name and attribute name read in the subtree of node."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_one_limit_error_for_every_work_limit():
    # the Weyl order, the state budget, the screening window, the lattice
    # points and the Laurent division each refuse through the one
    # LimitError of rootdata, which cli.main maps in one handler
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    classes = [f"{name}:{node.name}" for name, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert [c for c in classes if c.endswith(":LimitError")] == [
        "rootdata.py:LimitError"]
    assert [c for c in classes
            if c.endswith((":WeylSizeError", ":BudgetError"))] == []
    limits = {"WEYL_LIMIT", "STATE_BUDGET", "SCREEN_LIMIT", "POINT_BUDGET",
              "DIVIDE_BUDGET"}
    guards = {f"{name}:{node.name}": names_in(node)
              for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and limits & names_in(node)}
    assert sorted(guards) == ["fock.py:fock_states",
                              "formulas.py:deligne_enumerate",
                              "lattice.py:quad_points",
                              "rootdata.py:check_weyl_order",
                              "series.py:laurent_divide"]
    assert all("LimitError" in names for names in guards.values())
    main = next(node for node in trees["cli.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handled = set().union(*(names_in(node.type) for node in ast.walk(main)
                            if isinstance(node, ast.ExceptHandler)))
    assert "LimitError" in handled
    assert handled.isdisjoint({"WeylSizeError", "BudgetError"})
