"""Every public name the package advertises resolves, and the modules
keep their layering: ``fraisse`` builds on the public names of ``classes``,
and ``classes`` never reaches back into ``fraisse``."""

import ast
import importlib
import pathlib
import pkgutil

import gradedmodels


def test_all_lists_and_package_imports_resolve():
    for info in pkgutil.iter_modules(gradedmodels.__path__):
        module = importlib.import_module(f"gradedmodels.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], info.name
    tree = ast.parse(pathlib.Path(gradedmodels.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"gradedmodels.{node.module}")
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert missing == [], node.module


def _module_tree(name: str) -> ast.Module:
    path = pathlib.Path(gradedmodels.__file__).with_name(f"{name}.py")
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported_modules(node) -> list[str]:
    """The dotted module names an import statement brings in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        source = node.module or ""
        return [source] + [f"{source}.{alias.name}".lstrip(".") for alias in node.names]
    return []


def test_classes_never_imports_fraisse():
    found = [(node.lineno, name)
             for node in ast.walk(_module_tree("classes"))
             for name in _imported_modules(node)
             if "fraisse" in name.split(".")]
    assert found == []


def test_fraisse_uses_only_public_names_of_classes():
    private = []
    for node in ast.walk(_module_tree("fraisse")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "classes":
            private += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "classes" and node.attr.startswith("_")):
            private.append((node.lineno, node.attr))
    assert private == []


def test_logic_imports_only_errors_from_the_package():
    """The evaluator reads structures through their attributes alone, and
    importing ``logic`` stays as cheap as importing ``errors``."""
    found = []
    for node in ast.walk(_module_tree("logic")):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [name for name in _imported_modules(node) if name.split(".")[0] == "gradedmodels"]
    assert set(found) <= {"errors", "gradedmodels.errors"}
