"""Every public name the package advertises resolves."""

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
