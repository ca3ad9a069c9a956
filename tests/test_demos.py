"""The demos' calls into ``rvbprep``, checked without running the demos.

Each script under ``demos/`` is parsed; every ``rvbprep`` attribute it reads
must exist, and every keyword argument it passes to an ``rvbprep`` callable
must be a parameter of that callable.  A removed function or parameter then
fails here instead of when someone next runs the demo.
"""

import ast
import glob
import importlib
import inspect
import os

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "demos", "*.py")))


def rvbprep_names(tree):
    """Local name -> object for every ``from rvbprep... import`` name."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "rvbprep"):
            for alias in node.names:
                try:            # a submodule, imported by this statement
                    obj = importlib.import_module(
                        "%s.%s" % (node.module, alias.name))
                except ModuleNotFoundError:
                    obj = getattr(importlib.import_module(node.module),
                                  alias.name)
                names[alias.asname or alias.name] = obj
    return names


def resolve(node, names, where):
    """The object an ``a.b.c`` expression rooted at an imported rvbprep name
    denotes, or None when its root is not such a name."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = resolve(node.value, names, where)
        if owner is None:
            return None
        assert hasattr(owner, node.attr), "%s: %s has no attribute %s" % (
            where, getattr(owner, "__name__", owner), node.attr)
        return getattr(owner, node.attr)
    return None


def checked_calls(path):
    """(attributes resolved, keyword arguments checked) in one demo."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    names = rvbprep_names(tree)
    where = os.path.basename(path)
    n_attrs = n_keywords = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            n_attrs += resolve(node, names, where) is not None
        if isinstance(node, ast.Call):
            callee = resolve(node.func, names, where)
            if callee is None:
                continue
            params = inspect.signature(callee).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                assert kw.arg in params, "%s: %s() has no parameter %s" % (
                    where, callee.__qualname__, kw.arg)
                n_keywords += 1
    return n_attrs, n_keywords


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_calls_match_the_library(path):
    # a demo whose rvbprep names the parser cannot see fails here too
    n_attrs, _ = checked_calls(path)
    assert n_attrs > 0


def test_demo_checks_see_keywords():
    assert DEMOS
    assert sum(checked_calls(p)[1] for p in DEMOS) > 0
