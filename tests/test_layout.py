"""Module layout: ``cli.py`` is the only module that writes files."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "rvbprep")


def file_io(path):
    """Calls of open, np.save* and json.dump*, and imports of struct."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "open":
                found.append("open")
            elif (isinstance(f, ast.Attribute)
                  and isinstance(f.value, ast.Name)
                  and ((f.value.id == "np" and f.attr.startswith("save"))
                       or (f.value.id == "json"
                           and f.attr.startswith("dump")))):
                found.append("%s.%s" % (f.value.id, f.attr))
        elif isinstance(node, ast.Import):
            found += ["import struct" for a in node.names
                      if a.name == "struct"]
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            found.append("import struct")
    return found


def test_only_cli_writes_files():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    found = {os.path.basename(p): file_io(p) for p in paths}
    # the check sees the file I/O that cli.py does have
    assert {"open", "np.save", "json.dump"} <= set(found.pop("cli.py"))
    assert {name: calls for name, calls in found.items() if calls} == {}
