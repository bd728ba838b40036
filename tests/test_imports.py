import ast
from pathlib import Path

import aqm


def _unused_imports(source: str) -> list:
    """Names that the module's import statements bind and its code never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_module_uses_what_it_imports():
    # aqm/__init__.py imports its submodules to re-export them
    modules = sorted(Path(aqm.__file__).parent.glob("*.py"))
    unused = {m.name: _unused_imports(m.read_text()) for m in modules if m.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_an_unused_import_is_reported():
    source = "import os\nimport numpy as np\nfrom aqm.rng import stream, event_chunks\nnp.ones(stream)\n"
    assert _unused_imports(source) == ["event_chunks", "os"]
