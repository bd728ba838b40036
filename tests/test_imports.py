import ast
import os
import subprocess
import sys
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


def test_importing_the_package_loads_no_numpy():
    # the CLI sets OPENBLAS_NUM_THREADS before numpy loads; both entry
    # points import the package first, so the package must not load it
    code = "import sys, aqm; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aqm.__file__)))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_every_module_uses_what_it_imports():
    modules = sorted(Path(aqm.__file__).parent.glob("*.py"))
    unused = {m.name: _unused_imports(m.read_text()) for m in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_an_unused_import_is_reported():
    source = "import os\nimport numpy as np\nfrom aqm.rng import stream, chunks\nnp.ones(stream)\n"
    assert _unused_imports(source) == ["chunks", "os"]


def _names_config_error(source: str) -> bool:
    """Whether the source imports, reads or defines ConfigError; prose does not count."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for a in node.names for part in (a.name.rpartition(".")[2], a.asname)]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)]
        if "ConfigError" in names:
            return True
    return False


def test_only_the_cli_decides_bad_input():
    # the CLI refuses bad input before --out exists; the library raises ValueError
    modules = sorted(Path(aqm.__file__).parent.glob("*.py"))
    naming = [m.name for m in modules if _names_config_error(m.read_text())]
    assert naming == ["cli.py"]


def test_a_config_error_outside_the_cli_is_reported():
    assert _names_config_error("from aqm.errors import ConfigError as Bad\n")
    assert _names_config_error("from aqm import errors\nraise errors.ConfigError('x')\n")
    assert _names_config_error("class ConfigError(ValueError):\n    pass\n")
    assert not _names_config_error('"""Not a ConfigError: a ValueError."""\nraise ValueError()\n')


def _unread_private_names(sources: list) -> list:
    """Module-level names with one leading underscore that no source reads."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


def test_every_private_name_is_read():
    modules = sorted(Path(aqm.__file__).parent.glob("*.py"))
    assert _unread_private_names([m.read_text() for m in modules]) == []


def test_an_unread_private_name_is_reported():
    defining = "_CHUNK = 4\n_A, _B = 1, 2\ndef _f():\n    return _A\nclass _C:\n    pass\n"
    reading = "from m import _C\nimport m\nx = _C(), m._CHUNK\n"
    assert _unread_private_names([defining, reading]) == ["_B", "_f"]


def _is_pool_module(name: str) -> bool:
    return name.partition(".")[0] in ("concurrent", "multiprocessing")


def _pool_uses(source: str) -> list:
    """Pool modules imported, names of thread or process pools, and .submit/.map calls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if _is_pool_module(a.name)]
        elif isinstance(node, ast.ImportFrom) and _is_pool_module(node.module or ""):
            found.append(node.module)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("submit", "map"):
                found.append(f".{node.func.attr}")
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in ("ThreadPoolExecutor", "ProcessPoolExecutor", "_executor"):
            found.append(name)
    return found


def test_no_module_runs_work_on_a_pool():
    # every draw is made on the calling thread: Born tallies are one
    # multinomial each, and photon chunks run one after another
    modules = sorted(Path(aqm.__file__).parent.glob("*.py"))
    uses = {m.name: _pool_uses(m.read_text()) for m in modules}
    assert {name: found for name, found in uses.items() if found} == {}


def test_a_pool_use_is_reported():
    source = ("from concurrent.futures import ThreadPoolExecutor\nimport multiprocessing.pool\n"
              "pool = ThreadPoolExecutor(2)\nlist(pool.map(abs, [1]))\npool.submit(abs, 1)\n"
              "rng._executor()\nsum(map(abs, [1]))\n")
    assert sorted(_pool_uses(source)) == [".map", ".submit", "ThreadPoolExecutor",
                                          "ThreadPoolExecutor", "_executor",
                                          "concurrent.futures", "multiprocessing.pool"]


def _tolerance_parameters(source: str) -> list:
    """function:parameter of each parameter named `tol` or ending in `_tol`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            name = getattr(node, "name", "<lambda>")
            found += [f"{name}:{a.arg}" for a in params
                      if a is not None and (a.arg == "tol" or a.arg.endswith("_tol"))]
    return found


def test_no_function_takes_a_tolerance():
    # each tolerance is one named constant of the module that owns the decision
    modules = sorted(Path(aqm.__file__).parent.glob("*.py"))
    found = {m.name: _tolerance_parameters(m.read_text()) for m in modules}
    assert {name: params for name, params in found.items() if params} == {}


def test_a_tolerance_parameter_is_reported():
    source = ("def f(a, tol=1e-8):\n    pass\n"
              "async def g(*, const_tol):\n    pass\n"
              "class C:\n    def m(self, x, /, herm_tol, tolerance, stol=1):\n        pass\n"
              "h = lambda *tol, **rel_tol: 0\n")
    assert _tolerance_parameters(source) == ["f:tol", "g:const_tol", "m:herm_tol",
                                             "<lambda>:tol", "<lambda>:rel_tol"]
