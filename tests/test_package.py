import ast
import inspect
from pathlib import Path

import qgf
from qgf import autodiff


def test_every_exported_name_resolves():
    assert len(qgf.__all__) == len(set(qgf.__all__))
    missing = [name for name in qgf.__all__ if not hasattr(qgf, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from qgf import *", namespace)
    assert set(qgf.__all__) <= set(namespace)


def test_every_public_autodiff_function_has_a_caller_in_the_package():
    """The op set is what the package calls: an op only tests use belongs in tests/oracles.py."""
    referenced = set()
    for path in Path(qgf.__file__).parent.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = set()  # the names this module binds to qgf.autodiff itself
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module == "autodiff":
                        referenced.add(alias.name)
                    elif node.module is None and alias.name == "autodiff":
                        aliases.add(alias.asname or alias.name)
        referenced.update(node.attr for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute)
                          and isinstance(node.value, ast.Name) and node.value.id in aliases)
    public = {name for name, obj in vars(autodiff).items()
              if inspect.isfunction(obj) and obj.__module__ == autodiff.__name__
              and not name.startswith("_")}
    assert public and sorted(public - referenced) == []


def test_no_module_reads_the_environment():
    """qgf's behaviour and bytes follow its arguments: no module reads os.environ or
    os.getenv, and BLAS's thread count is set by ``nn.one_blas_thread``, not guessed."""
    reads = []
    for path in sorted(Path(qgf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            reads += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("environ", "environb", "getenv", "getenvb")]
    assert reads == []
