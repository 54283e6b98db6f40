"""The lazy package exports (:mod:`repro._lazy`) keep the public surface:
every ``__all__`` name resolves to its defining submodule's object, shows
in ``dir()`` and binds under ``import *``, and each package's export table
agrees with the ``TYPE_CHECKING`` imports that type checkers and linters
read in its place."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent
PACKAGES = sorted(
    ".".join(("repro", *path.parent.relative_to(ROOT).parts))
    for path in ROOT.rglob("__init__.py")
)


def _targets(package):
    """``{name: (submodule, attribute)}`` from the package's export table."""
    module = importlib.import_module(package)
    targets = {}
    for name, target in module._EXPORTS.items():
        submodule, _, attr = target.partition(":")
        targets[name] = (f"{package}.{submodule}", attr or name)
    return targets


def _type_checking_imports(package):
    """``{name: (module, attribute)}`` bound under ``if TYPE_CHECKING:``."""
    path = Path(importlib.import_module(package).__file__)
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom), ast.unparse(stmt)
                for alias in stmt.names:
                    bound[alias.asname or alias.name] = (stmt.module, alias.name)
    return bound


def test_every_package_is_lazy():
    assert "repro.sim" in PACKAGES
    for package in PACKAGES:
        assert hasattr(importlib.import_module(package), "_EXPORTS"), package


@pytest.mark.parametrize("package", PACKAGES)
def test_table_matches_all_and_type_checking_block(package):
    module = importlib.import_module(package)
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == set(module._EXPORTS)
    assert _type_checking_imports(package) == _targets(package)


@pytest.mark.parametrize("package", PACKAGES)
def test_names_resolve_to_their_defining_submodule(package):
    module = importlib.import_module(package)
    for name, (submodule, attr) in _targets(package).items():
        value = getattr(module, name)
        assert value is getattr(importlib.import_module(submodule), attr), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == submodule, name


@pytest.mark.parametrize("package", PACKAGES)
def test_no_export_shadows_a_submodule(package):
    # Importing a submodule binds its name in the package, so an export of
    # the same name would change meaning with import order.
    module = importlib.import_module(package)
    submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
    assert submodules.isdisjoint(module.__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    assert set(module.__all__) <= namespace.keys()
