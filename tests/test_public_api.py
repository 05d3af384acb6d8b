"""The package's public surface: imports, re-exports, docstrings."""

import ast
import sys
from pathlib import Path

import repro


class TestSurface:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.bench
        import repro.btree
        import repro.core
        import repro.datagen
        import repro.mv3r
        import repro.rtree
        import repro.sfc
        import repro.storage
        assert repro.core.SWSTIndex is repro.SWSTIndex

    def test_all_lists_are_accurate(self):
        import repro.bench
        import repro.core
        import repro.storage
        for module in (repro, repro.core, repro.storage, repro.bench):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_public_classes_have_docstrings(self):
        from repro import Entry, Rect, SWSTConfig, SWSTIndex
        from repro.btree import BPlusTree
        from repro.mv3r import MV3RTree
        for cls in (Entry, Rect, SWSTConfig, SWSTIndex, BPlusTree,
                    MV3RTree):
            assert cls.__doc__ and cls.__doc__.strip()

    def test_index_public_methods_have_docstrings(self):
        from repro import SWSTIndex
        for name in ("insert", "report", "delete", "query_timeslice",
                     "query_interval", "query_knn", "advance_time",
                     "set_retention", "save", "open", "close_object"):
            method = getattr(SWSTIndex, name)
            assert method.__doc__ and method.__doc__.strip(), name

    def test_src_imports_only_the_stdlib(self):
        """``dependencies = []`` in pyproject.toml, enforced: every
        absolute import in ``src/repro`` names a stdlib module or repro."""
        package = Path(repro.__file__).parent
        foreign = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                foreign += [f"{path.relative_to(package)}: {name}"
                            for name in names
                            if name.split(".")[0] != "repro"
                            and name.split(".")[0]
                            not in sys.stdlib_module_names]
        assert not foreign, foreign
