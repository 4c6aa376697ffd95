"""Checks on the library's source text itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import scpartitions

SOURCES = sorted(Path(scpartitions.__file__).parent.glob("*.py"))


def test_sources_found():
    assert any(path.name == "series.py" for path in SOURCES)


def test_no_assert_statements():
    # `python -O` strips assert statements, so none may guard behaviour.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_public_name_is_used_by_the_library():
    # A name in a module's __all__, and a public method or property of a
    # class in the package, must be loaded somewhere in the package (a call,
    # an attribute access, an annotation); its definition and its __all__
    # string do not count.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    exported = {
        name
        for filename, tree in trees.items()
        if filename != "__init__.py"
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }
    methods = {
        f"{cls.name}.{fn.name}"
        for tree in trees.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    }
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unused = {name for name in exported | methods if name.rsplit(".", 1)[-1] not in loaded}
    assert unused == set()


def test_every_record_field_is_read_by_name():
    # A field of a NamedTuple class must be loaded as an attribute somewhere
    # in the package, so a record carries no field its readers never use. A
    # class that serialises itself through _asdict() hands every field on.
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    fields = {
        f"{cls.name}.{stmt.target.id}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases)
        and not any(
            isinstance(node, ast.Attribute) and node.attr == "_asdict" for node in ast.walk(cls)
        )
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    assert "_Law.reads_image" in fields
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert {field for field in fields if field.rsplit(".", 1)[-1] not in read} == set()


def test_verify_loads_no_private_name_of_another_module():
    # Each decision lives in the module that owns it: verify.py reads the
    # other package modules through their public names only.
    path = Path(scpartitions.__file__).parent / "verify.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {source.stem for source in SOURCES}
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    assert {"bijection", "enumeration", "series"} <= imported <= modules
    found = {
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in imported
        and node.attr.startswith("_")
    } | {
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert found == set()


# The generators that stream partitions one at a time.
GENERATORS = {"partitions_of", "self_conjugate_of"}


def test_no_count_function_walks_the_generators():
    # A count in enumeration.py comes from a search over cores, a knapsack or
    # a recurrence; walking every partition stays in the tests' oracles.
    path = Path(scpartitions.__file__).parent / "enumeration.py"
    counters = [
        fn
        for fn in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(fn, ast.FunctionDef)
        and (fn.name.endswith("_table") or fn.name.startswith("count_"))
    ]
    assert {"sc_count_table", "count_sc_sim_core_m"} <= {fn.name for fn in counters}
    walkers = {
        fn.name
        for fn in counters
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in GENERATORS
    }
    assert walkers == set()


def test_core_search_tests_cores_as_partition_does():
    # A search node packs its beads into one integer as a Partition does,
    # and add_row and add_hook accept a child through partitions._is_core:
    # enumeration.py builds no bead set and shifts no beads of its own.
    path = Path(scpartitions.__file__).parent / "enumeration.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not any(isinstance(node, ast.Name) and node.id == "frozenset" for node in ast.walk(tree))
    assert not any(isinstance(node, ast.RShift) for node in ast.walk(tree))
    loads = {
        fn.name: {
            node.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name in {"add_row", "add_hook"}
    }
    assert {name for name, names in loads.items() if "_is_core" in names} == {"add_row", "add_hook"}


def test_only_partitions_sets_a_known_conjugate():
    # A Partition trusts its _conj, _hooks and _beads slots as its
    # conjugate's parts, its diagonal hooks and its packed beads, so only
    # partitions.py may store them or name them in a string (setattr).
    trusted = {"_conj", "_hooks", "_beads"}
    found = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (
            isinstance(node, ast.Attribute)
            and node.attr in trusted
            and isinstance(node.ctx, ast.Store)
        )
        or (isinstance(node, ast.Constant) and node.value in trusted)
    }
    assert found == {"partitions.py"}


def test_verify_walks_the_self_conjugate_partitions_at_one_site():
    # The per-partition laws are rows of two walks: verify.py names a
    # partition generator only in _walk, and there each of the two once.
    path = Path(scpartitions.__file__).parent / "verify.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    generators = {"self_conjugate_of", "partitions_of"}
    sites = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = [node.attr]
            else:
                continue
            sites += [(getattr(top, "name", None), name) for name in names if name in generators]
    assert sorted(sites) == [("_walk", "partitions_of"), ("_walk", "self_conjugate_of")]


# The self-conjugate generator and the per-partition primitives the walk
# calls for every partition, and the core test the core search calls for
# every child: a generator expression there costs a frame per call.
NO_GENERATOR_EXPRESSION = {
    "enumeration.py": {"self_conjugate_of"},
    "partitions.py": {
        "Partition.is_simultaneous_core", "Partition.hook_multiset", "Partition.beta_set",
        "Partition.disparity", "Partition.diagonal_hooks", "sc_from_diagonal", "_is_core",
        "_validated_deltas", "beta_from_diagonal",
    },
    "bijection.py": {
        "phi", "psi", "classify", "half_even_beta", "complement_beta",
        "delete_principal_hook", "corresponding_partition_after_deletion",
    },
}


def test_per_partition_primitives_have_no_generator_expression():
    found = set()
    for filename, names in NO_GENERATOR_EXPRESSION.items():
        path = Path(scpartitions.__file__).parent / filename
        defs = {}
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                defs.update(
                    (f"{node.name}.{fn.name}", fn)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                )
        assert names <= set(defs), names - set(defs)
        found |= {
            f"{filename}:{name}"
            for name in names
            if any(isinstance(node, ast.GeneratorExp) for node in ast.walk(defs[name]))
        }
    assert found == set()


def test_hook_multiset_has_no_loop():
    # The hook counts are one big-integer product: packing, the product and
    # the read-back are builtin calls, so the kernel costs the same number of
    # interpreter steps whatever the partition's size.
    path = Path(scpartitions.__file__).parent / "partitions.py"
    cls = next(
        node
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.ClassDef) and node.name == "Partition"
    )
    fn = next(f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "hook_multiset")
    loops = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)
    assert [type(node).__name__ for node in ast.walk(fn) if isinstance(node, loops)] == []


def test_psi_builds_no_throwaway_partition():
    # psi reads the tail's conjugate from mu's own; its one partition is its
    # result, which sc_from_diagonal builds and checks.
    path = Path(scpartitions.__file__).parent / "bijection.py"
    fn = next(
        node
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name == "psi"
    )
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert called.isdisjoint({"Partition", "_from_parts"}), called
    assert "sc_from_diagonal" in called


def _reach(root: str):
    # The package's module-level functions reached from root, call by call,
    # and every name that one of them loads.
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    loads = {
        fn.name: {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(fn)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }
        for tree in trees
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
    }
    reached, frontier = set(), [root]
    while frontier:
        name = frontier.pop()
        reached.add(name)
        frontier += [n for n in loads[name] if n in loads and n not in reached]
    return reached, set().union(*(loads[name] for name in reached))


def test_eq12_product_shares_no_route_with_cor15():
    # cor1.5's right side is a core search times the triangular series, and
    # gauss and eq1.1 check the other builders; eq1.2's product reads only
    # p(n) and Euler products. No function it reaches in the package, call
    # by call, may name one of those.
    reached, names = _reach("sc_even_core_product_series")
    assert {"_times_euler", "partition_count_table", "series_from_counts"} <= reached
    shared = {"tabulate", "triangular_series", "gauss_product_series", "core_product_series"}
    assert names.isdisjoint(shared)


def test_gauss_product_shares_no_route_with_eq12():
    # gauss's product side is geometric passes and one Euler product: it
    # reads no p(n) table, no other builder, no core search and not the
    # triangular series it is compared with. Its passes are the library's
    # use of times_geometric, which the traced benchmark counts.
    reached, names = _reach("gauss_product_series")
    assert "_times_euler" in reached
    assert "times_geometric" in names
    shared = {
        "partition_count_table", "sc_even_core_product_series", "core_product_series",
        "triangular_series", "tabulate",
    }
    assert names.isdisjoint(shared)


def _modules_loaded(code: str) -> set:
    src = str(Path(scpartitions.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


def test_import_loads_no_dataclasses_or_inspect():
    # Commands run once per process, so the import is part of their wall time:
    # dataclasses alone pulls in inspect, ast, dis and tokenize.
    added = _modules_loaded("import scpartitions, scpartitions.cli") - _modules_loaded("pass")
    assert "scpartitions.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect"})
