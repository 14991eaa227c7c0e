"""Source hygiene of src/pfcomplex, read with the standard library's ast."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pfcomplex"


def parsed_modules() -> dict:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def references(tree) -> Counter:
    """How often the module refers to each name, as a bare name, an
    attribute or an imported name."""
    names = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
    return names


def test_no_unused_imports():
    unused = []
    for name, tree in parsed_modules().items():
        if name == "__init__.py":  # its imports are the package's names
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}: {a.name}" for a in node.names
                           if (a.asname or a.name).split(".")[0] not in read]
    assert unused == []


def test_no_orphaned_private_definitions():
    """Every module-level private function or class is referred to somewhere
    in the package outside its own body."""
    modules = parsed_modules()
    total = sum(map(references, modules.values()), Counter())
    orphans = [f"{name}: {node.name}"
               for name, tree in modules.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")
               and total[node.name] == references(node)[node.name]]
    assert orphans == []


def test_only_complex_and_midpoint_subdivision_read_the_frozenset():
    """Membership is Complex._ids' row search, equality compares the cell
    lists and stars walk the cell index, so no library path builds the
    whole complex's frozenset but the `simplices` property itself and
    midpoint_subdivision, whose lengths are filled in its order."""
    readers = [f"{name}: line {n.lineno}"
               for name, tree in parsed_modules().items() for node in tree.body
               if (name, getattr(node, "name", None)) != ("builders.py", "midpoint_subdivision")
               for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "simplices"]
    assert readers == []


def test_one_incidence_structure_and_one_angle_memo():
    """The cell index is the only incidence structure of a complex and the
    link table the only place angles are memoised: no module names a
    vertex star or a dihedral memo, and open_star walks the coface arrays
    without the membership records, whose cost one query should not pay."""
    modules = parsed_modules()
    named = [f"{name}: {n}" for name, tree in modules.items()
             for n in ("vertex_star", "_dihedrals")
             if references(tree)[n] or any(getattr(d, "name", None) == n for d in ast.walk(tree))]
    assert named == []
    complex_class = next(node for node in modules["complexes.py"].body
                         if isinstance(node, ast.ClassDef) and node.name == "Complex")
    open_star = next(node for node in complex_class.body
                     if isinstance(node, ast.FunctionDef) and node.name == "open_star")
    assert references(open_star)["_ids"] == references(open_star)["_records"] == 0


def test_parse_checks_records_one_at_a_time_only_in_the_rescan():
    """pfcio converts and checks the records as arrays.  Only the re-scan
    that names the first bad record calls canonical_simplex per record,
    and no path searches membership records (Complex._ids)."""
    tree = parsed_modules()["pfcio.py"]
    callers = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
               and references(node)["canonical_simplex"]]
    assert callers == ["_raise_first_bad_record"]
    assert references(tree)["_ids"] == 0


def test_extendability_check_batches_its_eccentricities():
    """extendability_check walks its vertices and hands the distinct links
    to one eccentricity batch: no loop of it runs a per-link eccentricity
    or Dijkstra.  _adjacency and _dijkstra keep the signatures that
    builders and the acceptance tests call."""
    tree = parsed_modules()["metric.py"]
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    per_link = {"min_eccentricity", "_min_eccentricities", "_dijkstra", "_adjacency"}
    calls = [n.func.id for loop in ast.walk(defs["extendability_check"])
             if isinstance(loop, ast.For) for n in ast.walk(loop)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    assert "vertex_link_graph" in calls and per_link.isdisjoint(calls)
    assert references(defs["extendability_check"])["_min_eccentricities"] == 1
    signature = {name: ([a.arg for a in defs[name].args.args],
                        [ast.literal_eval(d) for d in defs[name].args.defaults])
                 for name in ("_adjacency", "_dijkstra")}
    assert signature == {"_adjacency": (["g"], []),
                         "_dijkstra": (["adj", "source", "skip_arc"], [None])}


def test_gluing_and_checking_read_the_edge_length_arrays():
    """Union, quotient, validation, the link table and serialize read a
    metric's edge_lengths and length_codes, never the dict view `lengths`;
    the quotient sorts each dimension's image rows by one int64 key per row,
    with no np.lexsort.  The arrays are a metric's one store: no library
    function reads `.lengths` but the property that builds that view,
    MetricComplex defines no `_edges` pair, and `length` has one path,
    which reads no `__dict__`."""
    modules = parsed_modules()
    defs = {(name, node.name): node for name, tree in modules.items()
            for node in tree.body if isinstance(node, ast.FunctionDef)}
    readers = [f"{name}: {func}" for name, func in [
        ("metric.py", "metric_disjoint_union"), ("metric.py", "metric_quotient"),
        ("metric.py", "validate_metric"), ("metric.py", "_link_table"), ("pfcio.py", "serialize")]
        if any(isinstance(n, ast.Attribute) and n.attr == "lengths"
               for n in ast.walk(defs[name, func]))]
    assert readers == []
    assert references(defs["complexes.py", "quotient"])["lexsort"] == 0
    metric = next(node for node in modules["metric.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "MetricComplex")
    methods = {node.name: node for node in metric.body if isinstance(node, ast.FunctionDef)}
    view = set(map(id, ast.walk(methods["lengths"])))
    readers = [f"{name}: line {n.lineno}" for name, tree in modules.items() for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and n.attr == "lengths" and id(n) not in view]
    assert readers == []
    assert "_edges" not in methods and references(metric)["_edges"] == 0
    assert references(methods["length"])["__dict__"] == 0


def test_cofaces_by_one_key_sort_and_morse_rounds_on_a_frontier():
    """CellIndex.cob sorts one int64 key per face entry, with no argsort,
    and no _morse_core round allocates a full-size array with np.full: the
    `least` scratch array lives across rounds."""
    modules = parsed_modules()
    index = next(node for node in modules["complexes.py"].body
                 if isinstance(node, ast.ClassDef) and node.name == "CellIndex")
    cob = next(node for node in index.body if getattr(node, "name", None) == "cob")
    assert references(cob)["argsort"] == 0
    core = next(node for node in modules["homology.py"].body
                if getattr(node, "name", None) == "_morse_core")
    rounds = [n for n in ast.walk(core) if isinstance(n, ast.While)]
    assert rounds and all(references(loop)["full"] == 0 for loop in rounds)


def test_one_union_find_and_one_constructor_path():
    """Classes are joined by one hooking loop, complexes._class_minima: no
    class in the package defines find or union, and both quotient and the
    ace rounds' _component_minima call the helper.  No library code builds
    a complex by calling Complex(simplices); collapse_core and link take
    rows to Complex.from_rows."""
    modules = parsed_modules()
    methods = [f"{name}: {cls.name}.{f.name}" for name, tree in modules.items()
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef) and f.name in ("find", "union")]
    assert methods == []
    defs = {node.name: node for tree in modules.values() for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    for func in ("quotient", "_component_minima"):
        called = {n.func.id for n in ast.walk(defs[func])
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert "_class_minima" in called, func
    calls = [f"{name}: line {n.lineno}" for name, tree in modules.items() for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "Complex"]
    assert calls == []
