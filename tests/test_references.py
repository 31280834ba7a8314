"""Every top-level function and class in src/embnum/ and scripts/ is named
somewhere in src/ or scripts/ outside its own definition, and every method,
property and self. attribute of a top-level class is read there as an
attribute outside its own definition, so library code and state that only
tests reach show up here.  ALLOWED and ALLOWED_MEMBERS list the exceptions,
each with its reason; an entry that gains a reader must leave its list."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "embnum").rglob("*.py"), *(ROOT / "scripts").glob("*.py")])

ALLOWED = {
    "split_half": "waits for out-of-sample evaluation to call it (ROADMAP item 3)",
    "save_dsl_model": "waits for out-of-sample evaluation to call it (ROADMAP item 3)",
    "mw_statistic": "perfbench times it; its caller moves into the package with the "
                    "span recorder (ROADMAP item 5)",
    "numeric_jaccard": "perfbench times it (ROADMAP item 5)",
    "rank_of_first_correct": "perfbench reads it (ROADMAP item 5)",
    "efficiency_spec": "perfbench builds its serve fixture from it (ROADMAP item 5)",
}

ALLOWED_MEMBERS = {
    "FeatureStore.records": "perfbench reads it (ROADMAP item 5)",
}


def _names(node: ast.AST) -> set[str]:
    """The names node's subtree reads, imports or looks up as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def test_every_top_level_name_has_a_caller_outside_tests():
    defined, named_by = [], {}  # (file, top-level name or None) -> names it reads
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None) if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if owner is not None:
                defined.append((path, owner))
            named_by.setdefault((path, owner), set()).update(_names(node))
    unreferenced = {
        name for path, name in defined
        if not any(name in names for key, names in named_by.items() if key != (path, name))}
    assert sorted(unreferenced - ALLOWED.keys()) == [], "only tests reach these"
    assert sorted(ALLOWED.keys() - unreferenced) == [], "these have callers now"


def test_every_class_member_is_read_outside_tests():
    members, reads = [], []  # (class.member, nodes of its own definition); (attr, node)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += [(sub.attr, sub) for sub in ast.walk(tree)
                  if isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not fn.name.startswith("__"):  # dunders are called by the language
                    members.append((f"{cls.name}.{fn.name}", {id(sub) for sub in ast.walk(fn)}))
                members += [(f"{cls.name}.{sub.attr}", set()) for sub in ast.walk(fn)
                            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"]
    unread = {qual for qual, own in members
              if not any(attr == qual.rpartition(".")[2] and id(node) not in own
                         for attr, node in reads)}
    assert sorted(unread - ALLOWED_MEMBERS.keys()) == [], "only tests read these"
    assert sorted(ALLOWED_MEMBERS.keys() - unread) == [], "these have readers now"


def test_every_module_level_import_is_used():
    # an import marked "# noqa: F401" is a patch point that stays bound on purpose;
    # a package __init__ re-exports the names its __all__ lists
    unused = []
    for path in SOURCES:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        lines = source.splitlines()
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= {elt.value for elt in node.value.elts}
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or any("noqa: F401" in line
                           for line in lines[node.lineno - 1 : node.end_lineno])):
                continue
            unused += [f"{path.relative_to(ROOT)}: {alias.name}" for alias in node.names
                       if (alias.asname or alias.name.partition(".")[0]) not in read]
    assert unused == [], "imported and never used"
