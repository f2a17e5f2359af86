"""Dead-code gates: every public function and method in src/stratakit has a
use, every private module-level name there has a use in the package, and
every exception class in errors.py is raised.

The function scan is by name.  It collects the public module-level functions
and the public methods of module-level classes in src/stratakit/*.py, then
every name that the code under src/, tests/ and bench/ mentions as a `Name`,
as the attribute of an `Attribute`, or in an import.  A public function whose
name is never mentioned is reported.

Because it matches names, not bindings, the gate misses a dead method whose
name is also used for something else: a `Matrix.pow` next to the builtin
`pow`, or a second `contains` method while another class's `contains` is
called.  Those still need a reader.

The private-name scan reads every module under src/.  A private module-level
function, class or `_CONSTANT` (an upper-case name assigned at module level)
of src/stratakit is reported when no code under src/ mentions it outside its
own definition, so a function that only calls itself is dead too.  Tests and
bench/ do not count: a private helper that only a test uses is dead code.

The library scans read the same statements for the public module-level
functions of src/stratakit and for the public methods of its module-level
classes.  One is reported when no code under src/ mentions it outside its
own definition; a re-export in __init__.py or a call in the README's Python
examples is a mention, so the package's documented API counts as used.
Again tests and bench/ do not count: a function or method that only a test
calls belongs in the test.  A method's name is matched as the function
scan's is, so a call of another class's method of the same name keeps it.

The exception scan reads the `raise` statements under src/.  A class in
errors.py is live when one of them raises it or a subclass of it, so the base
classes of raised errors count as raised.

The cache scan reads every module of src/stratakit.  Per-algebra results go
through one of two helpers in reps.py, `built_once` and `by_structure`; any
other read of an attribute named `cache` (a subscript, a `get`, a
`setdefault`, an `in` test) is reported.  Assigning it, as PathAlgebra does
once, is allowed.

The import scan reads each module of src/stratakit except __init__.py, whose
imports are re-exports.  A name a module imports and never mentions as a
`Name` is reported, unless its import statement carries `# noqa: F401`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stratakit"


def _definitions():
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((path.stem, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        out.append((path.stem, f"{node.name}.{item.name}",
                                    item.name))
    return [(mod, qual, name) for mod, qual, name in out
            if not name.startswith("_")]


def _mentioned_names():
    names = set()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
                    if node.asname:
                        names.add(node.asname)
    return names


def test_every_public_function_is_used():
    used = _mentioned_names()
    dead = [f"{mod}.{qual}" for mod, qual, name in _definitions()
            if name not in used]
    assert not dead, f"public functions nothing refers to: {dead}"


def _private_definitions(top):
    """(name, name, top) for the private names a top-level statement
    defines: a function or class, or `_CONSTANT`s assigned."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [top.name]
    elif isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)
                 and t.id.lstrip("_").isupper()]
    else:
        names = []
    return [(n, n, top) for n in names
            if n.startswith("_") and not n.startswith("__")]


def _public_functions(top):
    """[(name, name, top)] when the statement defines a public function,
    else []."""
    if (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not top.name.startswith("_")):
        return [(top.name, top.name, top)]
    return []


def _public_methods(top):
    """[(Class.name, name, method node)] for the public methods of a class
    the statement defines, else []."""
    if not isinstance(top, ast.ClassDef):
        return []
    return [(f"{top.name}.{item.name}", item.name, item) for item in top.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def _mentions(node):
    """The names the node mentions as a `Name`, the attribute of an
    `Attribute` or in an import, counted."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
    return out


def _unused_names(sources, defining, defines=_private_definitions):
    """The names that `defines` reads off the top-level statements of the
    files in `defining`, as (label, name, defining node), that nothing in
    `sources` ({filename: text}) mentions outside their own definition, as
    "file:label"."""
    trees = {filename: ast.parse(text) for filename, text in sources.items()}
    mentioned = sum((_mentions(tree) for tree in trees.values()), Counter())
    dead = []
    for filename in sorted(defining):
        for top in trees[filename].body:
            for label, name, node in defines(top):
                if mentioned[name] == _mentions(node)[name]:
                    dead.append(f"{filename}:{label}")
    return dead


def _src_sources():
    """({filename: text} for src/ and the README's Python examples, the
    filenames in src/stratakit)."""
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources["README.md"] = "".join(
        block.split("\n", 1)[1] for block in readme.split("```")[1::2]
        if block.startswith("python\n"))
    return sources, {name for name in sources
                     if Path(name).parent == PACKAGE.relative_to(ROOT)}


def test_every_private_name_is_used():
    dead = _unused_names(*_src_sources())
    assert not dead, f"private names nothing in src/ refers to: {dead}"


def test_every_library_function_has_a_caller_in_src():
    dead = _unused_names(*_src_sources(), defines=_public_functions)
    assert not dead, f"public functions only tests or bench/ call: {dead}"


def test_every_library_method_has_a_caller_in_src():
    dead = _unused_names(*_src_sources(), defines=_public_methods)
    assert not dead, f"public methods only tests or bench/ call: {dead}"


def test_private_name_scan_sees_leftovers():
    source = """
import random
_SPLIT_SEED = 20240518
_USED = 1
_lower = 2


def _split_candidates(endos):
    yield from _split_candidates(endos[1:])


class _Used:
    pass


def public():
    return _USED, _Used, _helper
"""
    other = "from .m import _helper\n"
    sources = {"m.py": source, "o.py": other}
    assert _unused_names(sources, {"m.py"}) \
        == ["m.py:_SPLIT_SEED", "m.py:_split_candidates"]
    # public() has no caller; a re-export, like _helper's import, counts
    assert _unused_names(sources, {"m.py"}, _public_functions) == ["m.py:public"]
    assert _unused_names({**sources, "__init__.py": "from .m import public\n"},
                         {"m.py"}, _public_functions) == []
    # a method that only calls itself is dead; one another method calls is not
    methods = """
class C:
    def loop(self):
        return self.loop()

    def called(self):
        return 1

    def caller(self):
        return self.called()
"""
    assert _unused_names({"m.py": methods, "o.py": "C().caller()\n"},
                         {"m.py"}, _public_methods) == ["m.py:C.loop"]


def _raised_names():
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_exception_is_raised():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in tree.body if isinstance(node, ast.ClassDef)}
    live = set()
    pending = [name for name in _raised_names() if name in bases]
    while pending:
        name = pending.pop()
        if name in bases and name not in live:
            live.add(name)
            pending += bases[name]
    dead = sorted(set(bases) - live)
    assert not dead, f"exception classes nothing raises: {dead}"


def _unused_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in lines[i - 1]
               for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    unused = [entry for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert not unused, f"imported names the module never uses: {unused}"


CACHE_HELPERS = ("built_once", "by_structure")


def _cache_reads(source, filename):
    """Reads of an attribute named `cache` outside the cache helpers of
    reps.py, as "file:line"."""
    lines = []
    for top in ast.parse(source).body:
        if (filename == "reps.py" and isinstance(top, ast.FunctionDef)
                and top.name in CACHE_HELPERS):
            continue
        lines += [node.lineno for node in ast.walk(top)
                  if isinstance(node, ast.Attribute) and node.attr == "cache"
                  and isinstance(node.ctx, ast.Load)]
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_one_cache_idiom():
    reads = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _cache_reads(path.read_text(encoding="utf-8"),
                                     path.name)]
    assert not reads, f"algebra cache used outside {CACHE_HELPERS}: {reads}"


def test_cache_scan_sees_hand_written_tables():
    source = """
def f(a, k):
    table = a.cache.setdefault("t", {})
    if k not in a.algebra.cache:
        a.cache[k] = 1
    return table
"""
    assert _cache_reads(source, "strat.py") == [
        "strat.py:3", "strat.py:4", "strat.py:5"]
    helper = "def built_once(build):\n    return build.cache[0]\n"
    assert _cache_reads(helper, "reps.py") == []
    assert _cache_reads(helper, "strat.py") == ["strat.py:2"]
