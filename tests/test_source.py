"""Source hygiene checks on the ksgnslab package, using only the stdlib ast."""

import ast
from pathlib import Path

import ksgnslab

SRC = Path(ksgnslab.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Top-level imports of a module that no name in it reads or __all__ exports."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_top_level_imports():
    probe = "from __future__ import annotations\nimport os\nfrom numpy import fft, linalg\nfft.fft\n"
    assert unused_imports(probe) == ["os (line 2)", "linalg (line 3)"]
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def process_caches(source: str) -> list[str]:
    """functools.cache / lru_cache in a module, imported by name or used as
    an attribute of functools."""
    names = {"cache", "lru_cache"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name in names]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append(f"functools.{node.attr} (line {node.lineno})")
    return found


def test_no_process_wide_caches():
    # memoisation lives in an object the caller passes (poscor.BuildMemo), so
    # nothing grows for the life of a `verify run`
    probe = (
        "import functools\nfrom functools import cached_property, lru_cache\n"
        "@functools.cache\ndef f(x):\n    return x\n"
    )
    assert process_caches(probe) == ["lru_cache (line 2)", "functools.cache (line 3)"]
    found = {
        path.name: caches
        for path in sorted(SRC.glob("*.py"))
        if (caches := process_caches(path.read_text()))
    }
    assert found == {}


REPO = Path(__file__).resolve().parent.parent


def top_level_definitions(source: str) -> list[str]:
    """Names of the top-level functions and classes of a module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.parse(source).body if isinstance(node, kinds)]


def referenced_names(source: str) -> set[str]:
    """Every name a module reads, every attribute it takes and every name it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_unreferenced_top_level_definitions():
    # every src definition has a caller outside the tests: a test oracle
    # lives in tests/conftest.py, not in src
    probe = "def used():\n    pass\n\nclass Dead:\n    pass\n\nused()\n"
    assert [d for d in top_level_definitions(probe) if d not in referenced_names(probe)] == [
        "Dead"
    ]
    corpus = [
        path
        for part in ("src", "scripts", "perfbench")
        for path in sorted((REPO / part).rglob("*.py"))
    ]
    referenced = set().union(*(referenced_names(path.read_text()) for path in corpus))
    definitions = {
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in top_level_definitions(path.read_text())
    }
    assert len(definitions) > 200
    assert sorted(d for d in definitions if d.split(":")[1] not in referenced) == []


LOOPS = (
    ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp
)


def calls_in_loops(source: str, callee: str) -> list[str]:
    """Functions that call `callee` (by name or as an attribute) inside a
    for/while loop or a comprehension, with the line of each such call."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in (n for n in ast.walk(fn) if isinstance(n, LOOPS)):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and callee in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    found.add(f"{fn.name} (line {node.lineno})")
    return sorted(found)


def test_no_descend_per_element():
    # descend gates and compresses a whole stack (..., m, n); a loop around it
    # would gate one basis or group element at a time
    probe = (
        "def f(K, q):\n    return descend(K, q, q, 'k')\n\n"
        "def g(Ks, q):\n    return [descend(K, q, q, 'k') for K in Ks]\n\n"
        "def h(Ks, q):\n    for K in Ks:\n        hilbert.descend(K, q, q, 'k')\n"
    )
    assert calls_in_loops(probe, "descend") == ["g (line 5)", "h (line 9)"]
    found = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := calls_in_loops(path.read_text(), "descend"))
    }
    assert found == {}


def spectral_norm_calls(source: str) -> list[int]:
    """Lines of `norm(x, 2, ...)` or `norm(x, ord=2)` calls, by name or as an
    attribute such as np.linalg.norm."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "norm" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
            if any(isinstance(o, ast.Constant) and o.value == 2 for o in ords):
                found.append(node.lineno)
    return found


def test_spectral_norms_only_in_numkernel():
    # numkernel.operator_norms takes the first singular value of the batched
    # SVD; a 2-norm elsewhere would bypass it and its finiteness check
    probe = (
        "import numpy as np\nfrom numpy.linalg import norm\n"
        "a = np.linalg.norm(x, 2, axis=(1, 2))\nb = norm(x, ord=2)\n"
        "c = np.linalg.norm(x)\nd = np.linalg.norm(x, 'fro')\n"
    )
    assert spectral_norm_calls(probe) == [3, 4]
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "numkernel.py" and (lines := spectral_norm_calls(path.read_text()))
    }
    assert found == {}


def function_local_imports(source: str) -> list[str]:
    """`import` and `from ... import` statements inside a function body, by
    function name and line."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {
                f"{fn.name} (line {node.lineno})"
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            }
    return sorted(found)


def test_no_function_local_imports():
    # imports sit at module level, where an import cycle shows at once; only
    # the command-line entry points import lazily
    probe = (
        "import os\n\ndef f():\n    import json\n    return json\n\n"
        "class C:\n    def g(self):\n        from .cp import CPMap\n        return CPMap\n"
    )
    assert function_local_imports(probe) == ["f (line 4)", "g (line 9)"]
    found = {
        path.name: imports
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py" and (imports := function_local_imports(path.read_text()))
    }
    assert found == {}


def defaulted_memo_parameters(source: str) -> list[str]:
    """Functions whose parameter named `memo` has a default, by name and line."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            if any(a.arg == "memo" for a in defaulted):
                found.append(f"{fn.name} (line {fn.lineno})")
    return found


def id_calls(source: str) -> list[int]:
    """Lines of calls to the builtin id()."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id"
    ]


def test_memo_is_required_and_keyed_by_content():
    # every builder takes the caller's BuildMemo, and memo keys name objects
    # by their content key, never by id()
    probe = (
        "def f(x, memo):\n    return memo\n\n"
        "def g(x, tol=None, memo=None):\n    return id(x)\n\n"
        "def h(x, *, memo=1):\n    return x\n"
    )
    assert defaulted_memo_parameters(probe) == ["g (line 4)", "h (line 7)"]
    assert id_calls(probe) == [5]
    defaulted = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := defaulted_memo_parameters(path.read_text()))
    }
    assert defaulted == {}
    keyed_by_id = {
        name: lines
        for name in ("memo.py", "poscor.py", "ksgns.py", "equivariant.py")
        if (lines := id_calls((SRC / name).read_text()))
    }
    assert keyed_by_id == {}


def tol_slots(sources: list[str]) -> dict[str, set]:
    """Per function or method name, the call slots of its `tol` parameter: the
    positional index as a caller counts it (after self or cls), or None when
    it is keyword-only."""
    slots: dict[str, set] = {}
    for source in sources:
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            if "tol" in positional:
                slots.setdefault(fn.name, set()).add(positional.index("tol"))
            elif any(a.arg == "tol" for a in fn.args.kwonlyargs):
                slots.setdefault(fn.name, set()).add(None)
    return slots


def reads_tol(node: ast.expr) -> bool:
    """Whether an expression reads the name `tol` (tol itself, or a Tolerance
    derived from it)."""
    return any(isinstance(n, ast.Name) and n.id == "tol" for n in ast.walk(node))


def passes_tol(call: ast.Call, slots: set) -> bool:
    """Whether a call hands an expression that reads `tol` to a tol parameter
    in one of slots."""
    given = [k.value for k in call.keywords if k.arg == "tol"] or [
        call.args[slot] for slot in slots if slot is not None and slot < len(call.args)
    ]
    return any(reads_tol(arg) for arg in given)


def dropped_tolerances(source: str, slots: dict[str, set]) -> list[str]:
    """Calls, inside a function with `tol` in scope (a parameter or a local),
    to a function that takes `tol` without passing it, by caller, callee and
    line."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs} | {
            n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        if "tol" not in names:
            continue
        for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            unpacked = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            )
            if callee in slots and not unpacked and not passes_tol(call, slots[callee]):
                found.append(f"{fn.name} -> {callee} (line {call.lineno})")
    return found


def test_tolerance_reaches_every_callee_that_takes_it():
    # a function that holds a Tolerance passes it on, so no callee falls
    # back to its default in the middle of a caller's decision
    probe = (
        "def f(x, tol):\n    return g(x, tol)\n\n"
        "def g(x, tol=None):\n    return h(x)\n\n"
        "def h(x, *, tol=None):\n    return k(x)\n\n"
        "def k(x):\n    tol = 1\n    return C().m(x, other)\n\n"
        "class C:\n    def m(self, x, tol=None):\n        return h(x, tol=Tol(tol.rtol))\n\n"
        "def n(x, tol):\n    return g(x, tol=DEFAULT)\n"
    )
    slots = tol_slots([probe])
    assert slots == {"f": {1}, "g": {1}, "h": {None}, "m": {1}, "n": {1}}
    assert dropped_tolerances(probe, slots) == [
        "g -> h (line 5)", "k -> m (line 12)", "n -> g (line 19)"
    ]
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    slots = tol_slots(list(sources.values()))
    found = {
        name: calls for name, source in sources.items()
        if (calls := dropped_tolerances(source, slots))
    }
    assert found == {}
