"""Source hygiene checks on the ksgnslab package, using only the stdlib ast."""

import ast
from pathlib import Path

import ksgnslab

SRC = Path(ksgnslab.__file__).parent
TESTS = Path(__file__).resolve().parent


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
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
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
    # content-keyed memoisation lives in an object the caller passes
    # (memo.BuildMemo), so nothing grows with the instances of a `verify run`;
    # block-size structure goes through memo.structure, keyed by shapes
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


def class_methods(source: str) -> list[tuple[str, bool]]:
    """(Class.method, whether it is a property) for the methods of the
    top-level classes of a module; dunder methods are left out, since the
    language calls them."""
    found = []
    for cls in ast.parse(source).body:
        if isinstance(cls, ast.ClassDef):
            found += [
                (
                    f"{cls.name}.{fn.name}",
                    any("property" in ast.unparse(d) for d in fn.decorator_list),
                )
                for fn in cls.body
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not fn.name.startswith("__")
            ]
    return found


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


def attribute_uses(source: str | ast.Module) -> tuple[set[str], set[str]]:
    """(attributes a module calls, attributes it reads) on any receiver but a
    module bound by `import`: np.trace(x) uses no method named trace."""
    tree = ast.parse(source) if isinstance(source, str) else source
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    called, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) not in modules:
            read.add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if getattr(node.func.value, "id", None) not in modules:
                called.add(node.func.attr)
    return called, read


def unreferenced(definitions: list[str], methods: list[tuple[str, bool]], corpus: list[str]):
    """The definitions no corpus module names, the plain methods none calls
    and the properties none reads.  A method counts by its name alone."""
    names, called, read = set(), set(), set()
    for source in corpus:
        names |= referenced_names(source)
        calls, reads = attribute_uses(source)
        called |= calls
        read |= reads
    dead = [d for d in definitions if d.split(":")[-1] not in names]
    return dead + [
        m for m, prop in methods if m.split(".")[-1] not in (read if prop else called)
    ]


def test_no_unreferenced_top_level_definitions():
    # every src definition, and every method of a src class, has a user
    # outside the tests: a test oracle lives in tests/conftest.py, not in src
    probe = (
        "import numpy as np\n\ndef used():\n    pass\n\nclass Dead:\n    pass\n\n"
        "class Live:\n    def __len__(self):\n        return 0\n"
        "    def called(self):\n        pass\n    def trace(self):\n        pass\n"
        "    def flag(self):\n        pass\n"
        "    @property\n    def shown(self):\n        pass\n"
        "    @property\n    def hidden(self):\n        pass\n\n"
        "used()\nLive().called()\nnp.trace(x)\nargs.flag\nprint(Live().shown)\n"
    )
    assert unreferenced(top_level_definitions(probe), class_methods(probe), [probe]) == [
        "Dead", "Live.trace", "Live.flag", "Live.hidden"
    ]
    corpus = [
        path.read_text()
        for part in ("src", "scripts", "perfbench")
        for path in sorted((REPO / part).rglob("*.py"))
    ]
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    definitions = [
        f"{name}:{d}" for name, source in sources.items() for d in top_level_definitions(source)
    ]
    methods = [
        (f"{name}:{m}", prop)
        for name, source in sources.items()
        for m, prop in class_methods(source)
    ]
    assert len(definitions) > 200
    assert len(methods) > 50
    assert unreferenced(definitions, methods, corpus) == []


def self_referenced_methods(sources: dict[str, str], corpus: dict[str, str]) -> list[str]:
    """The methods and properties of the classes in sources that no corpus
    module uses outside the method's own body.  A method counts by its name
    alone, as in unreferenced."""
    uses = {name: attribute_uses(source) for name, source in corpus.items()}
    found = []
    for name, source in sources.items():
        called = set().union(*(c for other, (c, _) in uses.items() if other != name))
        read = set().union(*(r for other, (_, r) in uses.items() if other != name))
        properties = dict(class_methods(source))
        tree = ast.parse(source)
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for i, fn in enumerate(cls.body):
                method = f"{cls.name}.{getattr(fn, 'name', '')}"
                if method not in properties:
                    continue
                cls.body[i] = ast.Pass()  # the method's own body uses nothing
                calls, reads = attribute_uses(tree)
                cls.body[i] = fn
                if fn.name not in (read | reads if properties[method] else called | calls):
                    found.append(f"{name}:{method}")
    return found


def test_no_method_used_only_by_its_own_body():
    # a method that only its own body calls, as a recursive reader does, is
    # no more used than one nothing calls: only the tests would reach it
    probe = (
        "class Tree:\n    def walk(self):\n        return [c.walk() for c in self.kids]\n"
        "    def size(self):\n        return len(self.walk())\n"
        "    @property\n    def depth(self):\n        return 1 + max(c.depth for c in self.kids)\n"
    )
    assert self_referenced_methods({"t.py": probe}, {"t.py": probe}) == [
        "t.py:Tree.size", "t.py:Tree.depth"
    ]
    user = "print(Tree().size())\n"
    assert self_referenced_methods({"t.py": probe}, {"t.py": probe, "u.py": user}) == [
        "t.py:Tree.depth"
    ]
    corpus = {
        str(path.relative_to(REPO)): path.read_text()
        for part in ("src", "scripts", "perfbench")
        for path in sorted((REPO / part).rglob("*.py"))
    }
    sources = {name: source for name, source in corpus.items() if name.startswith("src/")}
    assert len(sources) > 10
    assert self_referenced_methods(sources, corpus) == []


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


def test_no_pairings_or_pseudometrics_per_element():
    # pair, vector_norm and hom_pseudometric take whole families of vectors,
    # samples and morphisms; a loop around one would pair a couple at a time
    probe = (
        "def f(E, X):\n    return E.vector_norm(X)\n\n"
        "def g(E, xs):\n    return [E.pair(x, x) for x in xs]\n\n"
        "def h(ms, m, X, C):\n    for k in ms:\n        cp.hom_pseudometric([k], m, X, C)\n"
    )
    assert calls_in_loops(probe, "pair") == ["g (line 5)"]
    assert calls_in_loops(probe, "hom_pseudometric") == ["h (line 9)"]
    found = {
        (path.name, callee): calls
        for path in sorted(SRC.glob("*.py"))
        for callee in ("pair", "vector_norm", "hom_pseudometric")
        if (calls := calls_in_loops(path.read_text(), callee))
    }
    assert found == {}


def kron_calls(source: str) -> list[int]:
    """Lines of `np.kron` / `numpy.kron` calls."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "kron"
        and getattr(node.func.value, "id", None) in ("np", "numpy")
    ]


def test_kron_only_through_numkernel():
    # numkernel.kron is np.kron's bytes without its per-call axis bookkeeping
    probe = "import numpy as np\na = np.kron(x, y)\nb = kron(x, y)\nc = numpy.kron(x, y)\n"
    assert kron_calls(probe) == [2, 4]
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := kron_calls(path.read_text()))
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
    # numkernel.operator_norms takes sigma_1 from the smaller Gram's batched
    # eigvalsh; a 2-norm elsewhere would bypass it and its finiteness check
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


def planned_einsum_calls(source: str) -> list[int]:
    """Lines of `einsum` calls, by name or as an attribute, that pass
    `optimize=`, contract more than two operands or unpack their operands."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "einsum" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            operands = node.args[1:]
            if (
                any(k.arg == "optimize" for k in node.keywords)
                or len(operands) > 2
                or any(isinstance(a, ast.Starred) for a in operands)
            ):
                found.append(node.lineno)
    return found


def test_no_planned_einsums():
    # numpy plans a contraction path on every call with optimize=, and runs a
    # contraction of three or more operands unplanned without it: such a
    # contraction is written as products (@ or np.tensordot) instead
    probe = (
        "import numpy as np\nfrom numpy import einsum\n"
        "a = np.einsum('ij,jk->ik', x, y)\nb = np.einsum('ij,jk->ik', x, y, optimize=True)\n"
        "c = einsum('i,j,ij->', x, y, z)\nd = np.einsum('ij->', *ops)\n"
        "e = np.einsum('ijkk->ij', P)\n"
    )
    assert planned_einsum_calls(probe) == [4, 5, 6]
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := planned_einsum_calls(path.read_text()))
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


def defaulted_parameters(source: str, name: str) -> list[str]:
    """Functions whose parameter called `name` has a default, by name and line."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            if any(a.arg == name for a in defaulted):
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
    assert defaulted_parameters(probe, "memo") == ["g (line 4)", "h (line 7)"]
    assert id_calls(probe) == [5]
    defaulted = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := defaulted_parameters(path.read_text(), "memo"))
    }
    assert defaulted == {}
    keyed_by_id = {
        name: lines
        for name in ("memo.py", "poscor.py", "ksgns.py", "equivariant.py")
        if (lines := id_calls((SRC / name).read_text()))
    }
    assert keyed_by_id == {}


def test_tolerance_is_required():
    # a function that takes a Tolerance takes its caller's: with a default,
    # a decision could fall back to DEFAULT_TOL where no caller sees it
    probe = (
        "def f(x, tol):\n    return x\n\n"
        "def g(x, tol=DEFAULT_TOL):\n    return x\n\n"
        "def h(x, *, tol=Tolerance()):\n    return x\n\n"
        "class C:\n    def m(self, tol: Tolerance = DEFAULT_TOL):\n        return tol\n"
    )
    assert defaulted_parameters(probe, "tol") == ["g (line 4)", "h (line 7)", "m (line 11)"]
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := defaulted_parameters(path.read_text(), "tol"))
    }
    assert found == {}


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


GROUP_BUILDERS = (
    "twist_unitary", "commuting_unitary", "poscor_compose", "interior_tensor_along",
    "categorical_dilation_unitary", "ksgns_functor",
)


def group_loop_calls(source: str, callees: tuple[str, ...]) -> list[str]:
    """Calls to callees inside a for loop or comprehension over group
    elements: one whose iterable reads an `order`, `action`, `unitaries` or
    `morphisms` attribute or a name mentioning the group."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            iters = [loop.iter]
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters = [gen.iter for gen in loop.generators]
        else:
            continue
        attrs = ("order", "action", "unitaries", "morphisms")
        over_group = any(
            (isinstance(n, ast.Attribute) and n.attr in attrs)
            or (isinstance(n, ast.Name) and "group" in n.id.lower())
            for it in iters for n in ast.walk(it)
        )
        if over_group:
            found |= {
                f"{name} (line {node.lineno})"
                for node in ast.walk(loop)
                if isinstance(node, ast.Call)
                and (name := getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                in callees
            }
    return sorted(found)


def test_group_builders_stack_over_the_group():
    # the equivariant pipeline builds twist tensors, commuting, composition
    # and categorical dilation unitaries as stacks over G, never one group
    # element or pair at a time
    probe = (
        "def f(c, G):\n    return [twist_unitary(E, [b]) for b in c.system_out.action]\n\n"
        "def g(c, G):\n    for x in range(G.order):\n        poscor_compose([m], [m])\n\n"
        "def h(ms):\n    for m in ms:\n        interior_tensor_along([m], [r])\n"
    )
    assert group_loop_calls(probe, GROUP_BUILDERS) == [
        "poscor_compose (line 6)", "twist_unitary (line 2)"
    ]
    found = {
        name: calls
        for name in ("equivariant.py", "harness.py")
        if (calls := group_loop_calls((SRC / name).read_text(), GROUP_BUILDERS))
    }
    assert found == {}


AUDIT_CALLS = ("poscor_compose", "morphism_distance", "check_poscor_morphism")


def per_item_calls(source: str, functions: tuple[str, ...], callees: tuple[str, ...]) -> list[str]:
    """Calls to callees that the named functions (nested functions included)
    make once per item of a loop or comprehension: in a loop body or test, or
    in a comprehension's element, conditions or inner iterables.  The
    iterable a loop starts from is evaluated once and does not count."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name not in functions:
            continue
        for loop in ast.walk(fn):
            if isinstance(loop, (ast.For, ast.AsyncFor)):
                parts = loop.body + loop.orelse
            elif isinstance(loop, ast.While):
                parts = [loop.test, *loop.body, *loop.orelse]
            elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                heads = [loop.key, loop.value] if isinstance(loop, ast.DictComp) else [loop.elt]
                ifs = [c for gen in loop.generators for c in gen.ifs]
                parts = heads + ifs + [gen.iter for gen in loop.generators[1:]]
            else:
                continue
            found |= {
                f"{fn.name}: {name} (line {node.lineno})"
                for part in parts
                for node in ast.walk(part)
                if isinstance(node, ast.Call)
                and (name := getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                in callees
            }
    return sorted(found)


def test_category_audit_stacks_its_pairs():
    # the category audit composes, measures and checks whole stacks of
    # pairs and triples, never one morphism or pair at a time
    probe = (
        "def audit(ms, pairs):\n"
        "    for r in check_poscor_morphism(ms):\n        pass\n"
        "    for m2, m1 in pairs:\n        poscor_compose([m2], [m1])\n"
        "    d = [morphism_distance([a], [b]) for a, b in pairs]\n"
        "    return [x for x in poscor_compose(ms, ms) if check_poscor_morphism([x])]\n\n"
        "def other(pairs):\n    for m2, m1 in pairs:\n        poscor_compose([m2], [m1])\n"
    )
    assert per_item_calls(probe, ("audit",), AUDIT_CALLS) == [
        "audit: check_poscor_morphism (line 7)",
        "audit: morphism_distance (line 6)",
        "audit: poscor_compose (line 5)",
    ]
    found = {
        name: calls
        for name, fn in (("poscor.py", "check_category_laws"), ("harness.py", "_check_category"))
        if (calls := per_item_calls((SRC / name).read_text(), (fn,), AUDIT_CALLS))
    }
    assert found == {}


def memo_twins_and_group_indices(source: str) -> list[str]:
    """Functions named *_once, and functions or lambdas whose first
    parameter is `idx`, by name and line."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(fn, "name", "<lambda>")
            first = (fn.args.posonlyargs + fn.args.args)[:1]
            if name.endswith("_once") or [a.arg for a in first] == ["idx"]:
                found.append(f"{name} (line {fn.lineno})")
    return found


def test_builders_memoize_themselves_and_take_one_stack():
    # a builder memoizes itself, so no memo-less twin sits beside a *_once
    # wrapper, and it takes one same-shape stack, so no slice-position
    # parameter survives from grouping a stack by shape
    probe = (
        "def f(x):\n    return x\n\n"
        "def build_once(x, memo):\n    return x\n\n"
        "def g(idx, x):\n    return [h(lambda idx, y: y, x)]\n\n"
        "def k(x, idx):\n    return idx\n"
    )
    assert memo_twins_and_group_indices(probe) == [
        "build_once (line 4)", "g (line 7)", "<lambda> (line 8)"
    ]
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := memo_twins_and_group_indices(path.read_text()))
    }
    assert found == {}


def functions_calling_all(source: str, callees: set[str]) -> list[str]:
    """Functions (nested ones included) whose body calls every one of callees."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {
                getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                for n in ast.walk(fn) if isinstance(n, ast.Call)
            }
            if callees <= called:
                found.append(fn.name)
    return found


# ksgns_functor is the one action of the KSGNS endofunctor on category
# morphisms; the tensor suite's checker lifts over a general correspondence
# F (not along a *-homomorphism), where no category morphism exists, to
# check that the commuting unitaries are natural
FUNCTOR_STEPS = {"commuting_unitary", "ksgns_lift"}
FUNCTOR_STEP_CALLERS = {"poscor.py": ["ksgns_functor"], "harness.py": ["_check_tensor"]}


def test_one_ksgns_functor_on_category_morphisms():
    # lifting onto the commuting unitary's left KSGNS is the functor's
    # action on a morphism, so no second function hand-rolls it
    probe = (
        "def f(m):\n    v = commuting_unitary([m.phi], [m.t])\n    return ksgns_lift([m], v)\n\n"
        "def g(m):\n    def h():\n        return x.commuting_unitary(m), ksgns_lift(m)\n"
        "    return h\n\n"
        "def k(m):\n    return commuting_unitary(m)\n"
    )
    assert functions_calling_all(probe, FUNCTOR_STEPS) == ["f", "g", "h"]
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := functions_calling_all(path.read_text(), FUNCTOR_STEPS))
    }
    assert found == FUNCTOR_STEP_CALLERS


def intertwiner_rewraps(source: str) -> list[str]:
    """Calls Intertwiner(x.eta, x.alpha) that rewrap one object's own eta
    and alpha, by line."""
    found = []
    for call in ast.walk(ast.parse(source)):
        if not isinstance(call, ast.Call) or len(call.args) != 2:
            continue
        if (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) != "Intertwiner":
            continue
        eta, alpha = call.args
        if (
            isinstance(eta, ast.Attribute) and eta.attr == "eta"
            and isinstance(alpha, ast.Attribute) and alpha.attr == "alpha"
            and ast.dump(eta.value) == ast.dump(alpha.value)
        ):
            found.append(call.lineno)
    return [f"line {n}" for n in sorted(found)]


def test_category_morphisms_are_intertwiners():
    # a PosCorMorphism is a cp.Intertwiner, so no code wraps its eta and
    # alpha in a second object (whose norm would be taken again)
    probe = (
        "a = [Intertwiner(m.eta, m.alpha) for m in ms]\n"
        "b = cp.Intertwiner(x[0].eta, x[0].alpha)\n"
        "c = Intertwiner(m.eta, n.alpha)\n"
        "d = Intertwiner(tensor_extend(m.eta), m.alpha)\n"
    )
    assert intertwiner_rewraps(probe) == ["line 1", "line 2"]
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := intertwiner_rewraps(path.read_text()))
    }
    assert found == {}


def maxima_of_calls(source: str, callee: str) -> list[int]:
    """Lines of `callee(...).max(...)`: a maximum taken over every result of
    a batched call, by name or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "max"
        and isinstance(node.func.value, ast.Call)
        and callee in (getattr(node.func.value.func, "id", None),
                       getattr(node.func.value.func, "attr", None))
    ]


def test_no_maximum_over_every_element_norm():
    # a largest C*-norm is numkernel.max_operator_norms over the block stacks,
    # which certifies a long stack's maximum; element_norms takes every SVD
    probe = (
        "a = element_norms(B, C).max(initial=0.0)\nb = cstar.element_norms(B, C).max()\n"
        "c = max_operator_norms(*block_stacks(B, C)).max()\nd = element_norms(B, C)\n"
    )
    assert maxima_of_calls(probe, "element_norms") == [1, 2]
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := maxima_of_calls(path.read_text(), "element_norms"))
    }
    assert found == {}


def calls_inside_memo(source: str, callee: str) -> list[int]:
    """Lines of calls to `callee` inside the arguments of a BuildMemo.get_all
    call."""
    tree = ast.parse(source)
    return [
        node.lineno
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "get_all"
        for arg in call.args + [k.value for k in call.keywords]
        for node in ast.walk(arg)
        if isinstance(node, ast.Call)
        and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def structure_keys(source: str) -> dict[str, str]:
    """Per function, the name its memo.structure call files its build under:
    the first entry of the key tuple."""
    return {
        fn.name: call.args[0].elts[0].value
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "structure"
    }


# what depends on block sizes and a dimension alone
STRUCTURE_BUILDERS = (
    "algebra_module", "column_split", "left_multiplication", "load_shape", "make_group",
    "product_table", "row_split")


def test_block_size_structure_is_built_once_per_process_not_per_instance():
    # C over itself, its left multiplication, the row and column copies and the
    # product tables go through the process's table (memo.structure), each under
    # its own name, and no instance memo is asked for one
    probe = (
        "def f(C, memo):\n    return memo.get_all([C], lambda _: [algebra_module(C)])\n\n"
        "def g(C):\n    return structure(('g', C.blocks), lambda: algebra_module(C))\n"
    )
    assert calls_inside_memo(probe, "algebra_module") == [2]
    assert structure_keys(probe) == {"g": "g"}
    found, inside = {}, {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        found.update(structure_keys(source))
        inside.update({(path.name, name): lines for name in STRUCTURE_BUILDERS
                       if (lines := calls_inside_memo(source, name))})
        assert "memo_copies" not in source, path.name
    assert found == {name: name for name in STRUCTURE_BUILDERS}
    assert inside == {}


# fields of quotients, tensor modules and modules: builders read them as stacks
SLICE_FIELDS = {
    "q", "s", "kernel", "module", "left", "right", "source", "target", "action", "pairing",
    "gram_spectrum", "gram_matrix", "gram_sqrt", "gram_isqrt", "gram_inv",
}
STACKERS = {"stack_slices", "stack", "concatenate", "array", "asarray"}


def restacked_fields(source: str) -> list[str]:
    """Calls that stack a comprehension reading a field in SLICE_FIELDS of the
    objects it runs over, such as stack_slices([t.q for t in tms]) or
    np.stack([m.source.gram_inv for m in maps]), by function and line."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for comp in call.args[:1] if callee in STACKERS else []:
                if not isinstance(comp, (ast.ListComp, ast.GeneratorExp)):
                    continue
                targets = {n.id for gen in comp.generators for n in ast.walk(gen.target)
                           if isinstance(n, ast.Name)}
                for node in ast.walk(comp.elt):
                    chain = set()
                    while isinstance(node, ast.Attribute):
                        chain.add(node.attr)
                        node = node.value
                    if isinstance(node, ast.Name) and node.id in targets and chain & SLICE_FIELDS:
                        found.add(f"{fn.name} (line {call.lineno})")
    return sorted(found)


def test_builders_read_quotient_and_module_stacks_whole():
    # quotients and modules are stacks; a builder reads their arrays whole
    # (hilbert.gather, and ModuleView over a list of modules, read a list of
    # slices from their stack) and never stacks one field of a list of their
    # slices again
    probe = (
        "def f(tms, maps, mods):\n"
        "    q = stack_slices([t.q for t in tms])\n"
        "    G = np.stack([m.source.gram_inv for m in maps])\n"
        "    S = stack_slices([t.s.reshape(2, 2) for t in tms])\n"
        "    X = stack_slices([p.images for p in maps])\n"
        "    M = np.stack([kron(eye, E.action[p]) for p in range(4)])\n"
        "    return ModuleView(mods).pairing\n"
    )
    assert restacked_fields(probe) == ["f (line 2)", "f (line 3)", "f (line 4)"]
    found = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := restacked_fields(path.read_text()))
    }
    assert found == {}


def number_constants(source: str) -> list[str]:
    """Module-level names bound to a number literal, such as a width threshold
    X_MIN_DIM = 16, by name and line."""
    found = []
    for node in ast.parse(source).body:
        value = getattr(node, "value", None)
        numeric = isinstance(value, ast.Constant) and type(value.value) in (int, float)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and numeric:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [f"{t.id} (line {node.lineno})" for t in targets if isinstance(t, ast.Name)]
    return found


def ordering_comparisons(source: str, function: str) -> list[int] | None:
    """Lines of the <, <=, > and >= comparisons in the named top-level function,
    or None when the module defines no such function."""
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef) and fn.name == function:
            ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
            return [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Compare)
                    and any(isinstance(op, ordering) for op in node.ops)]
    return None


def test_tensor_quotients_chooses_by_structure_alone():
    # cp holds no width threshold, and tensor_quotients compares no width: the
    # structure of its factors alone picks the quotient, at every width
    probe = (
        "SPLIT_MIN_DIM = 16\nLIMIT: float = 0.5\nNAME = 'x'\nFLAG = True\n\n"
        "def tensor_quotients(E, F):\n    if E.dim * F.dim >= SPLIT_MIN_DIM:\n"
        "        return 1\n    return 0 if E is F else 2\n"
    )
    assert number_constants(probe) == ["SPLIT_MIN_DIM (line 1)", "LIMIT (line 2)"]
    assert ordering_comparisons(probe, "tensor_quotients") == [7]
    assert ordering_comparisons(probe, "interior_tensor") is None
    source = (SRC / "cp.py").read_text()
    assert number_constants(source) == []
    assert ordering_comparisons(source, "tensor_quotients") == []


def recorded_checks(source: str) -> dict[str, list[str]]:
    """Per top-level function, the check names it yields, in source order:
    each yielded tuple's first element, and the names a `yield from _named`
    passes after the report; a name that is not a string literal reads
    "<expr>"."""
    found = {}
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        named = []
        for node in ast.walk(fn):
            value = getattr(node, "value", None)
            if isinstance(node, ast.Yield) and value is not None:
                args = value.elts[:1] if isinstance(value, ast.Tuple) else [value]
            elif isinstance(node, ast.YieldFrom) and isinstance(value, ast.Call) \
                    and getattr(value.func, "id", None) == "_named":
                args = value.args[1:]
            else:
                continue
            named += [(arg.lineno, arg.col_offset, arg) for arg in args]
        names = [
            arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else "<expr>"
            for *_, arg in sorted(named, key=lambda c: c[:2])
        ]
        if names:
            found[fn.name] = names
    return found


def test_checkers_record_declared_checks_in_table_order():
    # a checker names each record's check by a literal its suite's table
    # declares, and in source order never names one the table puts before the
    # last; check_instance refuses either at run time too
    from ksgnslab.harness import _SUITES

    probe = (
        "def _check_a(p, tol, memo):\n    yield 'x', 0.0, 1.0\n    yield from _named(rep, 'y', n)\n"
        "    yield ('z', *cert)\n    yield name, 0.0, 1.0\n    yield from other(rep, 'w')\n\n"
        "def _gen_a(c):\n    return c\n"
    )
    assert recorded_checks(probe) == {"_check_a": ["x", "y", "<expr>", "z", "<expr>"]}
    tables = {checker.__name__: table for _, checker, table in _SUITES.values()}
    found = recorded_checks((SRC / "harness.py").read_text())
    assert found.pop("_named") == ["<expr>"]  # the names its caller passes
    assert sorted(found) == sorted(tables)
    for name, checks in found.items():
        assert [c for c in checks if c not in tables[name]] == [], name
        order = [list(tables[name]).index(c) for c in checks]
        assert order == sorted(order), name


def names_read(source: str, wanted) -> dict[str, set]:
    """Per top-level function whose name `wanted` accepts, the names it reads."""
    return {
        fn.name: {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef) and wanted(fn.name)
    }


# the functions that generate instances, per file
GENERATION = {
    "harness.py": lambda name: name.startswith("_gen_"),
    "generators.py": lambda name: True,
    "cp.py": lambda name: name.startswith("random_"),
    "cstar.py": lambda name: name.startswith("random_"),
    "equivariant.py": lambda name: name.startswith("random_"),
}


def test_generation_reads_one_named_tolerance():
    # generation decides its ranks and gates with GENERATION_TOL, so no
    # generator can read the checkers' default where a seed's payload is made
    probe = "def _gen_a(c):\n    return f(DEFAULT_TOL)\n\ndef _check_a(p):\n    return DEFAULT_TOL\n"
    assert names_read(probe, GENERATION["harness.py"]) == {"_gen_a": {"f", "DEFAULT_TOL"}}
    read = {
        (name, fn): names
        for name, wanted in GENERATION.items()
        for fn, names in names_read((SRC / name).read_text(), wanted).items()
    }
    assert len(read) > 20
    assert sorted(key for key, names in read.items() if "DEFAULT_TOL" in names) == []
    assert sorted(key for key, names in read.items() if "GENERATION_TOL" in names) == [
        ("cp.py", "random_blinear_unitary"), ("cp.py", "random_cp"),
        ("generators.py", "random_morphism_pair"), ("harness.py", "_gen_category"),
        ("harness.py", "_gen_continuity"), ("harness.py", "_gen_lift"),
        ("harness.py", "_gen_tensor"), ("harness.py", "_gen_uniqueness"),
    ]
