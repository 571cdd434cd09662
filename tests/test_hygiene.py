"""Source hygiene: every top-level import in the package is used, every
module-level function, class and constant and every public method is
named somewhere besides its definition, and every defaulted parameter of
a public function is passed by some call."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "avfp"
NOQA = "# noqa: F401"
# code that may call a package function
CALLERS = tuple(ROOT / d for d in ("src", "tests", "demos", "perfbench"))


def _exported(tree: ast.Module) -> set[str]:
    """Names listed in a module-level __all__."""
    out = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            out |= {e.value for e in node.value.elts}
    return out


def unused_imports(path: pathlib.Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            marked = NOQA in lines[node.lineno - 1] or NOQA in lines[alias.lineno - 1]
            if bound not in used and not marked:
                unused.append(f"{path.name}:{alias.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_check_catches_a_dead_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "from .diffcore import (\n    Tensor,\n    no_tape,\n)\n"
        "from .model import rul_head, init_params\n"
        "__all__ = ['init_params']\n"
        "def f(t: Tensor) -> None:\n    return os.sep\n")
    assert unused_imports(mod) == ["mod.py:6: no_tape", "mod.py:8: rul_head"]


def unused_functions(path: pathlib.Path, roots) -> list[str]:
    """Module-level functions and public (non-dunder) methods of path
    whose name occurs in no .py file under roots except in their own
    definition."""
    tree = ast.parse(path.read_text())
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = [n.name for n in tree.body if isinstance(n, funcs)]
    names += [m.name for c in tree.body if isinstance(c, ast.ClassDef)
              for m in c.body
              if isinstance(m, funcs) and not m.name.startswith("_")]
    return [f"{path.name}: {name}" for name in _named_once(names, roots)]


def _named_once(names, roots) -> list[str]:
    """The names that occur at most once in the .py files under roots."""
    text = "\n".join(p.read_text() for root in roots
                     for p in sorted(root.rglob("*.py")))
    return [name for name in names
            if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_functions(path):
    assert unused_functions(path, CALLERS) == []


def test_unused_function_check_catches_a_dead_function(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return _helper()\n\n"
        "def _helper():\n    return 1\n\n"
        "def dead():\n    return 2\n\n"
        "def dead_too():\n    return 3\n\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def _hidden(self):\n        return 1\n\n"
        "    def opened(self):\n        return 2\n\n"
        "    def dead_method(self):\n        return 3\n")
    (tmp_path / "user.py").write_text(
        "from mod import Box, used\nprint(used(), Box().opened())\n")
    assert unused_functions(tmp_path / "mod.py", [tmp_path]) == [
        "mod.py: dead", "mod.py: dead_too", "mod.py: dead_method"]


def unused_records(path: pathlib.Path, roots) -> list[str]:
    """Module-level classes and constants (names a module-level
    assignment binds, dunders aside) of path whose name occurs in no .py
    file under roots except in their own definition."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                      and not n.id.startswith("__")]
    return [f"{path.name}: {name}" for name in _named_once(names, roots)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_records(path):
    assert unused_records(path, CALLERS) == []


def test_unused_record_check_catches_a_dead_record(tmp_path):
    (tmp_path / "mod.py").write_text(
        "__all__ = ['Used']\n"
        "LIMIT = 3\n"
        "DEAD = 4\n"
        "_DEAD_TOO: int = 5\n"
        "LO, HI = 0, 1\n"
        "LIMIT.attr = DEAD_ATTR = 6\n"
        "class Used:\n    pass\n\n"
        "class Dead:\n    size = LIMIT\n")
    (tmp_path / "user.py").write_text(
        "from mod import Used, LO\nprint(Used(), LO)\n")
    assert unused_records(tmp_path / "mod.py", [tmp_path]) == [
        "mod.py: DEAD", "mod.py: _DEAD_TOO", "mod.py: HI",
        "mod.py: DEAD_ATTR", "mod.py: Dead"]


def _dict_literal_keys(tree: ast.Module) -> dict[str, set[str]]:
    """Keys of the module-level NAME = dict(k=...) or {"k": ...} literals."""
    out = {}
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        v = node.value
        if (isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
                and v.func.id == "dict" and not v.args
                and all(k.arg is not None for k in v.keywords)):
            out[node.targets[0].id] = {k.arg for k in v.keywords}
        elif isinstance(v, ast.Dict) and all(
                isinstance(k, ast.Constant) and isinstance(k.value, str)
                for k in v.keys):
            out[node.targets[0].id] = {k.value for k in v.keys}
    return out


_NO_LITERAL = object()


def _literal(node: ast.expr):
    """The value of a literal expression, or a marker for anything else."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):   # a name, a call, an unhashable key
        return _NO_LITERAL


def _literal_defaults(fn: ast.FunctionDef) -> dict[str, object]:
    """Each defaulted parameter's default, as _literal gives it."""
    a = fn.args
    positional = a.posonlyargs + a.args
    pairs = list(zip(positional[len(positional) - len(a.defaults):],
                     a.defaults))
    pairs += [(x, d) for x, d in zip(a.kwonlyargs, a.kw_defaults)
              if d is not None]
    return {x.arg: _literal(d) for x, d in pairs}


def unpassed_defaults(path: pathlib.Path, roots) -> list[str]:
    """Defaulted parameters of path's public module-level functions that
    no call under roots passes: by position, by keyword, or through
    **NAME where NAME is a module-level dict literal of the calling file.
    Any other ** (and a *args) passes every parameter it could reach.
    A keyword whose value is a literal equal to the default (same type
    and value) passes nothing: every run still uses the one value.
    Calls are matched by the function's name, bare or as an attribute."""
    funcs = {n.name: n for n in ast.parse(path.read_text()).body
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
             and not n.name.startswith("_")}
    defaults = {name: _literal_defaults(fn) for name, fn in funcs.items()}
    passed: dict[str, set[str]] = {name: set() for name in funcs}
    for p in sorted(q for root in roots for q in root.rglob("*.py")):
        tree = ast.parse(p.read_text())
        literals = _dict_literal_keys(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name not in funcs:
                continue
            a = funcs[name].args
            positional = [x.arg for x in a.posonlyargs + a.args]
            everything = positional + [x.arg for x in a.kwonlyargs]
            starred = any(isinstance(x, ast.Starred) for x in call.args)
            passed[name] |= set(positional if starred
                                else positional[:len(call.args)])
            for kw in call.keywords:
                if kw.arg is not None:
                    value = _literal(kw.value)
                    default = defaults[name].get(kw.arg, _NO_LITERAL)
                    if (value is _NO_LITERAL or type(value) is not type(default)
                            or value != default):
                        passed[name].add(kw.arg)
                elif isinstance(kw.value, ast.Name) and kw.value.id in literals:
                    passed[name] |= literals[kw.value.id]
                else:
                    passed[name] |= set(everything)
    return [f"{path.name}: {name}({x})" for name in funcs
            for x in defaults[name] if x not in passed[name]]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_defaulted_parameter_is_passed(path):
    assert unpassed_defaults(path, CALLERS) == []


def test_unpassed_default_check_catches_a_dead_parameter(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n"
        "def g(a=1, b=2):\n    return a\n\n"
        "def h(a=1, b=2):\n    return a\n\n"
        "def k(a=1, b=2, c=3):\n    return a\n\n"
        "def m(a=1, b=0.5, *, c=None):\n    return a\n\n"
        "def _private(a=1):\n    return a\n")
    (tmp_path / "user.py").write_text(
        "import mod\n"
        "OPTS = dict(b=5)\n"
        "SHAPE = {'a': 1}\n"
        "f(0, 1, d=2)\n"
        "mod.g(**OPTS)\n"
        "h(**{'a': 1})\n"
        "k(*SHAPE)\n"
        "m(a=1, b=5e-1, c=None)\n"   # each the default itself: not passed
        "m(a=1.0, c=SHAPE)\n")       # another type, not a literal: passed
    assert unpassed_defaults(tmp_path / "mod.py", [tmp_path]) == [
        "mod.py: f(c)", "mod.py: f(e)", "mod.py: g(a)", "mod.py: m(b)"]


# the scan's step loops, where each product goes through a matrix's
# bound .dot: np.dot would add a Python-level dispatch to every call; and
# where every other call takes array operands, as numpy converts a
# scalar operand on every call, and scipy's expit has no place
STEP_LOOPS = ("_latent_scan", "_latent_scan_vjp")


def _number(node: ast.expr) -> bool:
    """A numeric literal, signed or not (a bool is not one)."""
    while isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                       (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and type(node.value) in
            (int, float, complex))


def _outside_indices(stmts):
    """The nodes of stmts, not descending into a subscript's index."""
    todo = list(stmts)
    while todo:
        node = todo.pop()
        yield node
        for field, child in ast.iter_fields(node):
            if not (isinstance(node, ast.Subscript) and field == "slice"):
                todo += [c for c in (child if isinstance(child, list)
                                     else [child]) if isinstance(c, ast.AST)]


def step_loop_faults(path: pathlib.Path, funcs=STEP_LOOPS) -> list[str]:
    """Inside a for loop of the module-level functions named in funcs:
    each np.matmul or module-level np.dot call (also as a bare name),
    each @ or @= operator and each expit call (a bound A.dot(x) call
    passes); and inside an innermost for loop, a step loop, each numeric
    literal that is a positional argument of a call or an operand of
    arithmetic, except in an index and in the loop's own header, and
    each other call of an np attribute (a local bound to it passes)."""
    found = set()
    for fn in ast.parse(path.read_text()).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in funcs):
            continue
        for loop in (n for n in ast.walk(fn) if isinstance(n, ast.For)):
            for node in ast.walk(loop):
                if (isinstance(node, (ast.BinOp, ast.AugAssign))
                        and isinstance(node.op, ast.MatMult)):
                    found.add((node.lineno, fn.name, "@"))
                elif isinstance(node, ast.Call) and (
                        getattr(node.func, "attr", None) == "matmul"
                        or getattr(node.func, "id", None) == "matmul"):
                    found.add((node.lineno, fn.name, "matmul"))
                elif isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) == "dot"
                        or getattr(node.func, "attr", None) == "dot"
                        and getattr(node.func.value, "id", None) == "np"):
                    found.add((node.lineno, fn.name, "dot"))
                elif isinstance(node, ast.Call) and "expit" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    found.add((node.lineno, fn.name, "expit"))
            if any(isinstance(n, ast.For) and n is not loop
                   for n in ast.walk(loop)):
                continue   # a loop over runs: its step loop is checked
            for node in _outside_indices(loop.body):
                operands = (node.args if isinstance(node, ast.Call)
                            else [node.left, node.right]
                            if isinstance(node, ast.BinOp)
                            else [node.value] if isinstance(node, ast.AugAssign)
                            else [])
                if any(_number(x) for x in operands):
                    found.add((node.lineno, fn.name, "literal"))
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", "dot") not in (
                            "dot", "matmul")
                        and getattr(node.func.value, "id", None) == "np"):
                    found.add((node.lineno, fn.name, f"np.{node.func.attr}"))
    return [f"{path.name}:{line}: {op} in {name}"
            for line, name, op in sorted(found)]


def test_scan_step_loops_multiply_with_bound_dot():
    assert step_loop_faults(SRC / "diffcore.py") == []


def test_step_loop_check_catches_a_matmul_in_a_loop(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import numpy as np\n"
        "def _latent_scan(K, x, out):\n"
        "    y = K @ x\n"                       # outside the loops: fine
        "    for i in range(3):\n"
        "        np.dot(K, x, out=out)\n"
        "        out += K @ x\n"
        "        K.dot(x, out=out)\n"
        "        while i:\n"
        "            np.matmul(K, x, out=out)\n"
        "            i -= 1\n"
        "        np.add(out, -1.0, out)\n"
        "        out[i - 1] += x[2 * i]\n"     # index arithmetic: fine
        "        np.maximum(out, x, out=out)\n"
        "    return y\n"
        "def _latent_scan_vjp(K, x):\n"
        "    for i in range(2):\n"
        "        y = expit(x * 2)\n"           # a run loop: expit, not 2
        "        for j in range(i - 1, -1, -1):\n"   # the header: fine
        "            x @= K\n"
        "            dot(K, x, out=x)\n"
        "            sp.special.expit(x, out=x)\n"
        "            x *= 0.5\n"
        "            np.multiply(x, K, x)\n"
        "            exp(x, x)\n"               # a bound local: fine
        "            np.copyto(x, K)\n"
        "    return x\n"
        "def other(K, x):\n"
        "    for i in range(2):\n"
        "        x = K @ x + expit(1.0)\n"
        "    return x\n")
    assert step_loop_faults(mod) == [
        "mod.py:5: dot in _latent_scan", "mod.py:6: @ in _latent_scan",
        "mod.py:9: matmul in _latent_scan", "mod.py:10: literal in _latent_scan",
        "mod.py:11: literal in _latent_scan",
        "mod.py:11: np.add in _latent_scan",
        "mod.py:13: np.maximum in _latent_scan",
        "mod.py:17: expit in _latent_scan_vjp",
        "mod.py:19: @ in _latent_scan_vjp", "mod.py:20: dot in _latent_scan_vjp",
        "mod.py:21: expit in _latent_scan_vjp",
        "mod.py:22: literal in _latent_scan_vjp",
        "mod.py:23: np.multiply in _latent_scan_vjp",
        "mod.py:25: np.copyto in _latent_scan_vjp"]


# ops that no code applies, each for a stated reason: the kernels call
# np.exp, and the tests' unfused references need the exp primitive
UNAPPLIED_OPS = ("exp",)


def unapplied_ops(path: pathlib.Path, roots) -> list[str]:
    """The names in path's _OPS table that no code under roots applies.
    An op is applied where a function or method of path passes its name
    to apply_primitive and that function is named under roots, bare or
    as an attribute (of anything but np or math, whose same-named
    functions are not the op), or is an operator method (a dunder)."""
    tree = ast.parse(path.read_text())
    table = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                 and any(getattr(t, "id", None) == "_OPS" for t in n.targets))
    funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    funcs += [m for c in tree.body if isinstance(c, ast.ClassDef)
              for m in c.body if isinstance(m, ast.FunctionDef)]
    appliers: dict[str, set[str]] = {}
    for fn in funcs:
        for call in ast.walk(fn):
            if (isinstance(call, ast.Call) and call.args
                    and getattr(call.func, "id", None) == "apply_primitive"
                    and isinstance(call.args[0], ast.Constant)):
                appliers.setdefault(call.args[0].value, set()).add(fn.name)
    named = set()
    for p in sorted(q for root in roots for q in root.rglob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and getattr(node.value, "id", None) not in ("np", "math")):
                named.add(node.attr)
    return [k.value for k in table.keys
            if not any(f in named or f.startswith("__")
                       for f in appliers.get(k.value, ()))]


def test_every_op_is_applied():
    assert unapplied_ops(SRC / "diffcore.py", [SRC]) == list(UNAPPLIED_OPS)


def test_unapplied_op_check_catches_a_dead_op(tmp_path):
    (tmp_path / "core.py").write_text(
        "_OPS = {'add': 0, 'exp': 1, 'tanh': 2, 'sum': 3, 'dead': 4,\n"
        "        'orphan': 5}\n"
        "class T:\n"
        "    def __add__(self, o):\n"
        "        return apply_primitive('add', self, o)\n"
        "    def sum(self):\n"
        "        return apply_primitive('sum', self)\n"
        "def exp(t):\n    return apply_primitive('exp', t)\n"
        "def tanh(t):\n    return apply_primitive('tanh', t)\n"
        "def dead(t):\n    return apply_primitive('dead', t)\n"
        "def apply_primitive(op, *a):\n    return _OPS[op]\n")
    (tmp_path / "user.py").write_text(
        "import numpy as np\nfrom core import T, tanh\n"
        "print(np.exp(1.0), tanh(T()), T().sum())\n")
    assert unapplied_ops(tmp_path / "core.py", [tmp_path]) == [
        "exp", "dead", "orphan"]
