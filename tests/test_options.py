"""Every defaulted parameter of `src/cuspcal` is set by some call in `src/`,
`tests/` or `perfbench/`. A default that no caller changes is a
configuration that nothing exercises: it belongs in the body, or in a
module constant that a test can patch.

Calls are matched by name (`f(...)`, `obj.f(...)`; `C(...)` and `cls(...)`
inside class C call `C.__init__`). A keyword sets its parameter, the k-th
positional argument sets the k-th parameter after `self`/`cls`, and a call
with `*args` or `**kwargs` sets every parameter. An argument that only
forwards a defaulted parameter of the calling package function (`tol=tol`)
sets nothing unless that parameter is set in turn.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cuspcal"
CALLERS = ("src", "tests", "perfbench")

# The shooting cross-checks that `perfbench/trace.py` wraps by name, and
# their error type. They leave `src/` together with their wrappers, so
# their options stay until then.
ALLOWED = {
    ("linalg", "ContourSpec.__init__", "nodes"),
    ("linalg", "ContourSpec.circle", "nodes"),
    ("linalg", "ContourSpec.rectangle", "nodes"),
    ("fibre", "propagate_jet", "rtol"),
    ("fibre", "propagate_jet", "atol"),
    ("fibre", "propagate_jet", "method"),
    ("fibre", "range_solution_residual", "rtol"),
    ("errors", "IntegrationFailure.__init__", "z"),
    ("errors", "IntegrationFailure.__init__", "stepsize"),
}

def _params(node):
    """Positional parameter names and the set of defaulted ones."""
    args = node.args
    positional = args.posonlyargs + args.args
    defaulted = {a.arg for a in positional[len(positional) - len(args.defaults):]}
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    return [a.arg for a in positional], defaulted


class _Scan(ast.NodeVisitor):
    """Definitions of the package and calls of every caller file.

    `defs` holds (call name, key prefix, positional parameters after
    self/cls, defaulted parameters); `calls` holds (name, positional count,
    starred, slot -> what the argument forwards), where a forward is the
    (module, qualname, parameter) of a defaulted package parameter."""

    def __init__(self):
        self.defs, self.calls = [], []

    def scan(self, path, module):
        self.module, self.scopes = module, []  # scopes: (name, def node or None for a class)
        self.visit(ast.parse(path.read_text()))

    def _qualname(self, name):
        return ".".join([s[0] for s in self.scopes] + [name])

    def visit_ClassDef(self, node):
        self.scopes.append((node.name, None))
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node):
        positional, defaulted = _params(node)
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        bound = bool(self.scopes) and self.scopes[-1][1] is None and not static
        qualname = self._qualname(node.name)
        if self.module is not None:
            call_name = self.scopes[-1][0] if bound and node.name == "__init__" else node.name
            self.defs.append((call_name, (self.module, qualname),
                              positional[1 if bound else 0:], defaulted))
        self.scopes.append((node.name, node))
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _forward(self, expr):
        """The package parameter that `expr` only passes on, if any."""
        if not isinstance(expr, ast.Name) or self.module is None:
            return None
        for depth in range(len(self.scopes) - 1, -1, -1):
            node = self.scopes[depth][1]
            if node is None:
                continue
            positional, defaulted = _params(node)
            if expr.id in positional + [a.arg for a in node.args.kwonlyargs]:
                if expr.id not in defaulted:
                    return None
                qualname = ".".join(s[0] for s in self.scopes[: depth + 1])
                return (self.module, qualname, expr.id)
        return None

    def visit_Call(self, node):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
            if name == "cls":
                name = next((s[0] for s in reversed(self.scopes) if s[1] is None), name)
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is not None:
            starred = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            slots = {i: self._forward(a) for i, a in enumerate(node.args)}
            slots.update({k.arg: self._forward(k.value) for k in node.keywords
                          if k.arg is not None})
            self.calls.append((name, len(node.args), starred, slots))
        self.generic_visit(node)


def unset_parameters():
    """(module, qualname, parameter) of every defaulted package parameter
    that no call sets, with forwards followed to a fixed point."""
    scan = _Scan()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            module = path.stem if path.parent == PACKAGE else None
            scan.scan(path, module)
    by_name = {}
    for call_name, prefix, positional, defaulted in scan.defs:
        by_name.setdefault(call_name, []).append((prefix, positional, defaulted))
    # per defaulted parameter, how calls set it: None outright, or a forward
    ways = {}
    for name, npos, starred, slots in scan.calls:
        for prefix, positional, defaulted in by_name.get(name, ()):
            for param in defaulted:
                key = prefix + (param,)
                if starred:
                    ways.setdefault(key, []).append(None)
                elif param in slots:
                    ways.setdefault(key, []).append(slots[param])
                elif param in positional[:npos]:
                    ways.setdefault(key, []).append(slots[positional.index(param)])
    is_set = {prefix + (p,): False for _, prefix, _, defaulted in scan.defs for p in defaulted}
    changed = True
    while changed:
        changed = False
        for key, found in ways.items():
            if not is_set[key] and any(w is None or is_set[w] for w in found):
                is_set[key] = changed = True
    return sorted(key for key, done in is_set.items() if not done)


def test_every_default_is_set_by_some_caller():
    unset = [key for key in unset_parameters() if key not in ALLOWED]
    assert not unset, f"{len(unset)} defaulted parameters that no call sets:\n" + "\n".join(
        f"  {module}.{qualname}({param})" for module, qualname, param in unset)


def test_allow_list_names_unset_parameters():
    assert ALLOWED <= set(unset_parameters())
