"""Every public name of the library has one import path and a caller,
and every public knob a setter.

The package ``__init__`` holds only its docstring and ``__version__``:
each name is imported from its module, and importing one module loads
only the modules it depends on.

The audit parses the library modules and the demos.  A public
top-level function or class, or a public method or property, that no
parsed file refers to outside its own definition fails.  A reference is a bare identifier (a
name or an attribute access), so a name shared with another object
counts as used: the audit finds names nothing calls, not every name a
caller could do without.

A knob is a parameter with a default of a public function, method or
constructor (``__init__``, or a dataclass field with a default).  It
fails when no call in a parsed file sets it.  A call is matched by the
bare name it calls (the class name for a constructor), and sets a
parameter when it passes it by keyword, by position, or through ``*``
or ``**`` unpacking; a dataclass field is also set when it is assigned
as an attribute.  Tests are not callers.
"""

import ast
import collections
import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]

# module.name, or module.callable(parameter) for a knob -> why it stays
# without a caller (or a setter) in the library or demos
KEEP = {
    "memristor.LeakyCoupler":
        "the paper's imperfect-coupler model: leakage eta reaches the "
        "undesired port whatever the control",
    "memristor.leaky_output_expectation":
        "the paper's through-port mean under leakage, "
        "[eta R + (1 - eta)(1 - R)] <n_in>",
    "memristor.ClassicalMemristorState":
        "the doped-junction memristor the paper's device is formally "
        "analogous to, documented in the README",
    "memristor.classical_memristor_step":
        "the step equation of that classical analogue",
    "readout.forward":
        "class probabilities of a trained readout: the model's "
        "prediction as probabilities, where training works on logits",
    "cli.main(argv)":
        "the command line as a list, so the benchmark and the tests "
        "drive the CLI in process; the console script passes none",
}


def test_package_holds_only_its_docstring_and_version():
    tree = ast.parse((ROOT / "src" / "qumem" / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    assert len(tree.body) == 2, (
        "qumem/__init__.py holds only its docstring and __version__; "
        "import each name from its module")
    version = tree.body[1]
    assert isinstance(version, ast.Assign)
    assert [ast.unparse(t) for t in version.targets] == ["__version__"]
    assert isinstance(version.value, ast.Constant)
    assert isinstance(version.value.value, str)


def test_importing_the_reservoir_loads_only_its_dependencies():
    code = ("import sys, qumem.reservoir; "
            "print(' '.join(m for m in sys.modules if m.startswith('qumem')))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": path},
        timeout=60).stdout.split()
    assert "qumem.reservoir" in loaded
    unrelated = {"qumem.cli", "qumem.readout", "qumem.tomography",
                 "qumem.hysteresis"}
    assert unrelated.isdisjoint(loaded), sorted(unrelated & set(loaded))


# ---------------------------------------------------------------------------
# callers

def _parsed():
    library = sorted(p for p in (ROOT / "src" / "qumem").glob("*.py")
                     if p.name != "__init__.py")
    demos = sorted((ROOT / "demos").glob("*.py"))
    return ({p.stem: ast.parse(p.read_text()) for p in library},
            [ast.parse(p.read_text()) for p in demos])


def _references(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _public_definitions(module, tree):
    """(qualified name, def node) of each public top-level function or
    class and each public method or property of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, defs[:2])
                        and not sub.name.startswith("_")):
                    yield f"{module}.{node.name}.{sub.name}", sub


def _uncalled():
    library, demos = _parsed()
    counts = collections.Counter()
    for tree in [*library.values(), *demos]:
        counts.update(_references(tree))
    found = {}
    for module, tree in library.items():
        for name, node in _public_definitions(module, tree):
            own = collections.Counter(_references(node))[node.name]
            found[name] = counts[node.name] - own == 0
    return found


# ---------------------------------------------------------------------------
# knobs

def _decorators(node):
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        yield dec.id if isinstance(dec, ast.Name) else dec.attr


def _defaulted(fn, bound):
    """(parameter, position) of each parameter of fn with a default,
    the first `bound` (self or cls) skipped; the position indexes the
    call's positional arguments, None for a keyword-only parameter."""
    args = [*fn.args.posonlyargs, *fn.args.args]
    first = len(args) - len(fn.args.defaults)
    for i, arg in enumerate(args[first:], first):
        yield arg.arg, i - bound
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _defaulted_fields(cls):
    """(field, position) of each constructor field of a dataclass that
    has a default."""
    position = 0
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            continue
        value, has_default = node.value, node.value is not None
        if isinstance(value, ast.Call) and "field" in _references(
                value.func):
            options = {k.arg: k.value for k in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = bool({"default", "default_factory"} & set(options))
        if has_default:
            yield node.target.id, position
        position += 1


def _knobs(module, tree):
    """(knob, called name, parameter, position, is a field) of each
    defaulted parameter of a public function, method or constructor."""
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        if isinstance(node, ast.FunctionDef):
            for param, pos in _defaulted(node, 0):
                yield (f"{module}.{node.name}({param})", node.name, param,
                       pos, False)
            continue
        if "dataclass" in _decorators(node):
            for param, pos in _defaulted_fields(node):
                yield (f"{module}.{node.name}({param})", node.name, param,
                       pos, True)
        for sub in node.body:
            if not isinstance(sub, ast.FunctionDef):
                continue
            bound = 0 if "staticmethod" in _decorators(sub) else 1
            if sub.name == "__init__":
                knob, name = f"{module}.{node.name}", node.name
            elif not sub.name.startswith("_"):
                knob, name = f"{module}.{node.name}.{sub.name}", sub.name
            else:
                continue
            for param, pos in _defaulted(sub, bound):
                yield f"{knob}({param})", name, param, pos, False


def _calls(trees):
    """The calls of the trees, as called name -> list of (positional
    arguments before any star, star unpacked, keywords, double-star
    unpacked), and the attribute names the trees assign."""
    calls, assigned = collections.defaultdict(list), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", None))
                star = [isinstance(a, ast.Starred) for a in node.args]
                keywords = {k.arg for k in node.keywords}
                calls[name].append(
                    (star.index(True) if any(star) else len(star),
                     any(star), keywords - {None}, None in keywords))
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target]
                       if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            assigned.update(t.attr for t in targets
                            if isinstance(t, ast.Attribute))
    return calls, assigned


def _sets(call, param, pos):
    n_positional, star, keywords, double_star = call
    return (param in keywords or double_star
            or pos is not None and (pos < n_positional or star))


def _unset_in(library, trees):
    """knob -> whether no call or attribute assignment in `trees` sets
    it, for the knobs of `library` (module name -> tree)."""
    calls, assigned = _calls(trees)
    found = {}
    for module, tree in library.items():
        for knob, name, param, pos, field in _knobs(module, tree):
            found[knob] = not (
                any(_sets(call, param, pos) for call in calls[name])
                or field and param in assigned)
    return found


def _unset():
    library, demos = _parsed()
    return _unset_in(library, [*library.values(), *demos])


def test_knob_audit_counts_every_way_of_setting():
    library = {"m": ast.parse(textwrap.dedent("""
        def f(a, b=1, *, c=2):
            pass

        @dataclass
        class D:
            x: int
            y: int = 0
            z: list = field(default_factory=list)
            w: int = field(init=False, default=0)
            v: int = 0

        class C:
            def __init__(self, p=0):
                pass

            def m(self, q=0, r=0):
                pass

            @staticmethod
            def s(t=0):
                pass

            def _private(self, u=0):
                pass

        def _hidden(k=0):
            pass
    """))}
    knobs = ["m.f(b)", "m.f(c)", "m.D(y)", "m.D(z)", "m.D(v)", "m.C(p)",
             "m.C.m(q)", "m.C.m(r)", "m.C.s(t)"]
    assert sorted(_unset_in(library, [])) == sorted(knobs)
    callers = {
        "f(0, 1)": ["m.f(b)"],
        "g.f(0, c=1)": ["m.f(c)"],
        "f(*args)": ["m.f(b)"],
        "f(0, **kw)": ["m.f(b)", "m.f(c)"],
        "D(0, 1)": ["m.D(y)"],
        "D(0, 1, [])": ["m.D(y)", "m.D(z)"],
        "D(0, v=1)": ["m.D(v)"],
        "d.v = 1": ["m.D(v)"],
        "C(1)": ["m.C(p)"],
        "c.m(1)": ["m.C.m(q)"],
        "c.m(0, *rest)": ["m.C.m(q)", "m.C.m(r)"],
        "C.s(1)": ["m.C.s(t)"],
    }
    for source, set_knobs in callers.items():
        found = _unset_in(library, [ast.parse(source)])
        assert sorted(k for k in knobs if not found[k]) == sorted(set_knobs), \
            source


def test_every_public_name_has_a_caller():
    found = _uncalled()
    uncalled = sorted(name for name, alone in found.items()
                      if alone and name not in KEEP)
    assert uncalled == [], (
        f"public names without a caller: {uncalled}; delete them, or "
        f"keep each in KEEP with its reason")


def test_every_public_knob_has_a_setter():
    found = _unset()
    unset = sorted(knob for knob, alone in found.items()
                   if alone and knob not in KEEP)
    assert unset == [], (
        f"defaulted parameters no call sets: {unset}; remove them, or "
        f"keep each in KEEP with its reason")


def test_keep_list_names_uncalled_definitions_with_reasons():
    found = {**_uncalled(), **_unset()}
    for name, reason in KEEP.items():
        assert name in found, f"{name} is not a public definition or knob"
        assert found[name], f"{name} has a caller; drop it from KEEP"
        assert reason.strip(), f"{name} needs a reason"
