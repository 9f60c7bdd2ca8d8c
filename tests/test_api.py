"""Every public name of the library has a caller.

Parses the library modules (not the package ``__init__``, whose
re-exports call nothing) and the demos, and fails for a public
top-level function or class, or a public method or property, that no
parsed file refers to outside its own definition.  A reference is a
bare identifier (a name or an attribute access), so a name shared with
another object counts as used: the audit finds names nothing calls, not
every name a caller could do without.  Tests are not callers.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# module.name -> why it stays without a caller in the library or demos
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
    "reservoir.Reservoir.reflectivities":
        "the reservoir's whole memory, its memristor reflectivities, "
        "read between steps",
}


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


def test_every_public_name_has_a_caller():
    found = _uncalled()
    uncalled = sorted(name for name, alone in found.items()
                      if alone and name not in KEEP)
    assert uncalled == [], (
        f"public names without a caller: {uncalled}; delete them, or "
        f"keep each in KEEP with its reason")


def test_keep_list_names_uncalled_definitions_with_reasons():
    found = _uncalled()
    for name, reason in KEEP.items():
        assert name in found, f"{name} is not a public definition"
        assert found[name], f"{name} has a caller; drop it from KEEP"
        assert reason.strip(), f"{name} needs a reason"
