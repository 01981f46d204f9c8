"""Every public function, class and method of the library is reached.

An AST scan of ``src/qextract`` lists each module-level function and
class and each method of a module-level class whose name does not start
with an underscore.  Each must be referenced outside its own definition
somewhere in ``src/``, ``bench/`` or ``tools/``: as an attribute, as a
string (the benchmark's tracer binds functions by their attribute
names), or, for a module-level function or class only, by bare name.  A
method is called through its object, so a local variable or closure of
the same name does not reach it.  Tests do not count, so a function that
only its own unit tests call fails here.  The allowlist names what is
kept for the tests alone, each with its reason.

A method that shares its name with a numpy method (``transpose``,
``trace``) is matched by numpy's calls too.  The scan cannot tell them
apart, so such a method needs a caller found by reading.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "qextract")
SEARCHED = ("src", "bench", "tools")

ALLOWED = {
    "quantum.partial_trace": "exact oracle: acceptance criterion 9 checks "
                             "the instruments' outputs against it",
    "gf2.irreducible": "exact oracle: it checks every IRREDUCIBLE_POLY entry "
                       "that the field family is built from",
    "gf2.BitVector.from_bits": "tests/test_acceptance.py, which is fixed, builds "
                               "its oracle inputs with it",
    "gf2.MatrixFamily.certify": "exact oracle: the rank invariant of every "
                                "family construction is checked against it",
    "extractor.ExtractorSpec.apply_ints": "exact oracle: the per-pair output that "
                                          "output_table and the stream kernels are "
                                          "checked against",
}


def _python_files(top: str):
    for dirpath, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path: str) -> ast.Module:
    with open(path) as f:
        return ast.parse(f.read(), path)


def _public_definitions():
    """(qualified name, path, first line, last line, is a method) of every
    public module-level function or class and every public method."""
    for path in _python_files(PACKAGE):
        module = os.path.splitext(os.path.relpath(path, PACKAGE))[0].replace(os.sep, ".")
        for node in _parse(path).body:
            nodes = [(node, module, False)]
            if isinstance(node, ast.ClassDef):
                nodes += [(child, f"{module}.{node.name}", True) for child in node.body]
            for child, owner, method in nodes:
                if (isinstance(child, (ast.FunctionDef, ast.ClassDef))
                        and not child.name.startswith("_")):
                    yield (f"{owner}.{child.name}", path, child.lineno, child.end_lineno,
                           method)


def _references() -> dict[str, list[tuple[str, int, bool]]]:
    """Every name, attribute and string constant in the searched trees,
    with the path and line of each occurrence and whether it is a bare
    name."""
    refs: dict[str, list[tuple[str, int, bool]]] = {}
    for top in SEARCHED:
        for path in _python_files(os.path.join(ROOT, top)):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                refs.setdefault(name, []).append(
                    (os.path.realpath(path), node.lineno, isinstance(node, ast.Name)))
    return refs


def test_every_public_definition_is_reached():
    refs = _references()
    unreached = []
    for qualname, path, first, last, method in _public_definitions():
        path = os.path.realpath(path)
        name = qualname.rsplit(".", 1)[1]
        outside = [(p, line) for p, line, bare in refs.get(name, [])
                   if not (p == path and first <= line <= last or method and bare)]
        if not outside and qualname not in ALLOWED:
            unreached.append(qualname)
    assert not unreached, (
        f"reached by no code outside tests: {unreached}; give each a caller, "
        "remove it, or add it to ALLOWED with its reason")


def test_allowlist_names_definitions():
    defined = {qualname for qualname, *_ in _public_definitions()}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
