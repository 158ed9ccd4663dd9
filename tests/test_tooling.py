"""Checks on the source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lamdist"


def test_no_assert_statements_in_the_package():
    """``python -O`` strips ``assert``, so the package checks its
    invariants with typed errors instead."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/lamdist: {found}"



def test_the_sources_parse_as_python_3_10():
    """``requires-python`` is 3.10; ``feature_version`` makes the parser
    reject the newer grammar it knows, such as ``except*``."""
    for path in sorted(SRC.parent.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))

# The walkers that still call themselves, and why: every function under
# ``syntax/``, ``semantics/``, ``eqtheory/`` and ``relations/``
WALKERS = [path for layer in ("syntax", "semantics", "eqtheory", "relations")
           for path in sorted((SRC / layer).glob("*.py"))]
RECURSIVE = {
    "diff.py:_pointwise": "products on componentwise; recurses only at "
                          "arrows, one level per arrow, lazily in the "
                          "closure it returns",
    "serialize.py:_from_dict": "walks the derivation's depth, which json "
                               "bounds; deeper is a DerivationFormatError",
    "dlog.py:_uncurried": "products on componentwise; recurses only at "
                          "arrows, one level per arrow, lazily in the "
                          "closure it returns",
    "corpus.py:random_real_derivation": "builds a random derivation to a "
                                        "depth its caller chooses",
    "checkers.py:_diff_leq_at": "products on componentwise; recurses only "
                                "at arrows, one level per arrow, into the "
                                "result type at each probe",
    "checkers.py:eta_transitivity_split": "products on componentwise; "
                                          "recurses only at arrows, one "
                                          "level per arrow, lazily in the "
                                          "closures it returns",
    "probes.py:ProbeSet.triples": "products on componentwise; recurses one "
                                  "level, to the cached lists of a "
                                  "product's components",
    "probes.py:canonical_term": "products on componentwise; recurses only "
                                "at arrows, one level per arrow, into the "
                                "result type",
}


def _self_calls(tree: ast.AST, scope: str = ""):
    """``file-relative qualname`` of each function that calls itself by
    name, or as ``self.name`` in a method.  A call that is the operand of
    ``yield`` is not counted: it makes a generator, which a trampoline
    runs on its own loop, not on the interpreter's stack."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _self_calls(node, f"{scope}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yielded = {id(y.value) for y in ast.walk(node)
                       if isinstance(y, ast.Yield)}
            for call in ast.walk(node):
                if not isinstance(call, ast.Call) or id(call) in yielded:
                    continue
                fn = call.func
                if (isinstance(fn, ast.Name) and fn.id == node.name
                        or isinstance(fn, ast.Attribute)
                        and fn.attr == node.name
                        and isinstance(fn.value, ast.Name)
                        and fn.value.id == "self"):
                    yield scope + node.name
                    break
            yield from _self_calls(node, f"{scope}{node.name}.")


def test_syntax_walkers_do_not_recurse():
    """Term walkers run on the explicit-stack fold in ``terms.py``, and
    the parser on its trampoline; only the allowlisted functions recurse,
    each for the reason given."""
    found = set()
    for path in WALKERS:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {f"{path.name}:{name}" for name in _self_calls(tree)}
    assert found == set(RECURSIVE), (
        f"new recursion: {sorted(found - set(RECURSIVE))}; "
        f"allowlisted but gone: {sorted(set(RECURSIVE) - found)}")


# Each error of the primitive checks, written once: the evaluators' compiled
# nodes run the checks inline but build their errors with prims.py's helpers
PRIMITIVE_ERRORS = ("outside declared domain",
                    "declared-total primitives must stay finite",
                    "is not in [0, +inf]")


def test_each_primitive_error_is_written_once_in_prims():
    """String constants are read from the syntax tree, so a message split
    over adjacent literals or built in an f-string is still found."""
    places = {message: [] for message in PRIMITIVE_ERRORS}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for message in PRIMITIVE_ERRORS:
                    places[message] += [str(path.relative_to(SRC))] * \
                        node.value.count(message)
    assert places == {message: ["prims.py"] for message in PRIMITIVE_ERRORS}


def _calls(tree: ast.AST, scope: str = ""):
    """``(qualname of the enclosing function, call)`` for every call."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = f"{scope}{node.name}."
        if isinstance(node, ast.Call):
            yield scope.rstrip("."), node
        yield from _calls(node, inner)


# The functions that open ``terms.on_overflow``, turning a RecursionError
# into a typed error, and what still recurses inside each
OVERFLOW = {
    "eval.py:evaluate": "compiled closures applied within closures",
    "diff.py:diff_evaluate": "compiled closures applied within closures",
    "checkers.py:_Walk.verdict": "the arrow clauses recurse through result "
                                 "types",
    "equality.py:Equality.equal": "evaluating applies a closure within the "
                                  "one applying it",
    "serialize.py:derivation_to_json": "json writes nested objects by "
                                       "recursion",
    "serialize.py:derivation_from_dict": "_from_dict walks the premises' "
                                         "depth",
    "serialize.py:derivation_from_json": "json reads nested arrays by "
                                         "recursion",
}


def test_each_overflow_guard_is_allowlisted():
    """An ``on_overflow`` context that no longer catches anything is
    deleted, and a new one names what recurses inside it."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {f"{path.name}:{scope}" for scope, call in _calls(tree)
                  if isinstance(call.func, ast.Name)
                  and call.func.id == "on_overflow"}
    assert found == set(OVERFLOW), (
        f"new guards: {sorted(found - set(OVERFLOW))}; "
        f"allowlisted but gone: {sorted(set(OVERFLOW) - found)}")


def test_the_cli_opens_input_in_one_place():
    """Every input file is read by ``cli._read``, which turns an unreadable
    or undecodable file into exit 2.  ``os.open`` is left out: ``main``
    uses it to point a closed standard output at devnull."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    readers = sorted(
        scope for scope, call in _calls(tree)
        if isinstance(call.func, ast.Name) and call.func.id == "open"
        or isinstance(call.func, ast.Attribute)
        and call.func.attr in ("read_text", "read_bytes", "open")
        and not (isinstance(call.func.value, ast.Name)
                 and call.func.value.id == "os"))
    assert readers == ["_read"]


def test_no_code_in_the_package_raises_system_exit():
    """Failures are typed errors; ``cli.main`` alone maps them to exit
    codes, and only the ``__main__`` guard exits."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        guards = [node for node in tree.body if isinstance(node, ast.If)
                  and "__main__" in ast.unparse(node.test)]
        guarded = {id(n) for g in guards for n in ast.walk(g)}
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if (isinstance(exc, ast.Name) and exc.id == "SystemExit"
                    or isinstance(node, ast.Call) and id(node) not in guarded
                    and ast.unparse(node.func) in ("sys.exit", "exit")):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"SystemExit raised in src/lamdist: {found}"


def test_one_module_calls_primitives_in_rational_arithmetic():
    """Exact evaluation has one evaluator, ``syntax.equality.exact_value``,
    which conversion and exact-mode ``evaluate`` both run: only its
    module reads ``Registry.call_exact``."""
    readers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if any(isinstance(node, ast.Attribute) and node.attr == "call_exact"
               for node in ast.walk(tree)):
            readers.add(path.relative_to(SRC).as_posix())
    assert readers == {"syntax/equality.py"}


def test_the_checkers_take_their_registry_from_the_probe_set():
    """A checker runs under ``probes.registry``, the registry its probe
    library was parsed and evaluated under, so none takes its own."""
    tree = ast.parse((SRC / "relations" / "checkers.py").read_text(
        encoding="utf-8"))
    taking = sorted(
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and "registry" in {a.arg for a in ast.walk(node.args)
                           if isinstance(a, ast.arg)})
    assert taking == []
