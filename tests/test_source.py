"""Invariants of the library source, read with ``ast``."""

import ast
import dataclasses
import inspect
from pathlib import Path

import spongedim as sd

SRC = Path(__file__).resolve().parent.parent / "src" / "spongedim"


def _modules() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring nodes of a module and its classes and functions."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, owners)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def test_no_assert_statements():
    """`python -O` strips asserts, so library invariants must be explicit checks."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_schema_version_written_in_one_place():
    """Every JSON document gets its schema version from the one emitter."""
    found = []
    for name, tree in _modules().items():
        docstrings = _docstrings(tree)
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "schema_version" in node.value
            and id(node) not in docstrings
        ]
    assert len(found) == 1, found


def test_enumeration_refused_in_two_places():
    """EnumerationTooLarge is built by cubes.admit and the ball walk's node guard only."""
    found = []
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            found += [
                f"{name}:{func.name}"
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "EnumerationTooLarge"
            ]
    assert sorted(found) == ["cubes.py:admit", "measure.py:_concentric_brackets"]


def test_text_decoded_only_in_as_scale():
    """One decode: a one-argument Fraction(x), x not an int literal, is in
    cubes.as_scale only, where the decimal exponent and digit bounds are."""
    def decodes(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction"
            and len(node.args) == 1
            and not node.keywords
            and not (
                isinstance(node.args[0], ast.Constant)
                and type(node.args[0].value) is int
            )
        )

    modules = _modules()
    [as_scale] = [
        node for node in modules["cubes.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "as_scale"
    ]
    inside = {id(node) for node in ast.walk(as_scale) if decodes(node)}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if decodes(node) and id(node) not in inside
    ]
    assert inside and found == []


def test_no_public_cap_and_no_derived_sponge_field():
    """One enumeration cap, DEFAULT_CAP, and no field the bases already decide."""
    takes_cap = [
        name
        for name in sd.__all__
        if callable(obj := getattr(sd, name))
        and not isinstance(obj, type)
        and "cap" in inspect.signature(obj).parameters
    ]
    assert takes_cap == []
    assert [f.name for f in dataclasses.fields(sd.Sponge)] == ["bases", "digits"]
