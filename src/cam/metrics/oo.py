"""Cohesion and coupling metrics over parsed class models.

Cohesion works on two small matrices derived from a single class: which
instance methods touch which instance fields, and which methods use which
parameter types. Each is read in one pass over its rows: `tcc` and `lcom1`
count the method pairs that share a field with one integer bitmask of
methods per field, and `nhd` counts the methods of each type name. Coupling links top-level classes of one repository into a
graph keyed by (file path, class name) and resolved by simple name; the
graph reads only a small stub of each class, so a file's parse need not
outlive its own measurement.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from cam.javasrc.model import ClassModel

from cam.metrics.code import NAN, method_cyclomatic

Key = tuple[str, str]

_UNKNOWN = ("", "")  # parent exists but no corpus class matches


@dataclass
class AccessMatrix:
    """Instance-method rows against instance-field columns.

    rows[i] holds the field names method i touches; visible_rows indexes
    the public methods that carry a body.
    """

    field_names: list[str] = field(default_factory=list)
    rows: list[set[str]] = field(default_factory=list)
    visible_rows: list[int] = field(default_factory=list)


def access_matrix(model: ClassModel) -> AccessMatrix:
    fields = [f.name for f in model.fields if not f.is_static]
    fieldset = set(fields)
    matrix = AccessMatrix(field_names=fields)
    for method in model.methods:
        if method.is_constructor or method.is_static:
            continue
        matrix.rows.append(method.accessed_field_names & fieldset)
        if method.is_public and method.has_body:
            matrix.visible_rows.append(len(matrix.rows) - 1)
    return matrix


def lcom5(matrix: AccessMatrix) -> float:
    m = len(matrix.rows)
    a = len(matrix.field_names)
    if m <= 1 or a == 0:
        return NAN
    coverage = sum(len(row) for row in matrix.rows)
    return (m - coverage / a) / (m - 1)


def _pairs_sharing_a_field(rows: list[set[str]]) -> int:
    """The pairs of *rows* that share a field: a row's earlier partners are
    the OR of the masks of rows so far that touch each of its fields."""
    masks: dict[str, int] = {}
    together = 0
    for position, row in enumerate(rows):
        partners = 0
        for name in row:
            mask = masks.get(name, 0)
            partners |= mask
            masks[name] = mask | 1 << position
        together += partners.bit_count()
    return together


def tcc(matrix: AccessMatrix) -> float:
    n = len(matrix.visible_rows)
    if n <= 1:
        return NAN
    return _pairs_sharing_a_field([matrix.rows[i] for i in matrix.visible_rows]) / (n * (n - 1) // 2)


def lcom1(matrix: AccessMatrix) -> int:
    """Pairs of rows that share no field less pairs that share one, or 0."""
    m = len(matrix.rows)
    return max(m * (m - 1) // 2 - 2 * _pairs_sharing_a_field(matrix.rows), 0)


@dataclass
class ParamTypeMatrix:
    """Method rows against declared parameter-type columns.

    Static methods participate; constructors do not. Column order follows
    first appearance across the methods in declaration order.
    """

    type_names: list[str] = field(default_factory=list)
    rows: list[set[str]] = field(default_factory=list)


def param_type_matrix(model: ClassModel) -> ParamTypeMatrix:
    methods = [m for m in model.methods if not m.is_constructor]
    names = dict.fromkeys(name for m in methods for name in m.parameter_type_names)
    return ParamTypeMatrix(list(names), [set(m.parameter_type_names) for m in methods])


def nhd(matrix: ParamTypeMatrix) -> float:
    k = len(matrix.rows)
    l = len(matrix.type_names)
    if k <= 1 or l == 0:
        return NAN
    acc = sum(c * (k - c) for c in Counter(name for row in matrix.rows for name in row).values())
    return 1.0 - (2.0 / (l * k * (k - 1))) * acc


def wmc(model: ClassModel) -> int:
    return sum(method_cyclomatic(m) for m in model.methods)


def rfc(model: ClassModel) -> int:
    declared_names = {m.name for m in model.methods}
    invoked: set[str] = set()
    for method in model.methods:
        invoked |= method.invoked_method_names
    return len(model.methods) + len(invoked - declared_names)


class ClassStub(NamedTuple):
    """What ClassGraph reads of one top-level class, kept until the
    repository is measured, so as small as a tuple can hold it.

    claimed holds the distinct simple names the class answers to: its own
    and its nested classes'. referenced holds every distinct type name
    the class or a nested class mentions, supertypes included.
    """

    name: str
    claimed: tuple[str, ...]
    extends_name: str | None
    referenced: tuple[str, ...]


def class_stub(model: ClassModel) -> ClassStub:
    referenced = model.all_referenced_type_names()
    if model.extends_name:
        referenced.add(model.extends_name)
    referenced.update(model.implements_names)
    # Interned, so the files of a repository share each name they mention.
    return ClassStub(model.name, tuple(_claimed_names(model)), model.extends_name, tuple(map(sys.intern, referenced)))


def _claimed_names(model: ClassModel) -> set[str]:
    names = set()
    if "$" not in model.name:
        names.add(model.name)
    for inner in model.nested:
        names |= _claimed_names(inner)
    return names


class ClassGraph:
    """Reference and inheritance graph over one repository's classes.

    Names resolve against top-level classes by simple name; a nested
    class's simple name resolves to its enclosing top-level class. Names
    claimed by more than one class, dotted names, and names matching
    nothing stay unresolved.
    """

    def __init__(self, files: list[tuple[str, list[ClassStub]]]):
        known: dict[Key, ClassStub] = {}
        claims: dict[str, set[Key]] = {}
        for path, stubs in files:
            for stub in stubs:
                key = (path, stub.name)
                if key in known:
                    continue
                known[key] = stub
                for name in stub.claimed:
                    claims.setdefault(name, set()).add(key)
        self._resolve = {name: next(iter(keys)) for name, keys in claims.items() if len(keys) == 1}

        self._out: dict[Key, set[Key]] = {}
        self._in: dict[Key, set[Key]] = {key: set() for key in known}
        self._parent: dict[Key, Key | None] = {}
        self._noc: dict[Key, int] = {key: 0 for key in known}
        for key, stub in known.items():
            out = set()
            for name in stub.referenced:
                target = self._lookup(name)
                if target is not None and target != key:
                    out.add(target)
            self._out[key] = out
            for target in out:
                self._in[target].add(key)
            self._parent[key] = self._parent_edge(stub.extends_name)
        for key, parent in self._parent.items():
            if parent is not None and parent != _UNKNOWN:
                self._noc[parent] += 1

        self._depth: dict[Key, int] = {}
        self._cycle_keys: set[Key] = set()
        for key in known:
            self._ensure_depth(key)

    def _lookup(self, name: str) -> Key | None:
        if "." in name:
            return None
        return self._resolve.get(name)

    def _parent_edge(self, sup: str | None) -> Key | None:
        if sup is None or sup in ("Object", "java.lang.Object"):
            return None
        target = self._lookup(sup)
        if target is None:
            return _UNKNOWN
        return target

    def _ensure_depth(self, key: Key) -> int:
        path: list[Key] = []
        index: dict[Key, int] = {}
        cur = key
        base = 0
        while True:
            known = self._depth.get(cur)
            if known is not None:
                base = known
                break
            if cur in index:
                cycle = path[index[cur] :]
                for member in cycle:
                    self._depth[member] = 1
                    self._cycle_keys.add(member)
                path = path[: index[cur]]
                base = 1
                break
            index[cur] = len(path)
            path.append(cur)
            parent = self._parent[cur]
            if parent is None:
                path.pop()
                self._depth[cur] = 0
                base = 0
                break
            if parent == _UNKNOWN:
                path.pop()
                self._depth[cur] = 1
                base = 1
                break
            cur = parent
        for member in reversed(path):
            base += 1
            self._depth[member] = base
        return self._depth[key]

    def cbo(self, key: Key) -> int:
        return len(self._out[key] | self._in[key])

    def dit(self, key: Key) -> int:
        return self._depth[key]

    def noc(self, key: Key) -> int:
        return self._noc[key]

    def cycle_members(self) -> list[Key]:
        return sorted(self._cycle_keys)
