"""Cohesion and coupling metrics over parsed class models.

Cohesion works on two small matrices derived from a single class: which
instance methods touch which instance fields, and which methods use which
parameter types. Coupling links top-level classes of one repository into a
graph keyed by (file path, class name) and resolved by simple name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if method.is_public and method.body is not None:
            matrix.visible_rows.append(len(matrix.rows) - 1)
    return matrix


def lcom5(matrix: AccessMatrix) -> float:
    m = len(matrix.rows)
    a = len(matrix.field_names)
    if m <= 1 or a == 0:
        return NAN
    coverage = sum(len(row) for row in matrix.rows)
    return (m - coverage / a) / (m - 1)


def tcc(matrix: AccessMatrix, rows: list[int] | None = None) -> float:
    idx = matrix.visible_rows if rows is None else rows
    n = len(idx)
    if n <= 1:
        return NAN
    connected = 0
    for p in range(n):
        for q in range(p + 1, n):
            if matrix.rows[idx[p]] & matrix.rows[idx[q]]:
                connected += 1
    return connected / (n * (n - 1) // 2)


def lcom1(matrix: AccessMatrix) -> int:
    m = len(matrix.rows)
    if m < 2:
        return 0
    apart = 0
    together = 0
    for p in range(m):
        for q in range(p + 1, m):
            if matrix.rows[p] & matrix.rows[q]:
                together += 1
            else:
                apart += 1
    return max(apart - together, 0)


@dataclass
class ParamTypeMatrix:
    """Method rows against declared parameter-type columns.

    Static methods participate; constructors do not. Column order follows
    first appearance across the methods in declaration order.
    """

    type_names: list[str] = field(default_factory=list)
    rows: list[set[str]] = field(default_factory=list)


def param_type_matrix(model: ClassModel) -> ParamTypeMatrix:
    matrix = ParamTypeMatrix()
    seen: set[str] = set()
    for method in model.methods:
        if method.is_constructor:
            continue
        used = set(method.parameter_type_names)
        matrix.rows.append(used)
        for name in method.parameter_type_names:
            if name not in seen:
                seen.add(name)
                matrix.type_names.append(name)
    return matrix


def nhd(matrix: ParamTypeMatrix) -> float:
    k = len(matrix.rows)
    l = len(matrix.type_names)
    if k <= 1 or l == 0:
        return NAN
    acc = 0
    for name in matrix.type_names:
        cj = sum(1 for row in matrix.rows if name in row)
        acc += cj * (k - cj)
    return 1.0 - (2.0 / (l * k * (k - 1))) * acc


def wmc(model: ClassModel) -> int:
    return sum(method_cyclomatic(m) for m in model.methods)


def rfc(model: ClassModel) -> int:
    declared_names = {m.name for m in model.methods}
    invoked: set[str] = set()
    for method in model.methods:
        invoked |= method.invoked_method_names
    return len(model.methods) + len(invoked - declared_names)


class ClassGraph:
    """Reference and inheritance graph over one repository's classes.

    Names resolve against top-level classes by simple name; a nested
    class's simple name resolves to its enclosing top-level class. Names
    claimed by more than one class, dotted names, and names matching
    nothing stay unresolved.
    """

    def __init__(self, files: list[tuple[str, list[ClassModel]]]):
        self._models: dict[Key, ClassModel] = {}
        claims: dict[str, set[Key]] = {}
        for path, classes in files:
            for model in classes:
                key = (path, model.name)
                if key in self._models:
                    continue
                self._models[key] = model
                for name in self._claimed_names(model):
                    claims.setdefault(name, set()).add(key)
        self._resolve = {name: next(iter(keys)) for name, keys in claims.items() if len(keys) == 1}

        self._out: dict[Key, set[Key]] = {}
        self._in: dict[Key, set[Key]] = {key: set() for key in self._models}
        self._parent: dict[Key, Key | None] = {}
        self._noc: dict[Key, int] = {key: 0 for key in self._models}
        for key, model in self._models.items():
            names = set(model.all_referenced_type_names())
            if model.extends_name:
                names.add(model.extends_name)
            names.update(model.implements_names)
            out = set()
            for name in names:
                target = self._lookup(name)
                if target is not None and target != key:
                    out.add(target)
            self._out[key] = out
            for target in out:
                self._in[target].add(key)
            self._parent[key] = self._parent_edge(key, model)
        for key, parent in self._parent.items():
            if parent is not None and parent != _UNKNOWN:
                self._noc[parent] += 1

        self._depth: dict[Key, int] = {}
        self._cycle_keys: set[Key] = set()
        for key in self._models:
            self._ensure_depth(key)

    @staticmethod
    def _claimed_names(model: ClassModel) -> set[str]:
        names = set()
        if "$" not in model.name:
            names.add(model.name)
        for inner in model.nested:
            for name in ClassGraph._claimed_names(inner):
                names.add(name)
        return names

    def _lookup(self, name: str) -> Key | None:
        if "." in name:
            return None
        return self._resolve.get(name)

    def _parent_edge(self, key: Key, model: ClassModel) -> Key | None:
        sup = model.extends_name
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
