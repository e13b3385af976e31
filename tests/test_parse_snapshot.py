"""The parser's whole output on a fixed set of inputs, pinned by a digest.

`dump` writes every field of each parsed model in one canonical text form:
decision counts, cognitive scores, whether a method has a body, accessed
and invoked names, referenced types, import counts, ncss and the
token-slice bounds of each class, counted in the token stream with the
comments merged in. `SNAPSHOT_SHA256` is the digest of that dump over every fixture
source, the deep-nesting shapes of the filter tests and the generated
classes in `tests/data/` (written once by `perfbench/javagen.py`
`java_class`, seeds 1000-1009, so a later change to the generator cannot
move them). A change to the parser that is meant to leave its output alone
must leave the digest alone; a deliberate change to the output records the
new digest here.

`tests/data/Grammar8.java` is a hand-written grammar sample that javac
compiles with `--release 8` (`tests/test_javac_agreement.py` checks it). It
reaches the accepting shapes that none of the inputs above holds: `throws`,
`throw` and `assert`, wildcard bounds, class literals, `this(...)`,
`outer.new Inner()`, typed lambda parameters and the like. Its dump is
pinned under a digest of its own, `GRAMMAR8_SHA256`.

Rejected inputs are pinned one by one, with the line, column and message
of their error.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from pathlib import Path

import pytest

from cam.javasrc.parser import JavaSyntaxError, parse
from fixtures import CASES
from test_filters import _anonymous_classes, _else_if_chain, _lambdas, _parens

DATA = Path(__file__).parent / "data"

SNAPSHOT_SHA256 = "0e874957b11c82a24c95d567a14b089f021fb6359482a0f226983068ee2659ee"
GRAMMAR8_SHA256 = "eeb5d90f26ffc2e4e69bbb1ceda76c8dfab6a8c518f7ccdd8bbde543045fd4a6"


def _merged_index(tokens) -> list[int]:
    """Index of each code token in the stream with the comments merged in."""
    comment_starts = [start for start, _text in tokens.comments]
    return [k + bisect_left(comment_starts, start) for k, start in enumerate(tokens.starts)]


def _slice(span, where) -> str:
    first, end = span
    if first == end:
        return "[]"
    return f"[{where[first]}:{where[end - 1] + 1}]/{end - first}"


def _class(model, indent: str, where, out: list[str]) -> None:
    out.append(
        f"{indent}class {model.name} {model.kind} extends={model.extends_name} implements={model.implements_names}"
        f" modifiers={sorted(model.modifiers)} annotations={model.annotation_count} tokens={_slice(model.tokens, where)}"
    )
    out.append(f"{indent} refs {sorted(model.referenced_type_names)}")
    for f in model.fields:
        out.append(f"{indent} field {f.name} static={f.is_static}")
    for m in model.methods:
        out.append(
            f"{indent} method {m.name} ctor={m.is_constructor} static={m.is_static} {m.visibility}"
            f" params={m.parameter_type_names} invoked={sorted(m.invoked_method_names)}"
            f" accessed={sorted(m.accessed_field_names)} decisions={m.decisions}"
            f" cognitive={m.cognitive} has_body={m.has_body}"
        )
    for inner in model.nested:
        _class(inner, indent + " ", where, out)


def dump(label: str, source: str) -> str:
    """Canonical text of everything `parse` returns for *source*."""
    unit = parse(source)
    where = _merged_index(unit.tokens)
    out = [
        f"== {label}",
        f"imports={unit.import_count} ncss={unit.ncss}"
        f" tokens={len(unit.tokens.kinds) + len(unit.tokens.comments)}",
    ]
    for model in unit.types:
        _class(model, "", where, out)
    return "\n".join(out) + "\n"


def snapshot_inputs() -> list[tuple[str, str]]:
    inputs = [(case.file, case.source) for case in CASES]
    inputs += [
        ("parens-100", _parens(100)),
        ("anonymous-classes-50", _anonymous_classes(50)),
        ("lambdas-200", _lambdas(200)),
        ("else-if-5000", _else_if_chain(5000)),
    ]
    inputs += [(path.name, path.read_text(encoding="utf-8")) for path in sorted(DATA.glob("Gen*.java"))]
    return inputs


def test_snapshot_inputs_are_all_there():
    labels = [label for label, _source in snapshot_inputs()]
    assert len(labels) == len(CASES) + 4 + 10
    assert len(set(labels)) == len(labels)


def test_parse_model_snapshot():
    text = "".join(dump(label, source) for label, source in snapshot_inputs())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SNAPSHOT_SHA256


def test_grammar_sample_snapshot():
    text = dump("Grammar8.java", (DATA / "Grammar8.java").read_text(encoding="utf-8"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GRAMMAR8_SHA256


@pytest.mark.parametrize(
    "source, line, column, message",
    [
        ("record Point(int x, int y) {}", 1, 1, "expected a type declaration, found 'record'"),
        ("class V { void f() { var x = 1; } }", 1, 26, "expected ';', found 'x'"),
        ("class V { var x; }", 1, 15, "'var' is not a Java 8 type"),
        ("class W { int f(int x) { switch (x) { case 1 -> 2; } return 0; } }", 1, 46, "expected ':', found '->'"),
        ('class T { String s = """block"""; }', 1, 24, "expected ';', found '\"block\"'"),
        ("class B { void f() { ", 1, 22, "unexpected end of file in statement"),
        ("class", 1, 6, "expected identifier, found ''"),
        ("class X { int ; }", 1, 15, "expected a member declaration, found ';'"),
        ("class Y { void f() { if } }", 1, 25, "expected '(', found '}'"),
        ("class I { int f(Object o) { return o instanceof String * 2; } }", 1, 56, "expected ';', found '*'"),
        ("class A { Map<String, Integer) m; }", 1, 30, "expected '>', found ')'"),
        # The third '>' of '>>>' sits two columns after the token's start.
        ("class A { List<List<String>>> m; }", 1, 29, "expected a member declaration, found '>'"),
        ("class A { void f() { g(; } }", 1, 24, "unexpected token ';' in expression"),
        ("class A { void f() { int[] a = new int[3; } }", 1, 41, "expected ']', found ';'"),
        ("class A { void f() { x = a ? b; } }", 1, 31, "expected ':', found ';'"),
        ("class A { void f() { switch (x) { g(); } } }", 1, 35, "statement outside any switch label"),
        ("class A { void f() { final 1; } }", 1, 28, "expected a declaration"),
        ("class A { @Bad(1 void f() {} }", 1, 31, "unterminated annotation arguments"),
        ("class A { <T extends X void f() {} }", 1, 24, "expected '>', found 'void'"),
        # A type parameter is an annotated name, bounded by types joined by '&'.
        ("class A< extends Number & Comparable<A>> {}", 1, 10, "expected identifier, found 'extends'"),
        ("class A<U U extends Number> {}", 1, 11, "expected '>', found 'U'"),
        ("class A<T extends Comparable<>> {}", 1, 30, "expected a type, found '>>'"),
        ("class A<T extends B & > {}", 1, 23, "expected a type, found '>'"),
        ("class A<> {}", 1, 9, "expected identifier, found '>'"),
        ("class A { Object x = new <>A(); }", 1, 27, "expected a type, found '>'"),
        ("class A { void f() { x = new; } }", 1, 29, "expected a type, found ';'"),
        ("class A { void f() { x = class; } }", 1, 26, "unexpected keyword 'class' in expression"),
        ("class A { void f() { return (int) ; } }", 1, 33, "expected '.', found ')'"),
        ("class A { void f() { a.super(); } }", 1, 29, "expected '.', found '('"),
        ("class A { 1 }", 1, 11, "expected a type, found '1'"),
        ("class A { void f() { for (int i : ) {} } }", 1, 35, "unexpected token ')' in expression"),
        ("class A { void f() { try (R r) {} } }", 1, 30, "expected '=', found ')'"),
        ("class A { void f() { catch (E e) {} } }", 1, 22, "unexpected keyword 'catch' in expression"),
        ("class A { void f() { Object o = (Runnable) () -> ; } }", 1, 50, "unexpected token ';' in expression"),
        ("class A { void f() { x = a.<T>; } }", 1, 31, "expected identifier, found ';'"),
        ("class A { void f() { x = y::; } }", 1, 29, "expected identifier, found ';'"),
        ("class A {\n  void f() {\n    x = (a + b;\n  }\n}\n", 3, 15, "expected ')', found ';'"),
        ("class A { enum E { X(1, Y }", 1, 27, "expected ')', found '}'"),
        ("class A { void f() { do ; while (x) } }", 1, 37, "expected ';', found '}'"),
        # Only a class instance creation takes '<>', and no type argument takes '&'.
        ("class A { List<> x; }", 1, 16, "expected a type, found '>'"),
        ("class A { List<A & B> x; }", 1, 18, "expected '>', found '&'"),
        ("class A { Object f = Arrays::<>asList; }", 1, 31, "expected a type, found '>'"),
        ("class A { Object f = Collections.<A & B>emptyList(); }", 1, 37, "expected '>', found '&'"),
        # Level 211: a class body, a block, a statement and 208 expressions.
        ("class A { Object f() { return " + "(" * 207 + "x" + ")" * 207 + "; } }", 1, 238, "nesting deeper than 210"),
    ],
)
def test_rejected_input_positions(source, line, column, message):
    with pytest.raises(JavaSyntaxError) as info:
        parse(source)
    assert (info.value.line, info.value.column, str(info.value)) == (line, column, f"line {line}, column {column}: {message}")
