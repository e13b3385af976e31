import ast
import graphlib
import inspect

import pytest

import cam.javasrc.lexer
import cam.javasrc.parser
from cam.javasrc.lexer import tokenize
from cam.javasrc.parser import JavaSyntaxError, parse


def only_class(source):
    types = parse(source).types
    assert len(types) == 1
    return types[0]


def test_package_and_imports():
    unit = parse(
        "package a.b.c;\n"
        "import java.util.List;\n"
        "import static java.lang.Math.max;\n"
        "import java.io.*;\n"
        "class K {}\n"
    )
    assert unit.import_count == 3
    assert unit.ncss == 5  # package, three imports, class
    assert [t.name for t in unit.types] == ["K"]
    with pytest.raises(JavaSyntaxError):
        parse("import java.io.;\nclass K {}\n")


def test_class_header_fields_and_methods():
    model = only_class(
        "public abstract class Shape extends Figure implements Drawable, Cloneable {\n"
        "    protected int edges;\n"
        "    private static final double RATIO = 1.5;\n"
        "    public Shape(int edges) { this.edges = edges; }\n"
        "    abstract void draw();\n"
        "    static int count() { return 0; }\n"
        "}\n"
    )
    assert model.name == "Shape"
    assert model.kind == "class"
    assert model.extends_name == "Figure"
    assert model.implements_names == ["Drawable", "Cloneable"]
    assert "abstract" in model.modifiers
    fields = {f.name: f.is_static for f in model.fields}
    assert fields == {"edges": False, "RATIO": True}
    methods = {m.name: m for m in model.methods}
    assert methods["Shape"].is_constructor
    assert methods["Shape"].visibility == "public"
    assert not methods["draw"].has_body
    assert methods["count"].has_body
    assert methods["count"].is_static


def test_interface_members_are_implicitly_public_and_static_fields():
    model = only_class(
        "interface Port {\n"
        "    int WIDTH = 4;\n"
        "    void open();\n"
        "    default int width() { return WIDTH; }\n"
        "}\n"
    )
    assert model.kind == "interface"
    assert model.fields[0].is_static
    assert all(m.visibility == "public" for m in model.methods)
    assert model.implements_names == []


def test_interface_extends_lands_in_implements():
    model = only_class("interface Wide extends Narrow, Thin {}\n")
    assert model.extends_name is None
    assert model.implements_names == ["Narrow", "Thin"]


def test_enum_constants_are_not_fields():
    model = only_class(
        "enum Direction {\n"
        "    NORTH, SOUTH;\n"
        "    int steps;\n"
        "}\n"
    )
    assert model.kind == "enum"
    assert [f.name for f in model.fields] == ["steps"]


def test_enum_constant_bodies_become_anonymous_classes():
    model = only_class(
        "enum Mood {\n"
        "    UP { int sign() { return 1; } },\n"
        "    DOWN { int sign() { return -1; } };\n"
        "}\n"
    )
    assert [n.name for n in model.nested] == ["Mood$1", "Mood$2"]


def test_annotation_type_members_are_methods():
    model = only_class("@interface Note { String value() default \"\"; }\n")
    assert model.kind == "annotation"
    assert [m.name for m in model.methods] == ["value"]
    assert model.methods[0].visibility == "public"


def test_anonymous_class_naming_and_all_methods():
    model = only_class(
        "class Holder {\n"
        "    Runnable a() { return new Runnable() { public void run() {} }; }\n"
        "    Runnable b() { return new Runnable() { public void run() {} }; }\n"
        "}\n"
    )
    assert [n.name for n in model.nested] == ["Holder$1", "Holder$2"]
    assert sorted(m.name for m in model.all_methods()) == ["a", "b", "run", "run"]


def test_nested_member_class_models():
    model = only_class(
        "class Out {\n"
        "    class In { void go() {} }\n"
        "    static class SIn {}\n"
        "}\n"
    )
    assert [n.name for n in model.nested] == ["In", "SIn"]
    assert model.nested[0].methods[0].name == "go"


def test_explicit_type_arguments_in_calls_and_method_references():
    model = only_class(
        "class R {\n"
        "    Function<String[], List<String>> f = Arrays::<String>asList;\n"
        "    Supplier<List<String>> s = ArrayList<String>::new;\n"
        "    Function<Object, String> t = this::<Integer>show;\n"
        "    List<String> e() { return Collections.<String>emptyList(); }\n"
        "    <T> String show(Object o) { return String.valueOf(o); }\n"
        "}\n"
    )
    assert [f.name for f in model.fields] == ["f", "s", "t"]
    assert model.methods[0].invoked_method_names == {"emptyList"}


def test_decision_tokens():
    """Each branch point is one decision, `default` none."""
    statements = {
        "if (x > 0) {}": 1,
        "if (x > 0 && x < 9 || x == 4) {} else {}": 3,
        "for (int i = 0; i < x; i++) {}": 1,
        "for (int v : new int[] {1, 2}) {}": 1,
        "while (x > 0) { x--; }": 1,
        "do { x++; } while (x < 0);": 1,
        "switch (x) { case 1: break; case 2: break; default: break; }": 2,
        "try { g(); } catch (RuntimeException e) {} finally {}": 1,
        "int y = x > 0 ? 1 : 2;": 1,
        "g(); synchronized (this) { x++; }": 0,
    }
    for statement, decisions in statements.items():
        model = only_class(f"class D {{ void f(int x) {{ {statement} }} void g() {{}} }}")
        assert [m.decisions for m in model.methods] == [decisions, 0], statement
    whole = only_class("class D { void f(int x) { " + " ".join(statements) + " } void g() {} }")
    assert whole.methods[0].decisions == sum(statements.values())


def test_chained_else_if_marks_chain():
    model = only_class(
        "class C {\n"
        "    void f(int x) {\n"
        "        if (x > 2) {}\n"
        "        else if (x > 1) {}\n"
        "        else {}\n"
        "    }\n"
        "}\n"
    )
    # the head if scores 1, the `else if` arm and the final else 1 each,
    # whatever their nesting
    assert model.methods[0].cognitive == 3


def test_statement_depths_nest_on_control_flow_only():
    model = only_class(
        "class C {\n"
        "    void f(int x) {\n"
        "        if (x > 0) {\n"
        "            while (x > 0) {\n"
        "                x--;\n"
        "            }\n"
        "        }\n"
        "        synchronized (this) {\n"
        "            if (x == 0) {}\n"
        "        }\n"
        "        try {\n"
        "            if (x == 1) {}\n"
        "        } finally {}\n"
        "    }\n"
        "}\n"
    )
    # the three ifs sit at depth 0 and score 1 each, the while at depth 1
    # scores 2: synchronized and try bodies add no depth
    assert model.methods[0].cognitive == 5


def test_field_access_and_invocations():
    model = only_class(
        "class A {\n"
        "    int x;\n"
        "    int y;\n"
        "    void m(int x) {\n"
        "        x = 1;\n"
        "        this.x = 2;\n"
        "        y += x;\n"
        "        helper(y);\n"
        "        other.run();\n"
        "        super.tidy();\n"
        "    }\n"
        "}\n"
    )
    method = model.methods[0]
    assert method.accessed_field_names == {"x", "y"}
    assert method.invoked_method_names == {"helper", "run", "tidy"}


def test_lambda_params_shadow_fields():
    model = only_class(
        "class L {\n"
        "    int v;\n"
        "    Runnable f() {\n"
        "        return () -> { v = 1; };\n"
        "    }\n"
        "    java.util.function.IntUnaryOperator g() {\n"
        "        return v -> v + 1;\n"
        "    }\n"
        "}\n"
    )
    assert model.methods[0].accessed_field_names == {"v"}
    assert model.methods[1].accessed_field_names == set()


def test_referenced_type_names():
    model = only_class(
        "class R {\n"
        "    Widget w;\n"
        "    Gadget make(Input inp) {\n"
        "        Local l = (Cast) inp;\n"
        "        new Built();\n"
        "        new int[3];\n"
        "        try { run(); } catch (Oops e) {}\n"
        "        return null;\n"
        "    }\n"
        "}\n"
    )
    refs = model.referenced_type_names
    assert {"Widget", "Gadget", "Input", "Built", "Oops"} <= refs
    assert "Local" not in refs
    assert "Cast" not in refs
    assert "int" not in refs


def test_generic_type_gt_splitting():
    model = only_class(
        "class G {\n"
        "    java.util.Map<String, java.util.List<Integer>> table;\n"
        "    void f() {\n"
        "        table = new java.util.HashMap<String, java.util.List<Integer>>();\n"
        "    }\n"
        "}\n"
    )
    assert model.fields[0].name == "table"


def test_shift_assignment_still_parses():
    model = only_class(
        "class S { void f(int x) { x >>= 1; x <<= 2; x >>>= 3; } }\n"
    )
    assert model.methods[0].name == "f"


def test_ncss_counting_rules():
    unit = parse(
        "package p;\n"
        "import java.util.List;\n"
        "class N {\n"
        "    int a, b;\n"
        "    static { a = 1; }\n"
        "    N() { super(); }\n"
        "    void f(int x) {\n"
        "        label:\n"
        "        for (int i = 0; i < x; i++) {\n"
        "            if (x > 0) { x--; } else { x++; }\n"
        "        }\n"
        "        switch (x) { case 1: break; default: x = 0; }\n"
        "        try { g(); } catch (RuntimeException e) { h(); } finally { g(); }\n"
        "        do { x--; } while (x > 0);\n"
        "        ;\n"
        "    }\n"
        "    void g() {}\n"
        "    void h() {}\n"
        "}\n"
    )
    # package 1, import 1, class 1, field group 1, a=1 1, ctor 1, super() 1,
    # f 1, for 1, if 1, else 1, x-- 1, x++ 1, switch 1, case 1, break 1,
    # x=0 1, try 1, catch 1, finally 1, g() h() g() 3, do 1, x-- 1, empty 1,
    # g 1, h 1  (label 0, default 0, static-init header 0)
    assert unit.ncss == 28


def test_annotations_counted_on_class():
    model = only_class(
        "@Deprecated\n"
        "@SuppressWarnings(\"all\")\n"
        "class Marked {}\n"
    )
    assert model.annotation_count == 2


@pytest.mark.parametrize(
    "source",
    [
        "record Point(int x, int y) {}",
        "sealed class S permits A {}",
        "class V { void f() { var x = 1; } }",
        "class V { var x; }",
        "class W { int f(int x) { switch (x) { case 1 -> 2; } return 0; } }",
        'class T { String s = """block"""; }',
        "class B { void f() { ",
        "class",
        "class X { int ; }",
        "class Y { void f() { if } }",
        "class I { int f(Object o) { return o instanceof String * 2; } }",
        "int x = 1;",
    ],
)
def test_rejected_sources(source):
    with pytest.raises(JavaSyntaxError):
        parse(source)


def test_syntax_error_location():
    with pytest.raises(JavaSyntaxError) as info:
        parse("class X {\n  int ;\n}")
    assert info.value.line == 2


def test_class_token_slice_excludes_file_preamble():
    unit = parse(
        "package p;\n"
        "import java.util.List;\n"
        "@Deprecated\n"
        "final class Sliced {}\n"
    )
    first, end = unit.types[0].tokens
    lexemes = unit.tokens.lexemes[first:end]
    assert lexemes[0] == "@"
    assert lexemes[-1] == "}"
    assert "package" not in lexemes
    assert "import" not in lexemes


def test_parse_leaves_the_lexer_columns_as_they_were():
    """The parser pads and splits glued '>'s in copies of the columns, so
    the unit holds them as the lexer made them."""
    source = "class A { Map<K, List<V>> m; List<List<List<T>>> l; int f() { return a >>> 2; } }"
    assert parse(source).tokens == tokenize(source)


def test_a_rejected_parse_leaves_the_lexer_columns_as_they_were():
    source = "class A { List<List<String>> x = (List<List<String>>) y; void f() { int x = ; } }"
    tokens = tokenize(source)
    with pytest.raises(JavaSyntaxError):
        cam.javasrc.parser._Parser(tokens, source).run()
    assert tokens == tokenize(source)


@pytest.mark.parametrize("declared", ["Map<String, String>", "Map<String, List<String>>"])
def test_a_split_glued_gt_is_undone_when_its_trial_parse_backs_out(declared):
    """`_foreach_header` parses the type, finds no ':' and backs out; the
    '>>' it split must be whole again when `_for_init` parses the type, or
    the local `m` is read as the field `m`."""
    model = only_class(f"class A {{ int m; int f() {{ for ({declared} m = null; ;) {{ return m.size(); }} }} }}")
    assert model.methods[0].accessed_field_names == set()


@pytest.mark.parametrize(
    "source, imports, ncss",
    [
        ("import java.util.List;;\nimport java.util.Map;\nclass E {}\n", 2, 3),
        ("package p;;\n;import java.util.List;\nclass E {};\n", 1, 3),
    ],
)
def test_a_stray_semicolon_among_the_imports_counts_no_statement(source, imports, ncss):
    unit = parse(source)
    assert (unit.import_count, unit.ncss) == (imports, ncss)


def test_unit_tokens_are_raw_stream():
    unit = parse("class C {} // tail\n")
    assert unit.tokens.comments == [(11, "// tail")]
    assert unit.tokens.kinds[-1] == "eof"


def test_a_valid_parse_works_out_no_error_position(monkeypatch):
    """A statement that opens with `this` is first tried as a declaration,
    and the error of that trial is dropped. Counting lines up to each such
    error made a parse quadratic in the number of these statements."""
    calls = []
    real = cam.javasrc.lexer.position

    def counting(source, offset):
        calls.append(offset)
        return real(source, offset)

    for module in (cam.javasrc.lexer, cam.javasrc.parser):
        if hasattr(module, "position"):
            monkeypatch.setattr(module, "position", counting)
    body = "    this.x = i;\n    ((x)).hashCode();\n" * 2000
    unit = parse("class A {\n  int x;\n  void f(int i) {\n" + body + "  }\n}\n")
    assert unit.ncss == 3 + 4000  # class, field, method, statements
    assert calls == []


def _parse_calls():
    """Each parse routine's calls, read from the parser's source, as
    {routine: {callee: opened}}, where *opened* tells whether the routine
    opened its level of nesting (`self._enter()`) before that call. A
    routine passed to another, which calls it (`self._parse_expr_group(d,
    self.parse_ternary)`), is reached through a node of its own,
    `passer[passed]`. Where calls to one callee differ, the one that opened
    no level stands."""
    routines = {
        f.name: f for f in ast.parse(inspect.getsource(cam.javasrc.parser._Parser)).body[0].body if isinstance(f, ast.FunctionDef)
    }

    def routine(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
            return node.attr if node.attr in routines else None
        return None

    def enter_line(name):
        lines = [c.lineno for c in ast.walk(routines[name]) if isinstance(c, ast.Call) and routine(c.func) == "_enter"]
        return min(lines, default=None)

    calls = {}
    for name in routines:
        out = calls.setdefault(name, {})
        opened_at = enter_line(name)
        for call in ast.walk(routines[name]):
            callee = routine(call.func) if isinstance(call, ast.Call) else None
            if callee is None:
                continue
            opened = opened_at is not None and call.lineno > opened_at
            passed = [routine(a) for a in call.args + [k.value for k in call.keywords] if routine(a)]
            for target in passed or [callee]:
                node = f"{callee}[{target}]" if passed else callee
                out[node] = out.get(node, True) and opened
                if passed:
                    calls[node] = {target: enter_line(callee) is not None}
    return calls


def test_the_nesting_budget_fits_in_the_default_stack():
    """Every cycle of calls among the parse routines opens a level of
    nesting, so MAX_NESTING bounds the parser's stack, and the deepest stack
    a parse can reach within the budget, counted from `run`, leaves room in
    Python's default 1000 frames for a caller 130 frames deep: cam's worker
    threads call `run` about ten frames deep."""
    calls = _parse_calls()
    callers = {name: set() for name in calls}
    for name, out in calls.items():
        for callee, opened in out.items():
            if not opened:
                callers[callee].add(name)
    # Raises CycleError, naming the cycle, if some cycle opens no level.
    order = list(graphlib.TopologicalSorter(callers).static_order())

    # deepest[levels][routine]: the most frames on a stack whose top is
    # *routine*, with *levels* opened below it.
    budget = cam.javasrc.parser.MAX_NESTING
    deepest = [dict.fromkeys(calls, 0) for _ in range(budget + 1)]
    deepest[0]["run"] = 1
    for levels in range(budget + 1):
        for name in order:
            frames = deepest[levels][name]
            if not frames:
                continue
            for callee, opened in calls[name].items():
                if not opened:
                    deepest[levels][callee] = max(deepest[levels][callee], frames + 1)
                elif levels < budget:
                    deepest[levels + 1][callee] = max(deepest[levels + 1][callee], frames + 1)
    frames = max(max(row.values()) for row in deepest)
    # Parentheses alone take three frames a level: a smaller figure would
    # mean the call graph was misread.
    assert 3 * budget <= frames <= 1000 - 130, frames


def test_a_type_trial_that_backs_out_gives_its_levels_back():
    """Each '(a < b)' is tried as a cast, whose type opens a level in its
    type arguments before the trial fails; 300 of them in a row still parse."""
    source = "class A { boolean f(int a, int b) { return " + " && ".join(["(a < b)"] * 300) + "; } }"
    assert only_class(source).methods[0].decisions == 299
