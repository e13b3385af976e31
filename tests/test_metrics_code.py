import math
import random

import pytest

from cam.filters import evaluate_file
from cam.javasrc.lexer import KEYWORDS, tokenize
from cam.javasrc.parser import parse
from cam.metrics.code import (
    class_cognitive,
    class_cyclomatic,
    halstead,
    line_metrics,
    maintainability_index,
    member_counts,
    method_cyclomatic,
)
from oracle import file_rows

EXCLUDED_KEYWORDS = {"class", "interface", "enum", "package", "import"}
COUNTED_SEPARATORS = set("(){}[];,.")


def lm(source):
    return line_metrics(source, tokenize(source).comments)


def halstead_of(text):
    """halstead over every token of *text* but the eof entry, and those
    tokens as (kind, lexeme) pairs."""
    tokens = tokenize(text)
    end = len(tokens.kinds) - 1
    return halstead(tokens, (0, end)), list(zip(tokens.kinds, tokens.lexemes))[:end]


def test_line_metrics_basics():
    assert lm("") == {"loc": 0, "kloc": 0.0, "blanks": 0, "comments": 0}
    src = "class A {\n\n    // note\n}\n"
    m = lm(src)
    assert (m["loc"], m["blanks"], m["comments"]) == (4, 1, 1)


def test_trailing_newline_not_counted_as_line():
    assert lm("class A {}\n")["loc"] == 1
    assert lm("class A {}")["loc"] == 1
    assert lm("class A {}\n\n")["loc"] == 2
    assert lm("class A {}\n\n")["blanks"] == 1


def test_block_comment_spans_physical_lines():
    src = "/* a\n   b\n   c */\nclass A {}\n"
    m = lm(src)
    assert m["comments"] == 3
    assert m["loc"] == 4


def test_comment_line_shared_with_code_counts_once():
    src = "class A {} // tail\n/* x */ class B {}\n"
    assert lm(src)["comments"] == 2


def test_whitespace_only_lines_are_blank():
    assert lm("class A {}\n \t\n}\n".replace("}", ""))["blanks"] >= 1
    assert lm("   \n\t\nclass A {}\n")["blanks"] == 2


def test_halstead_classification_rules():
    h, _toks = halstead_of("package p; import q.R; class C { int x = f(y) + 2; } @ :: ...")
    # package/import/class excluded; '@', '::' and '...' separators ignored
    operators = {"int", "=", "+", ";", "{", "}", "(", ")", "."}
    operands = {"p", "q", "R", "C", "x", "f", "y", "2"}
    assert h["halstead_n1"] == len(operators)
    assert h["halstead_n2"] == len(operands)


def test_halstead_totals_versus_independent_classifier():
    src = (
        "class H {\n"
        "    int f(int a, int[] b) {\n"
        "        return a > 0 ? b[0] : -a;\n"
        "    }\n"
        "}\n"
    )
    h, toks = halstead_of(src)
    op_total = 0
    operand_total = 0
    for kind, lexeme in toks:
        if kind == "identifier" or kind.startswith("literal-"):
            operand_total += 1
        elif kind == "keyword":
            if lexeme not in EXCLUDED_KEYWORDS:
                op_total += 1
        elif kind == "operator":
            op_total += 1
        elif kind == "separator" and lexeme in COUNTED_SEPARATORS:
            op_total += 1
    assert h["halstead_N1"] == op_total
    assert h["halstead_N2"] == operand_total


def test_halstead_counts_glued_generic_closers_as_written():
    """The parser splits '>>' and '>>>' to close type arguments; halstead
    reads the class's range of the same columns and must still see the
    lexemes as the lexer wrote them."""
    unit = parse(
        "class G {\n"
        "    Map<String, List<String>> m;\n"
        "    List<List<List<String>>> l;\n"
        "    int f(int a) { return a >> 1; }\n"
        "}\n"
    )
    first, end = unit.types[0].tokens
    h = halstead(unit.tokens, (first, end))
    operators = {"{": 2, "}": 2, "<": 5, ",": 1, ">>": 2, ">>>": 1, ";": 3, "int": 2, "(": 1, ")": 1, "return": 1}
    written = unit.tokens.lexemes[first:end]
    assert {lexeme: written.count(lexeme) for lexeme in operators} == operators
    assert ">" not in written
    assert (h["halstead_n1"], h["halstead_N1"]) == (11, 21) == (len(operators), sum(operators.values()))


def counts(h):
    return h["halstead_n1"], h["halstead_n2"], h["halstead_N1"], h["halstead_N2"]


def test_halstead_derived_quantities():
    h, _toks = halstead_of("a + b ; a + b ; a + b ; ( ) ( )")
    assert counts(h) == (4, 2, 10, 6)
    assert h["halstead_volume"] == pytest.approx(16 * math.log2(6))
    assert h["halstead_difficulty"] == pytest.approx((4 / 2) * (6 / 2))
    assert h["halstead_effort"] == pytest.approx(h["halstead_volume"] * h["halstead_difficulty"])


def test_halstead_nan_edges():
    empty, _toks = halstead_of("")
    assert counts(empty) == (0, 0, 0, 0)
    assert math.isnan(empty["halstead_volume"])
    assert math.isnan(empty["halstead_difficulty"])
    assert math.isnan(empty["halstead_effort"])
    no_operands, _toks = halstead_of("+ ; + ; +")
    assert counts(no_operands) == (2, 0, 5, 0)
    assert math.isnan(no_operands["halstead_difficulty"])
    assert not math.isnan(no_operands["halstead_volume"])


def test_maintainability_index():
    v = 100.0
    got = maintainability_index(v, 3, 40)
    want = 171.0 - 5.2 * math.log(v) - 0.23 * 3 - 16.2 * math.log(40)
    assert got == pytest.approx(want)
    assert maintainability_index(1e9, 50, 100000) == 0.0
    assert math.isnan(maintainability_index(float("nan"), 1, 10))
    assert math.isnan(maintainability_index(0.0, 1, 10))
    assert math.isnan(maintainability_index(10.0, 1, 0))


def first_method(source):
    return parse(source).types[0].methods[0]


def test_method_cyclomatic_counts_every_decision():
    m = first_method(
        "class C { int f(int x) {\n"
        "    if (x > 0 || x < -5) { for (int i = 0; i < x; i++) { x += i; } }\n"
        "    switch (x) { case 1: return 1; case 2: return 2; default: return x > 0 ? 0 : 1; }\n"
        "} }"
    )
    # 1 + if + or + for + case + case + ternary
    assert method_cyclomatic(m) == 7


def test_bodiless_method_cyclomatic_is_one():
    m = first_method("abstract class C { abstract void f(); }")
    assert method_cyclomatic(m) == 1


def test_class_cyclomatic_folds_nested_and_anonymous():
    model = parse(
        "class C {\n"
        "    void a(int x) { if (x > 0) {} }\n"
        "    class In { void b(int y) { while (y > 0) { y--; } } }\n"
        "    Runnable c() { return new Runnable() { public void run() { if (f()) {} } }; }\n"
        "}\n"
    ).types[0]
    # a: 2, b: 2, run: 2, c: 1
    assert class_cyclomatic(model) == 7


COGNITIVE_TABLE = [
    ("void f(int x) { if (x > 0) { x--; } }", 1),
    ("void f(int x) { if (x > 0) { if (x > 1) { x--; } } }", 3),
    ("void f(int x) { if (x > 0) {} else if (x > 1) {} else {} }", 3),
    ("void f(int x) { if (x > 0) {} else { if (x > 1) {} } }", 4),
    ("void f(boolean a, boolean b, boolean c) { if (a && b && c) {} }", 1),
    ("void f(boolean a, boolean b, boolean c) { if (a && b || c) {} }", 2),
    ("void f(boolean a, boolean b, boolean c, boolean d) { if (a && b || c && d) {} }", 3),
    ("void f(int x) { while (x > 0) { for (int i = 0; i < x; i++) { x--; } } }", 3),
    ("void f(int x) { switch (x) { case 1: break; default: break; } }", 1),
    ("void f(int x) { try { g(); } catch (RuntimeException e) { h(); } finally { g(); } }", 1),
    ("void f(int x) { int y = x > 0 ? 1 : 2; }", 1),
    ("void f(int x) { out: while (x > 0) { if (x == 2) { break out; } x--; } }", 4),
    ("void f(int x) { do { x--; } while (x > 0); }", 1),
    ("Runnable f(int x) { return () -> { if (x > 0) { g(); } }; }", 2),
    ("void f(int[] xs) { for (int x : xs) { if (x > 0) { g(); } } }", 3),
    # A field initializer of an anonymous class passed inside f opens no
    # expression group of its own, so its ternary, its '&&'/'||' change and
    # its lambda body score in f; the lambda body sits one level under the
    # return statement's group, so its if scores 2 and the while 3.
    ("Object f(boolean a, boolean b, boolean c) { return g(new Object() { int v = a && b || c ? 1 : 2; }); }", 2),
    ("Object f(int x) { return g(new Object() { Runnable r = () -> { if (x > 0) { while (x > 1) { x--; } } }; }); }", 5),
    # An initializer block, an annotation element's default value and a
    # field initializer with no expression group open around it belong to
    # no method, so nothing gets their scores.
    ("Object f(int x) { return g(new Object() { { if (x > 0) { x--; } int y = x > 0 ? 1 : 0; } }); }", 0),
    ("Runnable r = () -> { if (h()) { g(); } }; void f() { g(); }", 0),
    ("@interface A { int v() default B ? 1 : 2; } void f() { g(); }", 0),
    ("void f(int x) { class L { int q = x > 0 ? 1 : 2; Runnable r = () -> { if (x > 0) {} }; } }", 0),
    # A local class's method starts one level under the declaring statement.
    ("void f(int x) { class L { void m(int y) { if (y > 0) {} } } }", 2),
]


@pytest.mark.parametrize("snippet,score", COGNITIVE_TABLE)
def test_method_cognitive(snippet, score):
    """*score* is the class's sum over f, g, h and the methods of the
    classes f declares; g and h score nothing."""
    model = parse("class C { " + snippet + " void g() {} boolean h() { return true; } }").types[0]
    assert class_cognitive(model) == score


def test_long_else_if_chain_is_kept_and_scored():
    arms = "".join(f"    else if (x == {i}) {{ y = {i}; }}\n" for i in range(1, 1000))
    source = "class Chain {\n  int y;\n  void f(int x) {\n    if (x == 0) { y = 0; }\n" + arms + "    else { y = -1; }\n  }\n}\n"
    reason, measured = evaluate_file("src/Chain.java", source.encode())
    assert reason is None
    row = file_rows(measured)[0]
    # 1000 if decisions plus the method's base path
    assert row["cyclomatic"] == 1001
    # the head if at depth 0 scores 1, each of the 999 chained arms 1, the final else 1
    assert row["cognitive"] == 1001


def test_long_conditional_chain_is_kept_and_scored():
    arms = "".join(f"        x == {i} ? {i} :\n" for i in range(5000))
    source = "class Table {\n  int f(int x) {\n    return\n" + arms + "        -1;\n  }\n}\n"
    reason, measured = evaluate_file("src/Table.java", source.encode())
    assert reason is None
    row = file_rows(measured)[0]
    # 5000 ternary decisions plus the method's base path
    assert row["cyclomatic"] == 5001
    # each ternary scores 1 whatever its nesting; '==' adds no operator run
    assert row["cognitive"] == 5000


def test_cognitive_anonymous_body_adds_nesting_level():
    model = parse(
        "class C {\n"
        "    Runnable f(int x) {\n"
        "        return new Runnable() {\n"
        "            public void run() { if (x > 0) {} }\n"
        "        };\n"
        "    }\n"
        "}\n"
    ).types[0]
    # run's if scores 1 + 1 inherited level from the anonymous body
    assert class_cognitive(model) == 2


def test_cognitive_member_class_restarts_depth():
    model = parse(
        "class C {\n"
        "    class In { void g(int y) { if (y > 0) {} } }\n"
        "}\n"
    ).types[0]
    assert class_cognitive(model) == 1


def test_member_counts():
    model = parse(
        "class M {\n"
        "    int a;\n"
        "    static int b;\n"
        "    M() {}\n"
        "    M(int x) {}\n"
        "    void f() {}\n"
        "    static void g() {}\n"
        "}\n"
    ).types[0]
    c = member_counts(model)
    assert c["attributes"] == 1
    assert c["static_attributes"] == 1
    assert c["constructors"] == 2
    assert c["methods"] == 2
    assert c["static_methods"] == 1


def test_random_slices_satisfy_halstead_identity():
    rng = random.Random(20260822)
    pool = sorted(KEYWORDS) + ["ident", "x9", "$d"]
    symbols = ["{", "}", "(", ")", ";", ",", ".", "@", "::", "...", "+", "->", ">>", "?", ":"]
    literals = ['"s"', "'c'", "12", "3.5", "0x1F"]
    for _ in range(100):
        parts = []
        for _ in range(rng.randrange(0, 60)):
            bucket = rng.randrange(3)
            if bucket == 0:
                parts.append(rng.choice(pool))
            elif bucket == 1:
                parts.append(rng.choice(symbols))
            else:
                parts.append(rng.choice(literals))
        text = " ".join(parts)
        h, toks = halstead_of(text)
        n1, n2, big_n1, big_n2 = counts(h)
        assert n1 <= big_n1 and n2 <= big_n2
        countable = 0
        for kind, lexeme in toks:
            if kind == "identifier" or kind.startswith("literal-"):
                countable += 1
            elif kind == "keyword" and lexeme not in EXCLUDED_KEYWORDS:
                countable += 1
            elif kind == "operator":
                countable += 1
            elif kind == "separator" and lexeme in COUNTED_SEPARATORS:
                countable += 1
        assert big_n1 + big_n2 == countable
        vocab = n1 + n2
        if vocab:
            assert h["halstead_volume"] == pytest.approx((big_n1 + big_n2) * math.log2(vocab))
        else:
            assert math.isnan(h["halstead_volume"])
