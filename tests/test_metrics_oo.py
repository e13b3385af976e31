import math
import random

import pytest

from cam.javasrc.parser import parse
from cam.metrics.oo import (
    AccessMatrix,
    ClassGraph,
    ParamTypeMatrix,
    access_matrix,
    class_stub,
    lcom1,
    lcom5,
    nhd,
    param_type_matrix,
    rfc,
    tcc,
    wmc,
)


def model_of(source, index=0):
    return parse(source).types[index]


def graph_of(*files):
    return ClassGraph([(path, [class_stub(model) for model in parse(src).types]) for path, src in files])


def random_access_matrix(rng):
    a = rng.randrange(0, 5)
    m = rng.randrange(0, 6)
    fields = [f"f{i}" for i in range(a)]
    rows = [set(rng.sample(fields, rng.randrange(0, a + 1))) if a else set() for _ in range(m)]
    visible = [i for i in range(m) if rng.random() < 0.6]
    return AccessMatrix(field_names=fields, rows=rows, visible_rows=visible)


def random_param_matrix(rng):
    universe = ["int", "String", "boolean", "long", "double"]
    k = rng.randrange(0, 6)
    rows = []
    seen = []
    for _ in range(k):
        used = set(rng.sample(universe, rng.randrange(0, 4)))
        rows.append(used)
        for name in universe:
            if name in used and name not in seen:
                seen.append(name)
    return ParamTypeMatrix(type_names=seen, rows=rows)


def brute_lcom5(matrix):
    m = len(matrix.rows)
    a = len(matrix.field_names)
    if m <= 1 or a == 0:
        return math.nan
    total = 0
    for name in matrix.field_names:
        for row in matrix.rows:
            if name in row:
                total += 1
    return (m - total / a) / (m - 1)


def brute_tcc(matrix):
    idx = matrix.visible_rows
    if len(idx) <= 1:
        return math.nan
    pairs = 0
    linked = 0
    for p in range(len(idx)):
        for q in range(p + 1, len(idx)):
            pairs += 1
            if matrix.rows[idx[p]] & matrix.rows[idx[q]]:
                linked += 1
    return linked / pairs


def brute_lcom1(matrix):
    m = len(matrix.rows)
    if m < 2:
        return 0
    apart = sum(
        1
        for p in range(m)
        for q in range(p + 1, m)
        if not (matrix.rows[p] & matrix.rows[q])
    )
    together = m * (m - 1) // 2 - apart
    return max(apart - together, 0)


def brute_nhd(matrix):
    """Average pairwise column agreement, an equivalent reformulation."""
    k = len(matrix.rows)
    l = len(matrix.type_names)
    if k <= 1 or l == 0:
        return math.nan
    agree = 0
    for p in range(k):
        for q in range(p + 1, k):
            for name in matrix.type_names:
                if (name in matrix.rows[p]) == (name in matrix.rows[q]):
                    agree += 1
    return agree / (l * k * (k - 1) / 2)


def same(x, y, tol=1e-12):
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= tol


def test_cohesion_against_brute_force():
    rng = random.Random(1203)
    for _ in range(500):
        am = random_access_matrix(rng)
        assert same(lcom5(am), brute_lcom5(am))
        assert same(tcc(am), brute_tcc(am))
        assert lcom1(am) == brute_lcom1(am)
        pm = random_param_matrix(rng)
        assert same(nhd(pm), brute_nhd(pm))


@pytest.mark.parametrize("m", [60, 63, 64, 65, 127, 128, 129, 200])
def test_cohesion_of_wide_classes_against_brute_force(m):
    """Rows past one machine word, so the row bitmasks of tcc and lcom1
    span several."""
    rng = random.Random(m)
    for _ in range(3):
        fields = [f"f{i}" for i in range(rng.randrange(1, 41))]
        rows = [set(rng.sample(fields, rng.randrange(0, min(len(fields), 3) + 1))) for _ in range(m)]
        visible = [i for i in range(m) if rng.random() < 0.6]
        am = AccessMatrix(field_names=fields, rows=rows, visible_rows=visible)
        assert same(tcc(am), brute_tcc(am))
        assert lcom1(am) == brute_lcom1(am)
        rows = [set(rng.sample(fields, rng.randrange(0, min(len(fields), 4) + 1))) for _ in range(m)]
        pm = ParamTypeMatrix(type_names=[name for name in fields if any(name in row for row in rows)], rows=rows)
        assert same(nhd(pm), brute_nhd(pm))


def test_lcom5_edges():
    assert math.isnan(lcom5(AccessMatrix(["f"], [{"f"}], [0])))
    assert math.isnan(lcom5(AccessMatrix([], [set(), set()], [])))
    perfect = AccessMatrix(["f"], [{"f"}, {"f"}], [])
    assert lcom5(perfect) == 0.0
    disjoint = AccessMatrix(["f", "g"], [set(), set()], [])
    assert lcom5(disjoint) == 2.0


def test_tcc_edges():
    single = AccessMatrix(["f"], [{"f"}], [0])
    assert math.isnan(tcc(single))
    both = AccessMatrix(["f"], [{"f"}, {"f"}], [0, 1])
    assert tcc(both) == 1.0


def test_lcom1_never_negative():
    cohesive = AccessMatrix(["f"], [{"f"}, {"f"}, {"f"}], [])
    assert lcom1(cohesive) == 0


def test_access_matrix_membership():
    model = model_of(
        "class A {\n"
        "    int x;\n"
        "    static int s;\n"
        "    A() { x = 1; }\n"
        "    public void f() { x = 2; s = 3; }\n"
        "    static void g() { s = 4; }\n"
        "    public abstract void h();\n"
        "    private void p() { x = 5; }\n"
        "}\n"
    )
    am = access_matrix(model)
    assert am.field_names == ["x"]
    # rows: f, h, p (ctor and static g excluded)
    assert am.rows == [{"x"}, set(), {"x"}]
    # only public methods with a body are visible
    assert am.visible_rows == [0]


def test_param_matrix_membership_and_order():
    model = model_of(
        "class A {\n"
        "    A(long seed) {}\n"
        "    void f(String s, int i) {}\n"
        "    static void g(int i, boolean b) {}\n"
        "}\n"
    )
    pm = param_type_matrix(model)
    assert pm.type_names == ["String", "int", "boolean"]
    assert pm.rows == [{"String", "int"}, {"int", "boolean"}]


def test_param_types_are_erased():
    model = model_of("class A { void f(java.util.List<String> xs, int[] v) {} }")
    pm = param_type_matrix(model)
    assert pm.type_names == ["java.util.List", "int[]"]


def test_wmc_sums_own_methods_only():
    model = model_of(
        "class A {\n"
        "    void f(int x) { if (x > 0) {} }\n"
        "    class In { void g(int y) { if (y > 0) {} if (y > 1) {} } }\n"
        "}\n"
    )
    assert wmc(model) == 2


def test_rfc_counts_external_invocations_once():
    model = model_of(
        "class A {\n"
        "    void f() { g(); ext(); ext(); other(); }\n"
        "    void g() { ext(); }\n"
        "}\n"
    )
    assert rfc(model) == 4


def test_graph_chain_depths_and_children():
    g = graph_of(
        ("a/A.java", "class A {}"),
        ("b/B.java", "class B extends A {}"),
        ("c/C.java", "class C extends B {}"),
    )
    assert g.dit(("a/A.java", "A")) == 0
    assert g.dit(("b/B.java", "B")) == 1
    assert g.dit(("c/C.java", "C")) == 2
    assert g.noc(("a/A.java", "A")) == 1
    assert g.noc(("b/B.java", "B")) == 1
    assert g.cycle_members() == []


def test_graph_cycle_and_entry():
    g = graph_of(
        ("A.java", "class A extends B {}"),
        ("B.java", "class B extends A {}"),
        ("C.java", "class C extends A {}"),
    )
    assert g.dit(("A.java", "A")) == 1
    assert g.dit(("B.java", "B")) == 1
    assert g.dit(("C.java", "C")) == 2
    assert g.cycle_members() == [("A.java", "A"), ("B.java", "B")]


def test_graph_unresolvable_parent_counts_one_level():
    g = graph_of(("A.java", "class A extends Vendor {}"))
    assert g.dit(("A.java", "A")) == 1
    assert g.noc(("A.java", "A")) == 0


def test_graph_object_parent_is_root():
    g = graph_of(("A.java", "class A extends Object {}"))
    assert g.dit(("A.java", "A")) == 0


def test_graph_implements_feeds_cbo_not_noc():
    g = graph_of(
        ("I.java", "interface I {}"),
        ("A.java", "class A implements I {}"),
    )
    assert g.noc(("I.java", "I")) == 0
    assert g.cbo(("I.java", "I")) == 1
    assert g.cbo(("A.java", "A")) == 1
    assert g.dit(("A.java", "A")) == 0


def test_graph_cbo_counts_both_directions_once():
    g = graph_of(
        ("A.java", "class A { B b; void f() { new B(); } }"),
        ("B.java", "class B { A a; }"),
    )
    assert g.cbo(("A.java", "A")) == 1
    assert g.cbo(("B.java", "B")) == 1


def test_graph_ambiguous_names_stay_unresolved():
    g = graph_of(
        ("one/Dup.java", "class Dup {}"),
        ("two/Dup.java", "class Dup {}"),
        ("User.java", "class User { Dup d; }"),
    )
    assert g.cbo(("User.java", "User")) == 0
    assert g.cbo(("one/Dup.java", "Dup")) == 0


def test_graph_nested_names_resolve_to_enclosing_class():
    g = graph_of(
        ("Outer.java", "class Outer { static class Helper {} }"),
        ("User.java", "class User { Helper h; }"),
    )
    assert g.cbo(("User.java", "User")) == 1
    assert g.cbo(("Outer.java", "Outer")) == 1


def test_graph_dotted_names_unresolved():
    g = graph_of(
        ("A.java", "class A {}"),
        ("User.java", "class User { com.example.A ref; }"),
    )
    assert g.cbo(("User.java", "User")) == 0


def test_graph_nested_supertypes_count_for_outer():
    g = graph_of(
        ("Base.java", "class Base {}"),
        ("Out.java", "class Out { class In extends Base {} }"),
    )
    assert g.cbo(("Out.java", "Out")) == 1
    assert g.cbo(("Base.java", "Base")) == 1
    # only Out's own extends drives its depth
    assert g.dit(("Out.java", "Out")) == 0
