"""No file costs more than linear time.

Each shape is one generated file whose size grows with *n*. The test runs
`evaluate_file` on it at *n* and at 2n, takes the best of a few runs of
each, and asserts that doubling the input less than triples the time: a
linear path reads about 2x, a quadratic one about 4x. Each *n* is picked
so that the smaller input takes about 0.1 s on a 2-vCPU host, large
enough that timer noise and the fixed cost of a call do not decide the
ratio, and small enough that the whole test stays within half a minute.
"""

from __future__ import annotations

import time

import pytest

from cam.filters import evaluate_file

RUNS = 5
MAX_RATIO = 3.0


def _classes(n: int) -> str:
    return "".join(f"class C{i} {{ int x; }}\n" for i in range(n))


def _getters(n: int) -> str:
    members = "".join(f"  private int f{i};\n  public int getF{i}() {{ return f{i}; }}\n" for i in range(n))
    return f"class G {{\n{members}}}\n"


def _two_parameter_methods(n: int) -> str:
    members = "".join(f"  public void m{i}(int a, String b) {{ }}\n" for i in range(n))
    return f"class M {{\n{members}}}\n"


def _fields(n: int) -> str:
    return "class F {\n" + "".join(f"  int f{i} = {i};\n" for i in range(n)) + "}\n"


def _statements(n: int) -> str:
    body = "".join(f"    x = x + {i};\n" for i in range(n))
    return f"class S {{\n  int f(int x) {{\n{body}    return x;\n  }}\n}}\n"


def _comments(n: int) -> str:
    return "class K {\n" + "".join(f"  // line {i}\n  /* block {i}\n */\n" for i in range(n)) + "}\n"


def _lambdas(n: int) -> str:
    body = "".join(f"    Runnable r{i} = () -> System.out.println({i});\n" for i in range(n))
    return f"class L {{\n  void f() {{\n{body}  }}\n}}\n"


def _else_if_chain(n: int) -> str:
    arms = "\n    else ".join(f"if (x == {i}) {{ return {i}; }}" for i in range(n))
    return f"class E {{\n  int f(int x) {{\n    {arms}\n    return -1;\n  }}\n}}\n"


def _member_classes(n: int) -> str:
    return "class O {\n" + "".join(f"  static class N{i} {{ int x; }}\n" for i in range(n)) + "}\n"


def _comparisons(n: int) -> str:
    """A list of comparisons, each of whose '<' might open type arguments."""
    items = "".join(f"\n    a{i} < b{i}," for i in range(n))
    return f"class C {{\n  boolean[] z = {{{items}\n  }};\n}}\n"


# Each shape and its smaller size.
SHAPES = [
    (_classes, 4_000),
    (_getters, 3_000),
    (_two_parameter_methods, 3_000),
    (_fields, 10_000),
    (_statements, 12_000),
    (_comments, 22_000),
    (_lambdas, 5_000),
    (_else_if_chain, 7_000),
    (_member_classes, 5_000),
    (_comparisons, 15_000),
]


@pytest.mark.parametrize("make, n", SHAPES, ids=[make.__name__.lstrip("_") for make, _n in SHAPES])
def test_doubling_the_input_less_than_triples_the_time(make, n):
    inputs = [make(n).encode("utf-8"), make(2 * n).encode("utf-8")]
    best = [float("inf")] * 2
    # The two sizes take turns, so a slow spell of a shared host slows both.
    for _ in range(RUNS):
        for k, data in enumerate(inputs):
            start = time.process_time()
            reason, _measured = evaluate_file("src/Gen.java", data)
            best[k] = min(best[k], time.process_time() - start)
            assert reason is None
    small, large = best
    assert large < MAX_RATIO * small, f"{n} -> {2 * n}: {small:.3f} s -> {large:.3f} s, x{large / small:.2f}"
