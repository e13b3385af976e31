"""Property tests over arbitrary soup of Java tokens and line ends, and
over random method bodies with a known cognitive score."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cam.dataset import REASONS
from cam.filters import evaluate_file
from cam.javasrc.lexer import LexError, tokenize
from cam.javasrc.parser import parse
from test_lexer import assert_lossless

FRAGMENTS = [
    "class", "interface", "enum", "A", "x", "int", "void", "return", "new",
    "if", "else", "for", "while", "switch", "case", "default", "try", "catch",
    "instanceof", "this", "super", "import", "org.junit.Test", "@Override",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "::", "...", "->", "?", ":",
    "=", "+=", ">>>=", "==", "<", ">", ">>", "&&", "||", "&", "|", "!", "~",
    "+", "-", "++", "*", "/", "%", "0", "1L", "0x1F", "2.5e3", "\"s\"", "'c'",
    "\"", "'", "\\", "//", "/*", "*/", "#",
    " ", "\t", "\n", "\r", "\r\n",
]

soup = st.lists(st.sampled_from(FRAGMENTS), max_size=80).map("".join)
class_soup = soup.map(lambda body: "class A {\n" + body + "\n}\n")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(soup, class_soup))
def test_evaluate_file_always_returns_a_verdict(text):
    reason, measured = evaluate_file("src/A.java", text.encode("utf-8"))
    assert reason in REASONS or reason is None
    assert (measured is None) == (reason is not None)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(soup, st.text()))
def test_tokenize_is_lossless_or_raises_lex_error(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    assert_lossless(text)
    # One kind per lexeme, so structural_counts may count '->' operators and
    # 'try', 'catch' and 'return' keywords by their lexemes alone.
    assert len(set(zip(tokens.lexemes, tokens.kinds))) == len(set(tokens.lexemes))


class _ScoredBody:
    """Writes random method bodies and adds up, as it writes them, the
    cognitive score the parser must give the method that holds them."""

    def __init__(self, rng):
        self.rng = rng
        self.score = 0
        self.ops: list[str] = []  # logical operators of the open group
        self.budget = 40

    def group(self, write):
        """Text of one expression group, scoring its '&&'/'||' changes."""
        outer, self.ops = self.ops, []
        text = write()
        self.score += sum(a != b for a, b in zip(self.ops, self.ops[1:]))
        self.ops = outer
        return text

    def cond(self):
        text = self.rng.choice(["a", "x > 0", "f(y)"])
        for _ in range(self.rng.randrange(4)):
            op = self.rng.choice(["&&", "||"])
            self.ops.append(op)
            text += f" {op} {self.rng.choice(['b', 'x < 9', '!c'])}"
        return text

    def expr(self, depth):
        """An expression in the open group, where a lambda body sits at *depth* + 1."""
        rng = self.rng
        self.budget -= 1
        pick = rng.randrange(6) if self.budget > 0 else 0
        if pick == 0:
            return self.cond()
        if pick == 1:
            self.score += 1
            return f"({self.cond()} ? {self.expr(depth)} : {self.expr(depth)})"
        if pick == 2:
            return f"(Runnable) () -> {{ {self.stmts(depth + 1)} }}"
        if pick == 3:
            return f"(Supplier<Object>) () -> {self.group(lambda: self.expr(depth + 1))}"
        if pick == 4:
            # an anonymous class's method scores for itself, not here
            inner = _ScoredBody(rng)
            inner.budget = min(self.budget, 8)
            return f"new Object() {{ void m() {{ {inner.stmts(depth + 1)} }} }}"
        return f"g({self.expr(depth)}, {self.expr(depth)})"

    def stmts(self, d):
        return " ".join(self.stmt(d) for _ in range(self.rng.randrange(3)))

    def stmt(self, d):
        rng = self.rng
        self.budget -= 1
        pick = rng.randrange(9) if self.budget > 0 else 0
        head = self.group  # each header expression is a group of its own
        if pick == 0:
            return f"x = {head(lambda: self.expr(d))};"
        if pick == 1:
            self.score += 1 + d
            text = f"if ({head(self.cond)}) {{ {self.stmts(d + 1)} }}"
            for _ in range(rng.randrange(3)):
                self.score += 1
                text += f" else if ({head(lambda: self.expr(d))}) {{ {self.stmts(d + 1)} }}"
            if rng.randrange(2):
                self.score += 1
                text += f" else {{ {self.stmts(d + 1)} }}"
            return text
        if pick == 2:
            self.score += 1 + d
            loop = rng.choice(
                [
                    lambda: f"while ({head(self.cond)}) {{ {self.stmts(d + 1)} }}",
                    lambda: f"for (int i = 0; {head(self.cond)}; i++) {{ {self.stmts(d + 1)} }}",
                    lambda: f"for (Object o : {head(lambda: self.expr(d))}) {{ {self.stmts(d + 1)} }}",
                    lambda: f"do {{ {self.stmts(d + 1)} }} while ({head(self.cond)});",
                ]
            )
            return loop()
        if pick == 3:
            self.score += 1 + d
            cases = " ".join(f"case {k}: {self.stmts(d + 1)} break;" for k in range(rng.randrange(1, 3)))
            return f"switch ({head(lambda: self.expr(d))}) {{ {cases} default: {self.stmts(d + 1)} }}"
        if pick == 4:
            catches = rng.randrange(3)
            self.score += catches * (1 + d)
            text = f"try {{ {self.stmts(d)} }}"
            text += "".join(f" catch (E{k} e) {{ {self.stmts(d + 1)} }}" for k in range(catches))
            return text + f" finally {{ {self.stmts(d)} }}"
        if pick == 5:
            self.score += 1 + d + 1  # the loop, and the labelled jump
            jump = rng.choice(["break", "continue"])
            return f"out: while ({head(self.cond)}) {{ {self.stmts(d + 1)} {jump} out; }}"
        if pick == 6:
            return f"synchronized (this) {{ {self.stmts(d)} }} {{ {self.stmts(d)} }}"
        if pick == 7:
            return f"Object v = {head(lambda: self.expr(d))}, w = {head(lambda: self.expr(d))};"
        return f"return {head(lambda: self.expr(d))};"


def test_cognitive_score_matches_the_rules_on_random_bodies():
    rng = random.Random(20261018)
    for _ in range(300):
        writer = _ScoredBody(rng)
        body = writer.stmts(0)
        method = parse("class C { void f() { " + body + " } }").types[0].methods[0]
        assert method.cognitive == writer.score, body
