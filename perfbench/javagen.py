"""Seeded Java 8 class generator for the benchmark corpora.

Every class it emits is valid Java 8 that the filter keeps: no long lines,
no test-like names or imports, and nesting kept shallow (deeply nested
expressions and `else if` chains currently overflow the parser's recursion
and are left out on purpose). Methods mix `if`/`else`, loops, `try`,
lambdas, `switch`, anonymous classes and generics so lexing, parsing and
every metric family see realistic work.

The same (seed, revision) always gives the same text. A new revision
changes a few lines and every fourth one adds a method, which is how the
history workload edits files.
"""

from __future__ import annotations

import random

_WORDS = (
    "alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "lambda",
    "node", "edge", "queue", "cache", "token", "frame", "block", "batch",
)

_HEADER = """package {package};

import java.util.ArrayList;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * {name} holds generated logic for the benchmark corpus.
 * Revision {rev}.
 */
public class {name}{extends} {{
    private static final int REVISION = {rev};
    private int count;
    private String label;
    private final List<String> items = new ArrayList<>();
    private final Map<String, Integer> index = new HashMap<>();

    public {name}(String label) {{
        this.label = label;
        this.count = REVISION;
    }}
"""

_METHODS = {
    "branch": """
    /** Branches on the sign and size of a value. */
    public int {m}(int value) {{
        int result = value * {a};
        if (value > {b}) {{
            result -= {b};
            count++;
        }} else if (value < -{b}) {{
            result += label.length();
        }} else {{
            result = result % {c};
        }}
        return result;
    }}
""",
    "loop": """
    protected long {m}(int limit) {{
        long total = {a}L;
        for (int i = 0; i < limit; i++) {{
            if (i % {b} == 0) {{
                total += i * {a};
            }} else {{
                total -= count;
            }}
        }}
        return total;
    }}
""",
    "each": """
    public int {m}(List<String> values) {{
        int hits = 0;
        for (String value : values) {{
            if (value == null || value.isEmpty()) {{
                continue;
            }}
            if (value.length() > {a}) {{
                break;
            }}
            items.add(value.trim());
            hits += value.length();
        }}
        return hits;
    }}
""",
    "guard": """
    private int {m}(String text) {{
        int parsed = -1;
        try {{
            parsed = Integer.parseInt(text.trim()) + {a};
            index.put(text, parsed);
        }} catch (NumberFormatException e) {{
            parsed = {b};
        }} catch (IllegalStateException | NullPointerException e) {{
            parsed = 0;
        }} finally {{
            count += 1;
        }}
        return parsed;
    }}
""",
    "lambda": """
    public List<Integer> {m}(List<String> values) {{
        Function<String, Integer> measure = s -> s.length() * {a} + count;
        List<Integer> out = new ArrayList<>();
        values.forEach(v -> {{
            if (v.startsWith("{w}")) {{
                out.add(measure.apply(v));
            }}
        }});
        out.sort((x, y) -> Integer.compare(y, x));
        return out;
    }}
""",
    "select": """
    String {m}(int code) {{
        switch (code % {a}) {{
            case 0:
                return label;
            case 1:
                label = label + "{w}";
                break;
            default:
                count = code;
        }}
        return label == null ? "{w}" : label.toUpperCase();
    }}
""",
    "steps": """
    public static int {m}(int seed) {{
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < {a}) {{
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }}
        do {{
            steps--;
        }} while (steps > {b});
        return steps;
    }}
""",
    "task": """
    public Runnable {m}(final int times) {{
        return new Runnable() {{
            @Override
            public void run() {{
                for (int i = 0; i < times; i++) {{
                    count += {a};
                }}
            }}
        }};
    }}
""",
    "best": """
    public static <T extends Comparable<T>> T {m}(List<T> values) {{
        T best = null;
        for (T v : values) {{
            if (best == null || v.compareTo(best) > 0) {{
                best = v;
            }}
        }}
        return best;
    }}
""",
    "table": """
    public int[] {m}(int size) {{
        int[] data = new int[size];
        // fill with a mixed pattern
        for (int i = 0; i < data.length; i++) {{
            data[i] = (i << 1) ^ {a};
        }}
        return data;
    }}
""",
}

# Methods whose result is an int-like value computed from one int argument,
# so a "combine" method can call them and raise RFC and coupling.
_INT_CALLABLE = ("branch", "loop", "steps")

_COMBINE = """
    public long {m}() {{
        long acc = 0;
        acc += {call1}(count);
        acc += {call2}(count + {a});
        StringBuilder sb = new StringBuilder(label);
        sb.append(acc).append('{ch}');
        label = sb.toString();
        return acc;
    }}
"""


def java_class(
    seed: int,
    package: str,
    name: str,
    target_bytes: int,
    revision: int = 0,
    parent: str | None = None,
) -> str:
    """Text of one generated public class of about *target_bytes* bytes.

    The method sequence depends only on *seed*; *revision* changes a few
    literals and adds one method every fourth revision.
    """
    rng = random.Random(seed)
    head = _HEADER.format(
        package=package,
        name=name,
        rev=revision,
        extends=f" extends {parent}" if parent else "",
    )
    parts = [head]
    size = len(head)
    callables: list[str] = []
    extra = revision // 4
    k = 0
    while size < target_bytes or extra > 0:
        if size >= target_bytes:
            extra -= 1
        kind = rng.choice(sorted(_METHODS) + ["combine"])
        a, b = rng.randint(2, 97), rng.randint(2, 97)
        if k == revision % 7:
            a += revision
        method = f"{rng.choice(_WORDS)}{k}"
        if kind == "combine" and len(callables) >= 2:
            first, second = rng.sample(callables, 2)
            text = _COMBINE.format(m=method, call1=first, call2=second, a=a, ch=chr(97 + k % 26))
        else:
            if kind == "combine":
                kind = "branch"
            text = _METHODS[kind].format(m=method, a=a, b=b, c=b + 1, w=rng.choice(_WORDS))
            if kind in _INT_CALLABLE:
                callables.append(method)
        parts.append(text)
        size += len(text)
        k += 1
    parts.append("}\n")
    return "".join(parts)
