// A Java 8 grammar sample: each shape the parser accepts that the fixtures
// and the generated classes do not hold, at least once. javac --release 8
// compiles it, and its parse is pinned by digest.
package sample.grammar;

import java.io.Closeable;
import java.io.IOException;
import java.io.Serializable;
import java.lang.annotation.ElementType;
import java.lang.annotation.Retention;
import java.lang.annotation.RetentionPolicy;
import java.lang.annotation.Target;
import java.util.*;
import java.util.function.*;

@Retention(RetentionPolicy.RUNTIME)
@interface Tag {
    String value() default "";
}

@Target({ElementType.TYPE_USE, ElementType.TYPE_PARAMETER})
@interface NonNull {
}

@interface Meta {
    String[] tags() default {"a", "b"};
    int[] sizes() default {};
    Tag tag() default @Tag("nested");
    Tag[] more() default {@Tag, @Tag(value = "x")};
    Class<?> type() default Object.class;
    long limit() default 1L << 10;
    int level() default 1 > 0 ? 5 : 6;
}
;

interface Named extends Greeter, Serializable {
}

interface Greeter {
    ;

    default String greet() {
        return "hi";
    }

    static Greeter plain() {
        return new Greeter() {
        };
    }
}

enum Op implements IntBinaryOperator {
    @Deprecated
    PLUS("+") {
        @Override
        int apply(int a, int b) {
            return a + b;
        }
    },
    MINUS("-"),
    TIMES("*") {
    },;

    private final String symbol;

    Op(String symbol) {
        this.symbol = symbol;
    }

    int apply(int a, int b) {
        return a - b;
    }

    public int applyAsInt(int a, int b) {
        return apply(a, b);
    }
}

@Meta(tags = {"x"}, tag = @Tag("y"))
public class Grammar8<T extends Comparable<T>> implements Greeter, Serializable {
    int legacy[], grid[][] = {{1, 2}, {3}};
    Map<String, List<Integer>> byName = new HashMap<>();
    Map<String, Map<String, List<Integer>>> deep;
    List<? extends Number> uppers;
    List<? super Integer> lowers;
    List<@NonNull String> annotated;
    String @NonNull [] marked;
    Map.Entry<String, Integer> entry;
    private int count;

    static {
        assert true;
    }

    {
        count = 1;
    }

    Grammar8() {
        this(0);
    }

    Grammar8(int count) {
        super();
        this.count = count;
    }

    <U extends Number & Comparable<U>> U largest(U a, U b) {
        return a.compareTo(b) >= 0 ? a : b;
    }

    int sum(int... values) {
        int total = 0;
        for (int v : values) {
            total += v;
        }
        return total;
    }

    int first(int values[]) {
        int copy[] = values;
        return copy[0];
    }

    int matrix()[] {
        return new int[] {1};
    }

    void receiver(Grammar8<T> this, String s) throws IOException, InterruptedException {
        if (s == null) {
            throw new IOException("no input");
        }
        assert s.length() > 0;
        assert s.length() < 100 : "too long";
        synchronized (this) {
            count++;
        }
    }

    Object[] literals() {
        return new Object[] {int.class, int[].class, void.class, String[].class, String.class, double[][].class};
    }

    void references() {
        IntFunction<int[]> ints = int[]::new;
        IntFunction<String[]> strings = String[]::new;
        IntFunction<double[][]> doubles = double[][]::new;
        Supplier<List<String>> lists = ArrayList<String>::new;
        Function<String, Integer> parse = Integer::<String>valueOf;
        BiFunction<Integer, Integer, Integer> add = (Integer a, Integer b) -> a + b;
        BinaryOperator<Integer> sub = (a, b) -> a - b;
        IntUnaryOperator neg = (final int x) -> -x;
        Function<String[], Integer> len = (String parts[]) -> parts.length;
        Runnable run = (Runnable & Serializable) () -> { };
        List<String> empty = Collections.<String>emptyList();
        Object id = this.<String>identity("x");
        run.run();
    }

    <V> V identity(V v) {
        return v;
    }

    int casts(int x, long y) {
        int a = (int) +y;
        int b = (int) -y;
        int c = (int) ~y;
        char d = (char) x;
        int e = (x & 1) + 2;
        boolean f = x < y >> 1 && x > 0 || y < 0;
        @NonNull String g = "g";
        return a + b + c + d + e + (f ? 1 : 0) + g.length();
    }

    @Override
    public String greet() {
        return Greeter.super.greet() + super.toString();
    }

    class Inner {
        final int base;

        Inner(Grammar8<T> Grammar8.this) {
            base = Grammar8.this.count;
        }

        String outer() {
            return Grammar8.super.toString();
        }
    }

    static class G {
        <X> G(X x) {
        }
    }

    Object creators(Grammar8<T> other) {
        Inner inner = other.new Inner();
        G g = new <String>G("x");
        int[][] jagged = new int[3][];
        int[][] filled = new int[][] {{1}, {2, 3}};
        return inner.outer() + g + jagged.length + filled.length;
    }

    int loops(int n) {
        int total = 0;
        outer:
        for (int i = 0, j = n; i < j; i++, j--) {
            for (int k = 0; ; k++) {
                if (k > i) {
                    continue outer;
                }
                if (k == j) {
                    break outer;
                }
                total += k;
            }
        }
        int w = n;
        while (w > 0) {
            w >>>= 1;
        }
        do {
            w++;
        } while (w < 3);
        int i;
        int j;
        for (i = 0, j = 1; i < j; i++) {
            total++;
        }
        for (;;) {
            break;
        }
        for (String s : Arrays.asList("a", "b")) {
            total += s.length();
        }
        return total;
    }

    int chars(char c) {
        int score = 0;
        switch (c) {
            case 'a':
                score++;
            case 'b':
                score += 2;
                break;
            default:
                score = -1;
        }
        return score;
    }

    void resources() throws IOException {
        try (Closeable one = () -> { }; final Closeable two = () -> { };) {
            count++;
        } catch (IllegalStateException | IllegalArgumentException e) {
            count--;
        } finally {
            count = 0;
        }
    }

    void locals() {
        final class Local {
            int v;
        }
        abstract class Base {
            abstract int value();
        }
        strictfp class Exact extends Base {
            int value() {
                return new Local().v;
            }
        }
        count = new Exact().value();
    }
}
