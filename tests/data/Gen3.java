package com.snap.p0;

import java.util.ArrayList;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * Gen3 holds generated logic for the benchmark corpus.
 * Revision 3.
 */
public class Gen3 {
    private static final int REVISION = 3;
    private int count;
    private String label;
    private final List<String> items = new ArrayList<>();
    private final Map<String, Integer> index = new HashMap<>();

    public Gen3(String label) {
        this.label = label;
        this.count = REVISION;
    }

    public static int lambda0(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 73) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 48);
        return steps;
    }

    public static int token1(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 71) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 60);
        return steps;
    }

    protected long block2(int limit) {
        long total = 10L;
        for (int i = 0; i < limit; i++) {
            if (i % 62 == 0) {
                total += i * 10;
            } else {
                total -= count;
            }
        }
        return total;
    }

    public List<Integer> beta3(List<String> values) {
        Function<String, Integer> measure = s -> s.length() * 48 + count;
        List<Integer> out = new ArrayList<>();
        values.forEach(v -> {
            if (v.startsWith("lambda")) {
                out.add(measure.apply(v));
            }
        });
        out.sort((x, y) -> Integer.compare(y, x));
        return out;
    }

    public long beta4() {
        long acc = 0;
        acc += token1(count);
        acc += lambda0(count + 70);
        StringBuilder sb = new StringBuilder(label);
        sb.append(acc).append('e');
        label = sb.toString();
        return acc;
    }

    public long alpha5() {
        long acc = 0;
        acc += lambda0(count);
        acc += token1(count + 73);
        StringBuilder sb = new StringBuilder(label);
        sb.append(acc).append('f');
        label = sb.toString();
        return acc;
    }

    protected long lambda6(int limit) {
        long total = 6L;
        for (int i = 0; i < limit; i++) {
            if (i % 71 == 0) {
                total += i * 6;
            } else {
                total -= count;
            }
        }
        return total;
    }

    public static <T extends Comparable<T>> T omega7(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    String kappa8(int code) {
        switch (code % 56) {
            case 0:
                return label;
            case 1:
                label = label + "node";
                break;
            default:
                count = code;
        }
        return label == null ? "node" : label.toUpperCase();
    }

    public static int omega9(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 27) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 88);
        return steps;
    }

    public Runnable node10(final int times) {
        return new Runnable() {
            @Override
            public void run() {
                for (int i = 0; i < times; i++) {
                    count += 97;
                }
            }
        };
    }

    public static <T extends Comparable<T>> T queue11(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }
}
