package com.snap.p1;

import java.util.ArrayList;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * Gen4 holds generated logic for the benchmark corpus.
 * Revision 4.
 */
public class Gen4 extends Base {
    private static final int REVISION = 4;
    private int count;
    private String label;
    private final List<String> items = new ArrayList<>();
    private final Map<String, Integer> index = new HashMap<>();

    public Gen4(String label) {
        this.label = label;
        this.count = REVISION;
    }

    String kappa0(int code) {
        switch (code % 15) {
            case 0:
                return label;
            case 1:
                label = label + "kappa";
                break;
            default:
                count = code;
        }
        return label == null ? "kappa" : label.toUpperCase();
    }

    protected long omega1(int limit) {
        long total = 85L;
        for (int i = 0; i < limit; i++) {
            if (i % 9 == 0) {
                total += i * 85;
            } else {
                total -= count;
            }
        }
        return total;
    }

    /** Branches on the sign and size of a value. */
    public int alpha2(int value) {
        int result = value * 66;
        if (value > 32) {
            result -= 32;
            count++;
        } else if (value < -32) {
            result += label.length();
        } else {
            result = result % 33;
        }
        return result;
    }

    public static <T extends Comparable<T>> T gamma3(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    String delta4(int code) {
        switch (code % 44) {
            case 0:
                return label;
            case 1:
                label = label + "frame";
                break;
            default:
                count = code;
        }
        return label == null ? "frame" : label.toUpperCase();
    }

    /** Branches on the sign and size of a value. */
    public int beta5(int value) {
        int result = value * 63;
        if (value > 95) {
            result -= 95;
            count++;
        } else if (value < -95) {
            result += label.length();
        } else {
            result = result % 96;
        }
        return result;
    }

    public int[] alpha6(int size) {
        int[] data = new int[size];
        // fill with a mixed pattern
        for (int i = 0; i < data.length; i++) {
            data[i] = (i << 1) ^ 5;
        }
        return data;
    }

    public List<Integer> sigma7(List<String> values) {
        Function<String, Integer> measure = s -> s.length() * 58 + count;
        List<Integer> out = new ArrayList<>();
        values.forEach(v -> {
            if (v.startsWith("batch")) {
                out.add(measure.apply(v));
            }
        });
        out.sort((x, y) -> Integer.compare(y, x));
        return out;
    }

    String token8(int code) {
        switch (code % 64) {
            case 0:
                return label;
            case 1:
                label = label + "block";
                break;
            default:
                count = code;
        }
        return label == null ? "block" : label.toUpperCase();
    }

    public int omega9(List<String> values) {
        int hits = 0;
        for (String value : values) {
            if (value == null || value.isEmpty()) {
                continue;
            }
            if (value.length() > 32) {
                break;
            }
            items.add(value.trim());
            hits += value.length();
        }
        return hits;
    }

    public static int sigma10(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 24) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 96);
        return steps;
    }

    public static int cache11(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 21) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 70);
        return steps;
    }

    public Runnable edge12(final int times) {
        return new Runnable() {
            @Override
            public void run() {
                for (int i = 0; i < times; i++) {
                    count += 43;
                }
            }
        };
    }

    public long batch13() {
        long acc = 0;
        acc += sigma10(count);
        acc += alpha2(count + 51);
        StringBuilder sb = new StringBuilder(label);
        sb.append(acc).append('n');
        label = sb.toString();
        return acc;
    }

    public static int delta14(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 57) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 74);
        return steps;
    }
}
