package com.snap.p2;

import java.util.ArrayList;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * Gen2 holds generated logic for the benchmark corpus.
 * Revision 2.
 */
public class Gen2 {
    private static final int REVISION = 2;
    private int count;
    private String label;
    private final List<String> items = new ArrayList<>();
    private final Map<String, Integer> index = new HashMap<>();

    public Gen2(String label) {
        this.label = label;
        this.count = REVISION;
    }

    public int[] lambda0(int size) {
        int[] data = new int[size];
        // fill with a mixed pattern
        for (int i = 0; i < data.length; i++) {
            data[i] = (i << 1) ^ 78;
        }
        return data;
    }

    public int omega1(List<String> values) {
        int hits = 0;
        for (String value : values) {
            if (value == null || value.isEmpty()) {
                continue;
            }
            if (value.length() > 37) {
                break;
            }
            items.add(value.trim());
            hits += value.length();
        }
        return hits;
    }

    String lambda2(int code) {
        switch (code % 69) {
            case 0:
                return label;
            case 1:
                label = label + "lambda";
                break;
            default:
                count = code;
        }
        return label == null ? "lambda" : label.toUpperCase();
    }

    public static <T extends Comparable<T>> T omega3(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    public List<Integer> node4(List<String> values) {
        Function<String, Integer> measure = s -> s.length() * 61 + count;
        List<Integer> out = new ArrayList<>();
        values.forEach(v -> {
            if (v.startsWith("gamma")) {
                out.add(measure.apply(v));
            }
        });
        out.sort((x, y) -> Integer.compare(y, x));
        return out;
    }

    public int[] block5(int size) {
        int[] data = new int[size];
        // fill with a mixed pattern
        for (int i = 0; i < data.length; i++) {
            data[i] = (i << 1) ^ 76;
        }
        return data;
    }

    /** Branches on the sign and size of a value. */
    public int gamma6(int value) {
        int result = value * 14;
        if (value > 56) {
            result -= 56;
            count++;
        } else if (value < -56) {
            result += label.length();
        } else {
            result = result % 57;
        }
        return result;
    }

    String omega7(int code) {
        switch (code % 42) {
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
    public int sigma8(int value) {
        int result = value * 65;
        if (value > 12) {
            result -= 12;
            count++;
        } else if (value < -12) {
            result += label.length();
        } else {
            result = result % 13;
        }
        return result;
    }
}
