package com.snap.p1;

import java.util.ArrayList;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * Gen1 holds generated logic for the benchmark corpus.
 * Revision 1.
 */
public class Gen1 extends Base {
    private static final int REVISION = 1;
    private int count;
    private String label;
    private final List<String> items = new ArrayList<>();
    private final Map<String, Integer> index = new HashMap<>();

    public Gen1(String label) {
        this.label = label;
        this.count = REVISION;
    }

    public static <T extends Comparable<T>> T token0(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    String token1(int code) {
        switch (code % 95) {
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

    public Runnable batch2(final int times) {
        return new Runnable() {
            @Override
            public void run() {
                for (int i = 0; i < times; i++) {
                    count += 8;
                }
            }
        };
    }

    public int[] omega3(int size) {
        int[] data = new int[size];
        // fill with a mixed pattern
        for (int i = 0; i < data.length; i++) {
            data[i] = (i << 1) ^ 95;
        }
        return data;
    }

    public Runnable frame4(final int times) {
        return new Runnable() {
            @Override
            public void run() {
                for (int i = 0; i < times; i++) {
                    count += 14;
                }
            }
        };
    }

    /** Branches on the sign and size of a value. */
    public int gamma5(int value) {
        int result = value * 34;
        if (value > 57) {
            result -= 57;
            count++;
        } else if (value < -57) {
            result += label.length();
        } else {
            result = result % 58;
        }
        return result;
    }

    /** Branches on the sign and size of a value. */
    public int sigma6(int value) {
        int result = value * 41;
        if (value > 46) {
            result -= 46;
            count++;
        } else if (value < -46) {
            result += label.length();
        } else {
            result = result % 47;
        }
        return result;
    }
}
