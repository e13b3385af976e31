package com.snap.p0;

import java.util.ArrayList;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * Gen0 holds generated logic for the benchmark corpus.
 * Revision 0.
 */
public class Gen0 {
    private static final int REVISION = 0;
    private int count;
    private String label;
    private final List<String> items = new ArrayList<>();
    private final Map<String, Integer> index = new HashMap<>();

    public Gen0(String label) {
        this.label = label;
        this.count = REVISION;
    }

    String token0(int code) {
        switch (code % 87) {
            case 0:
                return label;
            case 1:
                label = label + "cache";
                break;
            default:
                count = code;
        }
        return label == null ? "cache" : label.toUpperCase();
    }

    /** Branches on the sign and size of a value. */
    public int frame1(int value) {
        int result = value * 61;
        if (value > 23) {
            result -= 23;
            count++;
        } else if (value < -23) {
            result += label.length();
        } else {
            result = result % 24;
        }
        return result;
    }

    private int cache2(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 87;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 32;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }
}
