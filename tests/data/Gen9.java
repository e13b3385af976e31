package com.snap.p0;

import java.util.ArrayList;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * Gen9 holds generated logic for the benchmark corpus.
 * Revision 4.
 */
public class Gen9 {
    private static final int REVISION = 4;
    private int count;
    private String label;
    private final List<String> items = new ArrayList<>();
    private final Map<String, Integer> index = new HashMap<>();

    public Gen9(String label) {
        this.label = label;
        this.count = REVISION;
    }

    public int gamma0(List<String> values) {
        int hits = 0;
        for (String value : values) {
            if (value == null || value.isEmpty()) {
                continue;
            }
            if (value.length() > 3) {
                break;
            }
            items.add(value.trim());
            hits += value.length();
        }
        return hits;
    }

    public int kappa1(List<String> values) {
        int hits = 0;
        for (String value : values) {
            if (value == null || value.isEmpty()) {
                continue;
            }
            if (value.length() > 66) {
                break;
            }
            items.add(value.trim());
            hits += value.length();
        }
        return hits;
    }

    /** Branches on the sign and size of a value. */
    public int kappa2(int value) {
        int result = value * 6;
        if (value > 28) {
            result -= 28;
            count++;
        } else if (value < -28) {
            result += label.length();
        } else {
            result = result % 29;
        }
        return result;
    }

    /** Branches on the sign and size of a value. */
    public int delta3(int value) {
        int result = value * 65;
        if (value > 22) {
            result -= 22;
            count++;
        } else if (value < -22) {
            result += label.length();
        } else {
            result = result % 23;
        }
        return result;
    }

    public static int omega4(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 7) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 67);
        return steps;
    }

    public long block5() {
        long acc = 0;
        acc += kappa2(count);
        acc += delta3(count + 19);
        StringBuilder sb = new StringBuilder(label);
        sb.append(acc).append('f');
        label = sb.toString();
        return acc;
    }

    public static <T extends Comparable<T>> T block6(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    public List<Integer> frame7(List<String> values) {
        Function<String, Integer> measure = s -> s.length() * 36 + count;
        List<Integer> out = new ArrayList<>();
        values.forEach(v -> {
            if (v.startsWith("cache")) {
                out.add(measure.apply(v));
            }
        });
        out.sort((x, y) -> Integer.compare(y, x));
        return out;
    }

    protected long block8(int limit) {
        long total = 45L;
        for (int i = 0; i < limit; i++) {
            if (i % 6 == 0) {
                total += i * 45;
            } else {
                total -= count;
            }
        }
        return total;
    }

    protected long omega9(int limit) {
        long total = 26L;
        for (int i = 0; i < limit; i++) {
            if (i % 89 == 0) {
                total += i * 26;
            } else {
                total -= count;
            }
        }
        return total;
    }

    public int[] queue10(int size) {
        int[] data = new int[size];
        // fill with a mixed pattern
        for (int i = 0; i < data.length; i++) {
            data[i] = (i << 1) ^ 45;
        }
        return data;
    }

    public static <T extends Comparable<T>> T frame11(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    private int node12(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 26;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 71;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    public int[] node13(int size) {
        int[] data = new int[size];
        // fill with a mixed pattern
        for (int i = 0; i < data.length; i++) {
            data[i] = (i << 1) ^ 69;
        }
        return data;
    }

    String frame14(int code) {
        switch (code % 71) {
            case 0:
                return label;
            case 1:
                label = label + "edge";
                break;
            default:
                count = code;
        }
        return label == null ? "edge" : label.toUpperCase();
    }

    protected long omega15(int limit) {
        long total = 61L;
        for (int i = 0; i < limit; i++) {
            if (i % 19 == 0) {
                total += i * 61;
            } else {
                total -= count;
            }
        }
        return total;
    }

    String token16(int code) {
        switch (code % 43) {
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

    private int node17(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 35;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 42;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    public int batch18(List<String> values) {
        int hits = 0;
        for (String value : values) {
            if (value == null || value.isEmpty()) {
                continue;
            }
            if (value.length() > 70) {
                break;
            }
            items.add(value.trim());
            hits += value.length();
        }
        return hits;
    }

    public static <T extends Comparable<T>> T block19(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    public int[] edge20(int size) {
        int[] data = new int[size];
        // fill with a mixed pattern
        for (int i = 0; i < data.length; i++) {
            data[i] = (i << 1) ^ 58;
        }
        return data;
    }

    protected long beta21(int limit) {
        long total = 90L;
        for (int i = 0; i < limit; i++) {
            if (i % 74 == 0) {
                total += i * 90;
            } else {
                total -= count;
            }
        }
        return total;
    }

    private int beta22(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 90;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 83;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    String beta23(int code) {
        switch (code % 71) {
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

    private int omega24(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 79;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 3;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    public Runnable lambda25(final int times) {
        return new Runnable() {
            @Override
            public void run() {
                for (int i = 0; i < times; i++) {
                    count += 13;
                }
            }
        };
    }

    public int[] token26(int size) {
        int[] data = new int[size];
        // fill with a mixed pattern
        for (int i = 0; i < data.length; i++) {
            data[i] = (i << 1) ^ 13;
        }
        return data;
    }
}
